//! The pooled-workspace guarantee (ISSUE 6 tentpole): after warmup, the
//! slot executor's hot path performs **zero** tensor-backing allocations
//! and zero clones per run — every intermediate lives in a buffer leased
//! from the plan's workspace pool and recycled when its value dies.
//!
//! The global [`bolt_tensor::alloc_count`] counter observes every fresh
//! backing-buffer creation (`zeros`/`full`/`randn`/layout conversion/
//! padding/`Clone`); [`bolt_tensor::clone_count`] observes clones.
//! Buffers the pool hands back are invisible to both — which is exactly
//! the claim: steady-state runs reuse memory instead of creating it.
//!
//! This file deliberately holds a single `#[test]`: the counters are
//! process-global, and a sibling test allocating tensors concurrently
//! would pollute the deltas.

use bolt::{BoltCompiler, BoltConfig, CompiledModel, StepKind};
use bolt_gpu_sim::GpuArch;
use bolt_models::cnn::serving_cnn;
use bolt_models::llm::post_graph;
use bolt_models::mlp::serving_mlp;
use bolt_models::DecoderSpec;
use bolt_tensor::{alloc_count, clone_count, DType, Layout, Tensor};

fn compile(widths: &[usize]) -> CompiledModel {
    // Epilogue-only lowering: one GEMM step per dense layer, so the
    // per-step lease/recycle cycle is exercised as many times as the
    // model is deep.
    BoltCompiler::new(GpuArch::tesla_t4(), BoltConfig::epilogue_only())
        .compile(&serving_mlp(1, widths))
        .expect("mlp compiles")
}

fn deltas_during(f: impl FnOnce()) -> (u64, u64) {
    let (allocs, clones) = (alloc_count(), clone_count());
    f();
    (alloc_count() - allocs, clone_count() - clones)
}

#[test]
fn steady_state_runs_allocate_nothing() {
    let shallow = compile(&[128, 64, 64, 10]);
    let deep = compile(&[128, 64, 64, 64, 64, 64, 64, 10]);
    assert_eq!(shallow.steps().len(), 3);
    assert_eq!(deep.steps().len(), 7);

    let input = vec![Tensor::randn(&[1, 128], DType::F16, 11)];

    // Two warmup runs fill each plan's workspace pool: the first run
    // allocates the lease buffers, the second settles the LIFO spare
    // stack into its steady-state order.
    for _ in 0..2 {
        shallow.run(&input).expect("warm");
        deep.run(&input).expect("warm");
    }
    shallow.plan().run_reference(&input).expect("warm");
    deep.plan().run_reference(&input).expect("warm");

    let (alloc_shallow, clone_shallow) = deltas_during(|| {
        shallow.run(&input).expect("shallow run");
    });
    let (alloc_deep, clone_deep) = deltas_during(|| {
        deep.run(&input).expect("deep run");
    });
    let (alloc_ref, _) = deltas_during(|| {
        deep.plan().run_reference(&input).expect("deep ref");
    });

    // The tentpole claim: a warmed-up run creates no tensor backing
    // buffers and clones nothing, at any depth. Inputs are packed into
    // leased buffers, intermediates lease pooled buffers, and dying
    // values are recycled rather than dropped.
    assert_eq!(
        (alloc_shallow, clone_shallow),
        (0, 0),
        "warmed-up shallow run must not allocate or clone"
    );
    assert_eq!(
        (alloc_deep, clone_deep),
        (0, 0),
        "warmed-up deep run must not allocate or clone"
    );

    // The reference interpreter allocates per step (repack + fetch
    // clones + fresh outputs) on every run, warm or not.
    assert!(
        alloc_ref as usize > deep.steps().len(),
        "reference interpreter allocates per step ({alloc_ref} allocations \
         for {} steps)",
        deep.steps().len()
    );

    // A decoder block's post-attention plan: GEMM steps with fused
    // epilogues plus two host residual adds, which write into leased
    // buffers like every kernel step.
    let spec = DecoderSpec::tiny();
    let post = BoltCompiler::new(GpuArch::tesla_t4(), BoltConfig::default())
        .compile(&post_graph(&spec, 7, 0, 8))
        .expect("tiny-lm post plan compiles");
    let host_steps = post
        .steps()
        .iter()
        .filter(|s| matches!(s.kind, StepKind::Host))
        .count();
    assert_eq!(host_steps, 2, "both residual adds run as host steps");
    let post_inputs = vec![
        Tensor::randn(&[8, spec.hidden], DType::F16, 30),
        Tensor::randn(&[8, spec.hidden], DType::F16, 31),
    ];
    for _ in 0..2 {
        post.run(&post_inputs).expect("warm post");
    }
    let (alloc_post, clone_post) = deltas_during(|| {
        post.run(&post_inputs).expect("post run");
    });
    assert_eq!(
        (alloc_post, clone_post),
        (0, 0),
        "warmed-up tiny-lm post plan must not allocate or clone"
    );

    // `run` packs its inputs into the internal layout inside leased
    // buffers, so a warm CNN run allocates exactly as much with an NCHW
    // input as with the same input already in NHWC: no layout-converted
    // copy of the input is ever made.
    let cnn = BoltCompiler::new(GpuArch::tesla_t4(), BoltConfig::default())
        .compile(&serving_cnn(1))
        .expect("cnn-small compiles");
    let nchw = vec![Tensor::randn(&[1, 3, 8, 8], DType::F16, 12)];
    let nhwc = vec![nchw[0].to_activation_layout(Layout::Nhwc).expect("rank 4")];
    for _ in 0..2 {
        cnn.run(&nchw).expect("warm cnn");
        cnn.run(&nhwc).expect("warm cnn");
    }
    let (alloc_nchw, clone_nchw) = deltas_during(|| {
        cnn.run(&nchw).expect("nchw run");
    });
    let (alloc_nhwc, clone_nhwc) = deltas_during(|| {
        cnn.run(&nhwc).expect("nhwc run");
    });
    assert_eq!(
        (alloc_nchw, clone_nchw),
        (alloc_nhwc, clone_nhwc),
        "an NCHW input must not cost a converted copy"
    );

    // The batched path shares the same pool: after a warmup call, a
    // same-shape batch run also settles to zero allocations and clones.
    let samples: Vec<Vec<Tensor>> = (0..2)
        .map(|s| vec![Tensor::randn(&[1, 128], DType::F16, 20 + s)])
        .collect();
    let batched = BoltCompiler::new(GpuArch::tesla_t4(), BoltConfig::epilogue_only())
        .compile(&serving_mlp(4, &[128, 64, 64, 10]))
        .expect("batched mlp compiles");
    for _ in 0..2 {
        batched.run_batched(&samples).expect("warm batch");
    }
    let (alloc_batch, clone_batch) = deltas_during(|| {
        batched.run_batched(&samples).expect("steady batch");
    });
    // Per-sample output slices are fresh tensors handed to the caller
    // (one `slice_batch` copy per sample per output); everything else —
    // batch packing, every step, padding rows — is pooled.
    assert_eq!(clone_batch, 0, "batched path must not clone");
    assert!(
        alloc_batch <= (samples.len() * batched.plan().graph().outputs().len()) as u64,
        "batched path may only allocate escaping per-sample outputs, \
         got {alloc_batch}"
    );
}
