//! Golden-plan snapshots over the zoo: the compiled step sequence,
//! prepacked-constant layouts, and buffer-slot plan for `mlp-small` and
//! `cnn-small` under the fused (default) and unfused (`epilogue_only`)
//! configurations, plus executor-equivalence checks — `run` vs.
//! `run_batched(1)` and `run` vs. the retained reference interpreter.
//!
//! The snapshots are intentionally literal: a lowering change that alters
//! fusion decisions, packed layouts, or slot counts must show up here as
//! a reviewed diff, not as a silent behavioural drift.

use bolt::{BoltCompiler, BoltConfig, CompiledModel, StepKind, StepTimings};
use bolt_gpu_sim::GpuArch;
use bolt_graph::Graph;
use bolt_models::llm::{lm_head_graph, post_graph, qkv_graph};
use bolt_models::{try_model_by_name, DecoderSpec, SERVING_MODELS};
use bolt_tensor::{DType, Layout, MatrixLayout, Tensor};

fn compile(model: &str, batch: usize, config: BoltConfig) -> CompiledModel {
    let graph = try_model_by_name(model, batch).expect(model).graph;
    BoltCompiler::new(GpuArch::tesla_t4(), config)
        .compile(&graph)
        .expect(model)
}

fn kind_name(kind: &StepKind) -> &'static str {
    match kind {
        StepKind::Gemm { .. } => "Gemm",
        StepKind::Conv2d { .. } => "Conv2d",
        StepKind::B2bGemm { .. } => "B2bGemm",
        StepKind::GemmChain { .. } => "GemmChain",
        StepKind::B2bConv { .. } => "B2bConv",
        StepKind::LayoutTransform { .. } => "LayoutTransform",
        StepKind::PadChannels { .. } => "PadChannels",
        StepKind::Host => "Host",
    }
}

fn step_kinds(model: &CompiledModel) -> Vec<&'static str> {
    model
        .plan()
        .steps()
        .iter()
        .map(|s| kind_name(&s.kind))
        .collect()
}

/// Prepacked weight shapes per step, in step order.
fn packed_weight_shapes(model: &CompiledModel) -> Vec<Vec<Vec<usize>>> {
    let plan = model.plan();
    (0..plan.steps().len())
        .map(|i| {
            plan.packed_consts(i)
                .weights
                .iter()
                .map(|w| w.shape().dims().to_vec())
                .collect()
        })
        .collect()
}

/// Prepacked implicit-GEMM filter-matrix shapes per step, in step order.
fn packed_filter_mat_shapes(model: &CompiledModel) -> Vec<Vec<Vec<usize>>> {
    let plan = model.plan();
    (0..plan.steps().len())
        .map(|i| {
            plan.packed_consts(i)
                .filter_mats
                .iter()
                .map(|w| w.shape().dims().to_vec())
                .collect()
        })
        .collect()
}

fn sample_inputs(model: &str, seed: u64) -> Vec<Tensor> {
    let dims: Vec<usize> = match model {
        "mlp-small" => vec![1, 128],
        "mlp-large" => vec![1, 256],
        "cnn-small" => vec![1, 3, 8, 8],
        other => panic!("unexpected serving model {other}"),
    };
    vec![Tensor::randn(&dims, DType::F16, seed)]
}

/// Fused mlp-small: the persistent-kernel pass folds the last two dense
/// layers into one B2B GEMM; liveness folds every intermediate into one
/// reusable slot.
#[test]
fn golden_plan_mlp_small_fused() {
    let model = compile("mlp-small", 1, BoltConfig::default());
    assert_eq!(step_kinds(&model), vec!["Gemm", "B2bGemm"]);
    assert_eq!(
        packed_weight_shapes(&model),
        vec![
            // Dense weights are prepacked (units, in) → (in, units).
            vec![vec![128, 256]],
            vec![vec![256, 64], vec![64, 10]],
        ]
    );
    let plan = model.plan();
    assert_eq!(plan.buffer_slots(), 1, "linear chain reuses one slot");
    assert_eq!(plan.workspace_bytes(), 512, "widest intermediate: 256×f16");
    // 128×256 + 256 + 256×64 + 64 + 64×10 + 10 halfs.
    assert_eq!(plan.packed_const_bytes(), 100_244);
    assert!(plan.workspace_bytes() < plan.total_value_bytes());
}

/// Unfused mlp-small: epilogue-only keeps one GEMM per dense layer, but
/// prepacking and the slot plan are unchanged in spirit — still one slot.
#[test]
fn golden_plan_mlp_small_unfused() {
    let model = compile("mlp-small", 1, BoltConfig::epilogue_only());
    assert_eq!(step_kinds(&model), vec!["Gemm", "Gemm", "Gemm"]);
    assert_eq!(
        packed_weight_shapes(&model),
        vec![
            vec![vec![128, 256]],
            vec![vec![256, 64]],
            vec![vec![64, 10]]
        ]
    );
    let plan = model.plan();
    assert_eq!(plan.buffer_slots(), 1);
    assert_eq!(plan.workspace_bytes(), 512);
    assert_eq!(plan.packed_const_bytes(), 100_244);
}

/// Fused cnn-small: the 6→8 interior channel pad is folded into the
/// consuming conv's implicit-GEMM main loop (which reads missing
/// channels as zero), so the standalone `PadChannels` launch disappears
/// from the plan entirely — one fewer kernel than the unfused plan.
#[test]
fn golden_plan_cnn_small_fused() {
    let model = compile("cnn-small", 1, BoltConfig::default());
    assert_eq!(
        step_kinds(&model),
        vec!["LayoutTransform", "Conv2d", "Conv2d", "Host", "Gemm"]
    );
    // Filters are prepacked KCRS → KRSC with the channel pad folded
    // in: conv1 is (6,3,3,3) padded to C=8, conv2 (8,6,3,3) likewise.
    assert_eq!(
        packed_weight_shapes(&model),
        vec![
            vec![],
            vec![vec![6, 3, 3, 8]],
            vec![vec![8, 3, 3, 8]],
            vec![],
            vec![vec![8, 10]],
        ]
    );
    // Conv filters are additionally prepacked as implicit-GEMM B
    // operands (R*S*C, K) so runs skip the per-call matrix repack.
    assert_eq!(
        packed_filter_mat_shapes(&model),
        vec![vec![], vec![vec![72, 6]], vec![vec![72, 8]], vec![], vec![],]
    );
    let plan = model.plan();
    assert_eq!(plan.kernel_count(), 3, "two convs + classifier GEMM");
    assert_eq!(plan.buffer_slots(), 1, "layout step is in-place");
    assert_eq!(plan.workspace_bytes(), 1024, "padded 8×8×8 NHWC × f16");
    assert!(plan.workspace_bytes() < plan.total_value_bytes());
}

/// Unfused cnn-small keeps the standalone pad kernel: an NCHW→NHWC
/// boundary transform, a conv whose 3→8 channel pad is folded into that
/// boundary, a `PadChannels` kernel for the 6→8 interior boundary, a
/// host global-average-pool fallback, and the classifier GEMM.
#[test]
fn golden_plan_cnn_small_unfused() {
    let model = compile("cnn-small", 1, BoltConfig::epilogue_only());
    assert_eq!(
        step_kinds(&model),
        vec![
            "LayoutTransform",
            "Conv2d",
            "PadChannels",
            "Conv2d",
            "Host",
            "Gemm",
        ]
    );
    assert_eq!(
        packed_weight_shapes(&model),
        vec![
            vec![],
            vec![vec![6, 3, 3, 8]],
            vec![],
            vec![vec![8, 3, 3, 8]],
            vec![],
            vec![vec![8, 10]],
        ]
    );
    let plan = model.plan();
    assert_eq!(plan.kernel_count(), 4, "the pad launch survives unfused");
    assert_eq!(plan.buffer_slots(), 1, "pad/layout steps are in-place");
    assert_eq!(plan.workspace_bytes(), 1024, "padded 8×8×8 NHWC × f16");
    assert!(plan.workspace_bytes() < plan.total_value_bytes());
}

/// Fused mlp-large: the persistent-kernel pass declines to fuse — the
/// 512-wide hidden layer fails the threadblock-residence/profitability
/// check — so the fused plan is identical to the unfused one. This
/// snapshot pins that decision; `mlp-small` (below) is where the
/// `kernel_count` drop shows up (3 launches → 2).
#[test]
fn golden_plan_mlp_large_fused() {
    let model = compile("mlp-large", 1, BoltConfig::default());
    assert_eq!(step_kinds(&model), vec!["Gemm", "Gemm", "Gemm", "Gemm"]);
    assert_eq!(
        packed_weight_shapes(&model),
        vec![
            vec![vec![256, 512]],
            vec![vec![512, 512]],
            vec![vec![512, 128]],
            vec![vec![128, 10]],
        ]
    );
    let plan = model.plan();
    assert_eq!(plan.kernel_count(), 4, "residence check rejects the chain");
    assert_eq!(plan.buffer_slots(), 1, "linear chain reuses one slot");
    let small_fused = compile("mlp-small", 1, BoltConfig::default());
    let small_unfused = compile("mlp-small", 1, BoltConfig::epilogue_only());
    assert_eq!(small_fused.plan().kernel_count(), 2, "B2B pair fused");
    assert_eq!(small_unfused.plan().kernel_count(), 3, "one per layer");
}

/// The ISSUE's memory-planner acceptance criterion on a deep model: the
/// planned workspace is strictly smaller than the sum of all
/// intermediates the old interpreter kept alive simultaneously.
#[test]
fn deep_model_workspace_beats_sum_of_intermediates() {
    let model = compile("mlp-large", 1, BoltConfig::epilogue_only());
    let plan = model.plan();
    assert_eq!(plan.steps().len(), 4, "one GEMM per dense layer");
    assert!(
        plan.workspace_bytes() < plan.total_value_bytes(),
        "workspace {} must beat sum-of-intermediates {}",
        plan.workspace_bytes(),
        plan.total_value_bytes()
    );
    // Five values (input + four activations) share one slot.
    assert_eq!(plan.buffer_slots(), 1);
}

/// The same values in the input's other layout: NHWC for an NCHW
/// activation, column-major for a row-major matrix.
fn other_layout(t: &Tensor) -> Tensor {
    if t.shape().rank() == 4 {
        t.to_activation_layout(Layout::Nhwc).expect("rank 4")
    } else {
        t.clone()
            .with_matrix_layout(MatrixLayout::ColMajor)
            .expect("rank 2")
    }
}

/// Functional equivalence across every executor the plan exposes: the
/// slot-based `run` (in either input layout, observed or not), the
/// batched path at batch 1, and the retained pre-refactor reference
/// interpreter must agree bit for bit.
#[test]
fn run_paths_agree_bit_for_bit() {
    for name in SERVING_MODELS {
        for config in [BoltConfig::default(), BoltConfig::epilogue_only()] {
            let model = compile(name, 1, config);
            let inputs = sample_inputs(name, 7);
            let slots = model.run(&inputs).expect(name);
            let reference = model.plan().run_reference(&inputs).expect(name);
            assert_eq!(slots, reference, "{name}: run vs run_reference");
            let other: Vec<Tensor> = inputs.iter().map(other_layout).collect();
            let repacked = model.run(&other).expect(name);
            assert_eq!(repacked, reference, "{name}: run, other input layout");
            let mut timings = StepTimings::default();
            let observed = model.plan().run_observed(&other, &mut timings).expect(name);
            assert_eq!(observed, reference, "{name}: run_observed");
            assert_eq!(timings.steps.len(), model.steps().len(), "{name}");
            let batched = model
                .run_batched(std::slice::from_ref(&inputs))
                .expect(name);
            assert_eq!(batched.len(), 1);
            assert_eq!(slots, batched[0], "{name}: run vs run_batched(1)");
            let batched_ref = model
                .plan()
                .run_batched_reference(std::slice::from_ref(&inputs))
                .expect(name);
            assert_eq!(
                batched, batched_ref,
                "{name}: run_batched vs run_batched_reference"
            );
        }
    }
    // At batch 1 a column-major matrix is stored like a row-major one;
    // at batch 3 `run` must really transpose it.
    for (name, width) in [("mlp-small", 128), ("mlp-large", 256)] {
        let model = compile(name, 3, BoltConfig::default());
        let inputs = vec![Tensor::randn(&[3, width], DType::F16, 8)];
        let reference = model.plan().run_reference(&inputs).expect(name);
        let other: Vec<Tensor> = inputs.iter().map(other_layout).collect();
        assert_eq!(
            model.run(&other).expect(name),
            reference,
            "{name}: column-major batch of 3"
        );
    }
    partial_batches_agree_bit_for_bit();
}

/// A bucket-8 engine computes only the rows its samples fill: at every
/// live count from 1 to 8, `run_batched` must still equal the reference
/// interpreter, which computes the whole zero-padded bucket. Rank-2
/// plans are also driven through the row entry, `run_rows_into`.
fn partial_batches_agree_bit_for_bit() {
    const BUCKET: usize = 8;
    let spec = DecoderSpec::tiny();
    let mut graphs: Vec<(String, Graph)> = SERVING_MODELS
        .iter()
        .map(|name| {
            let graph = try_model_by_name(name, BUCKET).expect(name).graph;
            (name.to_string(), graph)
        })
        .collect();
    for layer in 0..spec.layers {
        graphs.push((format!("qkv{layer}"), qkv_graph(&spec, 9, layer, BUCKET)));
        graphs.push((format!("post{layer}"), post_graph(&spec, 9, layer, BUCKET)));
    }
    graphs.push(("lm_head".into(), lm_head_graph(&spec, 9, BUCKET)));

    for config in [BoltConfig::default(), BoltConfig::epilogue_only()] {
        for (name, graph) in &graphs {
            let model = BoltCompiler::new(GpuArch::tesla_t4(), config.clone())
                .compile(graph)
                .expect(name);
            let plan = model.plan();
            // f32 samples, and the f16 samples they round to: the row
            // entry takes raw f32 rows and must round them to the inputs'
            // declared f16, as packing an f16 request would.
            let sample = |s: usize, dtype: DType| -> Vec<Tensor> {
                let graph = plan.graph();
                graph
                    .input_ids()
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| {
                        let mut dims = graph.node(id).shape.dims().to_vec();
                        dims[0] = 1;
                        let raw = Tensor::randn(&dims, DType::F32, (100 * s + i) as u64);
                        Tensor::from_vec(&dims, dtype, raw.data().to_vec()).expect("same length")
                    })
                    .collect()
            };
            let raw: Vec<Vec<Tensor>> = (0..BUCKET).map(|s| sample(s, DType::F32)).collect();
            let samples: Vec<Vec<Tensor>> = (0..BUCKET).map(|s| sample(s, DType::F16)).collect();
            let rank2 = samples[0].iter().all(|t| t.shape().rank() == 2);
            for live in 1..=BUCKET {
                let got = model.run_batched(&samples[..live]).expect(name);
                let want = plan.run_batched_reference(&samples[..live]).expect(name);
                assert_eq!(got, want, "{name}: {live} live of {BUCKET}");
                if !rank2 {
                    continue;
                }
                let columns: Vec<Vec<f32>> = (0..raw[0].len())
                    .map(|i| {
                        raw[..live]
                            .iter()
                            .flat_map(|s| s[i].data().iter().copied())
                            .collect()
                    })
                    .collect();
                let inputs: Vec<&[f32]> = columns.iter().map(Vec::as_slice).collect();
                let mut rows = vec![f32::NAN];
                plan.run_rows_into(&inputs, live, &mut rows).expect(name);
                let want_rows: Vec<f32> = want
                    .iter()
                    .flat_map(|outs| outs[0].data().iter().copied())
                    .collect();
                assert!(rows[0].is_nan(), "{name}: rows are appended");
                assert_eq!(rows[1..], want_rows[..], "{name}: run_rows_into at {live}");
            }
        }
    }
}

/// A packed batch takes its first sample's dtype, and a sample of another
/// dtype is rounded to it while packing. An f32 request batched behind an
/// f16 one therefore gets the answer of the same request rounded to f16
/// up front, and, since every serving model's first kernel rounds its
/// input to f16 anyway, the answer it gets batched behind another f32
/// request.
#[test]
fn mixed_dtype_batch_rounds_to_the_batch_dtype() {
    for name in SERVING_MODELS {
        for config in [BoltConfig::default(), BoltConfig::epilogue_only()] {
            let model = compile(name, 2, config);
            let f16 = sample_inputs(name, 7);
            let dims = f16[0].shape().dims().to_vec();
            let f32 = vec![Tensor::randn(&dims, DType::F32, 11)];
            let rounded = Tensor::from_vec(&dims, DType::F16, f32[0].data().to_vec()).unwrap();
            assert_ne!(
                rounded.data(),
                f32[0].data(),
                "{name}: sample must need rounding"
            );

            let mixed = model.run_batched(&[f16.clone(), f32.clone()]).expect(name);
            let oracle = model
                .plan()
                .run_batched_reference(&[f16, vec![rounded]])
                .expect(name);
            assert_eq!(mixed, oracle, "{name}: f16-first mixed batch vs reference");

            let f32_first = model.run_batched(&[f32.clone(), f32]).expect(name);
            assert_eq!(
                mixed[1], f32_first[0],
                "{name}: an f32 sample's answer depends on its batch"
            );
        }
    }
}

mod fused_vs_unfused {
    use super::*;
    use proptest::prelude::*;

    /// Runs `model` on `values` under `config` and returns the outputs.
    fn run_with(model: &str, dims: &[usize], values: &[f32], config: BoltConfig) -> Vec<Tensor> {
        let numel: usize = dims.iter().product();
        let input = Tensor::from_vec(dims, DType::F16, values[..numel].to_vec()).expect("input");
        compile(model, 1, config).run(&[input]).expect(model)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Persistent-kernel fusion (B2B GEMMs, GEMM chains, folded pad
        /// launches) must be a pure scheduling decision: the fused plan
        /// and the unfused plan agree bit-exactly on arbitrary inputs.
        #[test]
        fn fused_plan_matches_unfused_bit_exactly(
            values in proptest::collection::vec(-4.0f32..4.0, 256..257),
            (model, dims) in prop_oneof![
                Just(("mlp-small", vec![1usize, 128])),
                Just(("mlp-large", vec![1usize, 256])),
                Just(("cnn-small", vec![1usize, 3, 8, 8])),
            ],
        ) {
            let fused = run_with(model, &dims, &values, BoltConfig::default());
            let unfused = run_with(model, &dims, &values, BoltConfig::epilogue_only());
            prop_assert_eq!(fused, unfused);
        }
    }
}

/// Prepacking means the packed bytes exist before the first request:
/// every constant-bearing step of a materialized zoo model reports its
/// packed constants without lazy work at run time.
#[test]
fn serving_models_prepack_all_constants() {
    for name in SERVING_MODELS {
        let model = compile(name, 1, BoltConfig::default());
        let plan = model.plan();
        assert!(plan.packed_const_bytes() > 0, "{name}");
        for (i, step) in plan.steps().iter().enumerate() {
            let packed = plan.packed_consts(i);
            let expects_weights = !matches!(
                step.kind,
                StepKind::LayoutTransform { .. } | StepKind::PadChannels { .. } | StepKind::Host
            );
            assert!(packed.materialized, "{name} step {i} ({})", step.name);
            assert_eq!(!packed.weights.is_empty(), expects_weights);
        }
    }
}
