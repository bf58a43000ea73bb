//! Bit identity of the allocation-free GEMM path: `GemmKernel::run_into`
//! (a register-blocked loop) must reproduce `GemmKernel::run` (the tile
//! walk) bit for bit for every epilogue (bias mode × activation × output
//! dtype), for both values of each provenance flag wherever the operand
//! really holds element-dtype values, and for ragged 8-column panels and
//! 4-row blocks, single-row problems, split-K and accumulator scratch
//! that starts out NaN-filled.
//!
//! The live-row argument is checked for the GEMM, the back-to-back GEMM
//! and the persistent chain: computing only rows `0..rows` must give
//! exactly the full-M result's leading rows and zeros after them.
//!
//! The implicit-GEMM convs (`Conv2dKernel` and `B2bConvKernel`) must give
//! `run_into`, which folds the channel pad into im2col, the bits of `run`
//! on the channel-padded input, with scratch reused across cases.

use std::cell::RefCell;

use bolt_cutlass::{
    B2bConvKernel, B2bGemmKernel, BiasMode, Conv2dConfig, Conv2dKernel, Epilogue, GemmConfig,
    GemmKernel, GemmProblem, PersistentGemmChain, Residence, TileShape,
};
use bolt_tensor::conv_ref::{filter_as_matrix, random_filter, Conv2dProblem};
use bolt_tensor::{Activation, DType, Tensor};
use proptest::prelude::*;

const BIASES: [BiasMode; 3] = [BiasMode::None, BiasMode::PerColumn, BiasMode::Full];
const ACTIVATIONS: [Activation; 7] = [
    Activation::Identity,
    Activation::ReLU,
    Activation::Gelu,
    Activation::Hardswish,
    Activation::Softplus,
    Activation::Sigmoid,
    Activation::Silu,
];
const OUT_DTYPES: [DType; 3] = [DType::F16, DType::Bf16, DType::F32];

/// Flag values a caller may pass for an operand stored as `dtype`:
/// `true` only when the values really are f16, the element dtype.
fn flags(dtype: DType) -> &'static [bool] {
    if dtype == DType::F16 {
        &[false, true]
    } else {
        &[false]
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The bits a live-row run must produce: the full run's first `rows`
/// rows of width `n`, then zeros.
fn live_bits(full: &[f32], rows: usize, n: usize) -> Vec<u32> {
    let mut want = full.to_vec();
    want[rows * n..].fill(0.0);
    bits(&want)
}

thread_local! {
    /// The `cols`, `acc` and `d0` scratch every conv case reuses, so each
    /// case runs on what the previous one left behind; NaN-filled at first.
    static CONV_SCRATCH: RefCell<[Vec<f32>; 3]> = RefCell::new([
        vec![f32::NAN; 1 << 14],
        vec![f32::NAN; 1 << 15],
        vec![f32::NAN; 1 << 12],
    ]);
}

/// The `(n, h, w, c)` NHWC tensor holding `raw`'s `in_c`-channel NHWC
/// values in its first `in_c` channels and zeros in the rest.
fn channel_padded(raw: &[f32], p: &Conv2dProblem, in_c: usize, dtype: DType) -> Tensor {
    let mut x = Tensor::zeros_nhwc(p.n, p.c, p.h, p.w, dtype);
    for (i, &v) in raw.iter().enumerate() {
        let (pixel, ch) = (i / in_c, i % in_c);
        x.set4(pixel / (p.h * p.w), ch, pixel / p.w % p.h, pixel % p.w, v);
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn run_into_is_bit_identical_to_run(
        m in prop_oneof![Just(1usize), 1usize..40],
        n in 1usize..40,
        k in 1usize..40,
        (tm, tn, tk) in prop::sample::select(vec![(16usize, 16usize, 8usize), (8, 32, 16), (32, 8, 8)]),
        split_k in prop_oneof![Just(1usize), 2usize..5],
        a_dtype in prop::sample::select(vec![DType::F16, DType::F32]),
        b_dtype in prop::sample::select(vec![DType::F16, DType::F32]),
        (alpha, beta) in (0.25f32..2.0, 0.25f32..2.0),
        seed in 0u64..1000,
        live_pct in 0usize..101,
    ) {
        let mut config = GemmConfig::turing_default();
        config.threadblock = TileShape::new(tm, tn, tk);
        config.split_k = split_k;
        let a = Tensor::randn(&[m, k], a_dtype, seed);
        let b = Tensor::randn(&[k, n], b_dtype, seed + 1);
        let bias_row = Tensor::randn(&[n], DType::F16, seed + 2);
        let residual = Tensor::randn(&[m, n], DType::F16, seed + 3);
        // Larger than any case needs, so `run_into` never regrows it and
        // must write every accumulator it reads.
        let mut acc = vec![f32::NAN; 1 << 14];
        let mut got = vec![0.0f32; m * n];
        for bias in BIASES {
            let c = match bias {
                BiasMode::None => None,
                BiasMode::PerColumn => Some(&bias_row),
                BiasMode::Full => Some(&residual),
            };
            for activation in ACTIVATIONS {
                for out_dtype in OUT_DTYPES {
                    let epilogue = Epilogue {
                        alpha,
                        beta,
                        bias,
                        activation,
                        out_dtype,
                        column_reduction: false,
                    };
                    let kernel = GemmKernel::new(GemmProblem::fp16(m, n, k), config, epilogue);
                    let (want, _) = kernel.run(&a, &b, c).expect("oracle runs");
                    let rows = live_pct * m / 100;
                    for &aq in flags(a_dtype) {
                        for &bq in flags(b_dtype) {
                            for (rows, want) in
                                [(m, bits(want.data())), (rows, live_bits(want.data(), rows, n))]
                            {
                                got.fill(f32::NAN);
                                kernel
                                    .run_into(a.data(), b.data(), c, &mut acc, &mut got, rows, aq, bq)
                                    .expect("run_into runs");
                                prop_assert_eq!(
                                    bits(&got),
                                    want,
                                    "m={} rows={} n={} k={} tile={}x{}x{} split_k={} {:?} {} {} aq={} bq={}",
                                    m, rows, n, k, tm, tn, tk, split_k, bias, activation, out_dtype, aq, bq
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn b2b_live_rows_match_the_full_run(
        m in 1usize..100,
        (n0, n1, k) in (1usize..48, 1usize..48, 1usize..48),
        live_pct in 0usize..101,
        residence in prop::sample::select(vec![Residence::RegisterFile, Residence::SharedMemory]),
        seed in 0u64..1000,
    ) {
        let kernel = B2bGemmKernel::with_residence(
            GemmProblem::fp16(m, n0, k),
            GemmProblem::fp16(m, n1, n0),
            Epilogue::bias_activation(Activation::Gelu, DType::F16),
            Epilogue::bias_activation(Activation::Identity, DType::F16),
            residence,
        );
        let a = Tensor::randn(&[m, k], DType::F16, seed);
        let w0 = Tensor::randn(&[k, n0], DType::F16, seed + 1);
        let c0 = Tensor::randn(&[n0], DType::F16, seed + 2);
        let w1 = Tensor::randn(&[n0, n1], DType::F16, seed + 3);
        let c1 = Tensor::randn(&[n1], DType::F16, seed + 4);
        let want = kernel.run(&a, &w0, Some(&c0), &w1, Some(&c1)).expect("oracle runs");
        let rows = live_pct * m / 100;
        let (mut acc, mut d0) = (Vec::new(), Vec::new());
        for (rows, want) in [(m, bits(want.data())), (rows, live_bits(want.data(), rows, n1))] {
            let mut got = vec![f32::NAN; m * n1];
            kernel
                .run_into(
                    a.data(), w0.data(), Some(&c0), w1.data(), Some(&c1),
                    &mut acc, &mut d0, &mut got, rows, true, true,
                )
                .expect("run_into runs");
            prop_assert_eq!(bits(&got), want, "m={} rows={}", m, rows);
        }
    }

    #[test]
    fn chain_live_rows_match_the_full_run(
        m in 1usize..100,
        widths in prop::collection::vec(1usize..40, 3..5),
        live_pct in 0usize..101,
        seed in 0u64..1000,
    ) {
        let problems: Vec<GemmProblem> = widths
            .windows(2)
            .map(|w| GemmProblem::fp16(m, w[1], w[0]))
            .collect();
        let epilogues: Vec<Epilogue> = problems
            .iter()
            .map(|_| Epilogue::bias_activation(Activation::ReLU, DType::F16))
            .collect();
        let chain = PersistentGemmChain::with_residence(&problems, &epilogues, Residence::SharedMemory)
            .expect("chain builds");
        let a = Tensor::randn(&[m, widths[0]], DType::F16, seed);
        let weights: Vec<Tensor> = problems
            .iter()
            .enumerate()
            .map(|(i, p)| Tensor::randn(&[p.k, p.n], DType::F16, seed + 1 + i as u64))
            .collect();
        let biases: Vec<Tensor> = problems
            .iter()
            .enumerate()
            .map(|(i, p)| Tensor::randn(&[p.n], DType::F16, seed + 11 + i as u64))
            .collect();
        let w_refs: Vec<&Tensor> = weights.iter().collect();
        let w_slices: Vec<&[f32]> = weights.iter().map(Tensor::data).collect();
        let b_refs: Vec<Option<&Tensor>> = biases.iter().map(Some).collect();
        let want = chain.run(&a, &w_refs, &b_refs).expect("oracle runs");
        let n = *widths.last().expect("widths");
        let rows = live_pct * m / 100;
        let (mut acc, mut ping, mut pong) = (Vec::new(), Vec::new(), Vec::new());
        for (rows, want) in [(m, bits(want.data())), (rows, live_bits(want.data(), rows, n))] {
            let mut got = vec![f32::NAN; m * n];
            chain
                .run_into(
                    a.data(), &w_slices, &b_refs, &mut acc, &mut ping, &mut pong, &mut got,
                    rows, true, true,
                )
                .expect("run_into runs");
            prop_assert_eq!(bits(&got), want, "m={} rows={} widths={:?}", m, rows, widths);
        }
    }

    #[test]
    fn conv_run_into_is_bit_identical_to_run(
        (n, h, w) in (1usize..3, 1usize..8, 1usize..8),
        (in_c, c_pad, k, k1) in (1usize..7, 0usize..3, 1usize..13, 1usize..11),
        (r, s) in (prop::sample::select(vec![1usize, 3]), prop::sample::select(vec![1usize, 3])),
        (stride, padding, dilation) in ((1usize..3, 1usize..3), (0usize..2, 0usize..2), (1usize..3, 1usize..3)),
        in_dtype in prop::sample::select(vec![DType::F16, DType::F32]),
        activation in prop::sample::select(ACTIVATIONS.to_vec()),
        seed in 0u64..1000,
    ) {
        let c = in_c + c_pad;
        let mut p0 = Conv2dProblem::new(n, h, w, c, k, r, s, stride, padding);
        p0.dilation = dilation;
        let p1 = Conv2dProblem::new(n, p0.out_h(), p0.out_w(), k, k1, 1, 1, (1, 1), (0, 0));
        let mut config = Conv2dConfig::turing_default();
        config.gemm.threadblock = TileShape::new(16, 16, 8);
        let ep0 = Epilogue::bias_activation(activation, DType::F16);
        let ep1 = Epilogue::bias_activation(Activation::Identity, DType::F16);
        let conv = Conv2dKernel::new(p0, config, ep0, DType::F16);
        let b2b = B2bConvKernel::with_residence(p0, p1, ep0, ep1, Residence::SharedMemory, DType::F16);

        let raw = Tensor::randn(&[n * h * w * in_c], in_dtype, seed);
        let x = channel_padded(raw.data(), &p0, in_c, in_dtype);
        let (f0, f1) = (random_filter(&p0, DType::F16, seed + 1), random_filter(&p1, DType::F16, seed + 2));
        let fm0 = filter_as_matrix(&p0, &f0).expect("filter packs");
        let fm1 = filter_as_matrix(&p1, &f1).expect("filter packs");
        let (b0, b1) = (Tensor::randn(&[k], DType::F16, seed + 3), Tensor::randn(&[k1], DType::F16, seed + 4));
        let want_conv = bits(conv.run(&x, &f0, Some(&b0)).expect("oracle runs").data());
        let want_b2b = bits(b2b.run(&x, &f0, Some(&b0), &f1, Some(&b1)).expect("oracle runs").data());

        CONV_SCRATCH.with_borrow_mut(|[cols, acc, d0]| {
            for &xq in flags(in_dtype) {
                for fq in [false, true] {
                    let mut got = vec![f32::NAN; want_conv.len()];
                    conv.run_into(raw.data(), in_c, fm0.data(), Some(&b0), cols, acc, &mut got, xq, fq)
                        .expect("conv run_into runs");
                    prop_assert_eq!(bits(&got), want_conv.clone(), "conv {:?} in_c={} xq={} fq={}", p0, in_c, xq, fq);
                    let mut got = vec![f32::NAN; want_b2b.len()];
                    b2b.run_into(
                        raw.data(), in_c, fm0.data(), Some(&b0), fm1.data(), Some(&b1),
                        cols, acc, d0, &mut got, xq, fq,
                    )
                    .expect("b2b conv run_into runs");
                    prop_assert_eq!(bits(&got), want_b2b.clone(), "b2b conv {:?} in_c={} xq={} fq={}", p0, in_c, xq, fq);
                }
            }
            Ok(())
        })?;
    }

    #[test]
    fn live_rows_past_m_are_rejected(m in 1usize..20, extra in 1usize..4) {
        let kernel = GemmKernel::new(
            GemmProblem::fp16(m, 8, 8),
            GemmConfig::turing_default(),
            Epilogue::linear(DType::F16),
        );
        let (a, b) = (vec![0.0f32; m * 8], vec![0.0f32; 64]);
        let mut out = vec![0.0f32; m * 8];
        let result = kernel.run_into(&a, &b, None, &mut Vec::new(), &mut out, m + extra, true, true);
        prop_assert!(result.is_err());
    }
}

/// A zero-depth GEMM sums nothing: `run_into` must store the epilogue of
/// zero accumulators, as `run` does, for a `B` narrower than one panel,
/// whole panels and a ragged last panel.
#[test]
fn empty_k_stores_the_epilogue_of_zeros() {
    for (m, n) in [(1, 3), (5, 8), (5, 13), (2, 16)] {
        let kernel = GemmKernel::new(
            GemmProblem::fp16(m, n, 0),
            GemmConfig::turing_default(),
            Epilogue::bias_activation(Activation::Sigmoid, DType::F16),
        );
        let (a, b) = (
            Tensor::zeros(&[m, 0], DType::F16),
            Tensor::zeros(&[0, n], DType::F16),
        );
        let bias = Tensor::randn(&[n], DType::F16, 7);
        let (want, _) = kernel.run(&a, &b, Some(&bias)).expect("oracle runs");
        let mut acc = vec![f32::NAN; 64];
        let mut got = vec![f32::NAN; m * n];
        for rows in [m, 1] {
            for (aq, bq) in [(false, false), (true, true)] {
                kernel
                    .run_into(
                        a.data(),
                        b.data(),
                        Some(&bias),
                        &mut acc,
                        &mut got,
                        rows,
                        aq,
                        bq,
                    )
                    .expect("run_into runs");
                assert_eq!(
                    bits(&got),
                    live_bits(want.data(), rows, n),
                    "m={m} n={n} rows={rows}"
                );
            }
        }
    }
}
