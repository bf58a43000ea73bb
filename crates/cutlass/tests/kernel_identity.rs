//! Bit identity of the allocation-free GEMM path: `GemmKernel::run_into`
//! must reproduce `GemmKernel::run` bit for bit for every epilogue (bias
//! mode × activation × output dtype), for both values of each provenance
//! flag wherever the operand really holds element-dtype values, and for
//! ragged tiles, single-row problems, split-K and problems spanning
//! several threadblock M-stripes.
//!
//! The live-row argument is checked for the GEMM, the back-to-back GEMM
//! and the persistent chain: computing only rows `0..rows` must give
//! exactly the full-M result's leading rows and zeros after them.

use bolt_cutlass::{
    B2bGemmKernel, BiasMode, Epilogue, GemmConfig, GemmKernel, GemmProblem, PersistentGemmChain,
    Residence, TileShape,
};
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
        let mut acc = Vec::new();
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
