//! Bit identity of the allocation-free GEMM path: `GemmKernel::run_into`
//! must reproduce `GemmKernel::run` bit for bit for every epilogue (bias
//! mode × activation × output dtype), for both values of each provenance
//! flag wherever the operand really holds element-dtype values, and for
//! ragged tiles, single-row problems, split-K and the data-parallel
//! stripe walk.

use bolt_cutlass::{
    BiasMode, Epilogue, GemmConfig, GemmKernel, GemmProblem, TileShape, PARALLEL_M_ROWS,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn run_into_is_bit_identical_to_run(
        m in prop_oneof![Just(1usize), 1usize..40],
        n in 1usize..40,
        k in 1usize..40,
        (tm, tn, tk) in prop::sample::select(vec![(16usize, 16usize, 8usize), (8, 32, 16), (32, 8, 8)]),
        split_k in prop_oneof![Just(1usize), 2usize..5],
        parallel_m_rows in prop::sample::select(vec![1usize, PARALLEL_M_ROWS]),
        a_dtype in prop::sample::select(vec![DType::F16, DType::F32]),
        b_dtype in prop::sample::select(vec![DType::F16, DType::F32]),
        (alpha, beta) in (0.25f32..2.0, 0.25f32..2.0),
        seed in 0u64..1000,
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
                    let kernel = GemmKernel::new(GemmProblem::fp16(m, n, k), config, epilogue)
                        .with_parallel_m_rows(parallel_m_rows);
                    let (want, _) = kernel.run(&a, &b, c).expect("oracle runs");
                    for &aq in flags(a_dtype) {
                        for &bq in flags(b_dtype) {
                            got.fill(f32::NAN);
                            kernel
                                .run_into(a.data(), b.data(), c, &mut acc, &mut got, aq, bq)
                                .expect("run_into runs");
                            prop_assert_eq!(
                                bits(&got),
                                bits(want.data()),
                                "m={} n={} k={} tile={}x{}x{} split_k={} {:?} {} {} aq={} bq={}",
                                m, n, k, tm, tn, tk, split_k, bias, activation, out_dtype, aq, bq
                            );
                        }
                    }
                }
            }
        }
    }
}
