//! Epilogue functors — the fusion patterns of paper Section 3.1.
//!
//! CUTLASS epilogues compute `D = activation(alpha * accum + beta * C)`
//! while the accumulator tile is still in registers, before the single
//! store to global memory. The paper lists four fusible patterns, all
//! covered here:
//!
//! 1. elementwise operators (activations) — [`Epilogue::activation`];
//! 2. data-type conversion — [`Epilogue::out_dtype`];
//! 3. broadcast vector over columns (bias add) — [`BiasMode::PerColumn`];
//! 4. partial reduction over columns — [`Epilogue::column_reduction`].

use serde::{Deserialize, Serialize};

use bolt_tensor::{Activation, DType, Tensor, TensorError};

use crate::Result;

/// How the `C` operand participates in the epilogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BiasMode {
    /// No `C` operand (`beta` ignored).
    None,
    /// `C` is a length-`N` vector broadcast over columns — the BiasAdd
    /// pattern.
    PerColumn,
    /// `C` is a full `M x N` matrix (residual connection / classic GEMM
    /// beta input).
    Full,
}

/// An epilogue specification attached to a GEMM or Conv kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Epilogue {
    /// Scalar multiplier on the accumulator.
    pub alpha: f32,
    /// Scalar multiplier on the `C` operand.
    pub beta: f32,
    /// How `C` is interpreted.
    pub bias: BiasMode,
    /// Elementwise activation applied last.
    pub activation: Activation,
    /// Output element type (pattern 2: fused data-type conversion).
    pub out_dtype: DType,
    /// If true, additionally produce the per-column partial sums of `D`
    /// (pattern 4), as CUTLASS's `EpilogueWithReduction` does.
    pub column_reduction: bool,
}

impl Epilogue {
    /// The plain `D = accum` epilogue in `dtype`.
    pub fn linear(out_dtype: DType) -> Self {
        Epilogue {
            alpha: 1.0,
            beta: 0.0,
            bias: BiasMode::None,
            activation: Activation::Identity,
            out_dtype,
            column_reduction: false,
        }
    }

    /// The common `D = act(accum + bias)` epilogue.
    pub fn bias_activation(activation: Activation, out_dtype: DType) -> Self {
        Epilogue {
            alpha: 1.0,
            beta: 1.0,
            bias: BiasMode::PerColumn,
            activation,
            out_dtype,
            column_reduction: false,
        }
    }

    /// Returns a copy with `column_reduction` enabled.
    pub fn with_column_reduction(mut self) -> Self {
        self.column_reduction = true;
        self
    }

    /// Applies the epilogue to one accumulator value at output coordinate
    /// `(row, col)`, rounding to the output dtype.
    #[inline]
    pub fn apply(&self, acc: f32, row: usize, col: usize, c: Option<&Tensor>) -> f32 {
        let c_val = match (self.bias, c) {
            (BiasMode::None, _) | (_, None) => 0.0,
            (BiasMode::PerColumn, Some(c)) => c.data()[col],
            (BiasMode::Full, Some(c)) => c.get2(row, col),
        };
        let v = self.activation.apply(self.alpha * acc + self.beta * c_val);
        self.out_dtype.quantize(v)
    }

    /// Stores one row of an accumulator tile, whose first column is
    /// output column `col0` of output row `row`: `out[j]` receives
    /// exactly `self.apply(acc[j], row, col0 + j, c)`, bit for bit. The
    /// bias mode, the bias row slice, the activation and the output dtype
    /// are resolved once per row instead of once per element. A full `C`
    /// matrix goes through [`Epilogue::apply`].
    pub fn store_row(
        &self,
        acc: &[f32],
        row: usize,
        col0: usize,
        c: Option<&Tensor>,
        out: &mut [f32],
    ) {
        let bias = match (self.bias, c) {
            (BiasMode::None, _) | (_, None) => None,
            (BiasMode::PerColumn, Some(c)) => Some(&c.data()[col0..col0 + acc.len()]),
            (BiasMode::Full, Some(_)) => {
                for (j, (o, &v)) in out.iter_mut().zip(acc).enumerate() {
                    *o = self.apply(v, row, col0 + j, c);
                }
                return;
            }
        };
        let (act, q) = (self.activation, self.out_dtype);
        store_elems(
            acc,
            bias,
            self.alpha,
            self.beta,
            |x| q.quantize(act.apply(x)),
            out,
        );
    }

    /// Validates that `c` matches the bias mode for an `m x n` output.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the `C` operand does not match
    /// `self.bias`.
    pub fn validate_c(&self, c: Option<&Tensor>, m: usize, n: usize) -> Result<()> {
        match (self.bias, c) {
            (BiasMode::None, _) => Ok(()),
            (BiasMode::PerColumn, Some(c)) if c.shape().rank() == 1 && c.shape().dim(0) == n => {
                Ok(())
            }
            (BiasMode::Full, Some(c)) if c.shape().rank() == 2 && c.shape().dims() == [m, n] => {
                Ok(())
            }
            (mode, Some(c)) => Err(TensorError::shape(
                format!("epilogue C operand for bias mode {mode:?}"),
                &[m, n],
                c.shape().dims(),
            )
            .into()),
            (_, None) => Err(TensorError::invalid("epilogue requires a C operand").into()),
        }
    }

    /// Arithmetic cost of the epilogue per output element, in
    /// (cuda-core flops, sfu ops) — used by the performance model.
    pub fn cost_per_elem(&self) -> (f64, f64) {
        let mut fma = 1.0; // alpha scale
        if self.bias != BiasMode::None {
            fma += 1.0;
        }
        if self.column_reduction {
            fma += 1.0;
        }
        fma += self.activation.fma_ops_per_elem();
        (fma, self.activation.sfu_ops_per_elem())
    }

    /// Extra global traffic of the epilogue per output tile, in bytes —
    /// bias vector reads, residual matrix reads, reduction writes.
    pub fn extra_bytes(&self, m: usize, n: usize) -> f64 {
        let elt = self.out_dtype.size_bytes() as f64;
        let mut bytes = 0.0;
        match self.bias {
            BiasMode::None => {}
            BiasMode::PerColumn => bytes += n as f64 * elt,
            BiasMode::Full => bytes += (m * n) as f64 * elt,
        }
        if self.column_reduction {
            bytes += n as f64 * 4.0; // f32 partial sums
        }
        bytes
    }

    /// The CUTLASS C++ epilogue functor name for the emitter.
    pub fn cutlass_name(&self) -> &'static str {
        use Activation::*;
        match self.activation {
            Identity => "cutlass::epilogue::thread::LinearCombination",
            ReLU => "cutlass::epilogue::thread::LinearCombinationRelu",
            Gelu => "cutlass::epilogue::thread::LinearCombinationGELU",
            Hardswish => "cutlass::epilogue::thread::LinearCombinationHardSwish",
            Sigmoid => "cutlass::epilogue::thread::LinearCombinationSigmoid",
            Silu => "cutlass::epilogue::thread::LinearCombinationSilu",
            Softplus => "cutlass::epilogue::thread::LinearCombinationGeneric<Softplus>",
        }
    }
}

/// `out[j] = finish(alpha * acc[j] + beta * c[j])`, with `c` the bias row
/// or zeros. Without a bias row the `beta * 0` term stays, as in
/// [`Epilogue::apply`]: dropping it would leave a `-0.0` sum that `apply`
/// turns into `+0.0`, and would hide a non-finite `beta`.
#[inline(always)]
fn store_elems(
    acc: &[f32],
    bias: Option<&[f32]>,
    alpha: f32,
    beta: f32,
    finish: impl Fn(f32) -> f32,
    out: &mut [f32],
) {
    match bias {
        Some(bias) => {
            for ((o, &v), &cv) in out.iter_mut().zip(acc).zip(bias) {
                *o = finish(alpha * v + beta * cv);
            }
        }
        None => {
            let zero_term = beta * 0.0;
            for (o, &v) in out.iter_mut().zip(acc) {
                *o = finish(alpha * v + zero_term);
            }
        }
    }
}

/// Computes the per-column reduction (pattern 4) of an output matrix,
/// returning a length-`N` f32 tensor. Functional counterpart of
/// `column_reduction`.
pub fn reduce_columns(d: &Tensor) -> Tensor {
    let (m, n) = (d.shape().dim(0), d.shape().dim(1));
    let mut out = Tensor::zeros(&[n], DType::F32);
    for j in 0..n {
        let mut acc = 0.0;
        for i in 0..m {
            acc += d.get2(i, j);
        }
        out.data_mut()[j] = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_identity() {
        let ep = Epilogue::linear(DType::F32);
        assert_eq!(ep.apply(2.5, 0, 0, None), 2.5);
    }

    #[test]
    fn bias_and_activation_apply() {
        let ep = Epilogue::bias_activation(Activation::ReLU, DType::F32);
        let bias = Tensor::from_vec(&[2], DType::F32, vec![1.0, -10.0]).unwrap();
        assert_eq!(ep.apply(2.0, 0, 0, Some(&bias)), 3.0);
        assert_eq!(ep.apply(2.0, 0, 1, Some(&bias)), 0.0);
    }

    #[test]
    fn dtype_conversion_rounds() {
        let ep = Epilogue::linear(DType::F16);
        let v = ep.apply(1.0 + 2f32.powi(-12), 0, 0, None);
        assert_eq!(v, 1.0);
    }

    #[test]
    fn full_c_residual() {
        let mut ep = Epilogue::linear(DType::F32);
        ep.bias = BiasMode::Full;
        ep.beta = 2.0;
        let c = Tensor::from_vec(&[1, 1], DType::F32, vec![3.0]).unwrap();
        assert_eq!(ep.apply(1.0, 0, 0, Some(&c)), 7.0);
    }

    #[test]
    fn validate_c_shapes() {
        let ep = Epilogue::bias_activation(Activation::Identity, DType::F16);
        let good = Tensor::zeros(&[8], DType::F16);
        ep.validate_c(Some(&good), 4, 8).unwrap();
        let bad = Tensor::zeros(&[4], DType::F16);
        assert!(ep.validate_c(Some(&bad), 4, 8).is_err());
        assert!(ep.validate_c(None, 4, 8).is_err());
        assert!(Epilogue::linear(DType::F16).validate_c(None, 4, 8).is_ok());
    }

    #[test]
    fn costs_scale_with_activation() {
        let relu = Epilogue::bias_activation(Activation::ReLU, DType::F16);
        let softplus = Epilogue::bias_activation(Activation::Softplus, DType::F16);
        assert!(softplus.cost_per_elem().1 > relu.cost_per_elem().1);
        assert!(relu.cost_per_elem().0 >= 2.0);
    }

    #[test]
    fn extra_bytes_by_mode() {
        let none = Epilogue::linear(DType::F16);
        assert_eq!(none.extra_bytes(128, 64), 0.0);
        let bias = Epilogue::bias_activation(Activation::ReLU, DType::F16);
        assert_eq!(bias.extra_bytes(128, 64), 128.0);
        let red = bias.with_column_reduction();
        assert_eq!(red.extra_bytes(128, 64), 128.0 + 256.0);
    }

    #[test]
    fn column_reduction_functional() {
        let d = Tensor::from_vec(&[2, 3], DType::F32, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let r = reduce_columns(&d);
        assert_eq!(r.data(), &[5.0, 7.0, 9.0]);
    }
}
