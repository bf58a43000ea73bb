//! Implicit-GEMM Conv2D (forward) kernels.
//!
//! CUTLASS lowers NHWC convolutions onto the GEMM hierarchy without
//! materializing the im2col matrix ("implicit GEMM"): the GEMM's M axis is
//! `N*P*Q`, N is the output channels `K`, and K is `R*S*C`. The functional
//! executor here performs the same lowering explicitly (im2col + the tiled
//! GEMM executor), so fused epilogues and persistent Conv fusion share all
//! of the GEMM machinery; the performance model accounts for the traffic
//! differences (halo re-reads, channel-count alignment).

use serde::{Deserialize, Serialize};

use bolt_gpu_sim::{simulate_kernel, GpuArch, KernelProfile, KernelTime};
use bolt_tensor::conv_ref::{filter_as_matrix, im2col, im2col_into, Conv2dProblem};
use bolt_tensor::{DType, Tensor, TensorError};

use crate::epilogue::Epilogue;
use crate::error::KernelError;
use crate::gemm::{GemmKernel, GemmProblem};
use crate::perf;
use crate::template::GemmConfig;
use crate::tiles::TileShape;
use crate::Result;

/// Template parameters of an implicit-GEMM Conv2D kernel. Identical to the
/// GEMM parameter space, plus conv-specific defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2dConfig {
    /// The underlying GEMM tiling.
    pub gemm: GemmConfig,
}

impl Conv2dConfig {
    /// A solid Turing default for FP16 convolutions.
    pub fn turing_default() -> Self {
        let mut gemm = GemmConfig::turing_default();
        gemm.threadblock = TileShape::new(128, 64, 32);
        gemm.warp = TileShape::new(64, 32, 32);
        Conv2dConfig { gemm }
    }
}

/// A fully instantiated Conv2D kernel: problem + config + epilogue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv2dKernel {
    /// Convolution geometry.
    pub problem: Conv2dProblem,
    /// Template parameters.
    pub config: Conv2dConfig,
    /// Fused epilogue (bias is per output channel).
    pub epilogue: Epilogue,
    /// Element type of activations and filters.
    pub element: DType,
}

impl Conv2dKernel {
    /// Creates a kernel, clamping alignments to the channel counts (the
    /// NHWC/KRSC contiguous dimension is `C`; the output's is `K`).
    pub fn new(
        problem: Conv2dProblem,
        mut config: Conv2dConfig,
        epilogue: Epilogue,
        element: DType,
    ) -> Self {
        use bolt_gpu_sim::memory::max_alignment;
        let in_align = max_alignment(element, problem.c);
        let out_align = max_alignment(element, problem.k);
        config.gemm.alignment_a = config.gemm.alignment_a.min(in_align);
        config.gemm.alignment_b = config.gemm.alignment_b.min(in_align);
        config.gemm.alignment_c = config.gemm.alignment_c.min(out_align);
        Conv2dKernel {
            problem,
            config,
            epilogue,
            element,
        }
    }

    /// The implicit-GEMM problem this convolution lowers to.
    pub fn implicit_gemm(&self) -> GemmProblem {
        let (m, n, k) = self.problem.implicit_gemm_mnk();
        GemmProblem {
            m,
            n,
            k,
            batch: 1,
            element: self.element,
            ..GemmProblem::fp16(m, n, k)
        }
    }

    /// Validates the template against `arch`.
    ///
    /// # Errors
    ///
    /// Propagates [`KernelError::IllegalConfig`] from the config check.
    pub fn validate(&self, arch: &GpuArch) -> Result<()> {
        self.config.gemm.validate(arch, self.element)
    }

    /// Functional execution: NHWC `input`, KRSC `filter`, optional
    /// per-channel `bias` of length `K`. Returns the NHWC output.
    ///
    /// # Errors
    ///
    /// Returns shape/layout errors for mismatched operands.
    pub fn run(&self, input: &Tensor, filter: &Tensor, bias: Option<&Tensor>) -> Result<Tensor> {
        if let Some(b) = bias {
            if b.shape().rank() != 1 || b.shape().dim(0) != self.problem.k {
                return Err(KernelError::Tensor(TensorError::shape(
                    "conv2d bias",
                    &[self.problem.k],
                    b.shape().dims(),
                )));
            }
        }
        // Lower to the implicit GEMM and reuse the tiled GEMM executor so
        // the tiling/rounding behaviour is identical to the GEMM path.
        let cols = im2col(&self.problem, input)?;
        let fm = filter_as_matrix(&self.problem, filter)?;
        let gemm = GemmKernel {
            problem: self.implicit_gemm(),
            config: self.config.gemm,
            epilogue: self.epilogue,
        };
        let (d, _) = gemm.run(&cols, &fm, bias)?;

        // Fold the (N*P*Q, K) result back into NHWC.
        let (p, q) = (self.problem.out_h(), self.problem.out_w());
        let mut out = Tensor::zeros_nhwc(
            self.problem.n,
            self.problem.k,
            p,
            q,
            self.epilogue.out_dtype,
        );
        for n in 0..self.problem.n {
            for oy in 0..p {
                for ox in 0..q {
                    let row = (n * p + oy) * q + ox;
                    for k in 0..self.problem.k {
                        out.set4(n, k, oy, ox, d.get2(row, k));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Allocation-free execution into a caller-provided NHWC buffer.
    ///
    /// `input_nhwc` is the raw NHWC activation with `in_c` physical
    /// channels (`in_c <= problem.c`; missing channels read as zero, which
    /// folds Bolt's channel padding into the im2col lowering instead of
    /// materializing a padded copy). `filter_matrix` is the prepacked
    /// `(R*S*C, K)` operand from `filter_as_matrix`, `cols`/`acc` are
    /// reusable scratch buffers, and `out` receives the NHWC output.
    ///
    /// No fold-back pass exists on this path: the implicit GEMM's
    /// row-major `(N*P*Q, K)` result *is* the NHWC layout (`row * K + k`
    /// equals `((n*P + oy)*Q + ox)*K + k`), so the GEMM epilogue writes
    /// the output activation directly. Bit-identical to
    /// [`Conv2dKernel::run`] on the channel-padded input.
    ///
    /// `input_quantized` and `filter_quantized` are forwarded as the
    /// GEMM's `a_quantized` and `b_quantized` assertions: pass `true` only
    /// when every element of `input_nhwc` (respectively `filter_matrix`)
    /// is already exactly representable in the element dtype (see
    /// [`GemmKernel::run_into`]). The im2col copy and its zero padding
    /// keep that property, so the GEMM reads the lowered matrix in place.
    ///
    /// # Errors
    ///
    /// Returns shape errors for mismatched operands.
    #[allow(clippy::too_many_arguments)]
    pub fn run_into(
        &self,
        input_nhwc: &[f32],
        in_c: usize,
        filter_matrix: &[f32],
        bias: Option<&Tensor>,
        cols: &mut Vec<f32>,
        acc: &mut Vec<f32>,
        out: &mut [f32],
        input_quantized: bool,
        filter_quantized: bool,
    ) -> Result<()> {
        if let Some(b) = bias {
            if b.shape().rank() != 1 || b.shape().dim(0) != self.problem.k {
                return Err(KernelError::Tensor(TensorError::shape(
                    "conv2d bias",
                    &[self.problem.k],
                    b.shape().dims(),
                )));
            }
        }
        let (m, _, kk) = self.problem.implicit_gemm_mnk();
        cols.resize(m * kk, 0.0);
        im2col_into(&self.problem, input_nhwc, in_c, cols)?;
        let gemm = GemmKernel {
            problem: self.implicit_gemm(),
            config: self.config.gemm,
            epilogue: self.epilogue,
        };
        gemm.run_into(
            cols,
            filter_matrix,
            bias,
            acc,
            out,
            m,
            input_quantized,
            filter_quantized,
        )
    }

    /// The kernel's performance profile for the GPU simulator.
    pub fn profile(&self, arch: &GpuArch) -> KernelProfile {
        perf::conv2d_profile(
            arch,
            &self.problem,
            &self.config.gemm,
            &self.epilogue,
            self.element,
        )
    }

    /// Simulated execution time on `arch`.
    pub fn time(&self, arch: &GpuArch) -> KernelTime {
        simulate_kernel(arch, &self.profile(arch))
    }

    /// Kernel name used in timelines and emitted code.
    pub fn name(&self) -> String {
        format!(
            "cutlass_conv2d_fprop_{}_{}_{}",
            self.element,
            self.config.gemm.tag(),
            self.epilogue.activation
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_tensor::conv_ref::{conv2d_ref, random_filter, random_input};
    use bolt_tensor::Activation;

    fn small_config() -> Conv2dConfig {
        let mut c = Conv2dConfig::turing_default();
        c.gemm.threadblock = TileShape::new(16, 16, 8);
        c.gemm.warp = TileShape::new(8, 8, 8);
        c
    }

    #[test]
    fn matches_direct_reference() {
        let p = Conv2dProblem::new(2, 6, 5, 3, 4, 3, 3, (1, 1), (1, 1));
        let kernel = Conv2dKernel::new(p, small_config(), Epilogue::linear(DType::F16), DType::F16);
        let x = random_input(&p, DType::F16, 1);
        let f = random_filter(&p, DType::F16, 2);
        let got = kernel.run(&x, &f, None).unwrap();
        let expect = conv2d_ref(&p, &x, &f, None, Activation::Identity).unwrap();
        // f16 rounding at matching points; tiled k-order differs from the
        // reference's (r,s,c) loop order only in float addition order, and
        // both quantize identically, so tolerance is a few ULP of f16.
        assert!(got.max_abs_diff(&expect).unwrap() < 2e-2);
    }

    #[test]
    fn bias_relu_epilogue_matches_reference() {
        let p = Conv2dProblem::new(1, 5, 5, 4, 6, 3, 3, (2, 2), (1, 1));
        let kernel = Conv2dKernel::new(
            p,
            small_config(),
            Epilogue::bias_activation(Activation::ReLU, DType::F16),
            DType::F16,
        );
        let x = random_input(&p, DType::F16, 3);
        let f = random_filter(&p, DType::F16, 4);
        let b = Tensor::randn(&[6], DType::F16, 5);
        let got = kernel.run(&x, &f, Some(&b)).unwrap();
        let expect = conv2d_ref(&p, &x, &f, Some(&b), Activation::ReLU).unwrap();
        assert!(got.max_abs_diff(&expect).unwrap() < 2e-2);
    }

    #[test]
    fn pointwise_conv_matches_reference() {
        let p = Conv2dProblem::new(2, 4, 4, 8, 8, 1, 1, (1, 1), (0, 0));
        assert!(p.is_pointwise_unit());
        let kernel = Conv2dKernel::new(p, small_config(), Epilogue::linear(DType::F16), DType::F16);
        let x = random_input(&p, DType::F16, 7);
        let f = random_filter(&p, DType::F16, 8);
        let got = kernel.run(&x, &f, None).unwrap();
        let expect = conv2d_ref(&p, &x, &f, None, Activation::Identity).unwrap();
        assert!(got.max_abs_diff(&expect).unwrap() < 1e-2);
    }

    #[test]
    fn alignment_clamped_to_channels() {
        let p = Conv2dProblem::new(32, 20, 26, 46, 32, 3, 3, (1, 1), (1, 1));
        let kernel = Conv2dKernel::new(
            p,
            Conv2dConfig::turing_default(),
            Epilogue::linear(DType::F16),
            DType::F16,
        );
        assert_eq!(kernel.config.gemm.alignment_a, 2);
        assert_eq!(kernel.config.gemm.alignment_c, 8); // K=32
    }

    #[test]
    fn rejects_bad_bias() {
        let p = Conv2dProblem::new(1, 4, 4, 2, 3, 1, 1, (1, 1), (0, 0));
        let kernel = Conv2dKernel::new(p, small_config(), Epilogue::linear(DType::F16), DType::F16);
        let x = random_input(&p, DType::F16, 1);
        let f = random_filter(&p, DType::F16, 2);
        let bad = Tensor::zeros(&[4], DType::F16);
        assert!(kernel.run(&x, &f, Some(&bad)).is_err());
    }

    #[test]
    fn resnet_conv_time_is_plausible() {
        // ResNet-50 56x56x64 3x3 conv at batch 32 (Figure 8b workload).
        let t4 = GpuArch::tesla_t4();
        let p = Conv2dProblem::new(32, 56, 56, 64, 64, 3, 3, (1, 1), (1, 1));
        let kernel = Conv2dKernel::new(
            p,
            Conv2dConfig::turing_default(),
            Epilogue::linear(DType::F16),
            DType::F16,
        );
        kernel.validate(&t4).unwrap();
        let t = kernel.time(&t4);
        let tflops = t.tflops(2.0 * p.macs() as f64);
        assert!(tflops > 15.0 && tflops < 65.0, "{tflops:.1} TFLOPS, {t:?}");
    }
}
