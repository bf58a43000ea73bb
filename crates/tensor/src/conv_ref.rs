//! Reference 2-D convolution (forward propagation).
//!
//! Implements the direct convolution the implicit-GEMM kernels in
//! `bolt-cutlass` are validated against, plus the im2col lowering that maps
//! a convolution onto a GEMM (the mapping templated libraries use
//! internally).

use crate::activation::Activation;
use crate::dtype::DType;
use crate::error::TensorError;
use crate::layout::Layout;
use crate::tensor::Tensor;
use crate::Result;

/// A forward Conv2D problem description (no groups, NHWC activation layout,
/// `KRSC` filter layout to match CUTLASS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Conv2dProblem {
    /// Batch size.
    pub n: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Input channels.
    pub c: usize,
    /// Output channels (number of filters).
    pub k: usize,
    /// Filter height.
    pub r: usize,
    /// Filter width.
    pub s: usize,
    /// Stride (vertical, horizontal).
    pub stride: (usize, usize),
    /// Zero padding (vertical, horizontal).
    pub padding: (usize, usize),
    /// Dilation (vertical, horizontal).
    pub dilation: (usize, usize),
}

impl Conv2dProblem {
    /// Creates a problem with dilation 1.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        n: usize,
        h: usize,
        w: usize,
        c: usize,
        k: usize,
        r: usize,
        s: usize,
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> Self {
        Conv2dProblem {
            n,
            h,
            w,
            c,
            k,
            r,
            s,
            stride,
            padding,
            dilation: (1, 1),
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.padding.0).saturating_sub(self.dilation.0 * (self.r - 1) + 1)
            / self.stride.0
            + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.padding.1).saturating_sub(self.dilation.1 * (self.s - 1) + 1)
            / self.stride.1
            + 1
    }

    /// The implicit-GEMM problem size `(M, N, K)` of this convolution:
    /// `M = N*P*Q`, `N = K`, `K = R*S*C`.
    pub fn implicit_gemm_mnk(&self) -> (usize, usize, usize) {
        (
            self.n * self.out_h() * self.out_w(),
            self.k,
            self.r * self.s * self.c,
        )
    }

    /// Multiply-accumulate count of the whole convolution.
    pub fn macs(&self) -> u64 {
        let (m, n, k) = self.implicit_gemm_mnk();
        m as u64 * n as u64 * k as u64
    }

    /// True if this is a 1×1, stride-1, unpadded convolution — the only
    /// shape eligible as the *second* operator of a persistent Conv fusion
    /// (paper Section 3.1.1).
    pub fn is_pointwise_unit(&self) -> bool {
        self.r == 1
            && self.s == 1
            && self.stride == (1, 1)
            && self.padding == (0, 0)
            && self.dilation == (1, 1)
    }
}

/// Direct-convolution reference: NHWC input `(n, h, w, c)`, filter
/// `(k, r, s, c)` row-major contiguous, optional per-channel bias `(k,)`,
/// fused activation, f32 accumulation.
///
/// # Errors
///
/// Returns an error if tensor shapes disagree with `problem` or the input
/// is not NHWC.
pub fn conv2d_ref(
    problem: &Conv2dProblem,
    input: &Tensor,
    filter: &Tensor,
    bias: Option<&Tensor>,
    activation: Activation,
) -> Result<Tensor> {
    validate_conv_args(problem, input, filter, bias)?;
    let (p, q) = (problem.out_h(), problem.out_w());
    // Output tensor is NHWC as well.
    let mut out_nhwc = Tensor::zeros_nhwc(problem.n, problem.k, p, q, input.dtype());
    let fdims = (problem.k, problem.c, problem.r, problem.s);
    for n in 0..problem.n {
        for oy in 0..p {
            for ox in 0..q {
                for k in 0..problem.k {
                    let mut acc = 0.0f32;
                    for r in 0..problem.r {
                        let iy = (oy * problem.stride.0 + r * problem.dilation.0) as isize
                            - problem.padding.0 as isize;
                        if iy < 0 || iy >= problem.h as isize {
                            continue;
                        }
                        for s in 0..problem.s {
                            let ix = (ox * problem.stride.1 + s * problem.dilation.1) as isize
                                - problem.padding.1 as isize;
                            if ix < 0 || ix >= problem.w as isize {
                                continue;
                            }
                            for c in 0..problem.c {
                                let x = input.get4(n, c, iy as usize, ix as usize);
                                let f = filter_get(filter, fdims, k, c, r, s);
                                acc += x * f;
                            }
                        }
                    }
                    let b = bias.map_or(0.0, |b| b.data()[k]);
                    out_nhwc.set4(n, k, oy, ox, activation.apply(acc + b));
                }
            }
        }
    }
    Ok(out_nhwc)
}

/// Lowers an NHWC input into the im2col matrix of shape
/// `(N*P*Q, R*S*C)`, so `conv == im2col(x) @ filter_matrix`. This is the
/// explicit form of the mapping the implicit-GEMM kernels perform on the
/// fly.
///
/// # Errors
///
/// Returns an error if the input shape disagrees with `problem`.
pub fn im2col(problem: &Conv2dProblem, input: &Tensor) -> Result<Tensor> {
    validate_input(problem, input)?;
    let (p, q) = (problem.out_h(), problem.out_w());
    let (m, _, kk) = problem.implicit_gemm_mnk();
    let mut out = Tensor::zeros(&[m, kk], input.dtype());
    for n in 0..problem.n {
        for oy in 0..p {
            for ox in 0..q {
                let row = (n * p + oy) * q + ox;
                for r in 0..problem.r {
                    for s in 0..problem.s {
                        for c in 0..problem.c {
                            let col = (r * problem.s + s) * problem.c + c;
                            let iy = (oy * problem.stride.0 + r * problem.dilation.0) as isize
                                - problem.padding.0 as isize;
                            let ix = (ox * problem.stride.1 + s * problem.dilation.1) as isize
                                - problem.padding.1 as isize;
                            let v = if iy < 0
                                || iy >= problem.h as isize
                                || ix < 0
                                || ix >= problem.w as isize
                            {
                                0.0
                            } else {
                                input.get4(n, c, iy as usize, ix as usize)
                            };
                            out.set2(row, col, v);
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// [`im2col`] into a caller-provided buffer, reading the input from a raw
/// NHWC slice with `in_c` physical channels. Channels `in_c..problem.c`
/// are read as zero, which folds Bolt's channel padding (§3.2.3) into the
/// lowering itself: callers can feed an unpadded activation to a kernel
/// compiled for the padded channel count without materializing the pad.
/// Value-identical to [`im2col`] on the channel-padded input.
///
/// # Errors
///
/// Returns an error if `in_c` exceeds `problem.c`, or if `input`/`out`
/// disagree with the problem's input/im2col extents.
pub fn im2col_into(
    problem: &Conv2dProblem,
    input_nhwc: &[f32],
    in_c: usize,
    out: &mut [f32],
) -> Result<()> {
    let (p, q) = (problem.out_h(), problem.out_w());
    let (m, _, kk) = problem.implicit_gemm_mnk();
    if in_c > problem.c {
        return Err(TensorError::shape(
            "im2col_into input channels",
            &[problem.c],
            &[in_c],
        ));
    }
    if input_nhwc.len() != problem.n * problem.h * problem.w * in_c {
        return Err(TensorError::shape(
            "im2col_into input",
            &[problem.n * problem.h * problem.w * in_c],
            &[input_nhwc.len()],
        ));
    }
    if out.len() != m * kk {
        return Err(TensorError::shape(
            "im2col_into output",
            &[m * kk],
            &[out.len()],
        ));
    }
    if kk == 0 {
        return Ok(());
    }
    // One im2col row per output pixel, one `c`-wide run per filter tap:
    // an in-image tap copies its `in_c` channels in one run, and the
    // channel pad and out-of-image taps are zero-filled.
    for (pixel, row) in out.chunks_exact_mut(kk).enumerate() {
        let (n, oy, ox) = (pixel / (p * q), pixel / q % p, pixel % q);
        for (tap, run) in row.chunks_exact_mut(problem.c).enumerate() {
            let (r, s) = (tap / problem.s, tap % problem.s);
            let iy = (oy * problem.stride.0 + r * problem.dilation.0)
                .checked_sub(problem.padding.0)
                .filter(|&iy| iy < problem.h);
            let ix = (ox * problem.stride.1 + s * problem.dilation.1)
                .checked_sub(problem.padding.1)
                .filter(|&ix| ix < problem.w);
            let (chans, pad) = run.split_at_mut(in_c);
            match (iy, ix) {
                (Some(iy), Some(ix)) => chans.copy_from_slice(
                    &input_nhwc[((n * problem.h + iy) * problem.w + ix) * in_c..][..in_c],
                ),
                _ => chans.fill(0.0),
            }
            pad.fill(0.0);
        }
    }
    Ok(())
}

/// Reshapes a `(k, r, s, c)` filter tensor into the `(R*S*C, K)` matrix that
/// pairs with [`im2col`].
pub fn filter_as_matrix(problem: &Conv2dProblem, filter: &Tensor) -> Result<Tensor> {
    validate_filter(problem, filter)?;
    let kk = problem.r * problem.s * problem.c;
    let mut out = Tensor::zeros(&[kk, problem.k], filter.dtype());
    let fdims = (problem.k, problem.c, problem.r, problem.s);
    for k in 0..problem.k {
        for r in 0..problem.r {
            for s in 0..problem.s {
                for c in 0..problem.c {
                    let row = (r * problem.s + s) * problem.c + c;
                    out.set2(row, k, filter_get(filter, fdims, k, c, r, s));
                }
            }
        }
    }
    Ok(out)
}

#[inline]
fn filter_get(
    filter: &Tensor,
    (_k, c, _r, s): (usize, usize, usize, usize),
    ki: usize,
    ci: usize,
    ri: usize,
    si: usize,
) -> f32 {
    // Filter stored contiguously as (K, R, S, C) — CUTLASS's KRSC.
    let idx = ((ki * _r_of(filter) + ri) * s + si) * c + ci;
    filter.data()[idx]
}

#[inline]
fn _r_of(filter: &Tensor) -> usize {
    filter.shape().dim(1)
}

fn validate_conv_args(
    problem: &Conv2dProblem,
    input: &Tensor,
    filter: &Tensor,
    bias: Option<&Tensor>,
) -> Result<()> {
    validate_input(problem, input)?;
    validate_filter(problem, filter)?;
    if let Some(b) = bias {
        if b.shape().rank() != 1 || b.shape().dim(0) != problem.k {
            return Err(TensorError::shape(
                "conv2d bias",
                &[problem.k],
                b.shape().dims(),
            ));
        }
    }
    Ok(())
}

fn validate_input(problem: &Conv2dProblem, input: &Tensor) -> Result<()> {
    if input.layout() != Layout::Nhwc {
        return Err(TensorError::UnsupportedLayout {
            context: "conv2d_ref input".into(),
            layout: input.layout().name(),
        });
    }
    let expect = [problem.n, problem.h, problem.w, problem.c];
    if input.shape().dims() != expect {
        return Err(TensorError::shape(
            "conv2d input",
            &expect,
            input.shape().dims(),
        ));
    }
    Ok(())
}

fn validate_filter(problem: &Conv2dProblem, filter: &Tensor) -> Result<()> {
    let expect = [problem.k, problem.r, problem.s, problem.c];
    if filter.shape().dims() != expect {
        return Err(TensorError::shape(
            "conv2d filter (KRSC)",
            &expect,
            filter.shape().dims(),
        ));
    }
    Ok(())
}

/// Creates an NHWC input tensor for `problem` with deterministic normal
/// entries.
pub fn random_input(problem: &Conv2dProblem, dtype: DType, seed: u64) -> Tensor {
    Tensor::randn(&[problem.n, problem.c, problem.h, problem.w], dtype, seed)
        .to_activation_layout(Layout::Nhwc)
        .expect("rank-4 tensor converts to NHWC")
}

/// Creates a KRSC filter tensor for `problem` with deterministic normal
/// entries.
pub fn random_filter(problem: &Conv2dProblem, dtype: DType, seed: u64) -> Tensor {
    // Contiguous rank-4 (K,R,S,C); scale down so deep chains stay in f16
    // range.
    let t = Tensor::randn(&[problem.k, problem.r, problem.s, problem.c], dtype, seed);
    let scale = 1.0 / ((problem.r * problem.s * problem.c) as f32).sqrt();
    let data = t.data().iter().map(|v| v * scale).collect();
    Tensor::from_vec(&[problem.k, problem.r, problem.s, problem.c], dtype, data)
        .expect("same length")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_problem() -> Conv2dProblem {
        Conv2dProblem::new(1, 5, 5, 3, 4, 3, 3, (1, 1), (1, 1))
    }

    #[test]
    fn output_dims() {
        let p = small_problem();
        assert_eq!(p.out_h(), 5);
        assert_eq!(p.out_w(), 5);
        let strided = Conv2dProblem::new(1, 224, 224, 3, 64, 3, 3, (2, 2), (1, 1));
        assert_eq!(strided.out_h(), 112);
        let pw = Conv2dProblem::new(1, 56, 56, 64, 64, 1, 1, (1, 1), (0, 0));
        assert_eq!(pw.out_h(), 56);
        assert!(pw.is_pointwise_unit());
        assert!(!strided.is_pointwise_unit());
    }

    #[test]
    fn implicit_gemm_shape() {
        let p = small_problem();
        assert_eq!(p.implicit_gemm_mnk(), (25, 4, 27));
        assert_eq!(p.macs(), 25 * 4 * 27);
    }

    #[test]
    fn identity_filter_passthrough() {
        // A 1x1 conv with identity-matrix filters must reproduce the input.
        let p = Conv2dProblem::new(1, 4, 4, 3, 3, 1, 1, (1, 1), (0, 0));
        let x = random_input(&p, DType::F32, 11);
        let mut f = Tensor::zeros(&[3, 1, 1, 3], DType::F32);
        for k in 0..3 {
            let idx = k * 3 + k;
            f.data_mut()[idx] = 1.0;
        }
        let y = conv2d_ref(&p, &x, &f, None, Activation::Identity).unwrap();
        assert!(y.allclose(&x, 1e-6).unwrap());
    }

    #[test]
    fn conv_matches_im2col_gemm() {
        let p = small_problem();
        let x = random_input(&p, DType::F32, 3);
        let f = random_filter(&p, DType::F32, 4);
        let direct = conv2d_ref(&p, &x, &f, None, Activation::Identity).unwrap();

        let cols = im2col(&p, &x).unwrap();
        let fm = filter_as_matrix(&p, &f).unwrap();
        let gemm = crate::gemm_ref::gemm_f32(&cols, &fm, None, 1.0, 0.0).unwrap();

        let (m, n, _) = p.implicit_gemm_mnk();
        assert_eq!(gemm.shape().dims(), &[m, n]);
        // Compare elementwise through the NPQK <-> (N*P*Q, K) mapping.
        let (pn, pk) = (p.out_h(), p.out_w());
        for row in 0..m {
            let n_i = row / (pn * pk);
            let oy = (row / pk) % pn;
            let ox = row % pk;
            for k in 0..n {
                let d = direct.get4(n_i, k, oy, ox);
                let g = gemm.get2(row, k);
                assert!((d - g).abs() < 1e-4, "mismatch at {row},{k}: {d} vs {g}");
            }
        }
    }

    #[test]
    fn bias_and_activation() {
        let p = Conv2dProblem::new(1, 2, 2, 1, 1, 1, 1, (1, 1), (0, 0));
        let x = Tensor::from_vec(&[1, 1, 2, 2], DType::F32, vec![-1.0, 2.0, -3.0, 4.0])
            .unwrap()
            .to_activation_layout(Layout::Nhwc)
            .unwrap();
        let f = Tensor::ones(&[1, 1, 1, 1], DType::F32);
        let b = Tensor::from_vec(&[1], DType::F32, vec![0.5]).unwrap();
        let y = conv2d_ref(&p, &x, &f, Some(&b), Activation::ReLU).unwrap();
        assert_eq!(y.get4(0, 0, 0, 0), 0.0); // relu(-1 + 0.5)
        assert_eq!(y.get4(0, 0, 0, 1), 2.5);
    }

    #[test]
    fn padding_zero_contribution() {
        // All-ones input and filter: corner outputs see fewer taps.
        let p = Conv2dProblem::new(1, 3, 3, 1, 1, 3, 3, (1, 1), (1, 1));
        let x = Tensor::ones(&[1, 1, 3, 3], DType::F32)
            .to_activation_layout(Layout::Nhwc)
            .unwrap();
        let f = Tensor::ones(&[1, 3, 3, 1], DType::F32);
        let y = conv2d_ref(&p, &x, &f, None, Activation::Identity).unwrap();
        assert_eq!(y.get4(0, 0, 1, 1), 9.0); // center sees all 9
        assert_eq!(y.get4(0, 0, 0, 0), 4.0); // corner sees 4
        assert_eq!(y.get4(0, 0, 0, 1), 6.0); // edge sees 6
    }

    #[test]
    fn shape_validation() {
        let p = small_problem();
        let bad_input = Tensor::randn(&[1, 3, 5, 5], DType::F32, 1); // NCHW layout
        let f = random_filter(&p, DType::F32, 2);
        assert!(conv2d_ref(&p, &bad_input, &f, None, Activation::Identity).is_err());
        let x = random_input(&p, DType::F32, 1);
        let bad_filter = Tensor::zeros(&[4, 3, 3, 2], DType::F32);
        assert!(conv2d_ref(&p, &x, &bad_filter, None, Activation::Identity).is_err());
        let bad_bias = Tensor::zeros(&[3], DType::F32);
        assert!(conv2d_ref(&p, &x, &f, Some(&bad_bias), Activation::Identity).is_err());
    }

    #[test]
    fn strided_dilated_output_dims() {
        let p = Conv2dProblem {
            n: 1,
            h: 10,
            w: 10,
            c: 1,
            k: 1,
            r: 3,
            s: 3,
            stride: (2, 2),
            padding: (0, 0),
            dilation: (2, 2),
        };
        // Effective kernel span = 5 -> out = (10-5)/2+1 = 3.
        assert_eq!(p.out_h(), 3);
        assert_eq!(p.out_w(), 3);
    }
}
