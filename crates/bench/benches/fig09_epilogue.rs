//! Figure 9: epilogue fusion on GEMM/Conv2D + BiasAdd + Activation.
//!
//! Paper setup: GEMM `M=1280, N=3072, K=768`; Conv2D `H=W=56, IC=OC=64,
//! 3×3, stride 1, padding 1`. Baseline is Bolt *without* epilogue fusion:
//! Bolt computes the GEMM/Conv, TVM fuses BiasAdd+activation into one
//! separate elementwise kernel.
//!
//! Paper claim: average speedup **1.45× (GEMM)** and **1.38× (Conv)**
//! over ReLU / GELU / Hardswish / Softplus.

use bolt::BoltProfiler;
use bolt_bench::{fmt_us, Table};
use bolt_cutlass::{Epilogue, GemmProblem};
use bolt_gpu_sim::{simulate_kernel, GpuArch, KernelProfile};
use bolt_tensor::conv_ref::Conv2dProblem;
use bolt_tensor::{Activation, DType};

/// TVM's fused BiasAdd+activation elementwise kernel: read D + bias,
/// write D, plus the activation's arithmetic.
fn tvm_eltwise_us(arch: &GpuArch, elems: usize, act: Activation) -> f64 {
    let bytes = (2 * elems) as f64 * 2.0; // read + write FP16
    let mut profile = KernelProfile::memory_only(bytes);
    profile.flops.cuda_core = (act.fma_ops_per_elem() + 2.0) * elems as f64;
    profile.flops.sfu = act.sfu_ops_per_elem() * elems as f64;
    simulate_kernel(arch, &profile).total_us
}

fn main() {
    let t4 = GpuArch::tesla_t4();
    let profiler = BoltProfiler::new(&t4, 30);

    let gemm = GemmProblem::fp16(1280, 3072, 768);
    let conv = Conv2dProblem::new(32, 56, 56, 64, 64, 3, 3, (1, 1), (1, 1));
    let conv_out_elems = conv.implicit_gemm_mnk().0 * conv.k;

    let mut table = Table::new(&[
        "activation",
        "GEMM unfused",
        "GEMM fused",
        "GEMM speedup",
        "Conv unfused",
        "Conv fused",
        "Conv speedup",
    ]);
    let mut gemm_speedups = Vec::new();
    let mut conv_speedups = Vec::new();

    for act in Activation::REPVGG_SWEEP {
        // GEMM.
        let fused_ep = Epilogue::bias_activation(act, DType::F16);
        let fused = profiler
            .profile_gemm(&gemm, &fused_ep)
            .expect("profiled")
            .time_us;
        let plain = profiler
            .profile_gemm(&gemm, &Epilogue::linear(DType::F16))
            .expect("profiled")
            .time_us;
        let unfused = plain + tvm_eltwise_us(&t4, gemm.m * gemm.n, act);
        let g_speedup = unfused / fused;
        gemm_speedups.push(g_speedup);

        // Conv2D.
        let cfused = profiler
            .profile_conv2d(&conv, &fused_ep, DType::F16)
            .expect("profiled")
            .time_us;
        let cplain = profiler
            .profile_conv2d(&conv, &Epilogue::linear(DType::F16), DType::F16)
            .expect("profiled")
            .time_us;
        let cunfused = cplain + tvm_eltwise_us(&t4, conv_out_elems, act);
        let c_speedup = cunfused / cfused;
        conv_speedups.push(c_speedup);

        table.row(&[
            act.to_string(),
            fmt_us(unfused),
            fmt_us(fused),
            format!("{g_speedup:.2}x"),
            fmt_us(cunfused),
            fmt_us(cfused),
            format!("{c_speedup:.2}x"),
        ]);
    }
    table.print("Figure 9: epilogue fusion, GEMM/Conv2D + BiasAdd + activation");
    table.write_csv("fig09_epilogue");

    let gavg = gemm_speedups.iter().sum::<f64>() / gemm_speedups.len() as f64;
    let cavg = conv_speedups.iter().sum::<f64>() / conv_speedups.len() as f64;
    println!("average speedup: GEMM {gavg:.2}x (paper 1.45x), Conv {cavg:.2}x (paper 1.38x)");
}
