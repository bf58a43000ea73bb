//! Table 3: automated kernel padding — performance and overhead.
//!
//! Production Conv2D workloads whose input channels (46, 174) are not
//! divisible by 8 compute with alignment 2; Bolt pads them to the next
//! multiple of 8 and runs with alignment 8 (full 128-bit vectorized
//! access). The pad kernel itself costs time.
//!
//! Paper claims: padded speed **1.60-1.99×** (avg ~1.8×) and padding
//! overhead **9-24%** (avg 16%) of total computation time.

use bolt::BoltProfiler;
use bolt_bench::{fmt_us, Table};
use bolt_cutlass::Epilogue;
use bolt_gpu_sim::{simulate_kernel, GpuArch, KernelProfile};
use bolt_tensor::conv_ref::Conv2dProblem;
use bolt_tensor::DType;

fn rows() -> Vec<(Conv2dProblem, f64, f64)> {
    // (problem, paper speedup, paper cost %)
    let mk = |n, h, w, c, k, r, s, p: (usize, usize)| Conv2dProblem {
        n,
        h,
        w,
        c,
        k,
        r,
        s,
        stride: (1, 1),
        padding: p,
        dilation: (1, 1),
    };
    vec![
        (mk(32, 20, 26, 46, 32, 3, 3, (1, 1)), 1.62, 18.0),
        (mk(32, 20, 26, 46, 32, 5, 5, (2, 2)), 1.95, 9.0),
        (mk(128, 14, 19, 46, 32, 5, 7, (0, 0)), 1.77, 15.0),
        (mk(288, 11, 15, 46, 32, 5, 7, (0, 0)), 1.71, 18.0),
        (mk(32, 20, 26, 174, 64, 3, 3, (1, 1)), 1.60, 24.0),
        (mk(32, 20, 26, 174, 64, 5, 5, (2, 2)), 1.99, 12.0),
    ]
}

fn main() {
    let t4 = GpuArch::tesla_t4();
    let profiler = BoltProfiler::new(&t4, 30);
    let ep = Epilogue::linear(DType::F16);

    let mut table = Table::new(&[
        "N",
        "H,W",
        "IC,OC",
        "kernel",
        "unpadded",
        "padded",
        "speedup",
        "paper",
        "pad cost",
        "paper cost",
    ]);
    for (problem, paper_x, paper_cost) in rows() {
        let unpadded = profiler
            .profile_conv2d(&problem, &ep, DType::F16)
            .expect("profiled")
            .time_us;

        let padded_c = problem.c.div_ceil(8) * 8;
        let padded_problem = Conv2dProblem {
            c: padded_c,
            ..problem
        };
        let padded = profiler
            .profile_conv2d(&padded_problem, &ep, DType::F16)
            .expect("profiled")
            .time_us;

        // The standalone pad kernel: read the unaligned tensor, write the
        // padded one.
        let elt = 2.0;
        let pad_bytes =
            (problem.n * problem.h * problem.w) as f64 * (problem.c + padded_c) as f64 * elt;
        let mut pad_profile = KernelProfile::memory_only(pad_bytes);
        // Reads are alignment-2, writes alignment-8: effective width ~4.
        pad_profile.alignment_elems = 4;
        let pad_us = simulate_kernel(&t4, &pad_profile).total_us;

        let speedup = unpadded / padded;
        let cost = 100.0 * pad_us / (pad_us + padded);
        table.row(&[
            problem.n.to_string(),
            format!("{},{}", problem.h, problem.w),
            format!("{},{}", problem.c, problem.k),
            format!("({},{})", problem.r, problem.s),
            fmt_us(unpadded),
            fmt_us(padded),
            format!("{speedup:.2}x"),
            format!("{paper_x:.2}x"),
            format!("{cost:.0}%"),
            format!("{paper_cost:.0}%"),
        ]);
    }
    table.print("Table 3: automated padding to alignment 8 (unpadded alignment 2)");
    table.write_csv("table3_padding");
}
