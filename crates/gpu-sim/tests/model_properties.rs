//! Property tests on the analytic performance model: the simulator must
//! be *monotone* in work (more flops/bytes never runs faster) and
//! well-behaved at extremes — the sanity conditions any cost model used
//! for search must satisfy, or the tuner would exploit its bugs.

use proptest::prelude::*;

use bolt_gpu_sim::{simulate_kernel, BlockResources, GpuArch, KernelProfile, Occupancy};
use bolt_tensor::DType;

fn arbitrary_profile() -> impl Strategy<Value = KernelProfile> {
    (
        1u64..100_000, // grid blocks
        1u32..9,       // warps per block
        16u32..200,    // regs per thread
        0u32..48,      // smem KiB
        0.0f64..1e12,  // tensor-core flops
        0.0f64..1e11,  // cuda flops
        0.0f64..1e9,   // dram bytes
        prop::sample::select(vec![1usize, 2, 4, 8]),
        0.05f64..1.0, // mainloop efficiency
    )
        .prop_map(
            |(grid, warps, regs, smem_kib, tc, cc, bytes, align, eff)| KernelProfile {
                grid_blocks: grid,
                block: BlockResources::new(warps * 32, regs, smem_kib * 1024),
                flops: bolt_gpu_sim::PipelineFlops {
                    tensor_core: tc,
                    cuda_core: cc,
                    sfu: 0.0,
                },
                dram_read_bytes: bytes,
                dram_write_bytes: bytes / 2.0,
                smem_bytes: bytes / 4.0,
                dtype: DType::F16,
                alignment_elems: align,
                bank_conflict_ways: 1.0,
                mainloop_efficiency: eff,
                pipelined_overlap: 0.25,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn time_is_positive_and_not_nan(profile in arbitrary_profile()) {
        let t = simulate_kernel(&GpuArch::tesla_t4(), &profile);
        prop_assert!(t.total_us > 0.0);
        prop_assert!(!t.total_us.is_nan());
    }

    #[test]
    fn more_flops_never_runs_faster(profile in arbitrary_profile(), scale in 1.0f64..10.0) {
        let t4 = GpuArch::tesla_t4();
        let base = simulate_kernel(&t4, &profile);
        prop_assume!(base.total_us.is_finite());
        let mut heavier = profile.clone();
        heavier.flops.tensor_core *= scale;
        heavier.flops.cuda_core *= scale;
        let t = simulate_kernel(&t4, &heavier);
        prop_assert!(t.total_us >= base.total_us * 0.999);
    }

    #[test]
    fn more_bytes_never_run_faster(profile in arbitrary_profile(), extra in 0.0f64..1e9) {
        let t4 = GpuArch::tesla_t4();
        let base = simulate_kernel(&t4, &profile);
        prop_assume!(base.total_us.is_finite());
        let mut heavier = profile.clone();
        heavier.dram_read_bytes += extra;
        let t = simulate_kernel(&t4, &heavier);
        prop_assert!(t.total_us >= base.total_us * 0.999);
    }

    #[test]
    fn wider_alignment_never_hurts(profile in arbitrary_profile()) {
        let t4 = GpuArch::tesla_t4();
        let mut narrow = profile.clone();
        narrow.alignment_elems = 2;
        let mut wide = profile.clone();
        wide.alignment_elems = 8;
        let tn = simulate_kernel(&t4, &narrow);
        let tw = simulate_kernel(&t4, &wide);
        prop_assume!(tn.total_us.is_finite());
        prop_assert!(tw.total_us <= tn.total_us * 1.001);
    }

    #[test]
    fn better_overlap_never_hurts(profile in arbitrary_profile()) {
        let t4 = GpuArch::tesla_t4();
        let mut poor = profile.clone();
        poor.pipelined_overlap = 0.0;
        let mut good = profile.clone();
        good.pipelined_overlap = 0.9;
        let tp = simulate_kernel(&t4, &poor);
        let tg = simulate_kernel(&t4, &good);
        prop_assume!(tp.total_us.is_finite());
        prop_assert!(tg.total_us <= tp.total_us * 1.001);
    }

    #[test]
    fn occupancy_is_monotone_in_resources(
        threads in prop::sample::select(vec![32u32, 64, 128, 256, 512]),
        regs in 16u32..128,
        smem in 0u32..32,
    ) {
        let t4 = GpuArch::tesla_t4();
        let base = Occupancy::compute(&t4, BlockResources::new(threads, regs, smem * 1024));
        let more_regs = Occupancy::compute(&t4, BlockResources::new(threads, regs + 32, smem * 1024));
        let more_smem = Occupancy::compute(&t4, BlockResources::new(threads, regs, (smem + 8) * 1024));
        prop_assert!(more_regs.blocks_per_sm <= base.blocks_per_sm);
        prop_assert!(more_smem.blocks_per_sm <= base.blocks_per_sm);
    }

    #[test]
    fn faster_archs_are_never_slower_on_compute(profile in arbitrary_profile()) {
        // The A100 dominates the T4 in every datasheet number, so no
        // kernel should run slower there.
        let t4 = GpuArch::tesla_t4();
        let a100 = GpuArch::a100();
        let t = simulate_kernel(&t4, &profile);
        let a = simulate_kernel(&a100, &profile);
        prop_assume!(t.total_us.is_finite() && a.total_us.is_finite());
        prop_assert!(a.total_us <= t.total_us * 1.01, "{} vs {}", a.total_us, t.total_us);
    }
}
