//! Memory-system models: alignment-dependent DRAM efficiency and
//! shared-memory bank conflicts.
//!
//! The paper's kernel-padding optimization (Section 3.2.3, Table 3) exists
//! because "the largest vectorized load and store supported by NVIDIA GPUs
//! is 128 bits", so FP16 tensors whose contiguous dimension is not a
//! multiple of 8 must fall back to narrower accesses, costing instruction
//! issue slots, predicates, and coalescing. This module is where that
//! effect lives in the simulator.

use bolt_tensor::DType;

/// Fraction of peak DRAM bandwidth achievable when the widest legal
/// vectorized access is `alignment_elems` elements of `dtype`.
///
/// Alignment 8 for FP16 corresponds to full 128-bit accesses (factor 1.0);
/// each halving of the access width costs issue bandwidth and coalescing
/// efficiency. The factors are calibrated so that an alignment-2 Conv2D
/// gains ~1.8× from padding to alignment 8, matching Table 3.
///
/// ```
/// use bolt_gpu_sim::alignment_efficiency;
/// use bolt_tensor::DType;
/// let full = alignment_efficiency(DType::F16, 8);
/// let narrow = alignment_efficiency(DType::F16, 2);
/// assert!(full / narrow > 1.5);
/// ```
pub fn alignment_efficiency(dtype: DType, alignment_elems: usize) -> f64 {
    let access_bits = (dtype.size_bits() * alignment_elems.max(1)).min(128);
    match access_bits {
        128 => 1.00,
        64 => 0.82,
        32 => 0.55,
        16 => 0.42,
        _ => 0.35,
    }
}

/// The largest power-of-two vector width (in elements) usable for a
/// contiguous dimension of `extent` elements of `dtype`, capped at the
/// 128-bit hardware maximum.
///
/// ```
/// use bolt_gpu_sim::memory::max_alignment;
/// use bolt_tensor::DType;
/// assert_eq!(max_alignment(DType::F16, 64), 8);
/// assert_eq!(max_alignment(DType::F16, 46), 2);
/// assert_eq!(max_alignment(DType::F16, 3), 1);
/// ```
pub fn max_alignment(dtype: DType, extent: usize) -> usize {
    let cap = dtype.max_vector_elems();
    let mut align = cap;
    while align > 1 && !extent.is_multiple_of(align) {
        align /= 2;
    }
    align
}

/// Slowdown multiplier (≥ 1) for shared-memory traffic served with an
/// `n`-way bank conflict. A conflict-free layout has `ways = 1`; the
/// paper's smem-resident persistent kernels "carefully design the shared
/// memory layout to avoid any shared memory bank conflict", which is why
/// the fused-kernel profiles in `bolt-cutlass` use `ways = 1` while a naive
/// staging layout would pay 2–8×.
pub fn bank_conflict_slowdown(ways: f64) -> f64 {
    ways.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_efficiency_monotone_in_width() {
        let mut prev = 0.0;
        for align in [1usize, 2, 4, 8] {
            let e = alignment_efficiency(DType::F16, align);
            assert!(e >= prev, "align {align}");
            prev = e;
        }
        assert_eq!(alignment_efficiency(DType::F16, 8), 1.0);
    }

    #[test]
    fn alignment_caps_at_128_bits() {
        // Alignment 16 of f16 is still a 128-bit access.
        assert_eq!(alignment_efficiency(DType::F16, 16), 1.0);
        // f32 with alignment 4 is 128 bits.
        assert_eq!(alignment_efficiency(DType::F32, 4), 1.0);
    }

    #[test]
    fn max_alignment_from_extent() {
        assert_eq!(max_alignment(DType::F16, 64), 8);
        assert_eq!(max_alignment(DType::F16, 48), 8);
        assert_eq!(max_alignment(DType::F16, 46), 2);
        assert_eq!(max_alignment(DType::F16, 174), 2);
        assert_eq!(max_alignment(DType::F16, 3), 1);
        assert_eq!(max_alignment(DType::F32, 6), 2);
        assert_eq!(max_alignment(DType::I8, 32), 16);
    }

    #[test]
    fn padding_gain_matches_table3_band() {
        // Table 3: alignment 2 -> 8 gives 1.6x-2.0x. The raw bandwidth
        // ratio must sit in/above that band (compute overlap brings the
        // end-to-end ratio down into it).
        let gain = alignment_efficiency(DType::F16, 8) / alignment_efficiency(DType::F16, 2);
        assert!(gain > 1.5 && gain < 2.2, "gain {gain}");
    }

    #[test]
    fn bank_conflicts() {
        assert_eq!(bank_conflict_slowdown(0.5), 1.0);
        assert_eq!(bank_conflict_slowdown(4.0), 4.0);
    }
}
