//! Summary statistics and the seeded generator every workload draws from.

/// Percentile `p` (0–100) of `samples` by linear interpolation between
/// closest ranks. `samples` need not be sorted; empty input gives 0.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; 0 for empty input.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Geometric mean of positive samples; 0 for empty input.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// The tail percentile reported for wall-clock timings. Back-to-back
/// runs on a shared 2-vCPU host moved p99 by up to half while p90 stayed
/// within a few percent, so wall tails stop at p90.
pub const WALL_TAIL_PERCENTILE: f64 = 90.0;

/// The highest whole percentile of `n` exact (simulated) samples that
/// still leaves at least ten samples beyond it, capped at p99.
pub fn sim_tail_percentile(n: usize) -> f64 {
    if n <= 10 {
        return 50.0;
    }
    ((100 * (n - 10)) / n).min(99) as f64
}

/// Splitmix64: the benchmark's only source of randomness, so a seed
/// fixes every generated input.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, decorrelated per `stream` so workloads
    /// drawing from the same seed get independent sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn sim_tail_keeps_ten_samples_beyond() {
        assert_eq!(sim_tail_percentile(128), 92.0);
        assert_eq!(sim_tail_percentile(100), 90.0);
        assert_eq!(sim_tail_percentile(5000), 99.0);
        for n in [11, 37, 128, 999] {
            let p = sim_tail_percentile(n);
            assert!(n as f64 * (1.0 - p / 100.0) >= 10.0, "n={n} p={p}");
        }
    }

    #[test]
    fn geomean_of_equal_values_is_that_value() {
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }
}
