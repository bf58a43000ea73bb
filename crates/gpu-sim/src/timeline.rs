//! Execution timelines for multi-kernel programs.
//!
//! A compiled model is a sequence of kernel launches; the runtime in
//! `bolt` appends each simulated [`KernelTime`] to a
//! [`Timeline`] to obtain end-to-end latency and a per-kernel breakdown
//! (what Figure 10a reports as inference speed).

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::kernel::KernelTime;

/// One kernel execution on the timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelEvent {
    /// Kernel name.
    pub name: String,
    /// Start time in microseconds since timeline origin.
    pub start_us: f64,
    /// Duration in microseconds.
    pub duration_us: f64,
    /// The dominating resource, as a string (for reports).
    pub bound: String,
}

/// An ordered sequence of kernel executions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    events: Vec<KernelEvent>,
    cursor_us: f64,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Appends a kernel execution at the current cursor.
    pub fn push(&mut self, name: impl Into<String>, time: &KernelTime) {
        let event = KernelEvent {
            name: name.into(),
            start_us: self.cursor_us,
            duration_us: time.total_us,
            bound: time.bound.to_string(),
        };
        self.cursor_us += time.total_us;
        self.events.push(event);
    }

    /// Appends a fixed-duration event (e.g. a host-side pause).
    pub fn push_raw(&mut self, name: impl Into<String>, duration_us: f64, bound: &str) {
        let event = KernelEvent {
            name: name.into(),
            start_us: self.cursor_us,
            duration_us,
            bound: bound.to_string(),
        };
        self.cursor_us += duration_us;
        self.events.push(event);
    }

    /// Total elapsed time in microseconds.
    pub fn total_us(&self) -> f64 {
        self.cursor_us
    }

    /// The recorded events in execution order.
    pub fn events(&self) -> &[KernelEvent] {
        &self.events
    }

    /// Number of kernel launches.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no kernels were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Merges another timeline onto the end of this one.
    pub fn extend(&mut self, other: &Timeline) {
        for e in &other.events {
            let mut e = e.clone();
            e.start_us += self.cursor_us;
            self.events.push(e);
        }
        self.cursor_us += other.cursor_us;
    }

    /// The `n` longest events, for profiling reports.
    pub fn hottest(&self, n: usize) -> Vec<&KernelEvent> {
        let mut sorted: Vec<&KernelEvent> = self.events.iter().collect();
        sorted.sort_by(|a, b| b.duration_us.total_cmp(&a.duration_us));
        sorted.truncate(n);
        sorted
    }
}

impl fmt::Display for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "timeline: {} kernels, {:.1} us total",
            self.len(),
            self.total_us()
        )?;
        for e in &self.events {
            writeln!(
                f,
                "  {:>10.1} us  {:>10.1} us  {:<14} {}",
                e.start_us, e.duration_us, e.bound, e.name
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::GpuArch;
    use crate::kernel::{simulate_kernel, KernelProfile};

    #[test]
    fn push_accumulates() {
        let t4 = GpuArch::tesla_t4();
        let k = simulate_kernel(&t4, &KernelProfile::memory_only((1 << 20) as f64));
        let mut tl = Timeline::new();
        assert!(tl.is_empty());
        tl.push("k1", &k);
        tl.push("k2", &k);
        assert_eq!(tl.len(), 2);
        assert!((tl.total_us() - 2.0 * k.total_us).abs() < 1e-9);
        assert_eq!(tl.events()[1].start_us, k.total_us);
    }

    #[test]
    fn extend_offsets_events() {
        let mut a = Timeline::new();
        a.push_raw("x", 10.0, "memory-bound");
        let mut b = Timeline::new();
        b.push_raw("y", 5.0, "compute-bound");
        a.extend(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.events()[1].start_us, 10.0);
        assert_eq!(a.total_us(), 15.0);
    }

    #[test]
    fn hottest_sorts_by_duration() {
        let mut tl = Timeline::new();
        tl.push_raw("short", 1.0, "x");
        tl.push_raw("long", 9.0, "x");
        tl.push_raw("mid", 5.0, "x");
        let hot = tl.hottest(2);
        assert_eq!(hot[0].name, "long");
        assert_eq!(hot[1].name, "mid");
    }

    #[test]
    fn display_contains_names() {
        let mut tl = Timeline::new();
        tl.push_raw("gemm_fused", 3.0, "compute-bound");
        let s = tl.to_string();
        assert!(s.contains("gemm_fused"));
        assert!(s.contains("1 kernels"));
    }
}
