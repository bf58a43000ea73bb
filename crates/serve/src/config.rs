//! Server configuration: batching policy, admission control, worker pool.

use std::time::Duration;

use crate::error::ServeError;
use crate::online::OnlineConfig;

/// Tunables for a [`crate::BoltServer`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Number of worker threads, each modelling one GPU stream: batches
    /// dispatched to the same worker serialize on its simulated timeline.
    pub workers: usize,
    /// Largest batch the scheduler forms. A queue is drained as soon as
    /// this many requests are waiting.
    pub max_batch: usize,
    /// How long a partial batch may wait for company before it is
    /// dispatched anyway — the classic dynamic-batching knob trading
    /// per-request latency for batch efficiency.
    pub batch_timeout: Duration,
    /// Bounded per-(model, shape) queue depth. A submit against a full
    /// queue fails fast with [`crate::ServeError::QueueFull`]
    /// (backpressure) instead of growing latency without bound.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own. Requests
    /// still queued past their deadline are shed at batch-formation time
    /// ([`crate::Outcome::DeadlineExceeded`]) rather than executed late.
    pub default_deadline: Option<Duration>,
    /// Execute batches functionally (`ExecutionPlan::run_batched`) when
    /// the model's parameters are materialized. Timing-only models (the
    /// shapes-only zoo CNNs) are always priced on the simulator only.
    pub functional: bool,
    /// Batch-bucket sizes to compile engines for. `None` selects powers
    /// of two up to [`ServeConfig::max_batch`] (always including
    /// `max_batch` itself); a formed batch runs on the smallest bucket
    /// that fits, its padding rows zero-filled.
    pub batch_buckets: Option<Vec<usize>>,
    /// Enables online tuning: unseen batch shapes are served on a
    /// fallback path while a background tuner compiles, hot-swaps, and
    /// (under a memory budget) evicts engines. `None` serves only
    /// precompiled buckets.
    pub online: Option<OnlineConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 8,
            batch_timeout: Duration::from_millis(2),
            queue_capacity: 256,
            default_deadline: None,
            functional: true,
            batch_buckets: None,
            online: None,
        }
    }
}

impl ServeConfig {
    /// Checks the configuration invariants the server depends on. Called
    /// by [`crate::BoltServer::start`]; a violation is a typed
    /// [`ServeError::Config`] instead of a panic (or a silent hang) once
    /// the threads are running.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] when `workers == 0` (no streams to execute
    /// on), `max_batch == 0` (no batch can ever form), `queue_capacity
    /// == 0` (every submit would be backpressured), or `batch_timeout`
    /// is zero with no `default_deadline` (partial batches would flush
    /// in a hot loop with no deadline ever shedding queued work).
    pub fn validate(&self) -> std::result::Result<(), ServeError> {
        let reason = if self.workers == 0 {
            "workers must be >= 1 (each worker is one simulated GPU stream)"
        } else if self.max_batch == 0 {
            "max_batch must be >= 1 (no batch can ever form)"
        } else if self.queue_capacity == 0 {
            "queue_capacity must be >= 1 (every submit would be rejected QueueFull)"
        } else if self.batch_timeout.is_zero() && self.default_deadline.is_none() {
            "batch_timeout of zero requires a default_deadline \
             (otherwise nothing bounds a request's wait)"
        } else {
            return Ok(());
        };
        Err(ServeError::Config {
            reason: reason.to_string(),
        })
    }

    /// The bucket sizes engines are compiled for: the explicit
    /// [`ServeConfig::batch_buckets`] (sorted, deduplicated), or powers
    /// of two `1, 2, 4, …` up to and including [`ServeConfig::max_batch`].
    pub fn buckets(&self) -> Vec<usize> {
        let mut buckets = match &self.batch_buckets {
            Some(b) => b.clone(),
            None => {
                let mut b = Vec::new();
                let mut size = 1usize;
                while size < self.max_batch {
                    b.push(size);
                    size *= 2;
                }
                b.push(self.max_batch);
                b
            }
        };
        buckets.retain(|&b| b > 0);
        buckets.sort_unstable();
        buckets.dedup();
        buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_buckets_are_powers_of_two_up_to_max_batch() {
        let c = ServeConfig::default();
        assert_eq!(c.buckets(), vec![1, 2, 4, 8]);
        let odd = ServeConfig {
            max_batch: 6,
            ..Default::default()
        };
        assert_eq!(odd.buckets(), vec![1, 2, 4, 6]);
    }

    #[test]
    fn explicit_buckets_are_normalized() {
        let c = ServeConfig {
            batch_buckets: Some(vec![4, 1, 4, 0]),
            ..Default::default()
        };
        assert_eq!(c.buckets(), vec![1, 4]);
    }
}
