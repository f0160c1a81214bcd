//! Service observability: queue depth, batch formation and latency.
//!
//! The recorder is written from both sides of the service — submitters bump
//! the admission counters, the batcher thread records batches and
//! completions — so the cheap monotone counters are atomics and only the
//! histogram/latency state sits behind a mutex that is touched once per
//! batch, not once per request. [`ServiceStats`] is a consistent-enough
//! snapshot: counters are monotone and independent, so a snapshot taken
//! between two bumps is still a valid state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use super::batcher::FlushReason;

/// Completed-request latencies kept for percentile estimation. A bounded
/// window (the most recent completions) so a long-lived service's stats
/// stay O(1) in memory; mean and max are tracked over the full lifetime.
const LATENCY_WINDOW: usize = 8192;

/// Latency summary over a service's completed requests: percentiles over
/// the most recent 8192 (`LATENCY_WINDOW`) completions (nearest-rank), mean
/// and max over the whole lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Completions that contributed a latency sample (lifetime).
    pub samples: u64,
    /// Median enqueue-to-complete latency over the recent window.
    pub p50: Duration,
    /// 99th-percentile enqueue-to-complete latency over the recent window.
    pub p99: Duration,
    /// Mean enqueue-to-complete latency over the lifetime.
    pub mean: Duration,
    /// Maximum enqueue-to-complete latency over the lifetime.
    pub max: Duration,
}

/// A point-in-time snapshot of a service's counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests currently sitting in the submission queue (not yet claimed
    /// by the batcher).
    pub queue_depth: usize,
    /// Requests accepted onto the queue.
    pub submitted: u64,
    /// Non-blocking submissions rejected with a full queue (backpressure).
    pub rejected: u64,
    /// Submissions rejected at admission because the model priced them
    /// above the per-request cycle ceiling.
    pub over_budget: u64,
    /// Submissions deferred to the side queue by a tenant budget (each is
    /// eventually admitted or drained — deferral is a delay, not a drop).
    pub deferred: u64,
    /// Submissions rejected because the deferred side queue was full.
    pub deferral_overflow: u64,
    /// Requests whose handles have been fulfilled.
    pub completed: u64,
    /// Batches dispatched to the executor.
    pub batches: u64,
    /// Batches flushed by the size trigger (`max_batch` reached).
    pub size_flushes: u64,
    /// Batches flushed by the deadline trigger (`max_wait` elapsed).
    pub deadline_flushes: u64,
    /// Batches flushed by the shutdown drain.
    pub shutdown_flushes: u64,
    /// Batch-size distribution: `batch_size_histogram[s - 1]` counts the
    /// batches that were dispatched with exactly `s` items.
    pub batch_size_histogram: Vec<u64>,
    /// Enqueue-to-complete latency summary.
    pub latency: LatencySummary,
}

impl ServiceStats {
    /// Mean number of items per dispatched batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        let items: u64 = self
            .batch_size_histogram
            .iter()
            .enumerate()
            .map(|(i, count)| (i as u64 + 1) * count)
            .sum();
        items as f64 / self.batches as f64
    }
}

#[derive(Debug, Default)]
struct HistogramState {
    batches: u64,
    size_flushes: u64,
    deadline_flushes: u64,
    shutdown_flushes: u64,
    batch_sizes: Vec<u64>,
    latency_window: Vec<u64>,
    window_cursor: usize,
    latency_sum_us: u128,
    latency_max_us: u64,
    latency_samples: u64,
}

/// The service-internal mutable side of [`ServiceStats`].
#[derive(Debug, Default)]
pub(crate) struct StatsRecorder {
    submitted: AtomicU64,
    rejected: AtomicU64,
    over_budget: AtomicU64,
    deferred: AtomicU64,
    deferral_overflow: AtomicU64,
    completed: AtomicU64,
    histogram: Mutex<HistogramState>,
}

impl StatsRecorder {
    pub(crate) fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_over_budget(&self) {
        self.over_budget.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_deferred(&self) {
        self.deferred.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_deferral_overflow(&self) {
        self.deferral_overflow.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a dispatched batch and its flush reason.
    pub(crate) fn record_batch(&self, size: usize, reason: FlushReason) {
        debug_assert!(size > 0, "empty batches are never dispatched");
        let mut state = self.lock();
        state.batches += 1;
        match reason {
            FlushReason::Size => state.size_flushes += 1,
            FlushReason::Deadline => state.deadline_flushes += 1,
            FlushReason::Shutdown => state.shutdown_flushes += 1,
        }
        if state.batch_sizes.len() < size {
            state.batch_sizes.resize(size, 0);
        }
        state.batch_sizes[size - 1] += 1;
    }

    /// Record one fulfilled request and its enqueue-to-complete latency.
    pub(crate) fn record_completion(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let mut state = self.lock();
        state.latency_samples += 1;
        state.latency_sum_us += u128::from(micros);
        state.latency_max_us = state.latency_max_us.max(micros);
        if state.latency_window.len() < LATENCY_WINDOW {
            state.latency_window.push(micros);
        } else {
            let cursor = state.window_cursor;
            state.latency_window[cursor] = micros;
            state.window_cursor = (cursor + 1) % LATENCY_WINDOW;
        }
    }

    /// Snapshot every counter. `queue_depth` is sampled by the caller (the
    /// recorder does not own the queue).
    pub(crate) fn snapshot(&self, queue_depth: usize) -> ServiceStats {
        let state = self.lock();
        let mut window: Vec<u64> = state.latency_window.clone();
        window.sort_unstable();
        let percentile = |q: f64| -> Duration {
            if window.is_empty() {
                return Duration::ZERO;
            }
            // Nearest-rank on the sorted window.
            let rank = ((q * window.len() as f64).ceil() as usize).clamp(1, window.len());
            Duration::from_micros(window[rank - 1])
        };
        let mean = if state.latency_samples == 0 {
            Duration::ZERO
        } else {
            Duration::from_micros((state.latency_sum_us / u128::from(state.latency_samples)) as u64)
        };
        ServiceStats {
            queue_depth,
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            over_budget: self.over_budget.load(Ordering::Relaxed),
            deferred: self.deferred.load(Ordering::Relaxed),
            deferral_overflow: self.deferral_overflow.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            batches: state.batches,
            size_flushes: state.size_flushes,
            deadline_flushes: state.deadline_flushes,
            shutdown_flushes: state.shutdown_flushes,
            batch_size_histogram: state.batch_sizes.clone(),
            latency: LatencySummary {
                samples: state.latency_samples,
                p50: percentile(0.50),
                p99: percentile(0.99),
                mean,
                max: Duration::from_micros(state.latency_max_us),
            },
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HistogramState> {
        self.histogram.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_histogrammed_by_size_and_reason() {
        let recorder = StatsRecorder::default();
        recorder.record_batch(3, FlushReason::Size);
        recorder.record_batch(1, FlushReason::Deadline);
        recorder.record_batch(3, FlushReason::Size);
        recorder.record_batch(2, FlushReason::Shutdown);
        let stats = recorder.snapshot(5);
        assert_eq!(stats.queue_depth, 5);
        assert_eq!(stats.batches, 4);
        assert_eq!(stats.size_flushes, 2);
        assert_eq!(stats.deadline_flushes, 1);
        assert_eq!(stats.shutdown_flushes, 1);
        assert_eq!(stats.batch_size_histogram, vec![1, 1, 2]);
        assert!((stats.mean_batch_size() - 9.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        let recorder = StatsRecorder::default();
        for micros in 1..=100u64 {
            recorder.record_completion(Duration::from_micros(micros));
        }
        let latency = recorder.snapshot(0).latency;
        assert_eq!(latency.samples, 100);
        assert_eq!(latency.p50, Duration::from_micros(50));
        assert_eq!(latency.p99, Duration::from_micros(99));
        assert_eq!(latency.max, Duration::from_micros(100));
        assert_eq!(latency.mean, Duration::from_micros(50)); // 50.5 truncated
    }

    #[test]
    fn admission_counters_are_independent() {
        let recorder = StatsRecorder::default();
        recorder.record_over_budget();
        recorder.record_deferred();
        recorder.record_deferred();
        recorder.record_deferral_overflow();
        let stats = recorder.snapshot(0);
        assert_eq!(stats.over_budget, 1);
        assert_eq!(stats.deferred, 2);
        assert_eq!(stats.deferral_overflow, 1);
        assert_eq!(stats.submitted, 0);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn empty_recorder_snapshots_zeroes() {
        let stats = StatsRecorder::default().snapshot(0);
        assert_eq!(stats, ServiceStats::default());
        assert_eq!(stats.mean_batch_size(), 0.0);
    }

    #[test]
    fn latency_window_is_bounded() {
        let recorder = StatsRecorder::default();
        for i in 0..(LATENCY_WINDOW as u64 + 100) {
            recorder.record_completion(Duration::from_micros(i));
        }
        let state = recorder.lock();
        assert_eq!(state.latency_window.len(), LATENCY_WINDOW);
        assert_eq!(state.latency_samples, LATENCY_WINDOW as u64 + 100);
    }
}
