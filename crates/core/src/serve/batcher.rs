//! Deadline/size/cost batch formation.
//!
//! The batcher accumulates submitted requests and flushes a batch to the
//! executor when either trigger fires:
//!
//! * **size** — the accumulator reaches `max_batch` items (throughput
//!   under load: full batches maximise executor parallelism), or
//! * **deadline** — `max_wait` has elapsed since the *oldest* accumulated
//!   item arrived (tail latency under light load: a lone request is never
//!   held longer than the batch window).
//!
//! Under a cost-aware admission policy ([`Batcher::with_policy`]) the flush
//! is additionally *cost-aware*: items carry the predicted cycles stamped at
//! admission, the cut can order them shortest-predicted-first
//! ([`BatchOrder::ShortestPredictedFirst`], stable — arrival order breaks
//! ties), and `max_batch_cycles` stops the cut when the batch's summed
//! predicted cycles would exceed the cap (always taking at least one item,
//! so progress is guaranteed). Items left behind by a capped cut keep their
//! original arrival times, so the deadline stays anchored at the oldest
//! *remaining* item and a cut-out request cannot wait a whole extra window.
//!
//! The accumulator is pure state driven by explicit [`Instant`]s — the
//! service thread feeds it the real clock, the unit tests feed it a
//! deterministic one — so the flush conditions are testable without timing
//! races.

use std::time::{Duration, Instant};

use super::admit::BatchOrder;

/// Why a batch was flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The accumulator reached `max_batch` items.
    Size,
    /// `max_wait` elapsed since the oldest accumulated item arrived.
    Deadline,
    /// The service is shutting down and drained its remaining items.
    Shutdown,
}

/// One accumulated item with the cost metadata the cut policy needs.
#[derive(Debug)]
struct Entry<T> {
    item: T,
    /// Predicted cycles (0 for items that will not execute).
    cost: u64,
    arrived: Instant,
}

/// The deadline/size accumulator. Generic over the item type so the flush
/// logic can be unit-tested with plain values.
#[derive(Debug)]
pub(crate) struct Batcher<T> {
    max_batch: usize,
    max_wait: Duration,
    order: BatchOrder,
    max_batch_cycles: Option<u64>,
    entries: Vec<Entry<T>>,
}

impl<T> Batcher<T> {
    /// A batcher cutting batches under an admission policy: `order` decides
    /// how a cut is ordered, `max_batch_cycles` where it stops.
    pub(crate) fn with_policy(
        max_batch: usize,
        max_wait: Duration,
        order: BatchOrder,
        max_batch_cycles: Option<u64>,
    ) -> Self {
        Batcher {
            max_batch: max_batch.max(1),
            max_wait,
            order,
            max_batch_cycles,
            entries: Vec::new(),
        }
    }

    /// Number of accumulated (not yet flushed) items.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Accept an item with its predicted cost, without flushing — the
    /// service loop drives flushes through [`Batcher::flush_ready`] so a
    /// cycle-capped cut can leave a remainder.
    pub(crate) fn push_costed(&mut self, item: T, cost: u64, now: Instant) {
        self.entries.push(Entry { item, cost, arrived: now });
    }

    /// The instant at which the current partial batch must flush: `max_wait`
    /// after its oldest item arrived. `None` while the accumulator is empty
    /// (nothing is waiting, so there is nothing to deadline), and when that
    /// instant is past what an [`Instant`] can represent (a `max_wait` such
    /// as [`Duration::MAX`] means "no deadline": only size and shutdown
    /// flush).
    pub(crate) fn deadline(&self) -> Option<Instant> {
        let oldest = self.entries.iter().map(|entry| entry.arrived).min()?;
        oldest.checked_add(self.max_wait)
    }

    /// Cut a batch if a trigger is due at `now`: size first, then deadline.
    /// Call in a loop — a cycle-capped cut can leave a still-due remainder.
    pub(crate) fn flush_ready(&mut self, now: Instant) -> Option<(Vec<T>, FlushReason)> {
        if self.entries.len() >= self.max_batch {
            return Some(self.cut(FlushReason::Size));
        }
        match self.deadline() {
            Some(deadline) if now >= deadline => Some(self.cut(FlushReason::Deadline)),
            _ => None,
        }
    }

    /// Flush accumulated items regardless of deadline (shutdown drain);
    /// `None` when empty. Call in a loop when a cycle cap is set — each cut
    /// honours the cap, so the drain may take several batches.
    pub(crate) fn flush_remaining(&mut self) -> Option<(Vec<T>, FlushReason)> {
        (!self.entries.is_empty()).then(|| self.cut(FlushReason::Shutdown))
    }

    /// Cut one batch out of the accumulator under the configured policy.
    ///
    /// The cut visits items in policy order (arrival, or stable
    /// shortest-cost-first) and stops at `max_batch` items or where adding
    /// the next item would push the summed cost over `max_batch_cycles` —
    /// but always takes at least one item. FIFO with a cap *stops* rather
    /// than skips past an oversized head: admitting later items around it
    /// would silently reorder a policy whose contract is arrival order.
    /// Unselected items stay accumulated with their original arrival times.
    fn cut(&mut self, reason: FlushReason) -> (Vec<T>, FlushReason) {
        let mut visit: Vec<usize> = (0..self.entries.len()).collect();
        if self.order == BatchOrder::ShortestPredictedFirst {
            // Stable: equal costs keep arrival order.
            visit.sort_by_key(|&index| self.entries[index].cost);
        }
        let mut selected = Vec::new();
        let mut cycles: u64 = 0;
        for &index in &visit {
            if selected.len() >= self.max_batch {
                break;
            }
            let cost = self.entries[index].cost;
            if let Some(cap) = self.max_batch_cycles {
                if !selected.is_empty() && cycles.saturating_add(cost) > cap {
                    break;
                }
            }
            selected.push(index);
            cycles = cycles.saturating_add(cost);
        }
        let mut slots: Vec<Option<Entry<T>>> =
            std::mem::take(&mut self.entries).into_iter().map(Some).collect();
        let batch = selected
            .iter()
            .map(|&index| slots[index].take().expect("cut indices are distinct").item)
            .collect();
        self.entries = slots.into_iter().flatten().collect();
        (batch, reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WAIT: Duration = Duration::from_millis(10);

    fn at(base: Instant, millis: u64) -> Instant {
        base + Duration::from_millis(millis)
    }

    /// The default policy: FIFO, no cycle cap.
    fn fifo<T>(max_batch: usize) -> Batcher<T> {
        Batcher::with_policy(max_batch, WAIT, BatchOrder::Fifo, None)
    }

    /// Deterministic-clock proof of the size path: the `max_batch`-th item
    /// flushes the batch immediately, well before the deadline.
    #[test]
    fn size_trigger_flushes_a_full_batch() {
        let base = Instant::now();
        let mut batcher = fifo(3);
        batcher.push_costed('a', 0, at(base, 0));
        batcher.push_costed('b', 0, at(base, 1));
        assert!(batcher.flush_ready(at(base, 1)).is_none());
        batcher.push_costed('c', 0, at(base, 2));
        let (batch, reason) = batcher.flush_ready(at(base, 2)).expect("third item fills the batch");
        assert_eq!(batch, vec!['a', 'b', 'c']);
        assert_eq!(reason, FlushReason::Size);
        assert_eq!(batcher.len(), 0);
        assert_eq!(batcher.deadline(), None, "a flushed accumulator has no deadline");
    }

    /// Deterministic-clock proof of the deadline path: a partial batch
    /// flushes exactly at `opened_at + max_wait`, not before, and the
    /// deadline is anchored at the *oldest* item.
    #[test]
    fn deadline_trigger_flushes_a_partial_batch_at_max_wait() {
        let base = Instant::now();
        let mut batcher = fifo(16);
        batcher.push_costed(1u32, 0, at(base, 0));
        // A later item does not push the deadline out.
        batcher.push_costed(2u32, 0, at(base, 7));
        assert_eq!(batcher.deadline(), Some(at(base, 10)));
        // One tick early: not due yet.
        assert!(batcher.flush_ready(at(base, 9)).is_none());
        assert_eq!(batcher.len(), 2);
        // At the deadline: the partial batch flushes.
        let (batch, reason) = batcher.flush_ready(at(base, 10)).expect("due at max_wait");
        assert_eq!(batch, vec![1, 2]);
        assert_eq!(reason, FlushReason::Deadline);
        // The next arrival opens a fresh window anchored at its own time.
        batcher.push_costed(3u32, 0, at(base, 25));
        assert_eq!(batcher.deadline(), Some(at(base, 35)));
    }

    #[test]
    fn shutdown_drains_whatever_is_accumulated() {
        let base = Instant::now();
        let mut batcher = fifo(16);
        assert!(batcher.flush_remaining().is_none(), "nothing to drain when empty");
        batcher.push_costed('x', 0, at(base, 0));
        let (batch, reason) = batcher.flush_remaining().unwrap();
        assert_eq!(batch, vec!['x']);
        assert_eq!(reason, FlushReason::Shutdown);
    }

    #[test]
    fn max_batch_of_one_flushes_every_push() {
        let base = Instant::now();
        let mut batcher = fifo(1);
        batcher.push_costed(9u8, 0, at(base, 0));
        let (batch, reason) = batcher.flush_ready(at(base, 0)).unwrap();
        assert_eq!((batch, reason), (vec![9], FlushReason::Size));
    }

    /// Regression: `oldest + Duration::MAX` overflowed and panicked the
    /// batcher thread. An unrepresentable deadline means "no deadline".
    #[test]
    fn an_overflowing_max_wait_means_no_deadline() {
        let base = Instant::now();
        let mut batcher = Batcher::with_policy(16, Duration::MAX, BatchOrder::Fifo, None);
        batcher.push_costed('x', 0, at(base, 0));
        assert_eq!(batcher.deadline(), None);
        assert!(batcher.flush_ready(at(base, 1_000_000)).is_none(), "no deadline flush");
        let (batch, reason) = batcher.flush_remaining().expect("shutdown still drains");
        assert_eq!((batch, reason), (vec!['x'], FlushReason::Shutdown));
    }

    /// SJF cut: items leave shortest-predicted-first, arrival order breaking
    /// ties, and the flush trigger itself is unchanged.
    #[test]
    fn shortest_predicted_first_orders_the_cut_stably() {
        let base = Instant::now();
        let mut batcher = Batcher::with_policy(16, WAIT, BatchOrder::ShortestPredictedFirst, None);
        batcher.push_costed('a', 500, at(base, 0));
        batcher.push_costed('b', 20, at(base, 1));
        batcher.push_costed('c', 500, at(base, 2));
        batcher.push_costed('d', 5, at(base, 3));
        assert!(batcher.flush_ready(at(base, 9)).is_none(), "not due before the deadline");
        let (batch, reason) = batcher.flush_ready(at(base, 10)).expect("deadline due");
        assert_eq!(batch, vec!['d', 'b', 'a', 'c'], "cost order; equal costs keep arrival order");
        assert_eq!(reason, FlushReason::Deadline);
    }

    /// The cycle cap cuts the batch early; the remainder stays accumulated
    /// with its original arrival anchoring and flushes in a follow-up cut.
    #[test]
    fn max_batch_cycles_cuts_and_the_remainder_keeps_its_deadline() {
        let base = Instant::now();
        let mut batcher =
            Batcher::with_policy(16, WAIT, BatchOrder::ShortestPredictedFirst, Some(100));
        batcher.push_costed(1u32, 60, at(base, 0));
        batcher.push_costed(2u32, 1000, at(base, 1));
        batcher.push_costed(3u32, 30, at(base, 2));
        let (batch, _) = batcher.flush_ready(at(base, 10)).expect("deadline due");
        assert_eq!(batch, vec![3, 1], "30 + 60 fits under 100; 1000 does not");
        // The oversized item is still anchored at its arrival: due already.
        assert_eq!(batcher.deadline(), Some(at(base, 11)));
        let (batch, _) = batcher.flush_ready(at(base, 11)).expect("remainder still due");
        assert_eq!(batch, vec![2], "an over-cap item still flushes alone");
        assert_eq!(batcher.len(), 0);
    }

    /// FIFO with a cap stops at an oversized head instead of skipping past
    /// it — a FIFO policy must never reorder.
    #[test]
    fn fifo_cycle_cap_never_reorders_around_an_expensive_head() {
        let base = Instant::now();
        let mut batcher = Batcher::with_policy(16, WAIT, BatchOrder::Fifo, Some(100));
        batcher.push_costed("big", 90, at(base, 0));
        batcher.push_costed("mid", 50, at(base, 1));
        batcher.push_costed("sml", 10, at(base, 2));
        let (batch, _) = batcher.flush_ready(at(base, 10)).expect("deadline due");
        assert_eq!(batch, vec!["big"], "90 + 50 would exceed the cap; FIFO does not skip");
        let (batch, _) = batcher.flush_ready(at(base, 11)).expect("remainder due");
        assert_eq!(batch, vec!["mid", "sml"]);
    }

    /// A capped shutdown drain takes several cuts but loses nothing.
    #[test]
    fn capped_shutdown_drain_takes_multiple_batches() {
        let base = Instant::now();
        let mut batcher = Batcher::with_policy(16, WAIT, BatchOrder::Fifo, Some(50));
        for (index, cost) in [40u64, 40, 40].into_iter().enumerate() {
            batcher.push_costed(index, cost, at(base, index as u64));
        }
        let mut drained = Vec::new();
        while let Some((batch, reason)) = batcher.flush_remaining() {
            assert_eq!(reason, FlushReason::Shutdown);
            drained.extend(batch);
        }
        assert_eq!(drained, vec![0, 1, 2]);
    }
}
