//! The bounded submission queue between submitters and the batcher thread.
//!
//! A plain `Mutex<VecDeque>` with two condition variables: `not_empty` wakes
//! the batcher when work (or shutdown) arrives, `not_full` wakes blocked
//! submitters when the batcher drains a slot. The bound is the service's
//! backpressure mechanism — `SubmissionQueue::try_push` reports a full
//! queue to the caller (surfaced as [`crate::CollectiveError::QueueFull`]),
//! `SubmissionQueue::push` blocks until a slot frees up.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Why a non-blocking push did not enqueue. The rejected item is handed
/// back so the caller keeps ownership of its inputs.
#[derive(Debug)]
pub(crate) enum TryPushError<T> {
    /// The queue is at capacity (backpressure).
    Full(T),
    /// The queue is closed (service shut down).
    Closed(T),
}

/// What a batcher-side pop observed.
#[derive(Debug)]
pub(crate) enum Popped<T> {
    /// The oldest queued item.
    Item(T),
    /// The deadline passed with the queue still empty.
    TimedOut,
    /// The queue is closed and fully drained.
    Closed,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// A consumer wakeup was requested without an item (see
    /// [`SubmissionQueue::kick`]); cleared when a pop observes it.
    kicked: bool,
}

/// A bounded MPSC queue: many submitters, one batcher.
#[derive(Debug)]
pub(crate) struct SubmissionQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> SubmissionQueue<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        SubmissionQueue {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false, kicked: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The queue's capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued (not yet popped) items.
    pub(crate) fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Enqueue without blocking; a full or closed queue hands the item back.
    pub(crate) fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(TryPushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        state.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueue, blocking while the queue is at capacity. Returns the item
    /// back if the queue is (or becomes, while waiting) closed.
    pub(crate) fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(item);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.wait_not_full(state);
        }
    }

    /// Dequeue the oldest item, waiting until one arrives, `deadline`
    /// passes, or the queue is closed *and* drained — a closed queue still
    /// yields its remaining items first, which is what lets shutdown drain
    /// in-flight work.
    pub(crate) fn pop(&self, deadline: Option<Instant>) -> Popped<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Popped::Item(item);
            }
            if state.closed {
                return Popped::Closed;
            }
            if state.kicked {
                state.kicked = false;
                return Popped::TimedOut;
            }
            match deadline {
                None => state = self.wait_not_empty(state),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Popped::TimedOut;
                    }
                    state = self
                        .not_empty
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .0;
                }
            }
        }
    }

    /// Pop the oldest queued item if one is immediately available, without
    /// waiting. Used by the batcher to ingest work that arrived while a
    /// batch executed, so the next cut can reorder it ahead of leftovers.
    pub(crate) fn try_pop(&self) -> Option<T> {
        let mut state = self.lock();
        let item = state.items.pop_front();
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Wake the consumer without enqueueing anything: the next (or a
    /// currently blocked) [`SubmissionQueue::pop`] on an empty queue
    /// returns [`Popped::TimedOut`] so the consumer re-evaluates its
    /// deadlines. Used by the admission layer when a deferral is created
    /// while the batcher may be sleeping with a stale (or absent) wakeup
    /// time. Queued items still drain first — a kick never starves work.
    pub(crate) fn kick(&self) {
        self.lock().kicked = true;
        self.not_empty.notify_all();
    }

    /// Close the queue: future pushes fail, pops drain what is left and
    /// then report [`Popped::Closed`]. Wakes every waiter on both sides.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn wait_not_empty<'a>(
        &'a self,
        state: MutexGuard<'a, QueueState<T>>,
    ) -> MutexGuard<'a, QueueState<T>> {
        self.not_empty.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn wait_not_full<'a>(
        &'a self,
        state: MutexGuard<'a, QueueState<T>>,
    ) -> MutexGuard<'a, QueueState<T>> {
        self.not_full.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn try_push_reports_full_at_capacity_and_hands_the_item_back() {
        let queue = SubmissionQueue::new(2);
        queue.try_push(1).unwrap();
        queue.try_push(2).unwrap();
        match queue.try_push(3) {
            Err(TryPushError::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(queue.len(), 2);
        // Draining one slot makes room again.
        assert!(matches!(queue.pop(None), Popped::Item(1)));
        queue.try_push(3).unwrap();
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn pop_times_out_on_an_empty_queue() {
        let queue: SubmissionQueue<u32> = SubmissionQueue::new(4);
        let start = Instant::now();
        let deadline = start + Duration::from_millis(5);
        assert!(matches!(queue.pop(Some(deadline)), Popped::TimedOut));
        assert!(Instant::now() >= deadline);
    }

    #[test]
    fn closed_queue_drains_before_reporting_closed() {
        let queue = SubmissionQueue::new(4);
        queue.try_push(1).unwrap();
        queue.try_push(2).unwrap();
        queue.close();
        assert!(matches!(queue.try_push(3), Err(TryPushError::Closed(3))));
        assert!(matches!(queue.push(4), Err(4)));
        assert!(matches!(queue.pop(None), Popped::Item(1)));
        assert!(matches!(queue.pop(None), Popped::Item(2)));
        assert!(matches!(queue.pop(None), Popped::Closed));
    }

    #[test]
    fn kick_wakes_an_idle_consumer_without_an_item() {
        let queue: SubmissionQueue<u32> = SubmissionQueue::new(4);
        std::thread::scope(|scope| {
            let popper = scope.spawn(|| queue.pop(None));
            std::thread::sleep(Duration::from_millis(2));
            queue.kick();
            assert!(matches!(popper.join().unwrap(), Popped::TimedOut));
        });
        // Items still take precedence over a pending kick.
        queue.kick();
        queue.try_push(7).unwrap();
        assert!(matches!(queue.pop(None), Popped::Item(7)));
    }

    #[test]
    fn blocking_push_waits_for_a_slot() {
        let queue = SubmissionQueue::new(1);
        queue.try_push(1).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Blocks until the main thread pops.
                queue.push(2).unwrap();
            });
            std::thread::sleep(Duration::from_millis(2));
            assert!(matches!(queue.pop(None), Popped::Item(1)));
            assert!(matches!(queue.pop(None), Popped::Item(2)));
        });
    }

    #[test]
    fn close_unblocks_a_waiting_producer() {
        let queue = SubmissionQueue::new(1);
        queue.try_push(1).unwrap();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| queue.push(2));
            std::thread::sleep(Duration::from_millis(2));
            queue.close();
            assert_eq!(waiter.join().unwrap(), Err(2));
        });
    }
}
