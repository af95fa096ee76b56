//! The daemon's batching core: a closable queue that coalesces items
//! into bounded batches within a time window.
//!
//! The daemon's whole point is that concurrent clients should ride the
//! engine's tiled batch kernel instead of issuing N scalar scans. The
//! policy lives here, free of sockets so it is directly testable. Any
//! number of consumers (the daemon's workers) may call
//! [`next_batch`](BatchQueue::next_batch) at once; each item lands in
//! exactly one consumer's batch:
//!
//! * a consumer blocks until at least one item is queued;
//! * from the moment the first item of a batch is taken, it waits at
//!   most `window` for more, leaving early once `max_batch` items are
//!   in hand (`max_batch` defaults to the engine's [`QUERY_BLOCK`] —
//!   the number of queries one cache-resident target block is scored
//!   against);
//! * the window also closes early when the queue is drained and no
//!   producer has signalled *intent*
//!   ([`begin_intent`](BatchQueue::begin_intent) — in the daemon, a
//!   reader that has consumed the first bytes of a frame but not yet
//!   enqueued the request). A lone query is answered immediately
//!   instead of sleeping out the window; the window only ever holds
//!   for companions that are demonstrably on their way;
//! * a zero window disables coalescing-by-waiting: the batch is
//!   whatever is *already* queued (still up to `max_batch` — bursty
//!   arrivals batch even without waiting);
//! * closing the queue wakes every consumer; remaining items are still
//!   drained in batches, then [`BatchQueue::next_batch`] returns `None`
//!   to each of them — the graceful-shutdown path: accepted queries are
//!   answered, new ones are refused at the door.
//!
//! [`QUERY_BLOCK`]: tdmatch_embed::score::QUERY_BLOCK

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use tdmatch_embed::score::QUERY_BLOCK;

/// Coalescing policy: how long to hold a batch open, and how large it
/// may grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOptions {
    /// How long a consumer waits for companions after the first item of
    /// a batch arrives.
    pub window: Duration,
    /// Maximum items per batch (≥ 1).
    pub max_batch: usize,
}

impl Default for BatchOptions {
    /// 500 µs window, [`QUERY_BLOCK`]-wide batches.
    fn default() -> Self {
        BatchOptions {
            window: Duration::from_micros(500),
            max_batch: QUERY_BLOCK,
        }
    }
}

struct QueueState<T> {
    items: VecDeque<T>,
    open: bool,
    /// Producers that have announced a request on its way (a frame
    /// mid-arrival or mid-admission). While nonzero, the coalescing
    /// window holds for them; at zero with the queue drained, the
    /// window closes early.
    pending: usize,
}

/// A multi-producer, multi-consumer coalescing queue.
///
/// Producers [`push`](BatchQueue::push) items from any thread; any
/// number of consumer threads call [`next_batch`](BatchQueue::next_batch),
/// and each item is handed to exactly one of them.
pub struct BatchQueue<T> {
    state: Mutex<QueueState<T>>,
    cv: Condvar,
}

impl<T> Default for BatchQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BatchQueue<T> {
    /// An open, empty queue.
    pub fn new() -> Self {
        BatchQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                open: true,
                pending: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Announces that a producer has a request on its way (e.g. a frame
    /// whose first bytes have arrived). The coalescing window will wait
    /// for it instead of closing early. Must be balanced by
    /// [`end_intent`](BatchQueue::end_intent).
    pub fn begin_intent(&self) {
        self.state.lock().expect("batch queue poisoned").pending += 1;
    }

    /// Ends an announced intent: the request was enqueued, answered
    /// inline, or its connection died.
    pub fn end_intent(&self) {
        let mut state = self.state.lock().expect("batch queue poisoned");
        state.pending = state.pending.saturating_sub(1);
        let drained = state.pending == 0;
        drop(state);
        if drained {
            self.cv.notify_all();
        }
    }

    /// Enqueues an item. Returns `false` (dropping the item) when the
    /// queue is closed — the caller should answer `shutting_down`.
    pub fn push(&self, item: T) -> bool {
        let mut state = self.state.lock().expect("batch queue poisoned");
        if !state.open {
            return false;
        }
        state.items.push_back(item);
        drop(state);
        self.cv.notify_all();
        true
    }

    /// Closes the queue: future pushes fail, and once the remaining
    /// items are drained, `next_batch` returns `None`.
    pub fn close(&self) {
        self.state.lock().expect("batch queue poisoned").open = false;
        self.cv.notify_all();
    }

    /// Items currently queued (for stats/introspection).
    pub fn len(&self) -> usize {
        self.state.lock().expect("batch queue poisoned").items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks for the next batch: at least one item, at most
    /// `opts.max_batch`, coalesced within `opts.window` of the first
    /// item being taken. Returns `None` when the queue is closed and
    /// drained.
    pub fn next_batch(&self, opts: &BatchOptions) -> Option<Vec<T>> {
        let max = opts.max_batch.max(1);
        let mut state = self.state.lock().expect("batch queue poisoned");
        // Phase 1: wait for the first item (or close-and-drained).
        loop {
            if !state.items.is_empty() {
                break;
            }
            if !state.open {
                return None;
            }
            state = self.cv.wait(state).expect("batch queue poisoned");
        }
        let mut batch: Vec<T> = Vec::with_capacity(max.min(state.items.len()));
        while batch.len() < max {
            match state.items.pop_front() {
                Some(item) => batch.push(item),
                None => break,
            }
        }
        // Phase 2: hold the batch open for companions — but only while
        // some are announced. With the queue drained and no producer
        // mid-request, nothing can join before the cap fires; answering
        // now saves the rest of the window (the common lone-client case
        // would otherwise pay the full window as pure latency).
        if !opts.window.is_zero() {
            let deadline = Instant::now() + opts.window;
            while batch.len() < max && state.open {
                if state.items.is_empty() && state.pending == 0 {
                    break;
                }
                let now = Instant::now();
                let Some(left) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
                else {
                    break;
                };
                let (guard, timeout) = self
                    .cv
                    .wait_timeout(state, left)
                    .expect("batch queue poisoned");
                state = guard;
                while batch.len() < max {
                    match state.items.pop_front() {
                        Some(item) => batch.push(item),
                        None => break,
                    }
                }
                if timeout.timed_out() {
                    break;
                }
            }
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn opts(window: Duration, max_batch: usize) -> BatchOptions {
        BatchOptions { window, max_batch }
    }

    #[test]
    fn defaults_follow_the_engine_block_width() {
        let d = BatchOptions::default();
        assert_eq!(d.max_batch, QUERY_BLOCK);
        assert!(!d.window.is_zero());
    }

    #[test]
    fn burst_coalesces_without_waiting() {
        let q = BatchQueue::new();
        for i in 0..5 {
            assert!(q.push(i));
        }
        // Zero window: batch = what is already there, capped at max.
        let batch = q.next_batch(&opts(Duration::ZERO, 3)).unwrap();
        assert_eq!(batch, vec![0, 1, 2]);
        let batch = q.next_batch(&opts(Duration::ZERO, 3)).unwrap();
        assert_eq!(batch, vec![3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn window_coalesces_announced_late_arrivals() {
        let q = Arc::new(BatchQueue::new());
        q.push(0u32);
        // A reader mid-frame: its intent holds the window open.
        q.begin_intent();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                // Arrives well inside the consumer's window.
                std::thread::sleep(Duration::from_millis(20));
                assert!(q.push(1));
                q.end_intent();
            })
        };
        let batch = q.next_batch(&opts(Duration::from_secs(5), 2)).unwrap();
        producer.join().unwrap();
        // The late item joined the batch; full batch ended the window
        // early (this test would time out at 5s otherwise).
        assert_eq!(batch, vec![0, 1]);
    }

    #[test]
    fn window_closes_early_when_nothing_is_on_its_way() {
        let q: BatchQueue<u32> = BatchQueue::new();
        q.push(7);
        let t = Instant::now();
        // No intent announced: the lone item must not pay the window
        // as latency (this is the coalescing fix — the old scheduler
        // slept out the full window here).
        let batch = q.next_batch(&opts(Duration::from_secs(5), 8)).unwrap();
        assert_eq!(batch, vec![7]);
        assert!(t.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn ending_an_intent_without_a_push_releases_the_window() {
        let q: Arc<BatchQueue<u32>> = Arc::new(BatchQueue::new());
        q.push(3);
        q.begin_intent();
        let releaser = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                // The announced frame turned out to be e.g. a ping,
                // answered inline — nothing was pushed.
                std::thread::sleep(Duration::from_millis(20));
                q.end_intent();
            })
        };
        let t = Instant::now();
        let batch = q.next_batch(&opts(Duration::from_secs(5), 8)).unwrap();
        releaser.join().unwrap();
        assert_eq!(batch, vec![3]);
        // Released well before the 5 s cap, but not before the intent
        // ended.
        assert!(t.elapsed() >= Duration::from_millis(15));
        assert!(t.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn an_abandoned_intent_only_holds_the_window_to_its_cap() {
        let q: BatchQueue<u32> = BatchQueue::new();
        q.push(7);
        // A client stalled mid-frame never delivers: the window cap
        // still bounds the wait.
        q.begin_intent();
        let t = Instant::now();
        let batch = q.next_batch(&opts(Duration::from_millis(30), 8)).unwrap();
        assert_eq!(batch, vec![7]);
        assert!(t.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BatchQueue::new();
        q.push(1);
        q.push(2);
        q.push(3);
        q.close();
        assert!(!q.push(4), "closed queue must refuse pushes");
        let o = opts(Duration::from_millis(5), 2);
        assert_eq!(q.next_batch(&o), Some(vec![1, 2]));
        assert_eq!(q.next_batch(&o), Some(vec![3]));
        assert_eq!(q.next_batch(&o), None);
        assert_eq!(q.next_batch(&o), None); // stays closed
    }

    #[test]
    fn close_wakes_a_blocked_scheduler() {
        let q: Arc<BatchQueue<u32>> = Arc::new(BatchQueue::new());
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.next_batch(&BatchOptions::default()))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn several_consumers_each_get_every_item_once_and_all_see_close() {
        const PER_PRODUCER: u32 = 1000;
        let q: Arc<BatchQueue<u32>> = Arc::new(BatchQueue::new());
        let o = opts(Duration::from_micros(200), 5);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(batch) = q.next_batch(&o) {
                        assert!((1..=5).contains(&batch.len()), "batch of {}", batch.len());
                        got.extend(batch);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        // As a daemon reader does: announce, push, release.
                        q.begin_intent();
                        assert!(q.push(p * PER_PRODUCER + i));
                        q.end_intent();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        // Let the consumers drain and block in phase 1 on the empty
        // queue: close must wake every one of them.
        while !q.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        let mut delivered: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        delivered.sort_unstable();
        assert_eq!(delivered, (0..4 * PER_PRODUCER).collect::<Vec<_>>());
    }
}
