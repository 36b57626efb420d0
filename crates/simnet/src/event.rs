//! The deterministic future-event list.
//!
//! Events are totally ordered by [`EventKey`] — `(time, source stream,
//! per-stream sequence number)`. The key is a *total order over all
//! events of a run that does not depend on how the simulation is
//! sharded*: external injections draw from one engine-wide counter
//! (stream 0), and every event a node emits is numbered by that node's
//! own emission counter (stream `node_id + 1`). Because each node's
//! processing order is itself deterministic, the keys — and therefore
//! the global event order — are identical whether the run executes on
//! one shard or many. This is the property the engine's epoch barrier
//! relies on for bit-identical parallel execution (see
//! [`crate::engine`]).
//!
//! ## Storage: a calendar queue
//!
//! [`EventQueue`] is a self-resizing calendar queue (R. Brown,
//! "Calendar Queues: A Fast O(1) Priority Queue Implementation for the
//! Simulation Event Set Problem", CACM 1988). Pending events are
//! bucketed into *days* of a fixed millisecond width. The day currently
//! being drained is kept sorted by full `EventKey` (so same-instant
//! ties break by stream id, then per-stream sequence); future days are
//! unsorted append-only buckets, sorted once when the clock reaches
//! them; and events beyond the bucket ring's horizon wait in a small
//! overflow heap that is drip-fed back into the ring as days advance.
//! At steady state enqueue and dequeue are `O(1)` — one bucket append,
//! one pop off the sorted current day — instead of an `O(log n)` sift
//! through one large heap whose entries (full protocol messages) are
//! expensive to move. The unit tests hold the pop order to a
//! `BinaryHeap` model.
//!
//! ### Bucket width and resize policy
//!
//! The queue rebuilds its geometry whenever the population crosses a
//! threshold — growing past `2 ×` the bucket count or shrinking below
//! `1/8` of it — and whenever the ring is exhausted and only overflow
//! events remain (the calendar's "next year"). A rebuild samples the
//! pending events and sets the day width to roughly `3 ×` the average
//! inter-event gap of the earlier half of the queue (Brown's rule of
//! thumb: a handful of events per day), clamped to at least 1 ms, and
//! the ring size to the population rounded up to a power of two
//! (within `[16, 65536]`). All of this is a pure function of the
//! push/pop sequence — no wall clock, no RNG — so the geometry can
//! never affect simulation results, only wall-clock speed.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Globally unique, shard-layout-independent ordering key of a
/// scheduled event.
///
/// Ordering is lexicographic: delivery instant first, then the source
/// stream (0 = externally injected; `n + 1` = emitted by node `n`),
/// then the per-stream sequence number. Same-instant events from the
/// same stream are therefore FIFO, and ties across streams resolve by
/// stream id — deterministically, without any global insertion
/// counter.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventKey {
    /// Delivery instant.
    pub at: SimTime,
    /// Source stream: 0 for external injections, `node_id + 1` for
    /// node-emitted events.
    pub src: u64,
    /// Sequence number within the source stream.
    pub seq: u64,
}

/// Placeholder for the retired choice of event-queue backend: the
/// calendar queue is the only storage, so this carries no choice. It
/// survives only because the benchmark harness names
/// [`TopologyConfig::event_queue`](crate::topology::TopologyConfig::event_queue)
/// in a struct literal, and goes when the benchmark next changes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct EventQueueKind;

/// Heap entry: an opaque payload `T` under an *inverted* ordering so
/// `BinaryHeap`'s max-heap pops the smallest key first. Internal —
/// the public API deals in `(EventKey, T)` pairs only.
#[derive(Debug)]
struct Scheduled<T> {
    key: EventKey,
    payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Scheduled<T> {}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted: the smallest key (earliest event) pops first.
        other.key.cmp(&self.key)
    }
}

/// Smallest and largest ring sizes the calendar will resize to.
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 16;

/// A deterministic future-event list: the calendar queue of the module
/// docs. Invariant: whenever the queue is non-empty, `current` is
/// non-empty and holds (sorted descending by key, so the global minimum
/// is `current.last()`) exactly the pending events with
/// `at < day_end`; ring bucket `i` holds the unsorted events of day
/// `[day_end + i·width, day_end + (i+1)·width)`; `far` min-heaps
/// everything at or beyond the ring horizon.
#[derive(Debug)]
pub struct EventQueue<T> {
    /// The day being drained, sorted descending by key (pop = `pop()`
    /// off the tail).
    current: Vec<(EventKey, T)>,
    /// Exclusive end of the current day, in ms.
    day_end: u64,
    /// Day width in ms (≥ 1).
    width: u64,
    /// Future days; `ring[i]` covers `[day_end + i·width, +width)`.
    ring: VecDeque<Vec<(EventKey, T)>>,
    /// Events held in `ring` (so ring exhaustion is O(1) to detect).
    in_ring: usize,
    /// Overflow events at or beyond `day_end + ring.len()·width`.
    far: BinaryHeap<Scheduled<T>>,
    len: usize,
    /// High-water mark of `len`.
    peak: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            current: Vec::new(),
            day_end: 0,
            width: 1,
            ring: VecDeque::from_iter((0..MIN_BUCKETS).map(|_| Vec::new())),
            in_ring: 0,
            far: BinaryHeap::new(),
            len: 0,
            peak: 0,
        }
    }

    /// Schedule `payload` for delivery under `key`. The caller is
    /// responsible for key uniqueness (the engine derives keys from
    /// per-stream counters, which guarantees it).
    pub fn push(&mut self, key: EventKey, payload: T) {
        self.len += 1;
        self.peak = self.peak.max(self.len);
        if self.len == 1 {
            // Queue was empty: re-anchor the current day at the event.
            self.day_end = key.at.as_ms().saturating_add(self.width);
            self.current.push((key, payload));
            return;
        }
        let at = key.at.as_ms();
        if at < self.day_end {
            // Into the (sorted) current day; unique keys make the
            // binary-search position deterministic. A duplicate key
            // (a caller contract violation) slots in adjacent to its
            // twin.
            let pos = match self.current.binary_search_by(|(k, _)| key.cmp(k)) {
                Ok(pos) | Err(pos) => pos,
            };
            self.current.insert(pos, (key, payload));
        } else {
            let idx = ((at - self.day_end) / self.width) as usize;
            if idx < self.ring.len() {
                self.ring[idx].push((key, payload));
                self.in_ring += 1;
            } else {
                self.far.push(Scheduled { key, payload });
            }
        }
        if self.len > 2 * self.ring.len() && self.ring.len() < MAX_BUCKETS {
            self.rebuild();
        }
    }

    /// Remove and return the event with the smallest key, if any.
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        let (key, payload) = self.current.pop()?;
        self.len -= 1;
        if self.current.is_empty() && self.len > 0 {
            self.advance();
        } else if self.len < self.ring.len() / 8 && self.ring.len() > MIN_BUCKETS {
            self.rebuild();
        }
        Some((key, payload))
    }

    /// As [`EventQueue::pop`], but only if the earliest event is due
    /// strictly before `limit` — the engine's epoch inner loop, as one
    /// queue operation instead of a peek-then-pop pair.
    pub fn pop_if_before(&mut self, limit: SimTime) -> Option<(EventKey, T)> {
        if self.peek_time()? >= limit {
            return None;
        }
        self.pop()
    }

    /// The earliest pending event: its delivery time and a view of its
    /// payload.
    pub fn peek(&self) -> Option<(SimTime, &T)> {
        self.current.last().map(|(k, p)| (k.at, p))
    }

    /// The delivery time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|k| k.at)
    }

    /// The full key of the earliest pending event.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.current.last().map(|(k, _)| *k)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of the queue length over the queue's lifetime
    /// (the "peak queue depth" benchmark metric).
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Walk forward day by day until the current day is non-empty.
    /// Called only when `current` is empty and events remain.
    fn advance(&mut self) {
        loop {
            if self.in_ring == 0 {
                // Only overflow events remain: start the next "year"
                // re-anchored at their minimum.
                debug_assert!(!self.far.is_empty());
                self.rebuild();
                return;
            }
            // Advance one day: recycle the bucket, move the horizon,
            // and drip overflow events that entered it into the ring.
            let bucket = self.ring.pop_front().expect("ring is never empty");
            self.day_end += self.width;
            // A fresh bucket, not the drained one's allocation: reused
            // buckets keep their peak capacity in every one of up to
            // 65,536 slots (hot-petals peak RSS went 142 MB → 518 MB).
            self.ring.push_back(Vec::new());
            while let Some(s) = self.far.peek() {
                let idx = ((s.key.at.as_ms() - self.day_end) / self.width) as usize;
                if idx >= self.ring.len() {
                    break;
                }
                let s = self.far.pop().expect("peeked");
                self.ring[idx].push((s.key, s.payload));
                self.in_ring += 1;
            }
            if !bucket.is_empty() {
                self.in_ring -= bucket.len();
                self.current = bucket;
                // Descending, so the earliest key sits at the tail.
                self.current.sort_unstable_by(|(a, _), (b, _)| b.cmp(a));
                return;
            }
        }
    }

    /// Collect every pending event and redistribute it under a fresh
    /// geometry: ring size ≈ population (power of two in
    /// `[MIN_BUCKETS, MAX_BUCKETS]`), day width ≈ 3× the average
    /// inter-event gap of the earlier half of the queue, day origin at
    /// the earliest pending event.
    fn rebuild(&mut self) {
        let mut all: Vec<(EventKey, T)> = Vec::with_capacity(self.len);
        all.append(&mut self.current);
        for bucket in self.ring.iter_mut() {
            all.append(bucket);
        }
        self.in_ring = 0;
        while let Some(s) = self.far.pop() {
            all.push((s.key, s.payload));
        }
        debug_assert_eq!(all.len(), self.len);
        if all.is_empty() {
            return;
        }

        // Width policy on the earlier half only: far-future outliers
        // (long-delay timers) must not stretch the day width, or the
        // near-term bulk would all collapse into one giant day.
        let half = (all.len() / 2).max(1).min(all.len() - 1);
        let (lower, median, _) = all.select_nth_unstable_by(half, |(a, _), (b, _)| a.cmp(b));
        let min_at = lower
            .iter()
            .map(|(k, _)| k.at.as_ms())
            .min()
            .unwrap_or(median.0.at.as_ms());
        let lower_span = median.0.at.as_ms() - min_at;
        let lower_count = half.max(1) as u64;
        self.width = (lower_span.saturating_mul(3) / lower_count).max(1);

        let buckets = all
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        self.ring = VecDeque::from_iter((0..buckets).map(|_| Vec::new()));
        self.day_end = min_at.saturating_add(self.width);

        for (key, payload) in all {
            let at = key.at.as_ms();
            if at < self.day_end {
                self.current.push((key, payload));
            } else {
                let idx = ((at - self.day_end) / self.width) as usize;
                if idx < self.ring.len() {
                    self.ring[idx].push((key, payload));
                    self.in_ring += 1;
                } else {
                    self.far.push(Scheduled { key, payload });
                }
            }
        }
        self.current.sort_unstable_by(|(a, _), (b, _)| b.cmp(a));
        debug_assert!(!self.current.is_empty(), "day origin holds the minimum");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(at_ms: u64, src: u64, seq: u64) -> EventKey {
        EventKey {
            at: SimTime::from_ms(at_ms),
            src,
            seq,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(key(30, 0, 0), "c");
        q.push(key(10, 0, 1), "a");
        q.push(key(20, 0, 2), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_instant_same_stream_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(key(5, 3, i), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn same_instant_orders_by_stream() {
        let mut q = EventQueue::new();
        q.push(key(5, 7, 0), "node6");
        q.push(key(5, 0, 9), "external");
        q.push(key(5, 2, 0), "node1");
        assert_eq!(q.pop().unwrap().1, "external");
        assert_eq!(q.pop().unwrap().1, "node1");
        assert_eq!(q.pop().unwrap().1, "node6");
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(key(10, 0, 0), 1);
        q.push(key(5, 0, 1), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(key(7, 0, 2), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn peek_len_and_peak() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.peek_key(), None);
        assert_eq!(q.peek(), None::<(SimTime, &())>);
        q.push(key(42, 0, 0), ());
        q.push(key(41, 0, 1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak_len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(41)));
        assert_eq!(q.peek(), Some((SimTime::from_ms(41), &())));
        q.pop();
        q.pop();
        assert_eq!(q.peak_len(), 2, "peak survives drains");
    }

    #[test]
    fn pop_if_before_respects_the_limit() {
        let mut q = EventQueue::new();
        q.push(key(10, 0, 0), "x");
        assert!(q.pop_if_before(SimTime::from_ms(10)).is_none());
        assert!(q.pop_if_before(SimTime::from_ms(5)).is_none());
        assert_eq!(q.len(), 1, "a refused pop must not drop the event");
        let (k, p) = q.pop_if_before(SimTime::from_ms(11)).unwrap();
        assert_eq!((k.at, p), (SimTime::from_ms(10), "x"));
        assert!(q.pop_if_before(SimTime::from_ms(u64::MAX)).is_none());
    }

    #[test]
    fn zero_time_events() {
        let mut q = EventQueue::new();
        q.push(key(0, 0, 0), "x");
        assert_eq!(q.pop().unwrap().0.at, SimTime::ZERO);
    }

    #[test]
    fn far_future_events_cross_the_ring_horizon() {
        // Events hours apart at ms resolution exercise the overflow
        // heap and the next-year rebuild.
        let mut q = EventQueue::new();
        let hour = 3_600_000u64;
        q.push(key(3 * hour, 0, 0), 3u64);
        q.push(key(1, 0, 1), 0);
        q.push(key(hour, 0, 2), 1);
        q.push(key(2 * hour + 5, 0, 3), 2);
        for want in 0..4u64 {
            assert_eq!(q.pop().unwrap().1, want);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn grows_and_shrinks_through_rebuilds() {
        let mut q = EventQueue::new();
        // Push enough to force several grow rebuilds…
        for i in 0..10_000u64 {
            q.push(key((i * 37) % 4096, 1, i), i);
        }
        assert_eq!(q.len(), 10_000);
        // …then drain fully (shrink rebuilds), checking order.
        let mut last = None;
        let mut n = 0;
        while let Some((k, _)) = q.pop() {
            if let Some(prev) = last {
                assert!(k > prev);
            }
            last = Some(k);
            n += 1;
        }
        assert_eq!(n, 10_000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn key(at_ms: u64, src: u64, seq: u64) -> EventKey {
        EventKey {
            at: SimTime::from_ms(at_ms),
            src,
            seq,
        }
    }

    /// The reference model: a plain binary heap over the same inverted
    /// key order the overflow heap uses.
    #[derive(Default)]
    struct HeapModel(BinaryHeap<Scheduled<usize>>);

    impl HeapModel {
        fn push(&mut self, key: EventKey, payload: usize) {
            self.0.push(Scheduled { key, payload });
        }

        fn pop(&mut self) -> Option<(EventKey, usize)> {
            self.0.pop().map(|s| (s.key, s.payload))
        }
    }

    proptest! {
        /// The queue is a stable priority queue over full keys:
        /// popping yields non-decreasing keys, and within one source
        /// stream the per-stream sequence numbers come out in order.
        #[test]
        fn pop_order_is_sorted_by_key(entries in proptest::collection::vec((0u64..1000, 0u64..4), 0..200)) {
            let mut q = EventQueue::new();
            let mut seqs = [0u64; 4];
            for (i, &(t, src)) in entries.iter().enumerate() {
                let seq = seqs[src as usize];
                seqs[src as usize] += 1;
                q.push(key(t, src, seq), i);
            }
            let mut last: Option<EventKey> = None;
            let mut popped = 0usize;
            while let Some((k, _)) = q.pop() {
                popped += 1;
                if let Some(lk) = last {
                    prop_assert!(k > lk, "keys must strictly increase");
                }
                last = Some(k);
            }
            prop_assert_eq!(popped, entries.len());
        }

        /// Model parity: for an arbitrary insert sequence — narrow
        /// time range, so same-timestamp bursts are common — the
        /// calendar queue pops the exact payload sequence a binary
        /// heap does.
        #[test]
        fn calendar_matches_heap_pop_order(entries in proptest::collection::vec((0u64..64, 0u64..6), 0..300)) {
            let mut cal = EventQueue::new();
            let mut heap = HeapModel::default();
            let mut seqs = [0u64; 6];
            for (i, &(t, src)) in entries.iter().enumerate() {
                let seq = seqs[src as usize];
                seqs[src as usize] += 1;
                cal.push(key(t, src, seq), i);
                heap.push(key(t, src, seq), i);
            }
            loop {
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(a, b, "calendar diverged from the heap model");
                if a.is_none() {
                    break;
                }
            }
        }

        /// Model parity under interleaved pops: drain a pseudorandom
        /// prefix between insert batches (the engine's actual usage:
        /// epochs of pops between bursts of pushes).
        #[test]
        fn calendar_matches_heap_interleaved(batches in proptest::collection::vec((proptest::collection::vec((0u64..48, 0u64..3), 0..40), 0usize..30), 1..8)) {
            let mut cal = EventQueue::new();
            let mut heap = HeapModel::default();
            let mut seqs = [0u64; 3];
            let mut clock = 0u64; // keys must never be scheduled "past"
            let mut i = 0usize;
            for (pushes, pops) in &batches {
                for &(dt, src) in pushes {
                    let seq = seqs[src as usize];
                    seqs[src as usize] += 1;
                    cal.push(key(clock + dt, src, seq), i);
                    heap.push(key(clock + dt, src, seq), i);
                    i += 1;
                }
                for _ in 0..*pops {
                    let (a, b) = (cal.pop(), heap.pop());
                    prop_assert_eq!(&a, &b, "calendar diverged from the heap model mid-drain");
                    if let Some((k, _)) = a {
                        clock = k.at.as_ms();
                    }
                }
            }
        }
    }
}
