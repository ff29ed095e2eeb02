//! A deterministic discrete-event queue.
//!
//! [`EventQueue`] is a calendar queue (timing wheel) over a `(time, seq)`
//! total order — two events scheduled for the same cycle pop in insertion
//! order, which keeps whole-system runs bit-reproducible regardless of
//! payload type. Events within [`WHEEL_SLOTS`] cycles of now go into
//! per-cycle ring buckets with O(1) schedule and pop (bucket `Vec`s are
//! reused, never freed, so the steady state allocates nothing); the rare
//! far-future events (epoch boundaries, faucet refills, warm-up end) spill
//! to a small overflow binary heap and migrate into the wheel as the window
//! advances. This is the classic DES optimisation for memory-system
//! simulators, where almost every event is a DRAM/bus/cache latency of at
//! most a few hundred cycles.
//!
//! [`legacy::HeapQueue`] is the original binary min-heap with O(log n)
//! operations. The simulator never runs on it: it is the reference the
//! differential tests and the calendar-vs-heap microbench compare against.

use crate::units::Cycles;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event payload scheduled at a point in simulated time.
#[derive(Debug, Clone)]
pub struct Scheduled<E> {
    /// Cycle at which the event fires.
    pub time: Cycles,
    /// Insertion sequence number; breaks ties deterministically.
    pub seq: u64,
    /// The payload.
    pub payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

pub mod legacy {
    //! The original binary-heap queue, kept as a differential oracle.

    use super::{Cycles, Scheduled};
    use std::collections::BinaryHeap;

    /// Deterministic binary-heap event queue (O(log n) schedule/pop).
    #[derive(Debug)]
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Scheduled<E>>,
        next_seq: u64,
        now: Cycles,
        popped: u64,
        clamped: u64,
    }

    impl<E> Default for HeapQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> HeapQueue<E> {
        /// Create an empty queue at time zero.
        pub fn new() -> Self {
            Self {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: 0,
                popped: 0,
                clamped: 0,
            }
        }

        /// Current simulated time: the fire time of the last popped event.
        pub fn now(&self) -> Cycles {
            self.now
        }

        /// Total number of events popped so far.
        pub fn events_processed(&self) -> u64 {
            self.popped
        }

        /// Events that were scheduled in the past and clamped to `now`.
        pub fn clamped_events(&self) -> u64 {
            self.clamped
        }

        /// Number of pending events.
        pub fn len(&self) -> usize {
            self.heap.len()
        }

        /// True when no events are pending.
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        /// Schedule `payload` to fire at absolute cycle `time`.
        ///
        /// Scheduling in the past is a logic error and panics in debug
        /// builds; in release builds the event is clamped to `now` and
        /// counted in [`Self::clamped_events`].
        pub fn schedule_at(&mut self, time: Cycles, payload: E) {
            debug_assert!(
                time >= self.now,
                "event scheduled in the past: {} < {}",
                time,
                self.now
            );
            if time < self.now {
                self.clamped += 1;
            }
            let time = time.max(self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Scheduled { time, seq, payload });
        }

        /// Schedule `payload` to fire `delta` cycles from now.
        pub fn schedule_in(&mut self, delta: Cycles, payload: E) {
            self.schedule_at(self.now + delta, payload);
        }

        /// Pop the earliest event, advancing `now` to its fire time.
        pub fn pop(&mut self) -> Option<Scheduled<E>> {
            let ev = self.heap.pop()?;
            debug_assert!(ev.time >= self.now, "time went backwards");
            self.now = ev.time;
            self.popped += 1;
            Some(ev)
        }

        /// Fire time of the earliest pending event, if any.
        pub fn peek_time(&self) -> Option<Cycles> {
            self.heap.peek().map(|e| e.time)
        }
    }
}

// Calendar-queue invariants, maintained by every operation:
//
// 1. Every wheel event has `time` in `[now, now + WHEEL_SLOTS)`, so a
//    bucket (one per cycle residue) only ever holds events of a single
//    absolute time. Pop therefore only has to select the minimum `seq`
//    within one bucket — a scan over the handful of same-cycle events.
// 2. Before each pop the overflow heap is drained of events that
//    entered the wheel's horizon, so whenever the wheel is non-empty
//    its earliest bucket holds the global `(time, seq)` minimum.

/// Wheel span in cycles (one bucket per cycle). Must be a power of two
/// and exceed the front-end batching horizon (10k cycles) so that all
/// hot-path events — DRAM timings, bus bursts, cache latencies, batch
/// wake-ups — schedule in O(1).
pub const WHEEL_SLOTS: usize = 1 << 14;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const WORDS: usize = WHEEL_SLOTS / 64;
const SUMMARY_WORDS: usize = WORDS / 64;

/// Deterministic event queue over an arbitrary payload type `E`: a
/// calendar queue with O(1) schedule/pop in the common case.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// One bucket per cycle in the horizon; `Vec`s are cleared by
    /// popping but never deallocated, so steady state reuses storage.
    buckets: Box<[Vec<Scheduled<E>>]>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupancy: Box<[u64; WORDS]>,
    /// Idle fast-forward index: one bit per *occupancy word*, set iff
    /// that word has any bucket bit set. Lets the slot search jump
    /// straight over long empty stretches of the wheel (an idle system
    /// waiting on an epoch boundary or faucet refill) instead of
    /// scanning hundreds of zero words.
    summary: [u64; SUMMARY_WORDS],
    wheel_len: usize,
    /// Far-future events (`time >= now + WHEEL_SLOTS`), earliest first.
    overflow: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: Cycles,
    popped: u64,
    clamped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue at time zero.
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(WHEEL_SLOTS);
        buckets.resize_with(WHEEL_SLOTS, Vec::new);
        Self {
            buckets: buckets.into_boxed_slice(),
            occupancy: Box::new([0u64; WORDS]),
            summary: [0u64; SUMMARY_WORDS],
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
            popped: 0,
            clamped: 0,
        }
    }

    /// Current simulated time: the fire time of the last popped event.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Total number of events popped so far (simulator throughput metric).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Events that were scheduled in the past and silently clamped to `now`
    /// (release builds only; debug builds panic instead). A non-zero count
    /// flags scheduling bugs that debug assertions would have caught.
    pub fn clamped_events(&self) -> u64 {
        self.clamped
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn slot_of(time: Cycles) -> usize {
        (time & WHEEL_MASK) as usize
    }

    #[inline]
    fn wheel_insert(&mut self, ev: Scheduled<E>) {
        let s = Self::slot_of(ev.time);
        debug_assert!(
            self.buckets[s].is_empty() || self.buckets[s][0].time == ev.time,
            "bucket holds two distinct times"
        );
        self.buckets[s].push(ev);
        let w = s / 64;
        self.occupancy[w] |= 1u64 << (s % 64);
        self.summary[w / 64] |= 1u64 << (w % 64);
        self.wheel_len += 1;
    }

    /// Move overflow events whose time entered `[base, base + horizon)`
    /// into the wheel.
    #[inline]
    fn drain_overflow(&mut self, base: Cycles) {
        let limit = base.saturating_add(WHEEL_SLOTS as u64);
        while let Some(top) = self.overflow.peek() {
            if top.time >= limit {
                break;
            }
            let ev = self.overflow.pop().unwrap();
            self.wheel_insert(ev);
        }
    }

    /// First occupied slot at or (cyclically) after `from`. The wheel
    /// window starts at `from`, so wrap order equals time order.
    ///
    /// Two-level search: the summary bitmap names the next occupancy
    /// word with any event, so a fully idle stretch of the wheel (e.g.
    /// everything blocked until a far faucet tick) is skipped in at
    /// most [`SUMMARY_WORDS`] word reads — the idle fast-forward.
    fn next_occupied_slot(&self, from: usize) -> Option<usize> {
        if self.wheel_len == 0 {
            return None;
        }
        let w0 = from / 64;
        let masked = self.occupancy[w0] & (!0u64 << (from % 64));
        if masked != 0 {
            return Some(w0 * 64 + masked.trailing_zeros() as usize);
        }
        // Words strictly after `w0` within its summary word.
        let s0 = w0 / 64;
        let tail = self.summary[s0] & (!0u64 << (w0 % 64)) & !(1u64 << (w0 % 64));
        if tail != 0 {
            let w = s0 * 64 + tail.trailing_zeros() as usize;
            return Some(w * 64 + self.occupancy[w].trailing_zeros() as usize);
        }
        // Remaining summary words in cyclic order; `s0` is revisited
        // last for the wrap-around (words at or before `w0`, whose
        // remaining slots precede `from` and therefore come last in
        // wheel-time order).
        for step in 1..=SUMMARY_WORDS {
            let s = (s0 + step) % SUMMARY_WORDS;
            let word = self.summary[s];
            if word != 0 {
                let w = s * 64 + word.trailing_zeros() as usize;
                return Some(w * 64 + self.occupancy[w].trailing_zeros() as usize);
            }
        }
        None
    }

    /// Schedule `payload` to fire at absolute cycle `time`.
    ///
    /// Scheduling in the past is a logic error and panics in debug
    /// builds; in release builds the event is clamped to `now` and
    /// counted in [`Self::clamped_events`].
    pub fn schedule_at(&mut self, time: Cycles, payload: E) {
        debug_assert!(
            time >= self.now,
            "event scheduled in the past: {} < {}",
            time,
            self.now
        );
        if time < self.now {
            self.clamped += 1;
        }
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Scheduled { time, seq, payload };
        if time - self.now < WHEEL_SLOTS as u64 {
            self.wheel_insert(ev);
        } else {
            self.overflow.push(ev);
        }
    }

    /// Schedule `payload` to fire `delta` cycles from now.
    pub fn schedule_in(&mut self, delta: Cycles, payload: E) {
        self.schedule_at(self.now + delta, payload);
    }

    /// Pop the earliest event, advancing `now` to its fire time.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        // Establish invariant 2: the wheel front is the global minimum.
        let base = if self.wheel_len == 0 {
            let jump = self.overflow.peek()?.time;
            self.drain_overflow(jump);
            jump
        } else {
            self.drain_overflow(self.now);
            self.now
        };

        let s = self
            .next_occupied_slot(Self::slot_of(base))
            .expect("wheel non-empty after drain");
        let bucket = &mut self.buckets[s];
        // All entries share one time (invariant 1); pick the lowest seq.
        let mut best = 0;
        for i in 1..bucket.len() {
            if bucket[i].seq < bucket[best].seq {
                best = i;
            }
        }
        let ev = bucket.swap_remove(best);
        if bucket.is_empty() {
            let w = s / 64;
            self.occupancy[w] &= !(1u64 << (s % 64));
            if self.occupancy[w] == 0 {
                self.summary[w / 64] &= !(1u64 << (w % 64));
            }
        }
        self.wheel_len -= 1;
        debug_assert!(ev.time >= self.now, "time went backwards");
        self.now = ev.time;
        self.popped += 1;
        Some(ev)
    }

    /// Fire time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycles> {
        // Unlike `pop` this must not mutate, so compare the wheel front
        // with the overflow top instead of draining.
        let wheel = self
            .next_occupied_slot(Self::slot_of(self.now))
            .map(|s| self.buckets[s][0].time);
        let over = self.overflow.peek().map(|e| e.time);
        match (wheel, over) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legacy::HeapQueue;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(30, 2);
        q.schedule_at(10, 0);
        q.schedule_at(20, 1);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(q.now(), 30);
        assert_eq!(q.events_processed(), 3);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(5, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        let expected: Vec<u64> = (0..100).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(100, 1);
        q.pop();
        q.schedule_in(5, 2);
        assert_eq!(q.peek_time(), Some(105));
    }

    #[test]
    fn interleaved_schedule_and_pop_never_goes_backwards() {
        let mut q = EventQueue::new();
        q.schedule_at(1, 0);
        let mut last = 0;
        for i in 0..1000u64 {
            let ev = q.pop().unwrap();
            assert!(ev.time >= last);
            last = ev.time;
            if i < 500 {
                q.schedule_in((i % 7) + 1, i);
                q.schedule_in((i % 3) + 1, i);
            }
        }
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let horizon = WHEEL_SLOTS as u64;
        let mut q = EventQueue::new();
        // A mix far beyond the wheel horizon plus near events.
        q.schedule_at(3 * horizon + 17, 100);
        q.schedule_at(5, 0);
        q.schedule_at(horizon + 2, 50);
        q.schedule_at(10 * horizon, 200);
        q.schedule_at(horizon - 1, 25);
        let times: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| (e.time, e.payload)))
            .collect();
        assert_eq!(
            times,
            vec![
                (5, 0),
                (horizon - 1, 25),
                (horizon + 2, 50),
                (3 * horizon + 17, 100),
                (10 * horizon, 200),
            ]
        );
    }

    #[test]
    fn same_time_split_across_wheel_and_overflow_preserves_seq() {
        // Event A goes to overflow (far at schedule time); later B for the
        // same cycle goes into the wheel. A has the lower seq and must pop
        // first even though it migrates in via the overflow heap.
        let horizon = WHEEL_SLOTS as u64;
        let t = 2 * horizon + 3;
        let mut q = EventQueue::new();
        q.schedule_at(t, 1u64); // far: overflow, seq 0
        q.schedule_at(horizon + 10, 0); // stepping stone, seq 1
        q.pop(); // now = horizon + 10; t is now near
        q.schedule_at(t, 2); // wheel, seq 2
        let rest: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| (e.time, e.payload))).collect();
        assert_eq!(rest, vec![(t, 1), (t, 2)]);
    }

    #[test]
    fn peek_time_sees_overflow_minimum() {
        let horizon = WHEEL_SLOTS as u64;
        let mut q = EventQueue::new();
        q.schedule_at(4 * horizon, 1u8);
        assert_eq!(q.peek_time(), Some(4 * horizon));
        q.schedule_at(9, 2);
        assert_eq!(q.peek_time(), Some(9));
    }

    #[test]
    fn len_counts_both_tiers() {
        let horizon = WHEEL_SLOTS as u64;
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(1, 0u8);
        q.schedule_at(2 * horizon, 1);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    #[cfg(debug_assertions)]
    fn past_scheduling_panics_in_debug() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule_at(100, ());
        q.pop();
        q.schedule_at(50, ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn past_scheduling_clamps_and_counts_in_release() {
        let mut q = EventQueue::new();
        q.schedule_at(100, 0);
        q.pop();
        q.schedule_at(50, 1);
        assert_eq!(q.clamped_events(), 1);
        let ev = q.pop().unwrap();
        assert_eq!((ev.time, ev.payload), (100, 1));
    }

    /// Differential check on a deliberately nasty interleaving: bursts of
    /// same-cycle ties, far-future spills, and jumps across empty regions.
    #[test]
    fn calendar_matches_heap_on_mixed_horizons() {
        let mut cal = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        let delta_of = |x: u64| match x % 5 {
            0 => x % 64,               // hot path: near events
            1 => x % 800,              // DRAM-latency scale
            2 => 0,                    // same-cycle tie
            3 => 9_000 + x % 2_000,    // batching horizon
            _ => 20_000 + x % 300_000, // far: overflow territory
        };
        for i in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            cal.schedule_in(delta_of(x), i);
            heap.schedule_in(delta_of(x), i);
            if x.is_multiple_of(3) {
                let a = cal.pop().map(|e| (e.time, e.seq, e.payload));
                let b = heap.pop().map(|e| (e.time, e.seq, e.payload));
                assert_eq!(a, b);
            }
        }
        loop {
            let a = cal.pop().map(|e| (e.time, e.seq, e.payload));
            let b = heap.pop().map(|e| (e.time, e.seq, e.payload));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(cal.events_processed(), heap.events_processed());
    }

    /// The idle-fast-forward acceptance differential: one million events
    /// through the calendar queue and the heap oracle, with schedule
    /// patterns chosen to stress the summary bitmap — dense bursts, long
    /// idle gaps that leave the wheel almost empty (the fast-forward path),
    /// gaps that land exactly on occupancy-word and summary-word
    /// boundaries, and overflow spills.
    #[test]
    fn calendar_matches_heap_over_a_million_events() {
        let mut cal = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut x = 0x243f6a8885a308d3u64;
        let mut scheduled = 0u64;
        let mut idle_restarts = 0u64;
        const TOTAL: u64 = 1_000_000;
        loop {
            if cal.is_empty() {
                if scheduled >= TOTAL {
                    break;
                }
                // The whole system went idle: restart with a single event a
                // long, word-aligned-ish gap away. The calendar queue must
                // jump over the empty stretch, not rotate through it.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let delta = 6_000 + (x % 3) * 4_096 + (x % 130);
                cal.schedule_in(delta, scheduled);
                heap.schedule_in(delta, scheduled);
                scheduled += 1;
                idle_restarts += 1;
            }
            let a = cal.pop().map(|e| (e.time, e.seq, e.payload));
            let b = heap.pop().map(|e| (e.time, e.seq, e.payload));
            assert_eq!(a, b);
            // Refill with a mix of horizons. The burst size averages one
            // child per event (a critical branching process), so the queue
            // repeatedly drains to empty and re-enters through the idle
            // restart above — exercising the fast-forward path constantly.
            let burst = if scheduled < TOTAL { x % 3 } else { 0 };
            for _ in 0..burst {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let delta = match x % 8 {
                    0 => x % 4,                    // same-word churn
                    1 => 64,                       // exactly one word ahead
                    2 => 63 + (x % 3),             // word-boundary straddle
                    3 => 4096,                     // summary-word boundary
                    4 => x % 700,                  // DRAM-latency scale
                    5 => 8_191 + (x % 16),         // near the wheel horizon
                    6 => 13_000 + (x % 1_300),     // deep idle gap in-wheel
                    _ => 16_500 + (x % 90_000),    // overflow territory
                };
                cal.schedule_in(delta, scheduled);
                heap.schedule_in(delta, scheduled);
                scheduled += 1;
            }
        }
        assert!(scheduled >= TOTAL);
        assert_eq!(cal.events_processed(), scheduled);
        assert_eq!(heap.events_processed(), scheduled);
        assert!(idle_restarts > 0, "the idle fast-forward path was never exercised");
        assert!(cal.is_empty() && heap.is_empty());
    }
}
