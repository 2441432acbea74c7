//! Deterministic discrete-event queue: the ordering backbone of the
//! event-driven serving core.
//!
//! The step-driven driver advanced whichever replica was furthest behind
//! by scanning all replica clocks per step — O(replicas) per step,
//! O(residents × steps) per run. The event core replaces both scans with
//! one binary heap keyed
//!
//! ```text
//! (time.to_bits(), lane, seq)
//! ```
//!
//! * `time.to_bits()` — event times are non-negative finite `f64`s, for
//!   which IEEE-754 bit patterns order exactly like the values, so the
//!   heap never touches float comparison semantics (NaN, −0.0) at all.
//!   `push` asserts non-negativity and normalizes −0.0 to +0.0 so the
//!   bit ordering is total over everything the queue can hold.
//! * `lane` — the tie-break between simultaneous events. The cluster
//!   driver uses lane 0 for the front-door arrival stream and lane
//!   `i + 1` for replica `i`, which reproduces the retired step driver's
//!   semantics exactly: a replica whose clock has *reached* the next
//!   arrival time stops ticking (strict `<` horizon), so at equal times
//!   the arrival is processed first, then replicas in index order.
//! * `seq` — a monotone push counter, making same-time same-lane events
//!   FIFO and the whole key strictly total. No two live entries compare
//!   equal, so `BinaryHeap`'s lack of stability can never matter.
//!
//! ## Event kinds
//!
//! The queue is payload-generic; the serving core schedules three kinds
//! of wake-up through it, all represented as "this lane is runnable at
//! time t" entries:
//!
//! * **next-arrival** — lane 0: the front door hands the next request of
//!   the sorted trace to routing at its arrival time.
//! * **replica tick** — replica lanes: a busy replica's next scheduling
//!   tick, at its advanced clock — a decode step that retires or advances
//!   resident sequences, or under chunked prefill a chunk edge.
//! * **fault** — lane `u64::MAX`: injected lifecycle events (crash,
//!   drain, restart, upgrade) from a [`crate::fault::FaultPlan`]. The
//!   maximal lane means a fault scheduled at time `t` fires *after* the
//!   arrival and every replica tick at `t`: a request arriving at the
//!   instant of a crash is still routed by the pre-crash fleet, and a
//!   replica whose completion lands exactly at its crash time retires
//!   that work before losing it. Fault entries are all pushed up front
//!   in plan order, so same-time faults resolve FIFO by `seq`, exactly
//!   the order the plan lists them.
//!
//! A replica has **exactly one** live entry while it has work and none
//! when drained — re-armed by the driver after every event it consumes —
//! so the heap holds at most `replicas + faults + 1` entries and every
//! push/pop is O(log(replicas + faults)). Replica entries are stamped
//! with the replica's lifecycle *epoch*; a crash or upgrade bumps the
//! epoch, turning any still-queued pre-fault entry into a stale no-op
//! the driver drops on pop — cancellation without heap surgery.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The queue's time key: `time`'s bit pattern, which for the non-negative
/// finite floats the queue holds orders exactly like the value. The cluster
/// driver's barrier-window replay compares clocks under this same key.
pub(crate) fn time_key(time: f64) -> u64 {
    let bits = time.to_bits();
    // −0.0 passes the `>= 0.0` gate but has the sign bit set; fold it
    // onto +0.0 so the integer order agrees with the value order.
    if bits == 1u64 << 63 { 0 } else { bits }
}

/// One scheduled event. Ordering ignores the payload entirely: the key
/// `(time_bits, lane, seq)` is strictly total because `seq` is unique.
#[derive(Debug, Clone)]
struct Entry<T> {
    time_bits: u64,
    lane: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time_bits, self.lane, self.seq).cmp(&(other.time_bits, other.lane, other.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A min-queue of timestamped events with a strictly total, reproducible
/// order. See the module docs for the key construction.
#[derive(Debug, Clone, Default)]
pub struct EventQueue<T> {
    heap: BinaryHeap<std::cmp::Reverse<Entry<T>>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `payload` on `lane` at `time`.
    ///
    /// # Panics
    /// Panics when `time` is negative or NaN — simulated clocks start at
    /// zero and only advance, so such a time is a driver bug, and the
    /// bit-pattern ordering is only value-consistent for non-negative
    /// finite floats.
    pub fn push(&mut self, time: f64, lane: u64, payload: T) {
        assert!(time >= 0.0, "event time must be non-negative, got {time}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(std::cmp::Reverse(Entry { time_bits: time_key(time), lane, seq, payload }));
    }

    /// Removes and returns the earliest event as `(time, lane, payload)`;
    /// ties resolve by lane, then by push order.
    pub fn pop(&mut self) -> Option<(f64, u64, T)> {
        self.heap
            .pop()
            .map(|std::cmp::Reverse(e)| (f64::from_bits(e.time_bits), e.lane, e.payload))
    }

    /// Time and lane of the earliest event without removing it.
    pub fn peek(&self) -> Option<(f64, u64)> {
        self.heap
            .peek()
            .map(|std::cmp::Reverse(e)| (f64::from_bits(e.time_bits), e.lane))
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.5, 1, "late");
        q.push(0.25, 2, "early");
        q.push(1.0, 0, "middle");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((0.25, 2, "early")));
        assert_eq!(q.pop(), Some((1.0, 0, "middle")));
        assert_eq!(q.pop(), Some((3.5, 1, "late")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_resolve_by_lane_then_fifo() {
        let mut q = EventQueue::new();
        q.push(2.0, 3, "lane3-first");
        q.push(2.0, 0, "arrival");
        q.push(2.0, 3, "lane3-second");
        q.push(2.0, 1, "replica0");
        assert_eq!(q.pop(), Some((2.0, 0, "arrival")));
        assert_eq!(q.pop(), Some((2.0, 1, "replica0")));
        assert_eq!(q.pop(), Some((2.0, 3, "lane3-first")));
        assert_eq!(q.pop(), Some((2.0, 3, "lane3-second")));
    }

    #[test]
    fn times_survive_the_bit_round_trip() {
        // The heap stores raw bits; popped times must be bit-identical to
        // what was pushed (this is what makes the core's float arithmetic
        // replay exactly).
        let times = [0.1 + 0.2, 1e-300, 4.0 / 3.0, 7.25e6];
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i as u64, i);
        }
        let mut sorted: Vec<f64> = times.to_vec();
        sorted.sort_by(f64::total_cmp);
        for want in sorted {
            let (got, _, _) = q.pop().unwrap();
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn negative_zero_normalizes_to_zero() {
        let mut q = EventQueue::new();
        q.push(-0.0, 5, ());
        let (t, lane) = q.peek().unwrap();
        assert_eq!(t.to_bits(), 0.0f64.to_bits());
        assert_eq!(lane, 5);
        // And it orders as zero: a +0.0 on a lower lane wins the tie.
        q.push(0.0, 2, ());
        assert_eq!(q.pop().map(|(_, l, _)| l), Some(2));
        // The one key both the queue and the window replay order by.
        assert_eq!(time_key(-0.0), time_key(0.0));
        assert!(time_key(0.0) < time_key(f64::MIN_POSITIVE));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_is_rejected() {
        EventQueue::new().push(-1.0, 0, ());
    }

    #[test]
    fn interleaved_push_pop_is_deterministic() {
        // Two runs of the same interleaving produce the same pop sequence.
        let drive = || {
            let mut q = EventQueue::new();
            let mut out = Vec::new();
            q.push(1.0, 1, 'a');
            q.push(0.5, 2, 'b');
            out.push(q.pop().unwrap());
            q.push(0.75, 1, 'c');
            q.push(1.0, 0, 'd');
            while let Some(e) = q.pop() {
                out.push(e);
            }
            out
        };
        let a = drive();
        assert_eq!(a, drive());
        let order: Vec<char> = a.into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!['b', 'c', 'd', 'a']);
    }
}
