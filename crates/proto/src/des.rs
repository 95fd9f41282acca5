//! The deterministic future-event list [`SimNet`](crate::SimNet)
//! delivers messages through: events carry a firing time in simulated
//! milliseconds; ties break by insertion sequence so runs are
//! reproducible bit-for-bit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An event scheduled at a point in simulated time. Ordered on
/// `(at, seq)` alone, so the event itself needs no ordering.
#[derive(Debug)]
struct TimedEvent<E> {
    /// Firing time (ms).
    at: u64,
    /// Monotonic insertion sequence (tie-breaker).
    seq: u64,
    event: E,
}

impl<E> PartialEq for TimedEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<E> Eq for TimedEvent<E> {}

impl<E> Ord for TimedEvent<E> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> PartialOrd for TimedEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list: pops in time order, FIFO among
/// events scheduled for the same time.
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Reverse<TimedEvent<E>>>,
    next_seq: u64,
    now: u64,
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0.
    pub(crate) fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0, now: 0 }
    }

    /// Current simulated time: the firing time of the last popped
    /// event (0 before any pop).
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// Advances the clock to `t` without popping anything — models a
    /// driver waiting out a retry backoff with the queue drained.
    ///
    /// # Panics
    /// Panics if `t` is in the past.
    pub(crate) fn advance_to(&mut self, t: u64) {
        assert!(t >= self.now, "cannot rewind the clock: {t} < {}", self.now);
        self.now = t;
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling into the past is a
    /// protocol-logic bug, not a recoverable condition.
    fn schedule(&mut self, at: u64, event: E) {
        assert!(at >= self.now, "cannot schedule into the past ({at} < {})", self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(TimedEvent { at, seq, event }));
    }

    /// Schedules `event` `delay` ms after the current time.
    pub(crate) fn schedule_in(&mut self, delay: u64, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the earliest event, advancing the clock to its time.
    pub(crate) fn pop(&mut self) -> Option<(u64, E)> {
        let Reverse(te) = self.heap.pop()?;
        self.now = te.at;
        Some((te.at, te.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 3);
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(5, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(7, "x");
        assert_eq!(q.now(), 0);
        let _ = q.pop();
        assert_eq!(q.now(), 7);
        q.schedule_in(3, "y");
        assert_eq!(q.pop(), Some((10, "y")));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10, 1);
        let _ = q.pop();
        q.schedule(5, 2);
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(1, 'a');
        q.schedule(100, 'z');
        assert_eq!(q.pop(), Some((1, 'a')));
        q.schedule_in(2, 'b');
        assert_eq!(q.pop(), Some((3, 'b')));
        assert_eq!(q.pop(), Some((100, 'z')));
        assert_eq!(q.pop(), None);
    }
}
