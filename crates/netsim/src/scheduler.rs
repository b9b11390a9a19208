//! The discrete-event scheduler: a virtual clock plus a priority queue.
//!
//! Generic over the event payload `E`, so each simulation layer can define
//! its own event vocabulary. The scheduler guarantees:
//!
//! 1. events pop in non-decreasing time order,
//! 2. events scheduled for the same instant pop in insertion order
//!    (FIFO tie-break), and
//! 3. time never runs backwards — scheduling in the past is clamped to "now"
//!    and counted (the count shows in its `Debug` output) rather than corrupting
//!    causality.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use xsec_types::{Duration, Timestamp};

/// An event waiting in the queue.
#[derive(Debug)]
struct Entry<E> {
    at: Timestamp,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then lowest-seq)
        // entry is the "greatest".
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic discrete-event scheduler.
#[derive(Debug)]
pub struct Scheduler<E> {
    now: Timestamp,
    queue: BinaryHeap<Entry<E>>,
    next_seq: u64,
    clamped_past_schedules: u64,
    processed: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            now: Timestamp::ZERO,
            queue: BinaryHeap::new(),
            next_seq: 0,
            clamped_past_schedules: 0,
            processed: 0,
        }
    }

    /// Number of events currently queued.
    #[cfg(test)]
    fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is drained — nothing more will fire unless a new
    /// event is scheduled. Streaming drivers use this to tell a quiescent
    /// simulation apart from one that merely reached its step deadline.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Schedules `event` at absolute time `at`. Times in the past are clamped
    /// to the current instant (and counted) rather than violating causality.
    pub fn schedule_at(&mut self, at: Timestamp, event: E) {
        let at = if at < self.now {
            self.clamped_past_schedules += 1;
            self.now
        } else {
            at
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Entry { at, seq, event });
    }

    /// Schedules `event` after a relative delay from the current time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Timestamp, E)> {
        let entry = self.queue.pop()?;
        debug_assert!(entry.at >= self.now, "event queue violated time order");
        self.now = entry.at;
        self.processed += 1;
        Some((entry.at, entry.event))
    }

    /// Peeks at the timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Timestamp> {
        self.queue.peek().map(|e| e.at)
    }

    /// Runs until the queue drains or `horizon` is reached, invoking
    /// `handler` for each event. The handler may schedule more events.
    /// Returns the number of events processed by this call.
    #[cfg(test)]
    fn run_until<F>(&mut self, horizon: Timestamp, mut handler: F) -> u64
    where
        F: FnMut(&mut Self, Timestamp, E),
    {
        let mut count = 0;
        while let Some(at) = self.peek_time() {
            if at > horizon {
                break;
            }
            let (at, event) = self.pop().expect("peeked entry exists");
            // Hand the scheduler back to the handler so it can schedule
            // follow-up events; `event` is moved out first.
            handler(self, at, event);
            count += 1;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(Timestamp(30), "c");
        s.schedule_at(Timestamp(10), "a");
        s.schedule_at(Timestamp(20), "b");
        assert_eq!(s.pop(), Some((Timestamp(10), "a")));
        assert_eq!(s.pop(), Some((Timestamp(20), "b")));
        assert_eq!(s.pop(), Some((Timestamp(30), "c")));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut s = Scheduler::new();
        for label in ["first", "second", "third"] {
            s.schedule_at(Timestamp(5), label);
        }
        assert_eq!(s.pop().unwrap().1, "first");
        assert_eq!(s.pop().unwrap().1, "second");
        assert_eq!(s.pop().unwrap().1, "third");
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut s = Scheduler::new();
        s.schedule_in(Duration::from_millis(2), ());
        assert_eq!(s.now, Timestamp::ZERO);
        s.pop();
        assert_eq!(s.now, Timestamp(2_000));
    }

    #[test]
    fn past_schedules_are_clamped_and_counted() {
        let mut s = Scheduler::new();
        s.schedule_at(Timestamp(100), "later");
        s.pop();
        assert_eq!(s.now, Timestamp(100));
        s.schedule_at(Timestamp(50), "past");
        assert_eq!(s.clamped_past_schedules, 1);
        let (at, ev) = s.pop().unwrap();
        assert_eq!(at, Timestamp(100));
        assert_eq!(ev, "past");
    }

    #[test]
    fn run_until_respects_horizon_and_allows_rescheduling() {
        let mut s = Scheduler::new();
        s.schedule_at(Timestamp(10), 0u32);
        // Each event reschedules itself 10us later, up to generation 5.
        let mut seen = Vec::new();
        s.run_until(Timestamp(35), |sched, at, generation| {
            seen.push((at, generation));
            if generation < 5 {
                sched.schedule_in(Duration::from_micros(10), generation + 1);
            }
        });
        // Events at 10, 20, 30 fire; the one at 40 exceeds the horizon.
        assert_eq!(
            seen,
            vec![(Timestamp(10), 0), (Timestamp(20), 1), (Timestamp(30), 2)]
        );
        assert_eq!(s.pending(), 1);
        assert_eq!(s.processed, 3);
    }

    #[test]
    fn run_until_drains_everything_with_far_horizon() {
        let mut s = Scheduler::new();
        for i in 0..100u64 {
            s.schedule_at(Timestamp(i), i);
        }
        let n = s.run_until(Timestamp(u64::MAX), |_, _, _| {});
        assert_eq!(n, 100);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn is_idle_tracks_queue_emptiness() {
        let mut s = Scheduler::new();
        assert!(s.is_idle());
        s.schedule_at(Timestamp(1), ());
        assert!(!s.is_idle());
        s.pop();
        assert!(s.is_idle());
    }
}
