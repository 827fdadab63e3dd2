//! The discrete-event queue driving the machine.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::hrtimer::TimerId;
use crate::process::{CoreId, Pid};
use crate::time::Instant;

/// Kinds of scheduled machine events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EventKind {
    /// A high-resolution timer reached its (jittered) deadline.
    TimerFire {
        /// Which timer.
        timer: TimerId,
        /// Arm generation, to ignore stale fires after cancellation.
        generation: u64,
    },
    /// End of the current scheduling timeslice on a core.
    SchedTick {
        /// Tick generation; stale ticks (from superseded slices) are ignored.
        generation: u64,
    },
    /// A sleeping process's wakeup time arrived.
    Wakeup(Pid),
    /// Re-run the scheduler on a core (e.g. after a spawn onto an idle core).
    Reschedule,
}

/// A scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Event {
    /// When the event is due.
    pub time: Instant,
    /// Core the event belongs to.
    pub core: CoreId,
    /// What happens.
    pub kind: EventKind,
}

#[derive(Debug, PartialEq, Eq)]
struct Entry {
    time: Instant,
    seq: u64,
    core: CoreId,
    kind: EventKind,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of events ordered by `(time, insertion sequence)` — ties resolve
/// in insertion order, keeping the simulation fully deterministic.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Schedules an event.
    pub(crate) fn push(&mut self, event: Event) {
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            time: event.time,
            seq: self.seq,
            core: event.core,
            kind: event.kind,
        }));
    }

    /// Removes and returns the earliest event.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| Event {
            time: e.time,
            core: e.core,
            kind: e.kind,
        })
    }

    /// The time of the earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<Instant> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ns: u64, kind: EventKind) -> Event {
        Event {
            time: Instant::from_nanos(ns),
            core: CoreId(0),
            kind,
        }
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(ev(30, EventKind::SchedTick { generation: 0 }));
        q.push(ev(10, EventKind::Reschedule));
        q.push(ev(20, EventKind::Wakeup(Pid(1))));
        assert_eq!(q.pop().unwrap().time, Instant::from_nanos(10));
        assert_eq!(q.pop().unwrap().time, Instant::from_nanos(20));
        assert_eq!(q.pop().unwrap().time, Instant::from_nanos(30));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_resolve_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(ev(5, EventKind::Wakeup(Pid(1))));
        q.push(ev(5, EventKind::Wakeup(Pid(2))));
        q.push(ev(5, EventKind::Wakeup(Pid(3))));
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Wakeup(p) => p.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn peek_time() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(ev(42, EventKind::SchedTick { generation: 0 }));
        assert_eq!(q.peek_time(), Some(Instant::from_nanos(42)));
        assert_eq!(q.heap.len(), 1);
    }
}
