//! Vector clocks: the happens-before lattice everything else hangs off.
//!
//! A [`VClock`] maps thread id → logical time. Thread `t`'s component is
//! bumped on every instrumented operation `t` performs, so "operation A
//! happens-before operation B" is exactly "A's epoch `(thread, time)` is
//! ≤ B's thread's clock" — the standard FastTrack formulation. Joins
//! (component-wise max) model synchronizes-with edges: an acquire load
//! joins the release clock the matching store carried.

/// One thread's position in another thread's view: `(thread, time)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Epoch {
    /// The thread that performed the operation.
    pub thread: usize,
    /// That thread's logical time when it did.
    pub time: u32,
}

/// A vector clock, indexed by thread id. Missing components are zero, so
/// clocks for late-spawned threads stay short.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct VClock {
    times: Vec<u32>,
}

impl VClock {
    /// The zero clock (happens-before everything).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The component for `thread` (zero if never touched).
    pub(crate) fn get(&self, thread: usize) -> u32 {
        self.times.get(thread).copied().unwrap_or(0)
    }

    /// Sets `thread`'s component (growing the vector as needed).
    pub(crate) fn set(&mut self, thread: usize, time: u32) {
        if self.times.len() <= thread {
            self.times.resize(thread + 1, 0);
        }
        self.times[thread] = time;
    }

    /// Bumps `thread`'s own component by one and returns the new epoch.
    pub(crate) fn tick(&mut self, thread: usize) -> Epoch {
        let time = self.get(thread) + 1;
        self.set(thread, time);
        Epoch { thread, time }
    }

    /// Component-wise max: afterwards `self ⊒ other`.
    pub(crate) fn join(&mut self, other: &VClock) {
        if self.times.len() < other.times.len() {
            self.times.resize(other.times.len(), 0);
        }
        for (i, &t) in other.times.iter().enumerate() {
            if self.times[i] < t {
                self.times[i] = t;
            }
        }
    }

    /// Whether the event at `epoch` happens-before (or is) this clock's
    /// view — i.e. whoever owns this clock has synchronized with it.
    pub(crate) fn observes(&self, epoch: Epoch) -> bool {
        self.get(epoch.thread) >= epoch.time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_component_wise_max() {
        let mut a = VClock::new();
        a.set(0, 3);
        a.set(2, 1);
        let mut b = VClock::new();
        b.set(0, 1);
        b.set(1, 5);
        a.join(&b);
        assert_eq!((a.get(0), a.get(1), a.get(2)), (3, 5, 1));
    }

    #[test]
    fn observes_tracks_epochs() {
        let mut a = VClock::new();
        let e1 = a.tick(1);
        assert!(a.observes(e1));
        let b = VClock::new();
        assert!(!b.observes(e1), "fresh clock has not synchronized");
        let mut c = VClock::new();
        c.join(&a);
        assert!(c.observes(e1), "join transfers the observation");
    }

    #[test]
    fn missing_components_read_as_zero() {
        let a = VClock::new();
        assert_eq!(a.get(17), 0);
    }
}
