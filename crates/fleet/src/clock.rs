//! Injectable time source for the collector.
//!
//! The collector measures its own ingest latency and the run's elapsed
//! time. Reading the wall clock inline (`Instant::now()` in the batch
//! loop) made those numbers — and anything derived from them — vary from
//! run to run, breaking the fleet's reproducibility contract under
//! `--seed` (klint rule `D1` flags exactly that). Timing now goes through
//! a [`Clock`]: production uses [`MonotonicClock`] (the one sanctioned
//! wall-clock read in the crate), tests and seeded runs inject
//! [`TickClock`] for bit-for-bit reproducible timing metrics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond source.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds since an arbitrary fixed origin. Never decreases.
    fn now_ns(&self) -> u64;
}

/// The real monotonic clock, measured from construction time.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub(crate) fn new() -> Self {
        Self {
            // The one sanctioned wall-clock read in the crate: every other
            // timing value derives from an injected Clock.
            origin: Instant::now(), // klint: allow(D1)
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A deterministic clock: every query advances time by a fixed step.
///
/// Injected in tests and seeded runs so latency/elapsed metrics are a
/// pure function of the query *sequence*, not of host scheduling.
#[derive(Debug)]
pub struct TickClock {
    step_ns: u64,
    ticks: AtomicU64,
}

impl TickClock {
    /// A clock advancing `step_ns` nanoseconds per [`Clock::now_ns`] call.
    pub fn new(step_ns: u64) -> Self {
        Self {
            step_ns,
            ticks: AtomicU64::new(0),
        }
    }
}

impl Clock for TickClock {
    fn now_ns(&self) -> u64 {
        // SeqCst: the tick count is the clock's whole semantics; never let
        // reordering make it appear to run backwards relative to anything.
        let t = self.ticks.fetch_add(1, Ordering::SeqCst);
        t * self.step_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_clock_is_deterministic() {
        let c = TickClock::new(250);
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 250);
        assert_eq!(c.now_ns(), 500);
    }

    #[test]
    fn monotonic_clock_never_decreases() {
        let c = MonotonicClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
