//! Per-stream liveness watchdog: quarantine stalled machines, resume
//! them cleanly when they come back.
//!
//! A fleet collector that only ever blocks in `recv()` cannot tell a
//! quiet machine from a dead one. [`StreamWatchdog`] closes that gap: the
//! collector feeds it every batch arrival ([`StreamWatchdog::observe`])
//! and periodically asks it to [`StreamWatchdog::scan`] for streams that
//! have been silent longer than the stall timeout. A silent stream is
//! *quarantined* — counted, reported, excluded from further stall alarms
//! — until its next batch arrives, at which point it is resumed and the
//! episode is closed. Streams whose final sample has been seen are marked
//! done and can never stall.
//!
//! The watchdog is a plain deterministic state machine over injected
//! `now_ns` values: it never reads a clock itself (klint rule D1), so
//! every transition is unit-testable with synthetic timestamps and the
//! collector can drive it from whatever [`crate::Clock`] it was given.

/// Per-stream liveness state.
#[derive(Debug, Clone, Copy)]
struct StreamState {
    /// Last time this stream produced a batch (or the watchdog started).
    last_seen_ns: u64,
    /// When the current quarantine began; `None` while healthy.
    quarantined_since: Option<u64>,
    /// The stream's final sample has been seen: it can no longer stall.
    done: bool,
    stalls: u64,
    resumes: u64,
}

/// Watches N sample streams for stalls. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct StreamWatchdog {
    stall_timeout_ns: u64,
    streams: Vec<StreamState>,
}

impl StreamWatchdog {
    /// A watchdog over `streams` streams, alarming after
    /// `stall_timeout_ns` of silence. Every stream starts healthy with
    /// `now_ns` as its last activity.
    ///
    /// # Panics
    ///
    /// Panics if `streams == 0` or `stall_timeout_ns == 0`.
    pub(crate) fn new(streams: usize, stall_timeout_ns: u64, now_ns: u64) -> Self {
        assert!(streams > 0, "need at least one stream");
        assert!(stall_timeout_ns > 0, "stall timeout must be non-zero");
        Self {
            stall_timeout_ns,
            streams: vec![
                StreamState {
                    last_seen_ns: now_ns,
                    quarantined_since: None,
                    done: false,
                    stalls: 0,
                    resumes: 0,
                };
                streams
            ],
        }
    }

    /// Records a batch arrival on `stream` at `now_ns`. If the stream was
    /// quarantined, it is resumed and the episode is closed.
    pub(crate) fn observe(&mut self, stream: usize, now_ns: u64) {
        let s = &mut self.streams[stream];
        s.last_seen_ns = s.last_seen_ns.max(now_ns);
        if s.quarantined_since.take().is_some() {
            s.resumes += 1;
        }
    }

    /// Marks `stream` finished (its final sample was drained): it is
    /// exempt from all future stall alarms.
    pub(crate) fn mark_done(&mut self, stream: usize) {
        self.streams[stream].done = true;
    }

    /// Checks every live stream against the stall timeout at `now_ns`,
    /// quarantining the newly-silent ones (already-quarantined and done
    /// streams stay quiet).
    pub(crate) fn scan(&mut self, now_ns: u64) {
        for s in &mut self.streams {
            if s.done || s.quarantined_since.is_some() {
                continue;
            }
            if now_ns.saturating_sub(s.last_seen_ns) > self.stall_timeout_ns {
                s.quarantined_since = Some(now_ns);
                s.stalls += 1;
            }
        }
    }

    /// Indices of the streams currently quarantined.
    pub(crate) fn quarantined(&self) -> Vec<usize> {
        self.streams
            .iter()
            .enumerate()
            .filter(|(_, s)| s.quarantined_since.is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// Snapshot of per-stream stall accounting.
    pub(crate) fn report(&self) -> WatchdogReport {
        WatchdogReport {
            stalls: self.streams.iter().map(|s| s.stalls).collect(),
            resumes: self.streams.iter().map(|s| s.resumes).collect(),
            quarantined_at_end: self.quarantined(),
            done: self.streams.iter().map(|s| s.done).collect(),
        }
    }
}

/// End-of-run summary of what the watchdog saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Stall episodes per stream, spec order.
    pub stalls: Vec<u64>,
    /// Resumes per stream, spec order.
    pub resumes: Vec<u64>,
    /// Streams still quarantined when the run ended (never recovered).
    pub quarantined_at_end: Vec<usize>,
    /// Per-stream: was the final sample seen? A `false` entry after the
    /// run ends means the stream died without closing — e.g. a machine
    /// whose supervisor gave up on it.
    pub done: Vec<bool>,
}

impl WatchdogReport {
    /// Total stall episodes across the fleet.
    pub(crate) fn total_stalls(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// Total resumes across the fleet.
    pub(crate) fn total_resumes(&self) -> u64 {
        self.resumes.iter().sum()
    }

    /// True when every stall episode ended in a resume: no machine was
    /// left quarantined.
    pub fn all_recovered(&self) -> bool {
        self.quarantined_at_end.is_empty()
    }

    /// Streams that never delivered their final sample — dead without
    /// closing, as opposed to merely slow.
    pub fn unfinished_streams(&self) -> Vec<usize> {
        self.done
            .iter()
            .enumerate()
            .filter(|(_, &d)| !d)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMEOUT: u64 = 1_000;

    #[test]
    fn healthy_streams_never_alarm() {
        let mut w = StreamWatchdog::new(3, TIMEOUT, 0);
        for t in (100..=2_000).step_by(100) {
            for s in 0..3 {
                w.observe(s, t);
            }
            w.scan(t);
            assert!(w.quarantined().is_empty());
        }
        let r = w.report();
        assert_eq!(r.total_stalls(), 0);
        assert_eq!(r.total_resumes(), 0);
        assert!(r.all_recovered());
    }

    #[test]
    fn silent_stream_is_quarantined_once_then_resumed() {
        let mut w = StreamWatchdog::new(2, TIMEOUT, 0);
        w.observe(0, 500);
        // Stream 1 says nothing; stream 0 keeps reporting.
        w.observe(0, 1_400);
        w.scan(1_500);
        assert_eq!(w.quarantined(), vec![1]);
        assert_eq!(w.report().stalls, vec![0, 1]);
        // Re-scanning does not re-alarm the same episode.
        w.scan(2_000);
        assert_eq!(w.report().stalls, vec![0, 1]);
        // The stream comes back: one resume closes the episode.
        w.observe(1, 2_500);
        assert!(w.quarantined().is_empty());
        let r = w.report();
        assert_eq!(r.stalls, vec![0, 1]);
        assert_eq!(r.resumes, vec![0, 1]);
        assert!(r.all_recovered());
        // A batch from a stream that was never quarantined resumes nothing.
        w.observe(0, 2_600);
        assert_eq!(w.report().resumes, vec![0, 1]);
    }

    #[test]
    fn repeated_stall_resume_cycles_are_counted() {
        let mut w = StreamWatchdog::new(1, TIMEOUT, 0);
        let mut t = 0;
        for _ in 0..3 {
            t += 2_000;
            w.scan(t);
            assert_eq!(w.quarantined(), vec![0]);
            t += 100;
            w.observe(0, t);
            assert!(w.quarantined().is_empty());
        }
        assert_eq!(w.report().stalls, vec![3]);
        assert_eq!(w.report().resumes, vec![3]);
    }

    #[test]
    fn done_streams_are_exempt() {
        let mut w = StreamWatchdog::new(2, TIMEOUT, 0);
        w.mark_done(0);
        w.scan(10_000);
        assert_eq!(w.quarantined(), vec![1], "only the live stream alarms");
        assert_eq!(w.report().stalls, vec![0, 1]);
    }

    #[test]
    fn unrecovered_stream_shows_in_report() {
        let mut w = StreamWatchdog::new(1, TIMEOUT, 0);
        w.scan(5_000);
        let r = w.report();
        assert!(!r.all_recovered());
        assert_eq!(r.quarantined_at_end, vec![0]);
        assert_eq!(r.total_stalls(), 1);
        assert_eq!(r.total_resumes(), 0);
    }

    #[test]
    fn exactly_at_timeout_is_not_a_stall() {
        let mut w = StreamWatchdog::new(1, TIMEOUT, 0);
        w.scan(TIMEOUT);
        assert!(w.quarantined().is_empty(), "strictly-greater threshold");
        w.scan(TIMEOUT + 1);
        assert_eq!(w.quarantined(), vec![0]);
    }

    #[test]
    fn observe_never_rewinds_activity() {
        let mut w = StreamWatchdog::new(1, TIMEOUT, 0);
        w.observe(0, 5_000);
        // An out-of-order (older) observation must not reopen the window.
        w.observe(0, 100);
        w.scan(5_500);
        assert!(w.quarantined().is_empty());
    }
}
