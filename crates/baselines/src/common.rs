//! Shared result types and the uniform tool runner.

use pmu::HwEvent;

use ksim::{Duration, ProcessInfo};

/// One point of a tool's time series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToolSample {
    /// Simulated time of the sample, nanoseconds.
    pub timestamp_ns: u64,
    /// Per-requested-event deltas, in request order.
    pub values: Vec<u64>,
    /// Instructions retired in the period (when the tool reads fixed
    /// counters; zero otherwise).
    pub instructions: u64,
}

/// The outcome of running a workload under one monitoring tool.
#[derive(Debug, Clone)]
pub struct ToolRun {
    /// Tool name as the paper spells it.
    pub tool: &'static str,
    /// The monitored process (timing + ground truth).
    pub target: ProcessInfo,
    /// Tool-reported totals per requested event, in request order.
    pub event_totals: Vec<(HwEvent, u64)>,
    /// Tool-reported fixed-counter totals (instructions, core cycles,
    /// reference cycles); zeros if the tool does not collect them.
    pub fixed_totals: [u64; 3],
    /// Time series, if the tool produces one (empty for counting-mode
    /// tools that only report totals).
    pub samples: Vec<ToolSample>,
    /// The sampling period asked for.
    pub requested_period: Duration,
    /// The period actually used (perf clamps to its 10 ms floor).
    pub effective_period: Duration,
}

impl ToolRun {
    /// Tool-reported total for one event.
    pub fn total(&self, event: HwEvent) -> Option<u64> {
        self.event_totals
            .iter()
            .find(|(e, _)| *e == event)
            .map(|&(_, v)| v)
    }

    /// Wall-clock runtime of the monitored process.
    pub fn wall_time(&self) -> Duration {
        self.target.wall_time()
    }
}

/// The `(event, umask)` codes a tool's open config carries across the
/// ioctl boundary, in request order.
pub(crate) fn event_codes(events: &[HwEvent]) -> Vec<(u8, u8)> {
    events
        .iter()
        .map(|e| {
            let c = e.code();
            (c.event, c.umask)
        })
        .collect()
}

/// Overhead of a monitored run relative to an unmonitored baseline, in
/// percent (the paper's Tables II/III metric).
pub fn overhead_percent(baseline: Duration, monitored: Duration) -> f64 {
    let b = baseline.as_nanos() as f64;
    let m = monitored.as_nanos() as f64;
    (m - b) / b * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_math() {
        assert!(
            (overhead_percent(Duration::from_millis(100), Duration::from_millis(106)) - 6.0).abs()
                < 1e-9
        );
        assert!(overhead_percent(Duration::from_millis(100), Duration::from_millis(99)) < 0.0);
    }
}
