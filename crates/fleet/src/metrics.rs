//! Observability of the observer: the pipeline's own books.
//!
//! K-LEB's pitch is that monitoring must not perturb the monitored
//! system; at fleet scale the collector itself becomes a system worth
//! monitoring. [`FleetMetrics`] is a plain summary built once, after the
//! collector loop, from the reports the outcome already carries (fan-in,
//! store, watchdog, supervision, governance). It adds the only two things
//! the collector alone measures — batches stored and a log2-bucketed
//! drain-latency histogram — and renders as a table through
//! `analysis::table`.

use std::time::Duration;

use analysis::TextTable;
use kleb::GovernorStats;

use crate::governor::GovernorReport;
use crate::ingest::ChannelStats;
use crate::store::StoreStats;
use crate::supervisor::HealthReport;
use crate::watchdog::WatchdogReport;

const BUCKETS: usize = 64;

/// Histogram over `u64` nanosecond values, bucketed by power-of-two
/// magnitude: bucket *i* holds values in `[2^i, 2^(i+1))` (bucket 0 also
/// holds zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LatencyHistogram {
    buckets: [u64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// Records one value.
    pub(crate) fn record(&mut self, value_ns: u64) {
        let bucket = (64 - value_ns.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[bucket] += 1;
    }

    /// Upper bound of the bucket containing the `p`-th percentile value
    /// (0 < p <= 100). Zero when empty.
    fn percentile_bound(&self, p: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return if i + 1 >= 64 {
                    u64::MAX
                } else {
                    1u64 << (i + 1)
                };
            }
        }
        u64::MAX
    }
}

/// The pipeline's self-metrics for one completed run.
#[derive(Debug, Clone)]
pub struct FleetMetrics {
    samples_ingested: u64,
    batches_ingested: u64,
    samples_dropped: u64,
    samples_rejected: u64,
    channel_depth_hwm: u64,
    stream_stalls: u64,
    stream_resumes: u64,
    machine_restarts: u64,
    machine_failures: u64,
    machines_lost: u64,
    breaker_trips: u64,
    governor_retunes: u64,
    governor_clamps: u64,
    governor_oscillations: u64,
    /// Wall time from a batch leaving its ring to its samples resting in
    /// the store.
    drain_latency: LatencyHistogram,
}

impl FleetMetrics {
    /// Sums the run's own reports into one set of books. `batches` and
    /// `drain_latency` are what the collector loop measured itself.
    pub(crate) fn from_reports(
        batches: u64,
        drain_latency: LatencyHistogram,
        channel: &ChannelStats,
        store: StoreStats,
        watchdog: &WatchdogReport,
        health: &[HealthReport],
        governors: &[GovernorReport],
    ) -> Self {
        let sum = |f: fn(&HealthReport) -> u64| health.iter().map(f).sum();
        let gov =
            |f: fn(&GovernorStats) -> u32| governors.iter().map(|g| u64::from(f(&g.stats))).sum();
        Self {
            samples_ingested: channel.delivered.iter().sum(),
            batches_ingested: batches,
            samples_dropped: channel.total_dropped(),
            samples_rejected: store.rejected,
            channel_depth_hwm: channel.depth_high_water as u64,
            stream_stalls: watchdog.total_stalls(),
            stream_resumes: watchdog.total_resumes(),
            machine_restarts: sum(|h| u64::from(h.restarts)),
            machine_failures: sum(|h| u64::from(h.failure_count)),
            machines_lost: sum(|h| u64::from(h.failed)),
            breaker_trips: sum(|h| u64::from(h.breaker_trips)),
            governor_retunes: gov(|g| g.retunes),
            governor_clamps: gov(|g| g.clamps),
            governor_oscillations: gov(|g| g.oscillations),
            drain_latency,
        }
    }

    /// Samples stored.
    pub fn samples_ingested(&self) -> u64 {
        self.samples_ingested
    }

    /// Samples lost to backpressure.
    pub fn samples_dropped(&self) -> u64 {
        self.samples_dropped
    }

    /// Supervisor restarts (machines rebuilt after a panic).
    pub fn machine_restarts(&self) -> u64 {
        self.machine_restarts
    }

    /// Recorded machine failures (panics, monitor errors, trace I/O),
    /// across all attempts.
    pub fn machine_failures(&self) -> u64 {
        self.machine_failures
    }

    /// Machines lost for good (restart budget exhausted or a
    /// non-retryable error).
    pub fn machines_lost(&self) -> u64 {
        self.machines_lost
    }

    /// Circuit-breaker trips.
    pub fn breaker_trips(&self) -> u64 {
        self.breaker_trips
    }

    /// Governor retunes (period changes issued by the AIMD loop).
    pub fn governor_retunes(&self) -> u64 {
        self.governor_retunes
    }

    /// Governor backoffs cut short by the period ceiling.
    pub fn governor_clamps(&self) -> u64 {
        self.governor_clamps
    }

    /// Governor direction reversals (hunting indicator).
    pub fn governor_oscillations(&self) -> u64 {
        self.governor_oscillations
    }

    /// Renders everything as a two-column table. `elapsed` is the
    /// collector's wall-clock run time, used for the ingest rate.
    pub(crate) fn render(&self, elapsed: Duration) -> String {
        let rate = if elapsed.as_secs_f64() > 0.0 {
            self.samples_ingested as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        };
        let lat = |p: f64| format!("< {} µs", self.drain_latency.percentile_bound(p) / 1_000);
        let mut t = TextTable::new(&["self-metric", "value"]);
        let counters = [
            ("samples ingested", self.samples_ingested),
            ("batches ingested", self.batches_ingested),
        ];
        for (name, value) in counters {
            t.row_owned(vec![name.into(), value.to_string()]);
        }
        t.row_owned(vec!["ingest rate".into(), format!("{rate:.0} samples/s")]);
        let counters = [
            ("samples dropped", self.samples_dropped),
            ("samples rejected", self.samples_rejected),
            // The rings queue samples, so the high-water mark is a bare
            // sample count.
            ("channel depth high-water", self.channel_depth_hwm),
            ("stream stalls", self.stream_stalls),
            ("stream resumes", self.stream_resumes),
            ("machine restarts", self.machine_restarts),
            ("machine failures", self.machine_failures),
            ("machines lost", self.machines_lost),
            ("breaker trips", self.breaker_trips),
            ("governor retunes", self.governor_retunes),
            ("governor clamps", self.governor_clamps),
            ("governor oscillations", self.governor_oscillations),
        ];
        for (name, value) in counters {
            t.row_owned(vec![name.into(), value.to_string()]);
        }
        t.row_owned(vec!["drain latency p50".into(), lat(50.0)]);
        t.row_owned(vec!["drain latency p90".into(), lat(90.0)]);
        t.row_owned(vec!["drain latency p99".into(), lat(99.0)]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::BreakerState;

    #[test]
    fn histogram_buckets_by_magnitude() {
        let mut h = LatencyHistogram::default();
        h.record(0);
        h.record(1);
        h.record(1023);
        h.record(1024);
        // All values < 2^10 except the last, which is < 2^11.
        assert_eq!(h.percentile_bound(75.0), 1 << 10);
        assert_eq!(h.percentile_bound(100.0), 1 << 11);
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        assert_eq!(LatencyHistogram::default().percentile_bound(99.0), 0);
    }

    fn metrics() -> FleetMetrics {
        let mut latency = LatencyHistogram::default();
        latency.record(500);
        latency.record(2_000);
        let channel = ChannelStats {
            sent: vec![12, 6],
            dropped: vec![2, 1],
            delivered: vec![10, 5],
            depth_high_water: 4,
            block_waits: 0,
        };
        let store = StoreStats {
            appended: 14,
            rejected: 1,
            evicted_points: 0,
        };
        let watchdog = WatchdogReport {
            stalls: vec![2, 0],
            resumes: vec![1, 0],
            quarantined_at_end: vec![0],
            done: vec![true, true],
        };
        let health = [
            HealthReport {
                restarts: 2,
                failure_count: 3,
                breaker_trips: 1,
                breaker_state: BreakerState::Closed,
                failed: true,
                failures: Vec::new(),
            },
            HealthReport::default(),
        ];
        let governor = |retunes, clamps, oscillations| GovernorReport {
            label: String::new(),
            base_period_ns: 100_000,
            allocated_period_ns: 100_000,
            stats: GovernorStats {
                retunes,
                clamps,
                oscillations,
                ..GovernorStats::default()
            },
        };
        let governors = [governor(3, 2, 1), governor(1, 0, 0)];
        FleetMetrics::from_reports(2, latency, &channel, store, &watchdog, &health, &governors)
    }

    #[test]
    fn books_sum_the_outcome_reports() {
        let m = metrics();
        assert_eq!(m.samples_ingested(), 15, "delivered, not sent");
        assert_eq!(m.batches_ingested, 2);
        assert_eq!(m.samples_dropped(), 3);
        assert_eq!(m.samples_rejected, 1);
        assert_eq!(m.channel_depth_hwm, 4);
        assert_eq!((m.stream_stalls, m.stream_resumes), (2, 1));
        assert_eq!(m.machine_restarts(), 2);
        assert_eq!(m.machine_failures(), 3);
        assert_eq!(m.machines_lost(), 1);
        assert_eq!(m.breaker_trips(), 1);
        assert_eq!(m.governor_retunes(), 4);
        assert_eq!(m.governor_clamps(), 2);
        assert_eq!(m.governor_oscillations(), 1);
    }

    #[test]
    fn render_mentions_every_counter() {
        let out = metrics().render(Duration::from_secs(1));
        for needle in [
            "samples ingested",
            "ingest rate",
            "samples dropped",
            "channel depth high-water",
            "stream stalls",
            "stream resumes",
            "governor retunes",
            "governor clamps",
            "governor oscillations",
            "drain latency p99",
        ] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
    }
}
