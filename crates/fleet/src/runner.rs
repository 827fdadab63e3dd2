//! Concurrent fleet execution: N machines, N monitors, one collector.
//!
//! [`FleetRunner`] spins one OS thread per [`MachineSpec`]. Each thread
//! builds its own [`ksim::Machine`] from the spec's seed, runs the
//! workload under a K-LEB [`kleb::Monitor`], and streams every drained
//! batch into its own lock-free SPSC ring ([`crate::ingest`]) through
//! the controller's [`kleb::SampleSink`] hook. The calling thread is the
//! collector: it drains the rings into the [`FleetStore`] and updates
//! [`FleetMetrics`].
//!
//! Determinism contract: each machine's sample stream is a pure function
//! of its seed and workload — threads only vary the *interleaving* of
//! batches, and per-stream FIFO order is preserved, so under
//! [`Backpressure::Block`] (lossless) the per-machine store contents are
//! bit-for-bit reproducible across runs. Under
//! [`Backpressure::DropNewest`], *which* samples survive depends on
//! real-time interleaving; only the per-stream accounting is
//! guaranteed, not the surviving set.

use std::path::PathBuf;
use std::sync::Arc;

use kleb::{KlebTuning, Monitor, MonitorOutcome, Sample};
use ksim::{
    CoreId, Duration, Instant, Machine, MachineConfig, Pid, ProcessInfo, ProcessState, Workload,
};
use ktrace::{stream_file_name, RecoveredStream, StreamMeta};
use pmu::{EventCounts, HwEvent};

use crate::clock::{Clock, MonotonicClock};
use crate::governor::{GovernorPolicy, GovernorReport};
use crate::ingest::{ring_fanin, Backpressure, ChannelStats, Polled, RingCollector};
use crate::metrics::{FleetMetrics, LatencyHistogram};
use crate::store::FleetStore;
use crate::supervisor::{
    panic_message, supervise_machine, HealthReport, MachineFailure, MachineTask, SupervisedRun,
    SupervisorPolicy,
};
use crate::watchdog::{StreamWatchdog, WatchdogReport};

/// Per-stream ring capacity, in samples; see [`crate::ingest`].
const RING_CAPACITY: usize = 64 * 1024;
/// Per-shard point capacity of the store.
const SHARD_CAPACITY: usize = 64 * 1024;

// The whole pipeline hinges on machines being buildable and runnable off
// the spawning thread; keep that a compile-time fact.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Machine>();
    assert_send::<Monitor>();
};

/// Builds a workload inside the machine's thread, from the spec's seed.
///
/// `Fn`, not `FnOnce`: the supervisor rebuilds the workload on every
/// restart attempt, so the factory must be re-invokable.
pub type WorkloadFactory = Box<dyn Fn(u64) -> Box<dyn Workload> + Send>;

/// One machine of the fleet.
pub struct MachineSpec {
    /// Display name (also the monitored process's name).
    pub label: String,
    /// Seed for the machine's RNG and its workload.
    pub seed: u64,
    /// Workload constructor, invoked on the machine's thread.
    pub workload: WorkloadFactory,
    /// Relative overhead weight for the fleet budget allocator: a
    /// weight-2 stream costs the budget twice what a weight-1 stream
    /// does at the same period, so it is slowed first. Ignored unless a
    /// [`GovernorPolicy`] with a budget is configured. Default 1.0.
    pub weight: f64,
}

impl MachineSpec {
    /// A spec running `workload(seed)` on a machine seeded with `seed`.
    pub fn new(
        label: impl Into<String>,
        seed: u64,
        workload: impl Fn(u64) -> Box<dyn Workload> + Send + 'static,
    ) -> Self {
        Self {
            label: label.into(),
            seed,
            workload: Box::new(workload),
            weight: 1.0,
        }
    }

    /// Sets the budget-allocator weight.
    pub fn weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }
}

impl std::fmt::Debug for MachineSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MachineSpec")
            .field("label", &self.label)
            .field("seed", &self.seed)
            .field("weight", &self.weight)
            .finish_non_exhaustive()
    }
}

/// Fleet-wide configuration shared by every machine.
///
/// Construct through [`FleetConfig::builder`] — the one coherent way to
/// assemble a fleet:
///
/// ```ignore
/// let config = FleetConfig::builder(&events, period)
///     .backpressure(Backpressure::DropNewest)
///     .persist("/tmp/traces")
///     .govern(GovernorPolicy::new().budget(50_000))
///     .build();
/// ```
///
/// The struct is `#[non_exhaustive]`: fields stay readable everywhere,
/// but new knobs can be added without breaking downstream construction.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct FleetConfig {
    /// Events programmed on each machine's programmable counters.
    pub events: Vec<HwEvent>,
    /// Sampling period.
    pub period: Duration,
    /// Module cost tuning.
    pub tuning: KlebTuning,
    /// What a full ring does.
    pub backpressure: Backpressure,
    /// Machine hardware model, built from the spec's seed.
    pub machine_config: fn(u64) -> MachineConfig,
    /// Fault plan injected into every machine (overriding whatever
    /// `machine_config` chose). `None` leaves the machines fault-free —
    /// the default, keeping clean runs bit-identical to a fleet that
    /// never heard of faults.
    pub faults: Option<ksim::FaultPlan>,
    /// How long a stream may stay silent before the watchdog quarantines
    /// it. Measured on the collector's [`Clock`].
    pub stall_timeout: std::time::Duration,
    /// Time source for collector self-timing (ingest latency, elapsed).
    /// Defaults to the real [`MonotonicClock`]; inject a
    /// [`crate::TickClock`] for reproducible timing under `--seed`.
    pub clock: Arc<dyn Clock>,
    /// When set, every machine tees its live sample stream into a
    /// ktrace segment file under this directory (one file per stream,
    /// named by [`ktrace::stream_file_name`]), sealed with the module's
    /// drop ledger and the controller's recovery stats. `None` records
    /// nothing.
    pub persist_dir: Option<PathBuf>,
    /// Backoff and circuit-breaker timing for the per-machine
    /// supervisor, which allows 3 restarts; see `crate::supervisor`
    /// for the determinism contract (a clean run never touches any of
    /// it).
    pub supervision: SupervisorPolicy,
    /// Closed-loop rate governance. `None` (the default) runs every
    /// machine at the fixed configured period, exactly as fleets always
    /// did; `Some` derives a per-machine [`kleb::RatePolicy`] from the
    /// policy (after the budget allocator assigns base periods) and
    /// lets each controller retune its module live.
    pub governor: Option<GovernorPolicy>,
    /// Controller wake/drain/status-poll interval for every machine.
    /// `None` uses kleb's period-derived default (64 periods, clamped to
    /// 1–50 ms). The governor only acts at status polls, so governed
    /// fleets often want this tighter than the default.
    pub drain_interval: Option<Duration>,
}

impl FleetConfig {
    /// The default config: `events` sampled every `period` on
    /// i7-920-class machines, lossless backpressure, 64Ki-sample rings,
    /// 64Ki-point shards, no faults, no governor. Use
    /// [`FleetConfig::builder`] to override anything.
    pub(crate) fn new(events: &[HwEvent], period: Duration) -> Self {
        Self {
            events: events.to_vec(),
            period,
            tuning: KlebTuning::default(),
            backpressure: Backpressure::Block,
            machine_config: MachineConfig::i7_920,
            faults: None,
            stall_timeout: std::time::Duration::from_secs(2),
            clock: Arc::new(MonotonicClock::new()),
            persist_dir: None,
            supervision: SupervisorPolicy::default(),
            governor: None,
            drain_interval: None,
        }
    }

    /// Starts a builder from the defaults of `FleetConfig::new`.
    pub fn builder(events: &[HwEvent], period: Duration) -> FleetConfigBuilder {
        FleetConfigBuilder {
            config: FleetConfig::new(events, period),
        }
    }
}

/// Chainable constructor for [`FleetConfig`] — the single supported way
/// to customise a fleet. Obtained from [`FleetConfig::builder`]; every
/// setter consumes and returns the builder, and [`build`] yields the
/// finished config.
///
/// [`build`]: FleetConfigBuilder::build
#[derive(Debug, Clone)]
pub struct FleetConfigBuilder {
    config: FleetConfig,
}

impl FleetConfigBuilder {
    /// Overrides the module cost tuning.
    pub fn tuning(mut self, tuning: KlebTuning) -> Self {
        self.config.tuning = tuning;
        self
    }

    /// Overrides the backpressure policy.
    pub fn backpressure(mut self, policy: Backpressure) -> Self {
        self.config.backpressure = policy;
        self
    }

    /// Overrides the machine hardware model.
    pub fn machine(mut self, factory: fn(u64) -> MachineConfig) -> Self {
        self.config.machine_config = factory;
        self
    }

    /// Overrides the collector's time source.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.config.clock = clock;
        self
    }

    /// Injects a fault plan into every machine of the fleet.
    pub fn faults(mut self, plan: ksim::FaultPlan) -> Self {
        self.config.faults = Some(plan);
        self
    }

    /// Overrides the watchdog's stall timeout.
    pub fn stall_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.config.stall_timeout = timeout;
        self
    }

    /// Records every machine's sample stream to ktrace segments under
    /// `dir` (created if missing at run time).
    pub fn persist(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.persist_dir = Some(dir.into());
        self
    }

    /// Overrides the supervision policy (backoff and breaker cooldown).
    pub fn supervise(mut self, policy: SupervisorPolicy) -> Self {
        self.config.supervision = policy;
        self
    }

    /// Attaches closed-loop rate governance: the budget allocator
    /// assigns per-machine base periods up front and every machine's
    /// controller retunes its module live under the derived
    /// [`kleb::RatePolicy`].
    pub fn govern(mut self, policy: GovernorPolicy) -> Self {
        self.config.governor = Some(policy);
        self
    }

    /// Overrides the controller wake/drain/status-poll interval. The
    /// governor observes pressure once per poll, so this bounds its
    /// reaction time.
    pub fn drain_interval(mut self, interval: Duration) -> Self {
        self.config.drain_interval = Some(interval);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> FleetConfig {
        self.config
    }
}

/// Why a fleet run failed.
///
/// A single machine failure is no longer fatal: the supervisor records
/// it in the machine's [`HealthReport`] and the run succeeds partially.
/// `Machines` is returned only when *every* machine failed — and then it
/// aggregates every recorded failure, not just the first one.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FleetError {
    /// Pre-flight setup failed before any machine ran (e.g. the persist
    /// directory could not be created).
    Setup {
        /// What went wrong.
        error: String,
    },
    /// No machine survived. Every failure across the fleet, in spec
    /// order then attempt order.
    Machines {
        /// The full failure list, causes preserved.
        failures: Vec<MachineFailure>,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Setup { error } => write!(f, "fleet setup failed: {error}"),
            FleetError::Machines { failures } => {
                write!(f, "all machines failed ({} failures)", failures.len())?;
                for failure in failures {
                    write!(f, "\n  {failure}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// One machine's completed run.
#[derive(Debug, Clone)]
pub struct MachineReport {
    /// The spec's label.
    pub label: String,
    /// The spec's seed.
    pub seed: u64,
    /// The monitor's full outcome (samples, timing, module status).
    pub outcome: MonitorOutcome,
}

/// Everything a completed fleet run produced.
///
/// `#[non_exhaustive]`: only [`FleetRunner`] assembles one; new result
/// surfaces can be added without breaking downstream readers.
#[derive(Debug)]
#[non_exhaustive]
pub struct FleetOutcome {
    /// The populated sample store.
    pub store: FleetStore,
    /// Per-machine reports, spec order. Failed machines get an outline
    /// report over the samples that reached the collector, so this is
    /// always the same length as the spec list.
    pub machines: Vec<MachineReport>,
    /// Per-machine supervision health, parallel to `machines`.
    pub health: Vec<HealthReport>,
    /// Fan-in counters (per-stream sent/dropped/delivered, depth HWM).
    pub channel: ChannelStats,
    /// The collector's self-metrics, summed from the reports above.
    pub metrics: FleetMetrics,
    /// What the stream watchdog saw: per-machine stall/resume episodes
    /// and any machine still quarantined at the end.
    pub watchdog: WatchdogReport,
    /// Per-machine rate-governance rows, parallel to `machines`:
    /// configured and allocated base periods plus the live governor's
    /// counters (all idle when the fleet ran ungoverned).
    pub governors: Vec<GovernorReport>,
    /// Collector wall-clock time, for rate reporting.
    pub elapsed: std::time::Duration,
}

impl FleetOutcome {
    /// Renders the self-metrics table.
    pub fn metrics_table(&self) -> String {
        self.metrics.render(self.elapsed)
    }

    /// True when every machine finished clean: no restarts, no
    /// failures, no tripped breakers.
    pub fn all_healthy(&self) -> bool {
        self.health.iter().all(HealthReport::is_healthy)
    }

    /// Machines that were lost for good (restart budget exhausted or a
    /// non-retryable error), spec order.
    pub fn failed_machines(&self) -> Vec<usize> {
        self.health
            .iter()
            .enumerate()
            .filter(|(_, h)| h.failed)
            .map(|(i, _)| i)
            .collect()
    }

    /// Renders the per-machine health table: status, restarts,
    /// failures, breaker history.
    pub fn health_table(&self) -> String {
        let mut t = analysis::TextTable::new(&[
            "machine",
            "status",
            "restarts",
            "failures",
            "breaker trips",
            "samples",
        ]);
        for (report, health) in self.machines.iter().zip(&self.health) {
            t.row_owned(vec![
                report.label.clone(),
                health.summary(),
                health.restarts.to_string(),
                health.failure_count.to_string(),
                health.breaker_trips.to_string(),
                report.outcome.samples.len().to_string(),
            ]);
        }
        t.render()
    }

    /// Renders the per-machine governance table: allocated vs final
    /// period and the AIMD counters.
    pub fn governor_table(&self) -> String {
        let mut t = analysis::TextTable::new(&[
            "machine",
            "allocated µs",
            "final µs",
            "retunes",
            "acked",
            "clamps",
            "oscillations",
        ]);
        for row in &self.governors {
            t.row_owned(vec![
                row.label.clone(),
                format!("{:.1}", row.allocated_period_ns as f64 / 1_000.0),
                format!("{:.1}", row.final_period_ns() as f64 / 1_000.0),
                row.stats.retunes.to_string(),
                row.stats.acked.to_string(),
                row.stats.clamps.to_string(),
                row.stats.oscillations.to_string(),
            ]);
        }
        t.render()
    }

    /// A byte digest of everything a run produced that is *deterministic
    /// by contract*: per-machine sample streams (wire encoding), module
    /// status, recovery stats, programmed events, the store's ingested
    /// points, per-stream fan-in accounting, and the watchdog's
    /// episode counters. Wall-clock-dependent values (elapsed, ingest
    /// latency, ring depth, block waits) are excluded.
    ///
    /// Replaying a recorded run must reproduce this byte-for-byte —
    /// that equality is the regression-testing contract.
    pub fn digest(&self) -> Vec<u8> {
        fn u64s(out: &mut Vec<u8>, vals: &[u64]) {
            for v in vals {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        let mut out = Vec::new();
        u64s(&mut out, &[self.machines.len() as u64]);
        for (index, report) in self.machines.iter().enumerate() {
            out.extend_from_slice(report.label.as_bytes());
            out.push(0);
            u64s(
                &mut out,
                &[report.seed, report.outcome.samples.len() as u64],
            );
            for s in &report.outcome.samples {
                s.encode_into(&mut out);
            }
            for &e in &report.outcome.events {
                out.push(e as u8);
            }
            let st = &report.outcome.status;
            u64s(
                &mut out,
                &[
                    st.target_alive as u64,
                    st.buffered,
                    st.samples_taken,
                    st.samples_dropped,
                    st.pauses,
                    st.paused as u64,
                    st.period_ns,
                ],
            );
            let rec = &report.outcome.recovery;
            u64s(
                &mut out,
                &[
                    rec.drain_retries,
                    rec.drains_abandoned,
                    rec.kicks,
                    rec.kicks_honoured,
                    rec.period_doublings as u64,
                    rec.degraded as u64,
                ],
            );
            // The governor's ledger. All-zero both for ungoverned runs
            // and for governed runs that never saw pressure — which is
            // what keeps those two byte-identical here.
            let gov = &report.outcome.governor;
            u64s(
                &mut out,
                &[
                    u64::from(gov.retunes),
                    u64::from(gov.acked),
                    u64::from(gov.clamps),
                    u64::from(gov.oscillations),
                    gov.last_period_ns,
                    gov.max_period_ns,
                ],
            );
            // Supervision health: the counts and final breaker state are
            // persisted in the ledger and must survive record → replay.
            // Failure *messages* are deliberately excluded — they are not
            // reconstructible from a trace.
            if let Some(h) = self.health.get(index) {
                u64s(
                    &mut out,
                    &[
                        u64::from(h.restarts),
                        u64::from(h.failure_count),
                        u64::from(h.breaker_trips),
                        u64::from(h.breaker_state.tag()),
                        u64::from(h.failed),
                    ],
                );
            }
        }
        for machine in 0..self.machines.len() {
            for lane in self.store.machine_snapshot(machine) {
                u64s(&mut out, &[lane.len() as u64]);
                for p in lane {
                    u64s(&mut out, &[p.timestamp_ns, p.delta]);
                }
            }
        }
        u64s(&mut out, &self.channel.sent);
        u64s(&mut out, &self.channel.dropped);
        u64s(&mut out, &self.channel.delivered);
        u64s(&mut out, &self.watchdog.stalls);
        u64s(&mut out, &self.watchdog.resumes);
        for &q in &self.watchdog.quarantined_at_end {
            u64s(&mut out, &[q as u64]);
        }
        out
    }
}

/// Runs fleets described by a [`FleetConfig`].
#[derive(Debug, Clone)]
pub struct FleetRunner {
    config: FleetConfig,
}

impl FleetRunner {
    /// A runner for `config`.
    pub fn new(config: FleetConfig) -> Self {
        Self { config }
    }

    /// Runs every spec to completion, collecting samples concurrently.
    ///
    /// Blocks until all machine threads have exited and every ring is
    /// fully drained. Every machine runs under the configured
    /// [`SupervisorPolicy`]: panics are contained, restarts consume the
    /// budget, and a terminal failure degrades the outcome instead of
    /// discarding it — see `crate::supervisor`.
    ///
    /// # Errors
    ///
    /// [`FleetError::Setup`] if `specs` is empty or pre-flight setup
    /// fails; [`FleetError::Machines`] only when **no** machine survived
    /// (the aggregated failure list covers every machine and attempt).
    /// Any surviving stream yields `Ok` with per-machine
    /// [`HealthReport`]s.
    pub fn run(&self, specs: Vec<MachineSpec>) -> Result<FleetOutcome, FleetError> {
        if specs.is_empty() {
            return Err(FleetError::Setup {
                error: "fleet needs at least one machine".into(),
            });
        }
        let n = specs.len();
        if let Some(dir) = &self.config.persist_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                return Err(FleetError::Setup {
                    error: format!("cannot create trace directory {}: {e}", dir.display()),
                });
            }
        }
        // The budget allocator assigns each machine its base period
        // before anything runs; without a governor (or without a budget)
        // every machine gets the configured period unchanged.
        let weights: Vec<f64> = specs.iter().map(|s| s.weight).collect();
        let allocated: Vec<u64> = match &self.config.governor {
            Some(policy) => policy.allocate(self.config.period.as_nanos(), &weights),
            None => vec![self.config.period.as_nanos(); n],
        };
        let (senders, receiver) = ring_fanin(n, RING_CAPACITY, self.config.backpressure);
        let mut handles = Vec::with_capacity(n);
        // Sender i goes to spec i: stream indices equal spec order.
        for (index, (spec, tx)) in specs.into_iter().zip(senders).enumerate() {
            let period = Duration::from_nanos(allocated[index]);
            let mut monitor = Monitor::new(&self.config.events, period).tuning(self.config.tuning);
            if let Some(interval) = self.config.drain_interval {
                monitor = monitor.drain_interval(interval);
            }
            if let Some(policy) = &self.config.governor {
                monitor = monitor.govern(policy.rate_policy(allocated[index]));
            }
            let label = spec.label.clone();
            let seed = spec.seed;
            let trace_path = self
                .config
                .persist_dir
                .as_ref()
                .map(|dir| dir.join(stream_file_name(index, &spec.label)));
            let task = MachineTask {
                label: spec.label,
                seed,
                monitor,
                machine_config: self.config.machine_config,
                faults: self.config.faults,
                workload: spec.workload,
                policy: self.config.supervision,
                clock: Arc::clone(&self.config.clock),
                tx,
                trace_path,
                meta: StreamMeta {
                    label: label.clone(),
                    seed,
                    period_ns: allocated[index],
                    events: self.config.events.clone(),
                },
            };
            let handle = std::thread::spawn(move || supervise_machine(task));
            handles.push((label, seed, handle));
        }

        self.collect_and_join(n, receiver, handles, allocated)
    }

    /// Replays recorded streams through the collector pipeline — a
    /// drop-in machine source. Each stream gets the thread a live
    /// machine would have had and sends its recorded drain batches, in
    /// order, through the same ring fan-in; store ingest, fan-in
    /// accounting, the watchdog and anomaly scans all see exactly what
    /// the live run produced. Under [`Backpressure::Block`] the
    /// resulting [`FleetOutcome::digest`] is byte-identical to the
    /// recorded run's.
    ///
    /// Stream order is machine order (a [`ktrace::TraceReplayer`]
    /// already restores it). The synthesized machine reports carry the
    /// recorded status and recovery ledgers; the monitored-process
    /// ground truth (`target`) is reconstructed only in outline and is
    /// deliberately excluded from the digest.
    ///
    /// # Errors
    ///
    /// [`FleetError::Setup`] if `streams` is empty (e.g. a trace
    /// directory holding no segment); [`FleetError::Machines`] if every
    /// replay thread panics.
    pub fn replay(&self, streams: Vec<RecoveredStream>) -> Result<FleetOutcome, FleetError> {
        if streams.is_empty() {
            return Err(FleetError::Setup {
                error: "replay needs at least one stream".into(),
            });
        }
        let n = streams.len();
        // The recorded stream metadata carries each machine's allocated
        // base period, so replayed governance rows match the live run's.
        let allocated: Vec<u64> = streams.iter().map(|s| s.meta.period_ns).collect();
        let (senders, receiver) = ring_fanin(n, RING_CAPACITY, self.config.backpressure);
        let mut handles = Vec::with_capacity(n);
        for (stream, mut tx) in streams.into_iter().zip(senders) {
            let label = stream.meta.label.clone();
            let seed = stream.meta.seed;
            let handle = std::thread::spawn(move || {
                for batch in stream.batches() {
                    tx.send(batch);
                }
                drop(tx);
                // Health comes back from the persisted ledger (counts
                // and breaker state; messages are not recorded), so the
                // replayed digest covers exactly what the live one did.
                let health = HealthReport::from_stream_health(
                    stream.ledger.as_ref().map(|l| l.health).unwrap_or_default(),
                );
                SupervisedRun {
                    report: replayed_report(stream),
                    health,
                }
            });
            handles.push((label, seed, handle));
        }

        self.collect_and_join(n, receiver, handles, allocated)
    }

    /// The shared back half of [`FleetRunner::run`] and
    /// [`FleetRunner::replay`]: drive the collector loop, join the
    /// producer threads, assemble the outcome. `allocated` holds each
    /// machine's allocator-assigned base period, in spec order.
    fn collect_and_join(
        &self,
        n: usize,
        mut receiver: RingCollector,
        handles: Vec<(String, u64, std::thread::JoinHandle<SupervisedRun>)>,
        allocated: Vec<u64>,
    ) -> Result<FleetOutcome, FleetError> {
        let mut batches = 0u64;
        let mut drain_latency = LatencyHistogram::default();
        let mut store = FleetStore::new(n, self.config.events.clone(), SHARD_CAPACITY);
        let clock = &self.config.clock;
        let started_ns = clock.now_ns();

        // Collector loop: drain until every sender (inside the machine
        // workloads) has dropped and every ring is empty, polling often
        // enough that the watchdog notices silence well inside the stall
        // timeout.
        let mut watchdog = StreamWatchdog::new(
            n,
            self.config.stall_timeout.as_nanos().max(1) as u64,
            started_ns,
        );
        let poll = (self.config.stall_timeout / 4).max(std::time::Duration::from_millis(1));
        // One scratch buffer for the whole run: the collector fills it in
        // place, so the steady state allocates nothing per batch.
        let mut scratch: Vec<Sample> = Vec::new();
        loop {
            match receiver.poll(poll, &mut scratch) {
                Polled::Batch { machine } => {
                    let t0_ns = clock.now_ns();
                    store.ingest(machine, &scratch);
                    let t1_ns = clock.now_ns();
                    batches += 1;
                    drain_latency.record(t1_ns.saturating_sub(t0_ns));
                    watchdog.observe(machine, t1_ns);
                    if scratch.iter().any(|s| s.final_sample) {
                        // The stream's last record is drained: it may go
                        // silent forever without that being a stall.
                        watchdog.mark_done(machine);
                    }
                    watchdog.scan(t1_ns);
                }
                Polled::Timeout => {
                    watchdog.scan(clock.now_ns());
                }
                Polled::Disconnected => break,
            }
        }
        let elapsed = std::time::Duration::from_nanos(clock.now_ns().saturating_sub(started_ns));

        let mut machines = Vec::with_capacity(n);
        let mut health = Vec::with_capacity(n);
        for (label, seed, handle) in handles {
            match handle.join() {
                Ok(run) => {
                    machines.push(run.report);
                    health.push(run.health);
                }
                Err(payload) => {
                    // The supervisor itself panicked — a bug, not an
                    // injected fault (those are contained inside it).
                    // Preserve the payload and keep the fleet's shape:
                    // one report and one health entry per spec, always.
                    let failure = MachineFailure {
                        label: label.clone(),
                        attempt: 0,
                        kind: crate::supervisor::FailureKind::Panic,
                        message: panic_message(payload),
                    };
                    machines.push(outline_report(
                        &label,
                        seed,
                        self.config.events.clone(),
                        Vec::new(),
                    ));
                    health.push(HealthReport::failed_with(vec![failure]));
                }
            }
        }
        if health.iter().all(|h| h.failed) {
            return Err(FleetError::Machines {
                failures: health.into_iter().flat_map(|h| h.failures).collect(),
            });
        }

        // Governance rows, one per machine (idle rows when the fleet ran
        // ungoverned).
        let base_period_ns = self.config.period.as_nanos();
        let mut governors = Vec::with_capacity(n);
        for (report, &allocated_period_ns) in machines.iter().zip(&allocated) {
            governors.push(GovernorReport {
                label: report.label.clone(),
                base_period_ns,
                allocated_period_ns,
                stats: report.outcome.governor,
            });
        }

        let channel = receiver.stats();
        let watchdog = watchdog.report();
        let metrics = FleetMetrics::from_reports(
            batches,
            drain_latency,
            &channel,
            store.stats(),
            &watchdog,
            &health,
            &governors,
        );
        Ok(FleetOutcome {
            store,
            machines,
            health,
            channel,
            metrics,
            watchdog,
            governors,
            elapsed,
        })
    }
}

/// Synthesizes the machine report for a replayed stream: samples from
/// the trace, status and recovery from the ledger (zeroed if the ledger
/// was destroyed), and an outline `target` — the simulator's
/// ground-truth process state is not recorded, so only its identity is
/// reconstructed.
fn replayed_report(stream: RecoveredStream) -> MachineReport {
    let ledger = stream.ledger.unwrap_or_default();
    let target = outline_target(&stream.meta.label, &stream.samples);
    MachineReport {
        label: stream.meta.label.clone(),
        seed: stream.meta.seed,
        outcome: MonitorOutcome {
            samples: stream.samples,
            target,
            status: ledger.status,
            events: stream.meta.events,
            recovery: ledger.recovery,
            governor: ledger.governor,
        },
    }
}

/// An outline of the monitored process reconstructed from its samples
/// alone — identity and lifetime, no ground-truth counters. Used for
/// replayed streams and for machines that failed under supervision
/// (where the final incarnation's `MonitorOutcome` never existed).
fn outline_target(label: &str, samples: &[Sample]) -> ProcessInfo {
    let last_ts = samples.last().map_or(0, |s| s.timestamp_ns);
    let pid = samples.first().map_or(0, |s| s.pid);
    ProcessInfo {
        pid: Pid(pid),
        ppid: None,
        name: label.to_string(),
        state: ProcessState::Exited,
        core: CoreId(0),
        spawned_at: Instant::ZERO,
        exited_at: Some(Instant::from_nanos(last_ts)),
        cpu_user: Duration::ZERO,
        cpu_kernel: Duration::ZERO,
        true_user_events: EventCounts::new(),
        true_kernel_events: EventCounts::new(),
    }
}

/// The [`MachineReport`] of a machine that never completed a monitor
/// run: defaulted status and recovery ledgers (matching what the sealed
/// trace records for it) over the samples that did reach the collector.
pub(crate) fn outline_report(
    label: &str,
    seed: u64,
    events: Vec<HwEvent>,
    samples: Vec<Sample>,
) -> MachineReport {
    let target = outline_target(label, &samples);
    MachineReport {
        label: label.to_string(),
        seed,
        outcome: MonitorOutcome {
            samples,
            target,
            status: Default::default(),
            events,
            recovery: Default::default(),
            governor: Default::default(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Lane;
    use crate::store::Window;
    use ksim::{FixedBlocks, WorkBlock};
    use pmu::EventCounts;

    /// A builder, not a finished config: tests chain further overrides
    /// and `.build()` at the use site.
    fn quick_config() -> FleetConfigBuilder {
        FleetConfig::builder(
            &[HwEvent::LlcReference, HwEvent::LlcMiss],
            Duration::from_micros(500),
        )
        .tuning(KlebTuning::microarchitectural())
        .machine(MachineConfig::test_tiny)
    }

    fn spec(i: u64) -> MachineSpec {
        MachineSpec::new(format!("m{i}"), 40 + i, |seed| {
            Box::new(FixedBlocks::new(
                2_000 + (seed % 7) * 100,
                WorkBlock::compute(1_000, 2_670)
                    .with_events(EventCounts::new().with(HwEvent::LlcMiss, 3)),
            ))
        })
    }

    #[test]
    fn fleet_run_collects_every_machines_samples() {
        let outcome = FleetRunner::new(quick_config().build())
            .run((0..4).map(spec).collect())
            .unwrap();
        assert_eq!(outcome.machines.len(), 4);
        assert_eq!(outcome.channel.total_dropped(), 0, "Block is lossless");
        for (m, report) in outcome.machines.iter().enumerate() {
            // Store contents == the monitor's own sample series: nothing
            // was lost or reordered on the way through the fan-in.
            let stored: Vec<u64> = outcome
                .store
                .points(m, Lane::INSTRUCTIONS)
                .map(|p| p.delta)
                .collect();
            let direct: Vec<u64> = report.outcome.samples.iter().map(|s| s.fixed[0]).collect();
            assert_eq!(stored, direct, "machine {m}");
            assert!(!stored.is_empty(), "machine {m} produced samples");
        }
        assert!(outcome.metrics.samples_ingested() > 0);
        assert_eq!(
            outcome.metrics.samples_ingested(),
            outcome.channel.total_sent()
        );
        assert!(outcome.store.window_sum(0, Lane::Pmc(1), Window::all()) > 0);
    }

    #[test]
    fn all_machines_failing_surfaces_every_failure() {
        let mut specs: Vec<MachineSpec> = (0..2).map(spec).collect();
        // Five events on four counters: the controller's config ioctl fails
        // on every machine — a deterministic, non-retryable error, so the
        // whole fleet is lost and every failure must be aggregated (not
        // just the first, as the old single-error path did).
        let bad = FleetConfig::builder(
            &[
                HwEvent::Load,
                HwEvent::Store,
                HwEvent::BranchRetired,
                HwEvent::BranchMiss,
                HwEvent::LlcMiss,
            ],
            Duration::from_millis(1),
        )
        .machine(MachineConfig::test_tiny)
        .build();
        specs.truncate(2);
        let err = FleetRunner::new(bad).run(specs).unwrap_err();
        let FleetError::Machines { failures } = err else {
            panic!("expected the aggregate variant, got: {err}");
        };
        assert_eq!(failures.len(), 2, "one failure per machine: {failures:?}");
        for (i, failure) in failures.iter().enumerate() {
            assert_eq!(failure.label, format!("m{i}"));
            assert_eq!(failure.kind, crate::supervisor::FailureKind::Monitor);
            assert_eq!(failure.attempt, 0, "monitor errors are never retried");
            assert!(failure.message.contains("controller"), "{failure}");
        }
    }

    #[test]
    fn injected_tick_clock_makes_timing_deterministic() {
        let run = || {
            let cfg = quick_config()
                .clock(Arc::new(crate::clock::TickClock::new(100)))
                .build();
            FleetRunner::new(cfg)
                .run((0..2).map(spec).collect())
                .unwrap()
        };
        let (a, b) = (run(), run());
        // The collector is the only clock reader, so elapsed is a pure
        // function of the (deterministic) batch count — identical runs
        // report identical timing, which real Instant::now never did.
        assert_eq!(a.elapsed, b.elapsed);
        assert!(a.elapsed.as_nanos() > 0);
    }

    #[test]
    fn metrics_table_renders_after_a_run() {
        let outcome = FleetRunner::new(quick_config().build())
            .run(vec![spec(0)])
            .unwrap();
        let table = outcome.metrics_table();
        assert!(table.contains("samples ingested"));
        assert!(table.contains("stream stalls"));
    }

    #[test]
    fn healthy_fleet_reports_no_stalls() {
        let outcome = FleetRunner::new(quick_config().build())
            .run((0..3).map(spec).collect())
            .unwrap();
        assert_eq!(outcome.watchdog.total_stalls(), 0);
        assert!(outcome.watchdog.all_recovered());
    }

    #[test]
    fn injected_fault_plan_reaches_every_machine() {
        let outcome = FleetRunner::new(
            quick_config()
                .faults(ksim::FaultPlan::ring_pressure(0.5))
                .build(),
        )
        .run((0..3).map(spec).collect())
        .unwrap();
        for report in &outcome.machines {
            let status = &report.outcome.status;
            assert!(
                status.samples_dropped > 0,
                "machine {} saw no ring pressure",
                report.label
            );
            // The module's ledger stays exact under injected pressure.
            assert_eq!(
                report.outcome.samples.len() as u64 + status.samples_dropped,
                status.samples_taken,
                "machine {}",
                report.label
            );
        }
    }

    #[test]
    fn record_then_replay_reproduces_the_digest() {
        let dir = std::env::temp_dir().join(format!("fleet-replay-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Ring pressure makes the run chaotic: dropped samples, retries,
        // a nontrivial recovery ledger — all of it must survive the disk
        // round trip.
        let config = quick_config()
            .faults(ksim::FaultPlan::ring_pressure(0.4))
            .persist(&dir);
        let live = FleetRunner::new(config.clone().build())
            .run((0..3).map(spec).collect())
            .unwrap();
        assert!(live
            .machines
            .iter()
            .any(|m| m.outcome.status.samples_dropped > 0));

        let replayer = ktrace::TraceReplayer::load_dir(&dir).unwrap();
        assert_eq!(replayer.streams.len(), 3);
        assert!(replayer.all_clean(), "clean recording recovers cleanly");
        let replayed = FleetRunner::new(config.build())
            .replay(replayer.streams)
            .unwrap();

        assert_eq!(
            live.digest(),
            replayed.digest(),
            "replay must be byte-identical to the live run"
        );
        // The anomaly scanner agrees too — same store, same verdicts.
        let cfg = crate::detect::AnomalyConfig::default();
        assert_eq!(
            crate::detect::scan_fleet(&live.store, &cfg),
            crate::detect::scan_fleet(&replayed.store, &cfg)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_specs_and_empty_trace_dirs_are_setup_errors() {
        let dir = std::env::temp_dir().join(format!("fleet-empty-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let replayer = ktrace::TraceReplayer::load_dir(&dir).unwrap();
        assert!(replayer.streams.is_empty(), "no segment, no stream");
        let runner = FleetRunner::new(quick_config().build());
        let replayed = runner.replay(replayer.streams);
        assert!(
            matches!(replayed, Err(FleetError::Setup { .. })),
            "{replayed:?}"
        );
        let run = runner.run(Vec::new());
        assert!(matches!(run, Err(FleetError::Setup { .. })), "{run:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persisted_ledger_matches_the_live_outcome() {
        let dir = std::env::temp_dir().join(format!("fleet-persist-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let live = FleetRunner::new(quick_config().persist(&dir).build())
            .run((0..2).map(spec).collect())
            .unwrap();
        let replayer = ktrace::TraceReplayer::load_dir(&dir).unwrap();
        for (stream, report) in replayer.streams.iter().zip(&live.machines) {
            assert_eq!(stream.meta.label, report.label);
            assert_eq!(stream.meta.seed, report.seed);
            assert_eq!(stream.samples, report.outcome.samples);
            let ledger = stream.ledger.as_ref().unwrap();
            assert_eq!(ledger.samples_written, report.outcome.samples.len() as u64);
            assert_eq!(ledger.status, report.outcome.status);
            assert_eq!(ledger.recovery, report.outcome.recovery);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hair_trigger_watchdog_stalls_and_recovers_losslessly() {
        // A 1ns stall timeout quarantines every stream at the first scan
        // after any gap — exercising the stall/resume path without needing
        // a genuinely wedged machine. The run must still be lossless.
        let outcome = FleetRunner::new(
            quick_config()
                .stall_timeout(std::time::Duration::from_nanos(1))
                .build(),
        )
        .run((0..2).map(spec).collect())
        .unwrap();
        assert!(outcome.watchdog.total_stalls() >= 1);
        assert!(
            outcome.watchdog.all_recovered(),
            "every machine finished, none left quarantined: {:?}",
            outcome.watchdog
        );
        assert_eq!(outcome.channel.total_dropped(), 0, "Block stays lossless");
        assert_eq!(
            outcome.metrics.samples_ingested(),
            outcome.channel.total_sent()
        );
    }
}
