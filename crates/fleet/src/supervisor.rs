//! Supervision & recovery: panic containment, deterministic restart,
//! circuit breaking, and partial-outcome health accounting.
//!
//! Before this module, one panicking machine thread killed the whole
//! fleet run: the collector still drained every surviving stream, then
//! `run()` threw it all away behind a generic "machine thread panicked"
//! error. Supervision turns a machine failure into *data*:
//!
//! - **Containment** — each monitor attempt runs under
//!   [`std::panic::catch_unwind`]; the panic payload is downcast back to
//!   its message ([`panic_message`]) and recorded as a typed
//!   [`MachineFailure`] instead of being dropped on the floor.
//! - **Restart** — a panicked machine is rebuilt and re-run under a
//!   bounded budget ([`MAX_RESTARTS`]) with seeded
//!   exponential backoff + jitter ([`backoff_delay_ns`] — a pure
//!   function of `(policy, seed, attempt)`, no wall-clock reads, no
//!   global RNG). The retry's fault RNG is salted by attempt number
//!   (`ksim::FaultState::for_attempt`) so it does not deterministically
//!   hit the identical crash point forever, and the monitor resumes
//!   with [`kleb::Monitor::resume_from`] so sequence numbers and
//!   timestamps stay globally monotone across incarnations — the first
//!   resumed sample carries the `gap` flag because whatever the dead
//!   incarnation had buffered is gone, and the ledger says so.
//! - **Circuit breaking** — a per-machine [`CircuitBreaker`]
//!   (Closed → Open → HalfOpen) stops hot restart loops. Like
//!   [`crate::StreamWatchdog`], it is a pure state machine over injected
//!   `now_ns` values and never reads a clock itself.
//! - **Partial outcomes** — every machine reports a [`HealthReport`];
//!   the fleet run succeeds with its surviving streams and fails only
//!   when *no* machine survived. Health is packed into the persisted
//!   ktrace ledger ([`ktrace::StreamHealth`]) so record → replay
//!   reproduces the extended [`crate::FleetOutcome::digest`]
//!   byte-for-byte.
//!
//! Determinism contract: the happy path (attempt 0 succeeds) makes
//! **zero** clock reads and zero breaker decisions — a clean supervised
//! run is bit-identical to one that never heard of supervision, and the
//! collector remains the only clock reader
//! (`injected_tick_clock_makes_timing_deterministic` depends on this).
//! The breaker/backoff machinery only wakes up after a failure, and even
//! then the *recorded* health (restart count, failure count, trips,
//! final breaker state) is a pure function of the failure sequence, not
//! of when retries happened — which is why the digest stays stable under
//! the real monotonic clock.

use std::sync::{Arc, Mutex, PoisonError};

use kleb::{Monitor, MonitorOutcome, Sample, SampleSink};
use ksim::{Machine, MachineConfig};
use ktrace::{SharedWriter, StreamHealth, StreamLedger, StreamMeta, TraceWriter};

use crate::clock::Clock;
use crate::ingest::RingSender;
use crate::runner::{outline_report, MachineReport, WorkloadFactory};

/// Restarts a machine may consume before it is declared failed.
const MAX_RESTARTS: u32 = 3;
/// Consecutive failures that trip a machine's breaker open.
const BREAKER_THRESHOLD: u32 = 2;

/// Backoff and circuit-breaker timing for one fleet. The restart budget
/// (`MAX_RESTARTS`) and the breaker threshold (`BREAKER_THRESHOLD`)
/// are fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Backoff before restart attempt 1, nanoseconds. Doubles per
    /// attempt up to [`SupervisorPolicy::backoff_cap_ns`].
    pub backoff_base_ns: u64,
    /// Upper bound on any single backoff delay, jitter included.
    pub backoff_cap_ns: u64,
    /// How long a tripped breaker stays open before admitting one
    /// half-open probe, nanoseconds.
    pub breaker_cooldown_ns: u64,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        Self {
            backoff_base_ns: 1_000_000,      // 1 ms
            backoff_cap_ns: 20_000_000,      // 20 ms
            breaker_cooldown_ns: 20_000_000, // 20 ms
        }
    }
}

impl SupervisorPolicy {
    /// Overrides the backoff base delay (doubles per attempt).
    pub fn backoff_base_ns(mut self, ns: u64) -> Self {
        self.backoff_base_ns = ns;
        self
    }

    /// Overrides the backoff cap.
    pub fn backoff_cap_ns(mut self, ns: u64) -> Self {
        self.backoff_cap_ns = ns;
        self
    }

    /// Overrides the breaker's open-state cooldown.
    pub fn breaker_cooldown_ns(mut self, ns: u64) -> Self {
        self.breaker_cooldown_ns = ns;
        self
    }
}

/// Circuit-breaker position.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; failures are being counted.
    #[default]
    Closed,
    /// Tripped: requests are refused until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe is in flight; its result
    /// closes or re-trips the breaker.
    HalfOpen,
}

impl BreakerState {
    /// Stable wire tag, as persisted in [`ktrace::StreamHealth`].
    pub(crate) fn tag(self) -> u8 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }

    /// Inverse of [`BreakerState::tag`]; unknown tags decode `Closed`.
    pub(crate) fn from_tag(tag: u8) -> Self {
        match tag {
            1 => BreakerState::Open,
            2 => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }
}

/// Per-machine circuit breaker: Closed → Open on
/// `threshold` consecutive failures (or any half-open probe failure),
/// Open → HalfOpen after the cooldown, HalfOpen → Closed on a probe
/// success.
///
/// Pure over injected `now_ns` values, in the [`crate::StreamWatchdog`]
/// mold: it never reads a clock, so every transition is unit-testable
/// with synthetic timestamps (klint rule D1).
#[derive(Debug, Clone)]
pub(crate) struct CircuitBreaker {
    state: BreakerState,
    threshold: u32,
    cooldown_ns: u64,
    consecutive_failures: u32,
    opened_at_ns: u64,
    trips: u8,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// (min 1), cooling down for `cooldown_ns` once open.
    pub(crate) fn new(threshold: u32, cooldown_ns: u64) -> Self {
        Self {
            state: BreakerState::Closed,
            threshold: threshold.max(1),
            cooldown_ns,
            consecutive_failures: 0,
            opened_at_ns: 0,
            trips: 0,
        }
    }

    /// May a request proceed at `now_ns`? Closed always admits; Open
    /// admits nothing until the cooldown elapses, then transitions to
    /// HalfOpen and admits the single probe; HalfOpen refuses further
    /// requests while the probe is outstanding.
    pub(crate) fn allow(&mut self, now_ns: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now_ns.saturating_sub(self.opened_at_ns) >= self.cooldown_ns {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => false,
        }
    }

    /// The admitted request succeeded: reset the failure streak and
    /// close the breaker (a half-open probe success heals it).
    pub(crate) fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
    }

    /// The admitted request failed at `now_ns`. A half-open probe
    /// failure re-trips immediately; a closed breaker trips once the
    /// streak reaches the threshold.
    pub(crate) fn record_failure(&mut self, now_ns: u64) {
        self.consecutive_failures += 1;
        let trip = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.threshold,
            BreakerState::Open => false,
        };
        if trip {
            self.state = BreakerState::Open;
            self.opened_at_ns = now_ns;
            self.trips = self.trips.saturating_add(1);
        }
    }

    /// Current position.
    pub(crate) fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped open.
    pub(crate) fn trips(&self) -> u8 {
        self.trips
    }
}

/// What category of failure took a machine down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The monitor (or the machine under it) panicked; the payload is
    /// preserved in the message. Retryable within the restart budget.
    Panic,
    /// The monitor returned a typed error (bad config, missing target).
    /// Deterministic, so never retried.
    Monitor,
    /// Trace persistence failed (create or seal). The sample pipeline
    /// itself may have been fine.
    Io,
}

impl FailureKind {
    fn verb(self) -> &'static str {
        match self {
            FailureKind::Panic => "panicked",
            FailureKind::Monitor => "monitor error",
            FailureKind::Io => "trace I/O error",
        }
    }
}

/// One recorded machine failure, with its cause preserved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineFailure {
    /// The failing spec's label.
    pub label: String,
    /// Which attempt failed (0 = the original run).
    pub attempt: u32,
    /// Failure category.
    pub kind: FailureKind,
    /// The panic payload or error message.
    pub message: String,
}

impl std::fmt::Display for MachineFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "machine '{}' attempt {} {}: {}",
            self.label,
            self.attempt,
            self.kind.verb(),
            self.message
        )
    }
}

/// Recovers the human-readable message from a caught panic payload.
///
/// `panic!("...")` payloads are `String` or `&'static str`; anything
/// else (a `panic_any` with an exotic type) is reported as opaque rather
/// than discarded along with the whole report — which is exactly what
/// the old `"machine thread panicked"` string used to do.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "opaque panic payload".to_string(),
        },
    }
}

/// One machine's supervision summary, parallel to its
/// [`MachineReport`] in the [`crate::FleetOutcome`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Restarts consumed (0 on a clean run).
    pub restarts: u32,
    /// Total recorded failures across all attempts. Kept separately
    /// from `failures.len()` because replayed runs reconstruct the
    /// count from the persisted ledger but not the messages.
    pub failure_count: u16,
    /// Times the circuit breaker tripped open.
    pub breaker_trips: u8,
    /// The breaker's final position.
    pub breaker_state: BreakerState,
    /// The machine was lost for good: its restart budget ran out, or it
    /// hit a non-retryable error.
    pub failed: bool,
    /// The recorded failures, in attempt order. Empty on replayed runs
    /// (messages are not persisted; only the counts above are).
    pub failures: Vec<MachineFailure>,
}

impl HealthReport {
    /// Clean run: no restarts, no failures, breaker closed.
    pub fn is_healthy(&self) -> bool {
        !self.failed && self.restarts == 0 && self.failure_count == 0
    }

    /// One-word-ish status for tables and logs: `healthy`,
    /// `restarted(n)`, `degraded`, or `failed`.
    pub(crate) fn summary(&self) -> String {
        if self.failed {
            "failed".to_string()
        } else if self.restarts > 0 {
            format!("restarted({})", self.restarts)
        } else if self.failure_count > 0 {
            "degraded".to_string()
        } else {
            "healthy".to_string()
        }
    }

    /// Packs the digest-relevant health fields for the persisted ledger.
    pub(crate) fn to_stream_health(&self) -> StreamHealth {
        StreamHealth {
            restarts: self.restarts,
            failures: self.failure_count,
            breaker_trips: self.breaker_trips,
            breaker_state: self.breaker_state.tag(),
            failed: self.failed,
        }
    }

    /// Rebuilds the report from a replayed ledger. Failure messages are
    /// not persisted, so `failures` comes back empty — by design, the
    /// digest covers only the counts.
    pub(crate) fn from_stream_health(health: StreamHealth) -> Self {
        Self {
            restarts: health.restarts,
            failure_count: health.failures,
            breaker_trips: health.breaker_trips,
            breaker_state: BreakerState::from_tag(health.breaker_state),
            failed: health.failed,
            failures: Vec::new(),
        }
    }

    /// A terminally failed report carrying `failures`.
    pub(crate) fn failed_with(failures: Vec<MachineFailure>) -> Self {
        Self {
            failure_count: failures.len().min(u16::MAX as usize) as u16,
            failed: true,
            failures,
            ..Self::default()
        }
    }
}

/// Deterministic backoff before restart `attempt` (≥ 1): exponential in
/// the attempt number, capped, with splitmix64 jitter derived from
/// `(seed, attempt)` — so a thundering herd of machines sharing a fault
/// de-synchronises without any global RNG or wall-clock input.
pub(crate) fn backoff_delay_ns(policy: &SupervisorPolicy, seed: u64, attempt: u32) -> u64 {
    debug_assert!(attempt >= 1, "attempt 0 is the original run");
    let doublings = attempt.saturating_sub(1).min(20);
    let base = policy
        .backoff_base_ns
        .saturating_mul(1u64 << doublings)
        .min(policy.backoff_cap_ns);
    let jitter_space = base / 2;
    let jitter = if jitter_space > 0 {
        splitmix64(seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % jitter_space
    } else {
        0
    };
    base.saturating_add(jitter).min(policy.backoff_cap_ns)
}

/// SplitMix64 — the standard 64-bit finalizer; a pure hash, not a
/// stateful RNG, so klint's D1 has nothing to object to.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Everything the supervisor shares across attempts of one machine,
/// *outside* the `catch_unwind` boundary: the stream's sending end (a
/// panic must not drop it — end-of-stream is a supervisor decision, not
/// a side effect of unwinding), the trace writer, resume bookkeeping,
/// and the union of samples actually forwarded to the collector.
#[derive(Debug)]
pub(crate) struct StreamProgress {
    pub tx: Option<RingSender>,
    pub trace: Option<SharedWriter<std::fs::File>>,
    /// `(seq, timestamp_ns)` of the last forwarded sample; the next
    /// incarnation resumes from `seq + 1` on this time base.
    pub last: Option<(u64, u64)>,
    /// Every sample forwarded to the collector, across all attempts —
    /// what the trace holds and what a replay will reproduce.
    pub forwarded: Vec<Sample>,
    /// The last period the rate governor retuned to, if any: a restarted
    /// incarnation resumes here rather than snapping back to the
    /// configured rate the ring already proved it cannot sustain.
    pub governed_period_ns: Option<u64>,
}

/// The per-attempt [`SampleSink`]: forwards each drained batch to the
/// trace (if recording) and the fan-in, and tracks resume state. Holds
/// only an [`Arc`] — unwinding through a panicking attempt drops the
/// sink without touching the ring or the trace.
#[derive(Debug)]
pub(crate) struct SupervisorSink(Arc<Mutex<StreamProgress>>);

impl SupervisorSink {
    fn lock(&self) -> std::sync::MutexGuard<'_, StreamProgress> {
        // Same poison stance as ktrace::SharedWriter: a panic can at
        // worst have interrupted bookkeeping this sink itself performs
        // atomically per batch, so recover and continue.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl SampleSink for SupervisorSink {
    fn on_batch(&mut self, samples: &[Sample]) {
        let mut guard = self.lock();
        let progress = &mut *guard;
        if let Some(trace) = &progress.trace {
            trace.append_batch(samples);
        }
        if let Some(tx) = &mut progress.tx {
            tx.send(samples);
        }
        if let Some(sample) = samples.last() {
            progress.last = Some((sample.seq, sample.timestamp_ns));
        }
        progress.forwarded.extend_from_slice(samples);
    }

    fn on_retune(&mut self, _seq: u64, period_ns: u64) {
        self.lock().governed_period_ns = Some(period_ns);
    }
}

/// One supervised machine's final word: always a report (failed
/// machines get an outline one over the samples that did reach the
/// collector) plus its health. Infallible by construction — failure is
/// data, not an early return.
#[derive(Debug)]
pub(crate) struct SupervisedRun {
    /// The machine's report, in the shape [`crate::FleetRunner::run`]
    /// has always produced.
    pub report: MachineReport,
    /// What supervision saw: restarts, failures, breaker history.
    pub health: HealthReport,
}

/// Everything a machine thread needs to run one spec under supervision.
pub(crate) struct MachineTask {
    pub label: String,
    pub seed: u64,
    pub monitor: Monitor,
    pub machine_config: fn(u64) -> MachineConfig,
    pub faults: Option<ksim::FaultPlan>,
    pub workload: WorkloadFactory,
    pub policy: SupervisorPolicy,
    pub clock: Arc<dyn Clock>,
    pub tx: RingSender,
    pub trace_path: Option<std::path::PathBuf>,
    pub meta: StreamMeta,
}

/// How long the breaker-wait loop sleeps between clock polls.
const BREAKER_POLL: std::time::Duration = std::time::Duration::from_micros(500);

/// Runs one machine to a verdict: retry panics under the policy's
/// budget, backoff and breaker; stop on success, a non-retryable error,
/// or budget exhaustion. Seals the trace (durably, with the health
/// ledger) either way. See the module docs for the determinism
/// contract.
pub(crate) fn supervise_machine(task: MachineTask) -> SupervisedRun {
    let MachineTask {
        label,
        seed,
        monitor,
        machine_config,
        faults,
        workload,
        policy,
        clock,
        tx,
        trace_path,
        meta,
    } = task;

    let mut failures: Vec<MachineFailure> = Vec::new();
    let trace = match &trace_path {
        Some(path) => match TraceWriter::create(path, &meta) {
            Ok(writer) => Some(SharedWriter::new(writer)),
            Err(e) => {
                // No trace file means nothing to seal and nothing to
                // replay; the machine itself never ran. Terminal.
                failures.push(MachineFailure {
                    label: label.clone(),
                    attempt: 0,
                    kind: FailureKind::Io,
                    message: format!("cannot create trace {}: {e}", path.display()),
                });
                drop(tx); // end-of-stream: the collector must not wait on us
                let health = HealthReport::failed_with(failures);
                let report = outline_report(&label, seed, meta.events.clone(), Vec::new());
                return SupervisedRun { report, health };
            }
        },
        None => None,
    };

    let progress = Arc::new(Mutex::new(StreamProgress {
        tx: Some(tx),
        trace: trace.clone(),
        last: None,
        forwarded: Vec::new(),
        governed_period_ns: None,
    }));

    let mut breaker = CircuitBreaker::new(BREAKER_THRESHOLD, policy.breaker_cooldown_ns);
    let mut restarts = 0u32;
    let mut attempt = 0u32;
    let mut outcome: Option<MonitorOutcome> = None;
    loop {
        if attempt > 0 {
            // Only the retry path ever touches time: backoff first, then
            // wait out the breaker. A clean run reaches neither.
            std::thread::sleep(std::time::Duration::from_nanos(backoff_delay_ns(
                &policy, seed, attempt,
            )));
            while !breaker.allow(clock.now_ns()) {
                std::thread::sleep(BREAKER_POLL);
            }
        }
        let mut config = machine_config(seed);
        if let Some(plan) = faults {
            config.faults = plan;
        }
        // Salt the fault RNG per attempt: replaying the identical fault
        // sequence would panic at the identical point forever.
        config.fault_attempt = attempt;
        let mut machine = Machine::new(config);
        let body = workload(seed);
        let mut monitor = monitor.clone();
        {
            let guard = progress.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some((last_seq, last_ts)) = guard.last {
                monitor = monitor.resume_from(last_seq + 1, last_ts);
            }
            if let Some(period_ns) = guard.governed_period_ns {
                monitor = monitor.governed_resume_period(ksim::Duration::from_nanos(period_ns));
            }
        }
        let sink = Box::new(SupervisorSink(Arc::clone(&progress)));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            monitor.run_with_sink(&mut machine, &label, body, sink)
        }));
        match result {
            Ok(Ok(done)) => {
                breaker.record_success();
                outcome = Some(done);
                break;
            }
            Ok(Err(e)) => {
                // Monitor errors are deterministic (config, missing
                // target): retrying replays them. Terminal.
                failures.push(MachineFailure {
                    label: label.clone(),
                    attempt,
                    kind: FailureKind::Monitor,
                    message: e.to_string(),
                });
                breaker.record_failure(clock.now_ns());
                break;
            }
            Err(payload) => {
                failures.push(MachineFailure {
                    label: label.clone(),
                    attempt,
                    kind: FailureKind::Panic,
                    message: panic_message(payload),
                });
                breaker.record_failure(clock.now_ns());
                if restarts >= MAX_RESTARTS {
                    break;
                }
                restarts += 1;
                attempt += 1;
            }
        }
    }

    // Reclaim the shared state: close the stream (dropping the sender is
    // the end-of-stream signal, deliberately *not* done by unwinding),
    // then seal the trace with the final ledger + health.
    let (trace, forwarded) = {
        let mut guard = progress.lock().unwrap_or_else(PoisonError::into_inner);
        drop(guard.tx.take());
        (guard.trace.take(), std::mem::take(&mut guard.forwarded))
    };
    let failed = outcome.is_none();
    let mut health = HealthReport {
        restarts,
        failure_count: failures.len().min(u16::MAX as usize) as u16,
        breaker_trips: breaker.trips(),
        breaker_state: breaker.state(),
        failed,
        failures,
    };
    let (status, recovery, governor) = match &outcome {
        Some(done) => (done.status, done.recovery, done.governor),
        None => Default::default(),
    };
    if let Some(shared) = trace {
        let seal = shared.finish_durable(&StreamLedger {
            samples_written: 0, // the writer fills in its own count
            status,
            recovery,
            health: health.to_stream_health(),
            governor,
        });
        if let Err(e) = seal {
            // The run's data already reached the collector; a seal
            // failure degrades the recording, it does not un-succeed
            // the machine.
            health.failures.push(MachineFailure {
                label: label.clone(),
                attempt,
                kind: FailureKind::Io,
                message: format!("cannot seal trace: {e}"),
            });
            health.failure_count = health.failure_count.saturating_add(1);
        }
    }
    let report = match outcome {
        Some(mut done) => {
            if restarts > 0 {
                // The report's samples must be what the collector (and
                // the trace) actually received: the union across all
                // attempts, not just the final incarnation's.
                done.samples = forwarded;
            }
            MachineReport {
                label,
                seed,
                outcome: done,
            }
        }
        None => outline_report(&label, seed, meta.events, forwarded),
    };
    SupervisedRun { report, health }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COOLDOWN: u64 = 1_000;

    #[test]
    fn breaker_trips_after_threshold_and_recovers_via_half_open() {
        let mut b = CircuitBreaker::new(2, COOLDOWN);
        assert!(b.allow(0));
        b.record_failure(10);
        assert_eq!(b.state(), BreakerState::Closed, "one failure: still closed");
        assert!(b.allow(20));
        b.record_failure(30);
        assert_eq!(b.state(), BreakerState::Open, "threshold reached");
        assert_eq!(b.trips(), 1);
        // Open refuses until the cooldown elapses...
        assert!(!b.allow(31));
        assert!(!b.allow(30 + COOLDOWN - 1));
        // ...then admits exactly one probe.
        assert!(b.allow(30 + COOLDOWN));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(30 + COOLDOWN + 1), "probe already in flight");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(9_999));
    }

    #[test]
    fn half_open_probe_failure_re_trips_immediately() {
        let mut b = CircuitBreaker::new(3, COOLDOWN);
        for t in 0..3 {
            b.record_failure(t);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(COOLDOWN + 2));
        b.record_failure(COOLDOWN + 3);
        assert_eq!(b.state(), BreakerState::Open, "probe failure re-trips");
        assert_eq!(b.trips(), 2);
        // The new cooldown is measured from the re-trip.
        assert!(!b.allow(COOLDOWN + 4));
        assert!(b.allow(2 * COOLDOWN + 3));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::new(2, COOLDOWN);
        b.record_failure(0);
        b.record_success();
        b.record_failure(10);
        assert_eq!(b.state(), BreakerState::Closed, "streak was reset");
        b.record_failure(20);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn breaker_state_tags_round_trip() {
        for state in [
            BreakerState::Closed,
            BreakerState::Open,
            BreakerState::HalfOpen,
        ] {
            assert_eq!(BreakerState::from_tag(state.tag()), state);
        }
        assert_eq!(BreakerState::from_tag(99), BreakerState::Closed);
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let policy = SupervisorPolicy::default()
            .backoff_base_ns(1_000)
            .backoff_cap_ns(10_000);
        let d1 = backoff_delay_ns(&policy, 7, 1);
        let d2 = backoff_delay_ns(&policy, 7, 2);
        assert_eq!(d1, backoff_delay_ns(&policy, 7, 1), "pure function");
        assert!((1_000..1_500).contains(&d1), "base + jitter < 1.5x: {d1}");
        assert!((2_000..3_000).contains(&d2), "doubled: {d2}");
        for attempt in 1..40 {
            assert!(backoff_delay_ns(&policy, 7, attempt) <= 10_000, "capped");
        }
        assert_ne!(
            backoff_delay_ns(&policy, 7, 1),
            backoff_delay_ns(&policy, 8, 1),
            "different seeds jitter apart"
        );
    }

    #[test]
    fn panic_message_preserves_string_and_str_payloads() {
        let s = std::panic::catch_unwind(|| panic!("injected fault: {}", 42)).unwrap_err();
        assert_eq!(panic_message(s), "injected fault: 42");
        let s = std::panic::catch_unwind(|| panic!("bare str")).unwrap_err();
        assert_eq!(panic_message(s), "bare str");
        let s = std::panic::catch_unwind(|| std::panic::panic_any(17u32)).unwrap_err();
        assert_eq!(panic_message(s), "opaque panic payload");
    }

    #[test]
    fn health_report_round_trips_through_stream_health() {
        let health = HealthReport {
            restarts: 2,
            failure_count: 3,
            breaker_trips: 1,
            breaker_state: BreakerState::Open,
            failed: true,
            failures: vec![MachineFailure {
                label: "m0".into(),
                attempt: 2,
                kind: FailureKind::Panic,
                message: "boom".into(),
            }],
        };
        let back = HealthReport::from_stream_health(health.to_stream_health());
        assert_eq!(back.restarts, 2);
        assert_eq!(back.failure_count, 3);
        assert_eq!(back.breaker_trips, 1);
        assert_eq!(back.breaker_state, BreakerState::Open);
        assert!(back.failed);
        assert!(back.failures.is_empty(), "messages are not persisted");
    }

    #[test]
    fn health_summaries_cover_the_taxonomy() {
        assert_eq!(HealthReport::default().summary(), "healthy");
        assert!(HealthReport::default().is_healthy());
        let restarted = HealthReport {
            restarts: 2,
            failure_count: 2,
            ..Default::default()
        };
        assert_eq!(restarted.summary(), "restarted(2)");
        let degraded = HealthReport {
            failure_count: 1,
            ..Default::default()
        };
        assert_eq!(degraded.summary(), "degraded");
        assert_eq!(HealthReport::failed_with(Vec::new()).summary(), "failed");
    }

    #[test]
    fn machine_failure_display_names_the_machine_and_attempt() {
        let f = MachineFailure {
            label: "node-3".into(),
            attempt: 1,
            kind: FailureKind::Panic,
            message: "injected fault: thread panic at 500 ns".into(),
        };
        let rendered = f.to_string();
        assert!(rendered.contains("node-3"), "{rendered}");
        assert!(rendered.contains("attempt 1"), "{rendered}");
        assert!(rendered.contains("panicked"), "{rendered}");
        assert!(rendered.contains("injected fault"), "{rendered}");
    }
}
