//! `perf stat` in interval mode (paper §II-B, §V).
//!
//! `perf stat -I <ms> <prog>` forks the program and wakes every interval to
//! read the virtualized counters and print a line. Two structural facts
//! drive its overhead in the paper:
//!
//! - the interval timer is a *user-space* timer, floored at 10 ms (§II-C) —
//!   perf cannot sample faster, which is the 100× gap to K-LEB;
//! - the perf process shares the machine with the workload (it forked it),
//!   so every interval wakeup preempts the workload for the read syscalls
//!   and the formatting/printing work, and the kernel pays per-context-
//!   switch counter virtualization on top (see
//!   [`crate::perf_kernel::PerfEventKernel`]).

use pmu::HwEvent;

use ksim::{
    CoreId, DeviceId, Duration, ItemResult, Machine, Pid, Syscall, WorkBlock, WorkItem, Workload,
};

use crate::common::{event_codes, ToolRun, ToolSample};
use crate::perf_kernel::{
    PerfCounts, PerfEventKernel, PerfKernelCosts, PERF_CLOSE, PERF_OPEN, PERF_READ,
};
use crate::ToolError;

/// perf's user-space interval floor (§II-C: "10 ms or slower").
pub const PERF_MIN_INTERVAL: Duration = Duration::from_millis(10);

/// Costs of the perf-stat user-space interval work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfStatCosts {
    /// Kernel infrastructure costs.
    pub kernel: PerfKernelCosts,
    /// User cycles per interval (value aggregation, formatting, printing).
    pub interval_user_cycles: u64,
    /// User instructions per interval.
    pub interval_user_instructions: u64,
    /// Extra kernel work per interval read beyond the plain read path
    /// (IPIs to sync remote counters, locking).
    pub interval_kernel_cycles: u64,
    /// One-time startup (fork/exec plumbing, event parsing).
    pub setup_cycles: u64,
}

impl Default for PerfStatCosts {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

impl PerfStatCosts {
    /// Effective costs derived from the paper's Tables II/III (see
    /// EXPERIMENTS.md).
    pub fn paper_calibrated() -> Self {
        Self {
            kernel: PerfKernelCosts::default(),
            interval_user_cycles: 1_250_000,
            interval_user_instructions: 1_000_000,
            interval_kernel_cycles: 160_000,
            setup_cycles: 3_200_000,
        }
    }

    /// First-principles microcost estimates.
    pub fn microarchitectural() -> Self {
        Self {
            kernel: PerfKernelCosts::default(),
            interval_user_cycles: 60_000,
            interval_user_instructions: 50_000,
            interval_kernel_cycles: 30_000,
            setup_cycles: 400_000,
        }
    }
}

/// The `perf stat` process. It keeps its own samples, final counts and
/// error; [`run_perf_stat`] reaps it after exit to read them.
#[derive(Debug)]
struct PerfStatProcess {
    device: DeviceId,
    target: Pid,
    events: Vec<HwEvent>,
    interval: Duration,
    costs: PerfStatCosts,
    count_kernel: bool,
    phase: Phase,
    last: Option<PerfCounts>,
    samples: Vec<ToolSample>,
    final_counts: Option<PerfCounts>,
    error: Option<String>,
}

impl PerfStatProcess {
    fn open_payload(&self) -> Vec<u8> {
        let cfg = crate::perf_kernel::PerfOpenConfig {
            target: self.target.0,
            events: event_codes(&self.events),
            count_kernel: self.count_kernel,
            track_children: true,
        };
        jsonlite::to_vec(&cfg).unwrap_or_default()
    }
}

#[derive(Debug)]
enum Phase {
    Setup,
    Open,
    Resume,
    Sleep,
    Read,
    Format,
    /// The interval work is done; `Close` records the counts the read
    /// returned and decides whether to keep sampling.
    Close(PerfCounts),
    Done,
}

impl Workload for PerfStatProcess {
    fn next(&mut self, prev: &ItemResult) -> Option<WorkItem> {
        loop {
            match std::mem::replace(&mut self.phase, Phase::Done) {
                Phase::Setup => {
                    self.phase = Phase::Open;
                    return Some(WorkItem::Block(WorkBlock::compute(
                        self.costs.setup_cycles * 4 / 5,
                        self.costs.setup_cycles,
                    )));
                }
                Phase::Open => {
                    self.phase = Phase::Resume;
                    return Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: PERF_OPEN,
                        payload: self.open_payload(),
                    }));
                }
                Phase::Resume => {
                    if let Some(r) = prev.retval() {
                        if r != 0 {
                            self.error = Some(format!("perf_event_open failed: {r}"));
                            return None;
                        }
                    }
                    self.phase = Phase::Sleep;
                    return Some(WorkItem::Syscall(Syscall::Resume(self.target)));
                }
                Phase::Sleep => {
                    self.phase = Phase::Read;
                    return Some(WorkItem::Sleep(self.interval));
                }
                Phase::Read => {
                    self.phase = Phase::Format;
                    return Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: PERF_READ,
                        payload: Vec::new(),
                    }));
                }
                Phase::Format => {
                    let counts: Option<PerfCounts> = match prev {
                        ItemResult::Syscall { payload, .. } => jsonlite::from_slice(payload).ok(),
                        _ => None,
                    };
                    let Some(counts) = counts else {
                        self.error = Some("perf read failed".into());
                        return None;
                    };
                    self.phase = Phase::Close(counts);
                    // Interval work: aggregate + format + print, plus the
                    // kernel-side IPI/synchronization tax of the read
                    // (charged as part of the perf process's occupancy of
                    // the shared core).
                    return Some(WorkItem::Block(WorkBlock::compute(
                        self.costs.interval_user_instructions,
                        self.costs.interval_user_cycles + self.costs.interval_kernel_cycles,
                    )));
                }
                Phase::Close(counts) => {
                    // Record the interval delta as a sample.
                    self.samples.push(counts.sample_since(self.last.as_ref()));
                    let alive = counts.target_alive;
                    if !alive {
                        self.final_counts = Some(counts.clone());
                    }
                    self.last = Some(counts);
                    if alive {
                        self.phase = Phase::Sleep;
                        continue;
                    }
                    return Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: PERF_CLOSE,
                        payload: Vec::new(),
                    }));
                }
                Phase::Done => return None,
            }
        }
    }
}

/// Runs `workload` under `perf stat` on `machine`.
///
/// The target runs on core 0 and the perf process shares that core, as
/// `perf stat <prog>` does. The requested period is clamped to perf's 10 ms
/// floor.
///
/// # Errors
///
/// [`ToolError`] if the simulation stalls or perf setup fails.
pub fn run_perf_stat(
    machine: &mut Machine,
    name: &str,
    workload: Box<dyn Workload>,
    events: &[HwEvent],
    period: Duration,
    costs: PerfStatCosts,
    count_kernel: bool,
) -> Result<ToolRun, ToolError> {
    let effective = period.max(PERF_MIN_INTERVAL);
    let device = machine.register_device(Box::new(PerfEventKernel::new(costs.kernel)));
    let target = machine.spawn_suspended(name, CoreId(0), workload);
    let perf = machine.spawn(
        "perf-stat",
        CoreId(0),
        Box::new(PerfStatProcess {
            device,
            target,
            events: events.to_vec(),
            interval: effective,
            costs,
            count_kernel,
            phase: Phase::Setup,
            last: None,
            samples: Vec::new(),
            final_counts: None,
            error: None,
        }),
    );
    machine.run_until_exit(perf).map_err(ToolError::Sim)?;
    let perf: PerfStatProcess = machine
        .reap(perf)
        .ok_or_else(|| ToolError::Tool("perf stat process was not reaped".into()))?;
    if let Some(err) = perf.error {
        return Err(ToolError::Tool(err));
    }
    let final_counts = perf
        .final_counts
        .ok_or_else(|| ToolError::Tool("perf stat never saw target exit".into()))?;
    Ok(ToolRun {
        tool: "perf stat",
        target: machine.process(target).clone(),
        event_totals: events
            .iter()
            .copied()
            .zip(final_counts.events.iter().copied())
            .collect(),
        fixed_totals: final_counts.fixed,
        samples: perf.samples,
        requested_period: period,
        effective_period: effective,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::MachineConfig;
    use workloads::Synthetic;

    fn run(period_ms: u64) -> ToolRun {
        let mut machine = Machine::new(MachineConfig::test_tiny(4));
        run_perf_stat(
            &mut machine,
            "t",
            Box::new(Synthetic::cpu_bound(Duration::from_millis(80))),
            &[HwEvent::Load, HwEvent::BranchRetired],
            Duration::from_millis(period_ms),
            PerfStatCosts::microarchitectural(),
            true,
        )
        .unwrap()
    }

    #[test]
    fn counts_match_truth_closely() {
        let run = run(10);
        let err = run
            .relative_error(HwEvent::BranchRetired, true)
            .expect("branches counted");
        assert!(err < 0.01, "perf stat error {err}");
        // Instructions via fixed counter.
        let truth = run
            .target
            .true_user_events
            .get(HwEvent::InstructionsRetired)
            + run
                .target
                .true_kernel_events
                .get(HwEvent::InstructionsRetired);
        let diff = (run.fixed_totals[0] as f64 - truth as f64).abs() / truth as f64;
        assert!(diff < 0.01, "instruction error {diff}");
    }

    #[test]
    fn interval_floor_is_enforced() {
        let run = run(1); // ask for 1ms
        assert_eq!(run.effective_period, PERF_MIN_INTERVAL);
    }

    #[test]
    fn produces_interval_samples() {
        let run = run(10);
        // ~80ms of work at 10ms intervals → at least 5 interval samples.
        assert!(run.samples.len() >= 5, "{} samples", run.samples.len());
    }

    #[test]
    fn perf_slows_the_target() {
        // Baseline without profiling.
        let mut m0 = Machine::new(MachineConfig::test_tiny(4));
        let pid = m0.spawn(
            "t",
            CoreId(0),
            Box::new(Synthetic::cpu_bound(Duration::from_millis(80))),
        );
        let baseline = m0.run_until_exit(pid).unwrap().wall_time();
        let monitored = run(10).wall_time();
        assert!(
            monitored > baseline,
            "perf stat must add overhead: {baseline} -> {monitored}"
        );
    }
}
