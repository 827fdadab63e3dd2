//! `perf record` — PMU-overflow sampling mode (paper §II-B, §V).
//!
//! `perf record` programs a counter to overflow every N events and takes a
//! performance-monitoring interrupt (PMI) per overflow; each interrupt
//! records a sample into the ring buffer that `perf report` later
//! aggregates. Counts reconstructed this way are *estimates*: events between
//! the last overflow and process exit never produce a sample, which is the
//! source of the small count differences the paper measures in Fig. 9
//! (< 0.15 % vs. K-LEB on deterministic events).
//!
//! Here the sampling event is unhalted core cycles with the period chosen in
//! wall time (the paper compares all tools at the same 10 ms rate); the
//! other requested events ride on `IA32_PMC1..3` and are read and reset by
//! the PMI handler, yielding a per-period time series like K-LEB's — at
//! interrupt cost per sample instead of kernel-buffered timer cost.

use pmu::{msr, EventSel, HwEvent};

use ksim::{
    CoreId, Device, DeviceId, Duration, Errno, ItemResult, KernelCtx, Machine, Pid, Syscall,
    WorkBlock, WorkItem, Workload,
};

use crate::common::{event_codes, ToolRun, ToolSample};
use crate::ToolError;

/// `ioctl`: open a sampling session (payload = JSON [`RecordOpenConfig`]).
pub(crate) const RECORD_OPEN: u64 = 0x5101;
/// `ioctl`: drain buffered samples (out payload = JSON [`RecordDrain`]).
pub(crate) const RECORD_DRAIN: u64 = 0x5102;
/// `ioctl`: close the session.
pub(crate) const RECORD_CLOSE: u64 = 0x5103;

/// Events that fit beside the sampling counter (PMC0 is the cycle counter).
pub(crate) const MAX_RECORD_EVENTS: usize = 3;

/// Cycle costs of the perf-record paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfRecordCosts {
    /// PMI handler work per sample (unwind, record, ring-buffer write).
    pub handler_cycles: u64,
    /// Kernel cache lines the handler touches.
    pub pollution_lines: u64,
    /// Per-switch enable/disable cost.
    pub switch_cycles: u64,
    /// Session setup.
    pub open_cycles: u64,
    /// User-side cycles per drain (writing perf.data).
    pub drain_user_cycles: u64,
}

impl Default for PerfRecordCosts {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

impl PerfRecordCosts {
    /// Effective per-sample cost derived from the paper's Tables II/III.
    pub fn paper_calibrated() -> Self {
        Self {
            handler_cycles: 330_000,
            pollution_lines: 600,
            switch_cycles: 2_500,
            open_cycles: 500_000,
            drain_user_cycles: 60_000,
        }
    }

    /// First-principles microcost estimates.
    pub fn microarchitectural() -> Self {
        Self {
            handler_cycles: 9_000,
            pollution_lines: 300,
            switch_cycles: 2_500,
            open_cycles: 80_000,
            drain_user_cycles: 20_000,
        }
    }
}

/// Session configuration.
#[derive(Debug, Clone)]
pub(crate) struct RecordOpenConfig {
    /// Target pid; `0` = caller.
    pub target: u32,
    /// Sampled events as `(event, umask)`, at most [`MAX_RECORD_EVENTS`].
    pub events: Vec<(u8, u8)>,
    /// Sampling period in cycles of the overflow counter.
    pub period_cycles: u64,
    /// Count ring-0 events too.
    pub count_kernel: bool,
}

/// One drained sample on the wire.
#[derive(Debug, Clone)]
pub(crate) struct WireSample {
    /// Timestamp, nanoseconds.
    pub t: u64,
    /// Per-event deltas.
    pub v: Vec<u64>,
    /// Instruction delta (fixed counter 0).
    pub i: u64,
}

/// Drain response.
#[derive(Debug, Clone)]
pub(crate) struct RecordDrain {
    /// Buffered samples since the last drain.
    pub samples: Vec<WireSample>,
    /// Whether the target is still alive.
    pub target_alive: bool,
}

jsonlite::json_struct!(RecordOpenConfig {
    target,
    events,
    period_cycles,
    count_kernel
});
jsonlite::json_struct!(WireSample { t, v, i });
jsonlite::json_struct!(RecordDrain {
    samples,
    target_alive
});

#[derive(Debug)]
struct Session {
    cfg: RecordOpenConfig,
    decoded: Vec<HwEvent>,
    target_core: CoreId,
    tracked: std::collections::BTreeSet<u32>,
    live: std::collections::BTreeSet<u32>,
    active: bool,
    enable_mask: u64,
    buffer: Vec<WireSample>,
    samples_taken: u64,
}

/// The perf-record kernel side.
#[derive(Debug)]
pub(crate) struct PerfRecordModule {
    costs: PerfRecordCosts,
    session: Option<Session>,
}

impl PerfRecordModule {
    /// A fresh instance.
    pub(crate) fn new(costs: PerfRecordCosts) -> Self {
        Self {
            costs,
            session: None,
        }
    }

    fn program(ctx: &mut KernelCtx<'_>, s: &mut Session) {
        let core = s.target_core;
        // PMC0: cycle counter, interrupt on overflow.
        let sel0 = EventSel::for_event(HwEvent::CoreCycles)
            .usr(true)
            .os(s.cfg.count_kernel)
            .int_enable(true)
            .enabled(true);
        let _ = ctx.wrmsr_on(core, msr::perfevtsel(0), sel0.bits());
        let preload = (1u64 << pmu::COUNTER_WIDTH_BITS) - s.cfg.period_cycles;
        let _ = ctx.wrmsr_on(core, msr::pmc(0), preload);
        let mut mask = msr::global_ctrl_pmc_bit(0);
        for (i, &event) in s.decoded.iter().enumerate() {
            let slot = i + 1;
            let sel = EventSel::for_event(event)
                .usr(true)
                .os(s.cfg.count_kernel)
                .enabled(true);
            let _ = ctx.wrmsr_on(core, msr::perfevtsel(slot), sel.bits());
            let _ = ctx.wrmsr_on(core, msr::pmc(slot), 0);
            mask |= msr::global_ctrl_pmc_bit(slot);
        }
        let field = 0b10 | u64::from(s.cfg.count_kernel);
        let _ = ctx.wrmsr_on(core, msr::IA32_FIXED_CTR_CTRL, field);
        let _ = ctx.wrmsr_on(core, msr::fixed_ctr(0), 0);
        mask |= msr::global_ctrl_fixed_bit(0);
        s.enable_mask = mask;
    }

    fn enable(ctx: &mut KernelCtx<'_>, s: &mut Session) {
        let _ = ctx.wrmsr_on(s.target_core, msr::IA32_PERF_GLOBAL_CTRL, s.enable_mask);
        s.active = true;
    }

    fn disable(ctx: &mut KernelCtx<'_>, s: &mut Session) {
        let _ = ctx.wrmsr_on(s.target_core, msr::IA32_PERF_GLOBAL_CTRL, 0);
        s.active = false;
    }
}

impl Device for PerfRecordModule {
    fn ioctl(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        caller: Pid,
        request: u64,
        payload: &[u8],
    ) -> Result<(i64, Vec<u8>), Errno> {
        match request {
            RECORD_OPEN => {
                if self.session.is_some() {
                    return Err(Errno::Perm);
                }
                let mut cfg: RecordOpenConfig =
                    jsonlite::from_slice(payload).map_err(|_| Errno::Inval)?;
                if cfg.target == 0 {
                    cfg.target = caller.0;
                }
                if cfg.events.len() > MAX_RECORD_EVENTS || cfg.period_cycles == 0 {
                    return Err(Errno::Inval);
                }
                let decoded: Option<Vec<HwEvent>> = cfg
                    .events
                    .iter()
                    .map(|&(e, u)| HwEvent::from_code(pmu::EventCode::new(e, u)))
                    .collect();
                let decoded = decoded.ok_or(Errno::Inval)?;
                let target = Pid(cfg.target);
                let info = ctx.process_info(target).ok_or(Errno::Srch)?;
                let target_core = info.core;
                ctx.charge_kernel_cycles(self.costs.open_cycles);
                let mut tracked = std::collections::BTreeSet::new();
                tracked.insert(cfg.target);
                for child in ctx.children_of(target) {
                    tracked.insert(child.0);
                }
                let mut s = Session {
                    cfg,
                    decoded,
                    target_core,
                    live: tracked.clone(),
                    tracked,
                    active: false,
                    enable_mask: 0,
                    buffer: Vec::new(),
                    samples_taken: 0,
                };
                Self::program(ctx, &mut s);
                let on_core = ctx
                    .current_on(s.target_core)
                    .is_some_and(|p| s.tracked.contains(&p.0));
                if on_core {
                    Self::enable(ctx, &mut s);
                }
                self.session = Some(s);
                Ok((0, Vec::new()))
            }
            RECORD_DRAIN => {
                let Some(s) = self.session.as_mut() else {
                    return Err(Errno::Perm);
                };
                let drain = RecordDrain {
                    samples: std::mem::take(&mut s.buffer),
                    target_alive: !s.live.is_empty(),
                };
                let n = drain.samples.len() as u64;
                let copy_cost = n * ctx.cost().copy_to_user_record;
                ctx.charge_kernel_cycles(copy_cost);
                Ok((0, jsonlite::to_vec(&drain).unwrap_or_default()))
            }
            RECORD_CLOSE => {
                let Some(mut s) = self.session.take() else {
                    return Err(Errno::Perm);
                };
                if s.active {
                    Self::disable(ctx, &mut s);
                }
                Ok((s.samples_taken as i64, Vec::new()))
            }
            _ => Err(Errno::Inval),
        }
    }

    fn on_context_switch(&mut self, ctx: &mut KernelCtx<'_>, prev: Option<Pid>, next: Option<Pid>) {
        let costs = self.costs;
        let Some(s) = self.session.as_mut() else {
            return;
        };
        if ctx.core() != s.target_core {
            return;
        }
        let prev_tracked = prev.is_some_and(|p| s.tracked.contains(&p.0));
        let next_tracked = next.is_some_and(|p| s.tracked.contains(&p.0));
        match (s.active, prev_tracked, next_tracked) {
            (false, _, true) => {
                ctx.charge_kernel_cycles(costs.switch_cycles);
                Self::enable(ctx, s);
            }
            (true, true, false) => {
                ctx.charge_kernel_cycles(costs.switch_cycles);
                Self::disable(ctx, s);
            }
            _ => {}
        }
    }

    fn on_pmi(&mut self, ctx: &mut KernelCtx<'_>, _interrupted: Option<Pid>) {
        let costs = self.costs;
        let Some(s) = self.session.as_mut() else {
            return;
        };
        if !s.active {
            return;
        }
        ctx.charge_kernel_cycles(costs.handler_cycles);
        ctx.touch_kernel_lines(costs.pollution_lines);
        // Record the sample: event deltas since the previous one.
        let mut values = Vec::with_capacity(s.decoded.len());
        for i in 0..s.decoded.len() {
            let slot = i + 1;
            let v = ctx.rdmsr(msr::pmc(slot)).unwrap_or(0);
            let _ = ctx.wrmsr(msr::pmc(slot), 0);
            values.push(v);
        }
        let instructions = ctx.rdmsr(msr::fixed_ctr(0)).unwrap_or(0);
        let _ = ctx.wrmsr(msr::fixed_ctr(0), 0);
        s.buffer.push(WireSample {
            t: ctx.now().as_nanos(),
            v: values,
            i: instructions,
        });
        s.samples_taken += 1;
        // Re-arm: clear overflow status, re-preload the cycle counter.
        let _ = ctx.wrmsr(msr::IA32_PERF_GLOBAL_OVF_CTRL, u64::MAX);
        let preload = (1u64 << pmu::COUNTER_WIDTH_BITS) - s.cfg.period_cycles;
        let _ = ctx.wrmsr(msr::pmc(0), preload);
    }

    fn on_spawn(&mut self, _ctx: &mut KernelCtx<'_>, parent: Option<Pid>, child: Pid) {
        let Some(s) = self.session.as_mut() else {
            return;
        };
        if parent.is_some_and(|p| s.tracked.contains(&p.0)) {
            s.tracked.insert(child.0);
            s.live.insert(child.0);
        }
    }

    fn on_exit(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid) {
        let Some(s) = self.session.as_mut() else {
            return;
        };
        if !s.tracked.contains(&pid.0) {
            return;
        }
        s.live.remove(&pid.0);
        // perf.data only holds overflow samples — the final partial period
        // is *not* flushed (the source of Fig. 9's perf-record estimation
        // error). Counting simply stops.
        if s.live.is_empty() && s.active && ctx.core() == s.target_core {
            Self::disable(ctx, s);
        }
    }
}

/// The `perf record` user process: opens the session, wakes the target and
/// periodically drains the ring buffer to perf.data. It keeps the drained
/// samples and any error; [`run_perf_record`] reaps it after exit.
#[derive(Debug)]
struct PerfRecordProcess {
    device: DeviceId,
    target: Pid,
    events: Vec<HwEvent>,
    period_cycles: u64,
    count_kernel: bool,
    costs: PerfRecordCosts,
    phase: u32,
    saw_dead: bool,
    samples: Vec<ToolSample>,
    error: Option<String>,
}

impl Workload for PerfRecordProcess {
    fn next(&mut self, prev: &ItemResult) -> Option<WorkItem> {
        const PH_OPEN: u32 = 0;
        const PH_RESUME: u32 = 1;
        const PH_SLEEP: u32 = 2;
        const PH_DRAIN: u32 = 3;
        const PH_WRITE: u32 = 4;
        const PH_CLOSE: u32 = 5;
        loop {
            match self.phase {
                PH_OPEN => {
                    self.phase = PH_RESUME;
                    let cfg = RecordOpenConfig {
                        target: self.target.0,
                        events: event_codes(&self.events),
                        period_cycles: self.period_cycles,
                        count_kernel: self.count_kernel,
                    };
                    return Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: RECORD_OPEN,
                        payload: jsonlite::to_vec(&cfg).unwrap_or_default(),
                    }));
                }
                PH_RESUME => {
                    if let Some(r) = prev.retval() {
                        if r != 0 {
                            self.error = Some(format!("perf record open failed: {r}"));
                            return None;
                        }
                    }
                    self.phase = PH_SLEEP;
                    return Some(WorkItem::Syscall(Syscall::Resume(self.target)));
                }
                PH_SLEEP => {
                    self.phase = PH_DRAIN;
                    return Some(WorkItem::Sleep(Duration::from_millis(20)));
                }
                PH_DRAIN => {
                    self.phase = PH_WRITE;
                    return Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: RECORD_DRAIN,
                        payload: Vec::new(),
                    }));
                }
                PH_WRITE => {
                    let drain: Option<RecordDrain> = match prev {
                        ItemResult::Syscall { payload, .. } => jsonlite::from_slice(payload).ok(),
                        _ => None,
                    };
                    let Some(drain) = drain else {
                        self.error = Some("drain failed".into());
                        return None;
                    };
                    let n = drain.samples.len();
                    self.samples
                        .extend(drain.samples.into_iter().map(|w| ToolSample {
                            timestamp_ns: w.t,
                            values: w.v,
                            instructions: w.i,
                        }));
                    if !drain.target_alive {
                        if self.saw_dead {
                            self.phase = PH_CLOSE;
                            continue;
                        }
                        // One more drain to catch the tail, then close.
                        self.saw_dead = true;
                        self.phase = PH_DRAIN;
                    } else {
                        self.phase = PH_SLEEP;
                    }
                    if n > 0 {
                        return Some(WorkItem::Block(WorkBlock::compute(
                            self.costs.drain_user_cycles * 3 / 4,
                            self.costs.drain_user_cycles,
                        )));
                    }
                }
                PH_CLOSE => {
                    self.phase = PH_CLOSE + 1;
                    return Some(WorkItem::Syscall(Syscall::Ioctl {
                        device: self.device,
                        request: RECORD_CLOSE,
                        payload: Vec::new(),
                    }));
                }
                _ => return None,
            }
        }
    }
}

/// Runs `workload` under `perf record` on `machine` at `period` (converted
/// to a cycle-overflow period).
///
/// # Errors
///
/// [`ToolError`] if the simulation stalls or session setup fails.
pub(crate) fn run_perf_record(
    machine: &mut Machine,
    name: &str,
    workload: Box<dyn Workload>,
    events: &[HwEvent],
    period: Duration,
    costs: PerfRecordCosts,
    count_kernel: bool,
) -> Result<ToolRun, ToolError> {
    let events: Vec<HwEvent> = events.iter().copied().take(MAX_RECORD_EVENTS).collect();
    let period_cycles = machine.config().freq.duration_to_cycles(period).max(1);
    let device = machine.register_device(Box::new(PerfRecordModule::new(costs)));
    machine.set_pmi_handler(CoreId(0), device);
    let target = machine.spawn_suspended(name, CoreId(0), workload);
    let perf = machine.spawn(
        "perf-record",
        CoreId(0),
        Box::new(PerfRecordProcess {
            device,
            target,
            events: events.clone(),
            period_cycles,
            count_kernel,
            costs,
            phase: 0,
            saw_dead: false,
            samples: Vec::new(),
            error: None,
        }),
    );
    machine.run_until_exit(perf).map_err(ToolError::Sim)?;
    let perf: PerfRecordProcess = machine
        .reap(perf)
        .ok_or_else(|| ToolError::Tool("perf record process was not reaped".into()))?;
    if let Some(err) = perf.error {
        return Err(ToolError::Tool(err));
    }
    // perf report reconstructs totals by summing sample deltas.
    let mut totals = vec![0u64; events.len()];
    let mut instr = 0u64;
    for s in &perf.samples {
        for (t, v) in totals.iter_mut().zip(&s.values) {
            *t += v;
        }
        instr += s.instructions;
    }
    Ok(ToolRun {
        tool: "perf record",
        target: machine.process(target).clone(),
        event_totals: events.into_iter().zip(totals).collect(),
        fixed_totals: [instr, 0, 0],
        samples: perf.samples,
        requested_period: period,
        effective_period: period,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::MachineConfig;
    use workloads::Synthetic;

    fn run(period: Duration) -> ToolRun {
        let mut machine = Machine::new(MachineConfig::test_tiny(8));
        run_perf_record(
            &mut machine,
            "t",
            Box::new(Synthetic::cpu_bound(Duration::from_millis(50))),
            &[HwEvent::Load, HwEvent::BranchRetired],
            period,
            PerfRecordCosts::microarchitectural(),
            false,
        )
        .unwrap()
    }

    #[test]
    fn pmi_sampling_produces_series() {
        let r = run(Duration::from_millis(1));
        // 50ms at 1ms cycle-periods (target runs most of the time) → dozens.
        assert!(r.samples.len() >= 30, "{} samples", r.samples.len());
        // Timestamps increase.
        for w in r.samples.windows(2) {
            assert!(w[1].timestamp_ns >= w[0].timestamp_ns);
        }
    }

    #[test]
    fn counts_slightly_undercount_truth() {
        let r = run(Duration::from_millis(1));
        let truth = r.target.true_user_events.get(HwEvent::BranchRetired);
        let reported = r.total(HwEvent::BranchRetired).unwrap();
        assert!(reported <= truth, "sampling cannot overcount");
        let err = (truth - reported) as f64 / truth as f64;
        // Missing tail is at most ~one period's worth.
        assert!(err < 0.05, "undercount {err}");
        assert!(err > 0.0, "the final partial period is never flushed");
    }

    #[test]
    fn faster_period_means_more_samples_and_overhead() {
        let fast = run(Duration::from_micros(500));
        let slow = run(Duration::from_millis(5));
        assert!(fast.samples.len() > 3 * slow.samples.len());
        assert!(fast.wall_time() > slow.wall_time());
    }
}
