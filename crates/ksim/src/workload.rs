//! The interface between simulated programs and the machine.
//!
//! A [`Workload`] is a program model: a generator of [`WorkItem`]s the
//! machine executes on a core. Compute is described by [`WorkBlock`]s —
//! aggregate instruction/event counts plus compact memory-access patterns the
//! cache hierarchy simulates access-by-access. Interaction with the kernel
//! (syscalls, sleeping, spawning children) and with the PMU (user-space
//! `rdpmc`, `clflush`) are their own item kinds so monitoring-tool
//! instrumentation can be layered around any workload without changing it.

use pmu::EventCounts;

use crate::device::DeviceId;
use crate::process::{CoreId, Pid};
use crate::time::Duration;
use memsim::AccessPattern;

/// One block of straight-line user-mode computation.
///
/// `base_cycles` covers everything except memory stalls, which the machine
/// derives by running `patterns` through the cache hierarchy. `extra_events`
/// carries non-memory events (branches, multiplies, …) *and optionally*
/// `Load`/`Store` counts for accesses the workload asserts always hit L1
/// (e.g. register-blocked inner loops) — those are counted but not simulated,
/// keeping multi-second workloads tractable.
#[derive(Debug, Clone, Default)]
pub struct WorkBlock {
    /// Instructions retired by this block.
    pub instructions: u64,
    /// Cycles consumed excluding simulated memory stalls.
    pub base_cycles: u64,
    /// Non-memory events, plus assumed-L1-hit loads/stores.
    pub extra_events: EventCounts,
    /// Memory accesses to simulate through the cache hierarchy.
    pub patterns: Vec<AccessPattern>,
    /// Cache lines to `clflush` *before* the patterns run (Flush+Reload).
    pub flushes: Vec<u64>,
}

impl WorkBlock {
    /// A pure-compute block with no simulated memory traffic.
    pub fn compute(instructions: u64, base_cycles: u64) -> Self {
        Self {
            instructions,
            base_cycles,
            ..Self::default()
        }
    }

    /// Adds an access pattern, builder-style.
    pub fn with_pattern(mut self, p: AccessPattern) -> Self {
        self.patterns.push(p);
        self
    }

    /// Adds extra events, builder-style.
    pub fn with_events(mut self, events: EventCounts) -> Self {
        self.extra_events.merge(&events);
        self
    }
}

/// A syscall request from a workload.
#[derive(Debug, Clone)]
pub enum Syscall {
    /// `ioctl(fd, request, payload)` on a registered device.
    Ioctl {
        /// Target device.
        device: DeviceId,
        /// Request code (device-defined).
        request: u64,
        /// Marshalled argument struct (as through a user pointer).
        payload: Vec<u8>,
    },
    /// `read(fd, buf, max_bytes)` from a registered device.
    Read {
        /// Target device.
        device: DeviceId,
        /// Buffer capacity.
        max_bytes: usize,
    },
    /// A trivial syscall with no device work (e.g. `getpid`); useful for
    /// calibrating trap costs.
    Null,
    /// Wake a suspended/sleeping process (`kill(pid, SIGCONT)` in spirit).
    Resume(Pid),
}

/// One step of a workload's execution.
#[derive(Debug)]
pub enum WorkItem {
    /// Execute a compute/memory block in user mode.
    Block(WorkBlock),
    /// Trap into the kernel.
    Syscall(Syscall),
    /// Read hardware counters from user space (`rdpmc`), one index per
    /// counter; results arrive in the next [`ItemResult::Pmc`].
    Rdpmc(Vec<u32>),
    /// Block for a duration (`nanosleep`); the scheduler runs others.
    Sleep(Duration),
    /// Spawn a child process running `child`.
    Spawn {
        /// Child process name (as in `/proc/<pid>/comm`).
        name: String,
        /// Core to pin the child to (`None` = same core as the parent).
        core: Option<CoreId>,
        /// If true the child starts suspended and must be woken with
        /// [`Syscall::Resume`] — how a controller sets up monitoring before
        /// the target runs its first instruction.
        suspended: bool,
        /// The child's program.
        child: Box<dyn Workload>,
    },
    /// Voluntarily yield the CPU (remain runnable).
    Yield,
    /// Perform individually timed loads (`rdtsc`-fenced, serialized), one
    /// per address; per-access latencies arrive in
    /// [`ItemResult::Latencies`]. This is the measurement primitive of
    /// cache side-channel attacks (Flush+Reload).
    TimedAccess(Vec<u64>),
}

/// What the previous [`WorkItem`] produced, delivered to the workload's next
/// [`Workload::next`] call.
#[derive(Debug, Clone, Default)]
pub enum ItemResult {
    /// Nothing to report (blocks, sleeps, yields, first call).
    #[default]
    None,
    /// Syscall return value and any out-payload (e.g. bytes `read`).
    Syscall {
        /// Return value (negative = `-errno`).
        retval: i64,
        /// Out payload (drained records, ioctl results).
        payload: Vec<u8>,
    },
    /// Counter values from an [`WorkItem::Rdpmc`] request, in request order.
    Pmc(Vec<u64>),
    /// Pid of the child spawned by [`WorkItem::Spawn`].
    Spawned(Pid),
    /// Per-access latencies (cycles) from a [`WorkItem::TimedAccess`], in
    /// request order.
    Latencies(Vec<u32>),
}

impl ItemResult {
    /// The syscall return value, or `None` if the result is not a syscall's.
    pub fn retval(&self) -> Option<i64> {
        match self {
            ItemResult::Syscall { retval, .. } => Some(*retval),
            _ => None,
        }
    }
}

/// A simulated program.
///
/// Implementations are state machines: each [`next`](Self::next) call returns
/// the next item to execute, or `None` when the process exits. The machine
/// passes the previous item's [`ItemResult`] in, which is how syscall return
/// values and `rdpmc` readings reach the program.
///
/// An exited program stays with its process until
/// [`Machine::reap`](crate::Machine::reap) hands it back by value, so a
/// program reports its results through its own fields.
pub trait Workload: std::any::Any + Send + std::fmt::Debug {
    /// Produces the next work item, or `None` to exit the process.
    fn next(&mut self, prev: &ItemResult) -> Option<WorkItem>;
}

/// A workload that runs a fixed number of identical compute blocks —
/// useful as a test fixture and calibration target.
#[derive(Debug, Clone)]
pub struct FixedBlocks {
    remaining: u64,
    template: WorkBlock,
}

impl FixedBlocks {
    /// Runs `count` copies of `template`.
    pub fn new(count: u64, template: WorkBlock) -> Self {
        Self {
            remaining: count,
            template,
        }
    }
}

impl Workload for FixedBlocks {
    fn next(&mut self, _prev: &ItemResult) -> Option<WorkItem> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(WorkItem::Block(self.template.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::AccessKind;

    #[test]
    fn compute_block_builder() {
        let b = WorkBlock::compute(1000, 500)
            .with_pattern(AccessPattern::Sequential {
                base: 0,
                stride: 64,
                count: 10,
                kind: AccessKind::Read,
            })
            .with_events(EventCounts::new().with(pmu::HwEvent::ArithMul, 7));
        assert_eq!(b.instructions, 1000);
        assert_eq!(b.patterns.len(), 1);
        assert_eq!(b.patterns[0].len(), 10);
        assert_eq!(b.extra_events.get(pmu::HwEvent::ArithMul), 7);
    }

    #[test]
    fn fixed_blocks_exhausts() {
        let mut w = FixedBlocks::new(2, WorkBlock::compute(1, 1));
        assert!(w.next(&ItemResult::None).is_some());
        assert!(w.next(&ItemResult::None).is_some());
        assert!(w.next(&ItemResult::None).is_none());
    }

    #[test]
    fn item_result_retval() {
        let r = ItemResult::Syscall {
            retval: -22,
            payload: vec![],
        };
        assert_eq!(r.retval(), Some(-22));
        assert_eq!(ItemResult::None.retval(), None);
    }
}
