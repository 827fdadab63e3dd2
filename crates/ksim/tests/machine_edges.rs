//! Integration tests for machine edge cases: timed accesses, cross-core
//! MSR access, suspension, stalls, and device wake-ups.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ksim::{
    CoreId, Device, Duration, Errno, FixedBlocks, Instant, ItemResult, KernelCtx, Machine,
    MachineConfig, Pid, SimError, Syscall, WorkBlock, WorkItem, Workload,
};
use pmu::{msr, HwEvent};

fn machine() -> Machine {
    Machine::new(MachineConfig::test_tiny(3))
}

#[test]
fn timed_access_reports_hit_miss_latencies() {
    #[derive(Debug, Default)]
    struct Prober {
        phase: u8,
        latencies: Vec<Vec<u32>>,
    }
    impl Workload for Prober {
        fn next(&mut self, prev: &ItemResult) -> Option<WorkItem> {
            if let ItemResult::Latencies(l) = prev {
                self.latencies.push(l.clone());
            }
            self.phase += 1;
            match self.phase {
                // Cold probe, then re-probe the same lines (now cached).
                1 => Some(WorkItem::TimedAccess(vec![0x1000, 0x2000])),
                2 => Some(WorkItem::TimedAccess(vec![0x1000, 0x2000])),
                _ => None,
            }
        }
    }
    let mut m = machine();
    let pid = m.spawn("p", CoreId(0), Box::new(Prober::default()));
    m.run_until_exit(pid).unwrap();
    let l = m.reap::<Prober>(pid).expect("prober exited").latencies;
    assert_eq!(l.len(), 2);
    assert!(
        l[0][0] > l[1][0],
        "cold access slower than cached re-access"
    );
    assert!(l[0][1] > l[1][1]);
}

#[test]
fn timed_access_counts_loads_and_misses() {
    #[derive(Debug)]
    struct OneProbe {
        done: bool,
    }
    impl Workload for OneProbe {
        fn next(&mut self, _prev: &ItemResult) -> Option<WorkItem> {
            if self.done {
                return None;
            }
            self.done = true;
            Some(WorkItem::TimedAccess((0..10).map(|i| i * 4096).collect()))
        }
    }
    let mut m = machine();
    let pid = m.spawn("p", CoreId(0), Box::new(OneProbe { done: false }));
    let info = m.run_until_exit(pid).unwrap();
    assert_eq!(info.true_user_events.get(HwEvent::Load), 10);
    assert_eq!(info.true_user_events.get(HwEvent::LlcMiss), 10, "all cold");
}

#[test]
fn suspended_process_never_scheduled_until_resumed() {
    let mut m = machine();
    let s = m.spawn_suspended(
        "frozen",
        CoreId(0),
        Box::new(FixedBlocks::new(10, WorkBlock::compute(10, 10))),
    );
    m.run_until(Instant::from_nanos(2_000_000));
    assert_eq!(
        m.process(s).cpu_user,
        Duration::ZERO,
        "suspended process must not run"
    );
    // A resumer wakes it.
    #[derive(Debug)]
    struct Resumer {
        target: Pid,
        done: bool,
    }
    impl Workload for Resumer {
        fn next(&mut self, _prev: &ItemResult) -> Option<WorkItem> {
            if self.done {
                return None;
            }
            self.done = true;
            Some(WorkItem::Syscall(Syscall::Resume(self.target)))
        }
    }
    let r = m.spawn(
        "resumer",
        CoreId(1),
        Box::new(Resumer {
            target: s,
            done: false,
        }),
    );
    m.run_until_exit(r).unwrap();
    m.run_until_exit(s).unwrap();
    assert!(m.process(s).cpu_user > Duration::ZERO);
}

#[test]
fn run_until_exit_stalls_on_forever_suspended_process() {
    let mut m = machine();
    let s = m.spawn_suspended(
        "frozen",
        CoreId(0),
        Box::new(FixedBlocks::new(1, WorkBlock::compute(1, 1))),
    );
    match m.run_until_exit(s) {
        Err(SimError::Stalled { .. }) => {}
        other => panic!("expected a stall, got {other:?}"),
    }
}

#[test]
fn resume_of_unknown_pid_returns_esrch() {
    #[derive(Debug)]
    struct BadResume {
        retval: i64,
        done: bool,
    }
    impl Workload for BadResume {
        fn next(&mut self, prev: &ItemResult) -> Option<WorkItem> {
            if let Some(r) = prev.retval() {
                self.retval = r;
            }
            if self.done {
                return None;
            }
            self.done = true;
            Some(WorkItem::Syscall(Syscall::Resume(Pid(99))))
        }
    }
    let mut m = machine();
    let pid = m.spawn(
        "p",
        CoreId(0),
        Box::new(BadResume {
            retval: 0,
            done: false,
        }),
    );
    m.run_until_exit(pid).unwrap();
    let bad: BadResume = m.reap(pid).expect("caller exited");
    assert_eq!(bad.retval, -3);
}

/// A device that programs the PMU on *another* core from an ioctl and
/// wakes a process from kernel context.
#[derive(Debug)]
struct CrossCore {
    woken: Arc<AtomicU64>,
}

impl Device for CrossCore {
    fn ioctl(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        _caller: Pid,
        request: u64,
        _payload: &[u8],
    ) -> Result<(i64, Vec<u8>), Errno> {
        match request {
            1 => {
                // Program instructions-retired on core 0 from core 1.
                let sel = pmu::EventSel::for_event(HwEvent::InstructionsRetired)
                    .usr(true)
                    .enabled(true);
                ctx.wrmsr_on(CoreId(0), msr::IA32_PERFEVTSEL0, sel.bits())
                    .map_err(|_| Errno::Inval)?;
                ctx.wrmsr_on(CoreId(0), msr::IA32_PERF_GLOBAL_CTRL, 1)
                    .map_err(|_| Errno::Inval)?;
                Ok((0, Vec::new()))
            }
            2 => {
                let v = ctx
                    .rdmsr_on(CoreId(0), msr::IA32_PMC0)
                    .map_err(|_| Errno::Inval)?;
                Ok((v as i64, Vec::new()))
            }
            3 => {
                ctx.wake(Pid(1));
                self.woken.fetch_add(1, Ordering::Relaxed);
                Ok((0, Vec::new()))
            }
            _ => Err(Errno::Inval),
        }
    }
}

#[test]
fn cross_core_msr_access_and_kernel_wake() {
    let woken = Arc::new(AtomicU64::new(0));
    let mut m = machine();
    let dev = m.register_device(Box::new(CrossCore {
        woken: woken.clone(),
    }));
    // Pid(1): a suspended worker on core 0.
    let worker = m.spawn_suspended(
        "worker",
        CoreId(0),
        Box::new(FixedBlocks::new(100, WorkBlock::compute(1_000, 1_000))),
    );
    assert_eq!(worker, Pid(1));
    #[derive(Debug)]
    struct Driver {
        dev: ksim::DeviceId,
        phase: u8,
        counted: u64,
    }
    impl Workload for Driver {
        fn next(&mut self, prev: &ItemResult) -> Option<WorkItem> {
            if self.phase == 4 {
                if let Some(v) = prev.retval() {
                    self.counted = v as u64;
                }
                return None;
            }
            self.phase += 1;
            match self.phase {
                1 => Some(WorkItem::Syscall(Syscall::Ioctl {
                    device: self.dev,
                    request: 1,
                    payload: vec![],
                })),
                2 => Some(WorkItem::Syscall(Syscall::Ioctl {
                    device: self.dev,
                    request: 3, // wake the worker from kernel context
                    payload: vec![],
                })),
                3 => Some(WorkItem::Sleep(Duration::from_millis(1))),
                4 => Some(WorkItem::Syscall(Syscall::Ioctl {
                    device: self.dev,
                    request: 2, // read the worker's counter cross-core
                    payload: vec![],
                })),
                _ => None,
            }
        }
    }
    let driver = m.spawn(
        "driver",
        CoreId(1),
        Box::new(Driver {
            dev,
            phase: 0,
            counted: 0,
        }),
    );
    m.run_until_exit(driver).unwrap();
    assert_eq!(woken.load(Ordering::Relaxed), 1);
    let counted = m.reap::<Driver>(driver).expect("driver exited").counted;
    assert!(
        counted >= 50_000,
        "cross-core read saw the worker's instructions: {counted}"
    );
}

#[test]
fn all_processes_view_matches_spawns() {
    #[derive(Debug)]
    struct Lister {
        dev: ksim::DeviceId,
        done: bool,
    }
    impl Workload for Lister {
        fn next(&mut self, _prev: &ItemResult) -> Option<WorkItem> {
            if self.done {
                return None;
            }
            self.done = true;
            Some(WorkItem::Syscall(Syscall::Ioctl {
                device: self.dev,
                request: 0,
                payload: vec![],
            }))
        }
    }
    #[derive(Debug)]
    struct Census {
        names: Arc<Mutex<Vec<String>>>,
    }
    impl Device for Census {
        fn ioctl(
            &mut self,
            ctx: &mut KernelCtx<'_>,
            _caller: Pid,
            _request: u64,
            _payload: &[u8],
        ) -> Result<(i64, Vec<u8>), Errno> {
            *self.names.lock().unwrap() = ctx.all_processes().map(|p| p.name.clone()).collect();
            Ok((0, Vec::new()))
        }
    }
    let names = Arc::new(Mutex::new(Vec::new()));
    let mut m = machine();
    let dev = m.register_device(Box::new(Census {
        names: names.clone(),
    }));
    m.spawn(
        "first",
        CoreId(0),
        Box::new(FixedBlocks::new(1, WorkBlock::compute(1, 1))),
    );
    let lister = m.spawn("lister", CoreId(1), Box::new(Lister { dev, done: false }));
    m.run_until_exit(lister).unwrap();
    assert_eq!(names.lock().unwrap().as_slice(), &["first", "lister"]);
}

#[test]
fn dram_contention_slows_corunning_missers() {
    use ksim::DramModel;
    use memsim::AccessPattern;

    fn streamer(blocks: u64) -> Box<dyn Workload> {
        #[derive(Debug)]
        struct Streamer {
            blocks: u64,
            offset: u64,
        }
        impl Workload for Streamer {
            fn next(&mut self, _prev: &ItemResult) -> Option<WorkItem> {
                if self.blocks == 0 {
                    return None;
                }
                self.blocks -= 1;
                let base = 0x1000_0000 + self.offset;
                self.offset += 800 * 64;
                Some(WorkItem::Block(
                    WorkBlock::compute(40_000, 50_000).with_pattern(AccessPattern::Sequential {
                        base,
                        stride: 64,
                        count: 800,
                        kind: memsim::AccessKind::Read,
                    }),
                ))
            }
        }
        Box::new(Streamer { blocks, offset: 0 })
    }

    let run = |with_neighbour: bool, dram: DramModel| -> Duration {
        let mut cfg = MachineConfig::test_tiny(5);
        cfg.dram = dram;
        let mut m = Machine::new(cfg);
        let a = m.spawn("a", CoreId(0), streamer(300));
        if with_neighbour {
            m.spawn("b", CoreId(1), streamer(300));
        }
        m.run_until_exit(a).unwrap().wall_time()
    };

    let contended = DramModel::ddr3_triple_channel();
    let alone = run(false, contended);
    let shared = run(true, contended);
    assert!(
        shared.as_nanos() as f64 > alone.as_nanos() as f64 * 1.2,
        "co-running missers must contend: alone {alone}, shared {shared}"
    );
    // With contention disabled, the neighbour on the other core is free.
    let alone_off = run(false, DramModel::unlimited());
    let shared_off = run(true, DramModel::unlimited());
    let ratio = shared_off.as_nanos() as f64 / alone_off.as_nanos() as f64;
    assert!(ratio < 1.02, "no contention model, no slowdown: {ratio}");
}
