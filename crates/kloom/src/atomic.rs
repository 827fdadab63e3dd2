//! Shadow atomics over a C11-subset virtual memory model.
//!
//! Each atomic location keeps its full *modification order*: the list of
//! stores in the order they executed (kloom serializes executions, so
//! execution order of stores to one location IS its modification order).
//! A load does not simply return the newest value — it may observe any
//! store not ruled out by:
//!
//! - **per-thread coherence**: a thread never reads older than what it
//!   last read or wrote at this location (`observed` floor);
//! - **happens-before**: if the loading thread's clock observes a store's
//!   epoch, no earlier store may be returned (write subsumption);
//! - **eventual visibility**: when no other thread is runnable, the load
//!   is forced to the newest store so drain loops terminate.
//!
//! When several stores remain readable the load becomes a *decision
//! point* and the scheduler forks the execution per candidate — this is
//! what lets kloom catch stale-read bugs that real weakly-ordered
//! hardware would need days of stress testing to surface.
//!
//! Synchronization edges: a `Release` (or stronger) store attaches the
//! writer's clock; an `Acquire` (or stronger) load of it joins that clock
//! into the reader. Relaxed stores after a `fence(Release)` carry the
//! fence clock; relaxed loads stash the store's clock for a later
//! `fence(Acquire)` to join (C11 fence semantics). RMWs always read the
//! newest store and continue its release sequence.
//!
//! `SeqCst` is modeled as acquire/release plus a global SC clock that
//! every SC operation joins both ways. This yields the single-total-order
//! guarantee the doorbell protocol relies on (store-then-fence vs
//! fence-then-load), at the cost of being slightly *stronger* than C11
//! SC (it creates happens-before where C11 only orders; kloom may miss
//! races between two SC accesses that C11 technically allows — none of
//! which matter for the protocols checked here, and every ordering this
//! repo ships is Release/Acquire, where the model is exact).

use std::sync::atomic::Ordering;
use std::sync::Mutex;

use crate::clock::{Epoch, VClock};
use crate::sched::{with_current, State};

/// One entry in a location's modification order.
#[derive(Debug, Clone)]
struct StoreRec {
    val: u64,
    /// The writer's epoch at the store (race/visibility bookkeeping).
    epoch: Epoch,
    /// Clock an acquire load synchronizes with (zero clock = no release
    /// semantics: joining it is a no-op).
    rel: VClock,
}

#[derive(Debug)]
struct LocState {
    id: Option<u32>,
    stores: Vec<StoreRec>,
    /// Per-thread floor into `stores`: newest index the thread has read
    /// or written (coherence).
    observed: Vec<usize>,
}

impl LocState {
    fn observed_floor(&self, tid: usize) -> usize {
        self.observed.get(tid).copied().unwrap_or(0)
    }

    fn set_observed(&mut self, tid: usize, idx: usize) {
        if self.observed.len() <= tid {
            self.observed.resize(tid + 1, 0);
        }
        if self.observed[tid] < idx {
            self.observed[tid] = idx;
        }
    }
}

/// The untyped core all `Atomic*` shadows wrap.
#[derive(Debug)]
pub(crate) struct AtomicShadow {
    loc: Mutex<LocState>,
}

fn relock(loc: &Mutex<LocState>) -> std::sync::MutexGuard<'_, LocState> {
    match loc.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn is_acquire(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn ord_name(ord: Ordering) -> &'static str {
    match ord {
        Ordering::Relaxed => "Relaxed",
        Ordering::Acquire => "Acquire",
        Ordering::Release => "Release",
        Ordering::AcqRel => "AcqRel",
        Ordering::SeqCst => "SeqCst",
        _ => "?",
    }
}

impl AtomicShadow {
    pub(crate) fn new(val: u64) -> Self {
        Self {
            loc: Mutex::new(LocState {
                id: None,
                // The initial value acts as a store by "thread 0 at time
                // zero" that everyone has observed.
                stores: vec![StoreRec {
                    val,
                    epoch: Epoch { thread: 0, time: 0 },
                    rel: VClock::new(),
                }],
                observed: Vec::new(),
            }),
        }
    }

    fn ensure_id(loc: &mut LocState, st: &mut State) -> u32 {
        match loc.id {
            Some(id) => id,
            None => {
                let id = st.new_object();
                loc.id = Some(id);
                id
            }
        }
    }

    /// Joins the SC clock into the thread and folds the thread back in —
    /// the "single total order" approximation for `SeqCst` ops.
    fn sc_sync(st: &mut State, tid: usize) {
        let sc = st.sc_clock.clone();
        st.threads[tid].clock.join(&sc);
        let clk = st.threads[tid].clock.clone();
        st.sc_clock.join(&clk);
    }

    pub(crate) fn load(&self, ord: Ordering, label: &'static str) -> u64 {
        if std::thread::panicking() {
            // Destructor running during an execution teardown: answer
            // raw (newest value), without scheduling — a second panic
            // here would abort the whole test process.
            let loc = relock(&self.loc);
            return loc.stores[loc.stores.len() - 1].val;
        }
        with_current(|exec, tid| {
            let mut st = exec.lock();
            let mut loc = relock(&self.loc);
            let id = Self::ensure_id(&mut loc, &mut st);
            exec.op_prologue(&mut st, tid, || {
                format!("{label}#{id}.load({})", ord_name(ord))
            });
            if ord == Ordering::SeqCst {
                Self::sc_sync(&mut st, tid);
            }
            // Coherence floor, then happens-before floor: the newest
            // store whose epoch this thread observes subsumes everything
            // older.
            let mut floor = loc.observed_floor(tid);
            let clock = &st.threads[tid].clock;
            for (i, s) in loc.stores.iter().enumerate().rev() {
                if clock.observes(s.epoch) {
                    floor = floor.max(i);
                    break;
                }
            }
            let newest = loc.stores.len() - 1;
            let forced = !st.others_runnable(tid) || st.threads[tid].spinning;
            let idx = if floor == newest || forced {
                // Eventual visibility: a lone runnable thread — or one
                // spinning in a yield loop — reads the newest value, so
                // polling terminates and fruitless iterations do not
                // multiply stale-value branches. The first load of each
                // poll episode (before any yield) still branches freely.
                newest
            } else {
                // Candidates newest-first, so choice 0 (the DFS's first
                // visit) is the "expected" fresh read.
                let n = newest - floor + 1;
                let pick = st.choose(n);
                newest - pick
            };
            let store = loc.stores[idx].clone();
            loc.set_observed(tid, idx);
            if is_acquire(ord) {
                st.threads[tid].clock.join(&store.rel);
            } else {
                // Stashed for a later fence(Acquire).
                st.threads[tid].acq_pending.join(&store.rel);
            }
            if st.trace.is_some() && idx != newest {
                let stale = newest - idx;
                st.trace_line(tid, || {
                    format!("  ↳ observed {} ({} store(s) stale)", store.val, stale)
                });
            } else if st.trace.is_some() {
                let val = store.val;
                st.trace_line(tid, || format!("  ↳ observed {val}"));
            }
            drop(loc);
            exec.schedule_next(st, tid);
            store.val
        })
    }

    pub(crate) fn store(&self, val: u64, ord: Ordering, label: &'static str) {
        if std::thread::panicking() {
            // Teardown path: record the value raw, no scheduling.
            let mut loc = relock(&self.loc);
            let epoch = loc.stores[loc.stores.len() - 1].epoch;
            loc.stores.push(StoreRec {
                val,
                epoch,
                rel: VClock::new(),
            });
            return;
        }
        with_current(|exec, tid| {
            let mut st = exec.lock();
            let mut loc = relock(&self.loc);
            let id = Self::ensure_id(&mut loc, &mut st);
            exec.op_prologue(&mut st, tid, || {
                format!("{label}#{id}.store({val}, {})", ord_name(ord))
            });
            if ord == Ordering::SeqCst {
                Self::sc_sync(&mut st, tid);
            }
            let rel = if is_release(ord) {
                st.threads[tid].clock.clone()
            } else {
                // A relaxed store still carries any prior release fence.
                st.threads[tid].rel_fence.clone()
            };
            st.threads[tid].spinning = false;
            let epoch = Epoch {
                thread: tid,
                time: st.threads[tid].clock.get(tid),
            };
            loc.stores.push(StoreRec { val, epoch, rel });
            let newest = loc.stores.len() - 1;
            loc.set_observed(tid, newest);
            drop(loc);
            exec.schedule_next(st, tid);
        })
    }

    /// Read-modify-write: always reads the newest store (atomicity) and
    /// continues its release sequence.
    pub(crate) fn rmw(
        &self,
        ord: Ordering,
        label: &'static str,
        opname: &'static str,
        f: impl FnOnce(u64) -> u64,
    ) -> u64 {
        if std::thread::panicking() {
            let mut loc = relock(&self.loc);
            let prev = loc.stores[loc.stores.len() - 1].clone();
            let epoch = prev.epoch;
            loc.stores.push(StoreRec {
                val: f(prev.val),
                epoch,
                rel: VClock::new(),
            });
            return prev.val;
        }
        with_current(|exec, tid| {
            let mut st = exec.lock();
            let mut loc = relock(&self.loc);
            let id = Self::ensure_id(&mut loc, &mut st);
            exec.op_prologue(&mut st, tid, || {
                format!("{label}#{id}.{opname}({})", ord_name(ord))
            });
            if ord == Ordering::SeqCst {
                Self::sc_sync(&mut st, tid);
            }
            let newest = loc.stores.len() - 1;
            let prev = loc.stores[newest].clone();
            if is_acquire(ord) {
                st.threads[tid].clock.join(&prev.rel);
            } else {
                st.threads[tid].acq_pending.join(&prev.rel);
            }
            let mut rel = if is_release(ord) {
                st.threads[tid].clock.clone()
            } else {
                st.threads[tid].rel_fence.clone()
            };
            // Release-sequence continuation: an RMW in the middle of a
            // release sequence still lets later acquires sync with the
            // head release store.
            rel.join(&prev.rel);
            st.threads[tid].spinning = false;
            let newval = f(prev.val);
            let epoch = Epoch {
                thread: tid,
                time: st.threads[tid].clock.get(tid),
            };
            loc.stores.push(StoreRec {
                val: newval,
                epoch,
                rel,
            });
            let idx = loc.stores.len() - 1;
            loc.set_observed(tid, idx);
            if st.trace.is_some() {
                let pv = prev.val;
                st.trace_line(tid, || format!("  ↳ {pv} -> {newval}"));
            }
            drop(loc);
            exec.schedule_next(st, tid);
            prev.val
        })
    }
}

/// Shadow `fence`: release side snapshots the clock for later relaxed
/// stores; acquire side collects clocks stashed by earlier relaxed loads;
/// `SeqCst` additionally syncs with the global SC clock.
pub fn fence(ord: Ordering) {
    if std::thread::panicking() {
        return;
    }
    with_current(|exec, tid| {
        let mut st = exec.lock();
        exec.op_prologue(&mut st, tid, || format!("fence({})", ord_name(ord)));
        if ord == Ordering::SeqCst {
            AtomicShadow::sc_sync(&mut st, tid);
        }
        if is_acquire(ord) {
            let pending = std::mem::take(&mut st.threads[tid].acq_pending);
            st.threads[tid].clock.join(&pending);
        }
        if is_release(ord) {
            st.threads[tid].rel_fence = st.threads[tid].clock.clone();
        }
        exec.schedule_next(st, tid);
    });
}

macro_rules! shadow_atomic {
    ($name:ident, $ty:ty, $label:literal) => {
        /// Shadow of the std atomic of the same name; every access is a
        /// kloom decision point with full weak-memory value choice.
        #[derive(Debug)]
        pub struct $name {
            shadow: AtomicShadow,
        }

        impl $name {
            pub fn new(val: $ty) -> Self {
                Self {
                    shadow: AtomicShadow::new(val as u64),
                }
            }

            pub fn load(&self, ord: Ordering) -> $ty {
                self.shadow.load(ord, $label) as $ty
            }

            pub fn store(&self, val: $ty, ord: Ordering) {
                self.shadow.store(val as u64, ord, $label)
            }

            pub fn fetch_add(&self, val: $ty, ord: Ordering) -> $ty {
                self.shadow.rmw(ord, $label, "fetch_add", |v| {
                    (v as $ty).wrapping_add(val) as u64
                }) as $ty
            }

            pub fn fetch_max(&self, val: $ty, ord: Ordering) -> $ty {
                self.shadow
                    .rmw(ord, $label, "fetch_max", |v| (v as $ty).max(val) as u64) as $ty
            }

            pub fn swap(&self, val: $ty, ord: Ordering) -> $ty {
                self.shadow.rmw(ord, $label, "swap", |_| val as u64) as $ty
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(0)
            }
        }
    };
}

shadow_atomic!(AtomicUsize, usize, "usize");
shadow_atomic!(AtomicU64, u64, "u64");

/// Shadow `AtomicBool` (stored as 0/1 in the untyped core).
#[derive(Debug)]
pub struct AtomicBool {
    shadow: AtomicShadow,
}

impl AtomicBool {
    pub fn new(val: bool) -> Self {
        Self {
            shadow: AtomicShadow::new(u64::from(val)),
        }
    }

    pub fn load(&self, ord: Ordering) -> bool {
        self.shadow.load(ord, "bool") != 0
    }

    pub fn store(&self, val: bool, ord: Ordering) {
        self.shadow.store(u64::from(val), ord, "bool")
    }
}

impl Default for AtomicBool {
    fn default() -> Self {
        Self::new(false)
    }
}
