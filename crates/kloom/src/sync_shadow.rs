//! Shadow `Mutex` and `Condvar`.
//!
//! Lock/unlock create the usual happens-before edges (unlock releases the
//! owner's clock into the mutex; lock acquires it). `Condvar::wait` marks
//! the thread blocked and releases the mutex in one scheduler operation —
//! the atomicity real condvars guarantee. `wait_timeout` is modeled as
//! **never timing out**: any wakeup the protocol can lose therefore shows
//! up as a kloom deadlock instead of being papered over by the timeout,
//! which turns "the doorbell never loses a wakeup" into a checkable
//! property.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

use crate::clock::VClock;
use crate::sched::{with_current, Run};

#[derive(Debug)]
struct MState {
    id: Option<u32>,
    holder: Option<usize>,
    /// Clock released by the last unlock; joined by the next lock.
    clock: VClock,
}

/// Shadow mutex: blocking is visible to the scheduler, so lock-ordering
/// deadlocks are found exhaustively.
#[derive(Debug)]
pub struct Mutex<T> {
    data: UnsafeCell<T>,
    st: std::sync::Mutex<MState>,
}

// SAFETY: the model guard protocol gives exclusive access to `data`
// while held, and the kloom scheduler serializes all model threads, so
// there is never a concurrent real memory access.
unsafe impl<T: Send> Send for Mutex<T> {}
// SAFETY: as above — `data` is only touched through a held guard, and
// guard acquisition is mediated (and mutually excluded) by the scheduler.
unsafe impl<T: Send> Sync for Mutex<T> {}

fn relock(m: &std::sync::Mutex<MState>) -> std::sync::MutexGuard<'_, MState> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Self {
            data: UnsafeCell::new(value),
            st: std::sync::Mutex::new(MState {
                id: None,
                holder: None,
                clock: VClock::new(),
            }),
        }
    }

    fn ensure_id(&self) -> u32 {
        with_current(|exec, _| {
            let mut st = exec.lock();
            let mut ms = relock(&self.st);
            match ms.id {
                Some(id) => id,
                None => {
                    let id = st.new_object();
                    ms.id = Some(id);
                    id
                }
            }
        })
    }

    /// Core acquisition loop shared by `lock` and condvar re-acquire.
    fn acquire(&self) {
        let id = self.ensure_id();
        with_current(|exec, tid| loop {
            let mut st = exec.lock();
            let mut ms = relock(&self.st);
            exec.op_prologue(&mut st, tid, || format!("mutex#{id}.lock"));
            if ms.holder.is_none() {
                ms.holder = Some(tid);
                st.threads[tid].spinning = false;
                let mclock = ms.clock.clone();
                st.threads[tid].clock.join(&mclock);
                drop(ms);
                exec.schedule_next(st, tid);
                return;
            }
            st.threads[tid].run = Run::BlockedMutex(id);
            drop(ms);
            // Not runnable: schedule_next hands the token away and
            // returns; we then sleep until the unlocker makes us runnable
            // and a later decision point picks us.
            exec.schedule_next(st, tid);
            exec.wait_for_token(tid);
        });
    }

    /// Releases the lock: publish our clock, wake blocked lockers.
    fn release(&self) {
        with_current(|exec, tid| {
            let mut st = exec.lock();
            let mut ms = relock(&self.st);
            let id = ms.id.unwrap_or(u32::MAX);
            exec.op_prologue(&mut st, tid, || format!("mutex#{id}.unlock"));
            debug_assert_eq!(ms.holder, Some(tid), "unlock by non-holder");
            ms.holder = None;
            let myclock = st.threads[tid].clock.clone();
            ms.clock.join(&myclock);
            drop(ms);
            for t in st.threads.iter_mut() {
                if t.run == Run::BlockedMutex(id) {
                    t.run = Run::Runnable;
                }
            }
            exec.schedule_next(st, tid);
        });
    }

    /// Locks, returning a guard. The `Result` mirrors `std`'s
    /// [`LockResult`](std::sync::LockResult) — including the poison error
    /// type — so facade code keeps its `.unwrap()` /
    /// `.unwrap_or_else(|e| e.into_inner())` handling verbatim. A shadow
    /// mutex never actually poisons (a model-thread panic aborts the
    /// whole execution first), so the `Err` arm is dead code.
    pub fn lock(&self) -> std::sync::LockResult<MutexGuard<'_, T>> {
        self.acquire();
        Ok(MutexGuard { mutex: self })
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// Guard for the shadow mutex; unlocks (with release semantics) on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard proves this model thread holds the lock, and
        // the scheduler runs one model thread at a time, so no aliasing
        // mutable access exists.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as for Deref — exclusive logical ownership while the
        // guard lives, physical exclusivity from the serialized scheduler.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // During an abort unwind the execution is already being torn
        // down; touching the scheduler would panic inside a panic.
        if std::thread::panicking() {
            return;
        }
        self.mutex.release();
    }
}

/// Mirror of `std::sync::WaitTimeoutResult` — kloom never times out.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult(());

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        false
    }
}

/// Shadow condvar. The only notification is `notify_all`, which wakes
/// every waiter (a sound over-approximation of `notify_one` for
/// wakeup-loss checking); waits never time out, so lost wakeups become
/// deadlocks.
#[derive(Debug, Default)]
pub struct Condvar {
    id: std::sync::Mutex<Option<u32>>,
}

impl Condvar {
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_id(&self) -> u32 {
        with_current(|exec, _| {
            let mut st = exec.lock();
            let mut slot = match self.id.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            match *slot {
                Some(id) => id,
                None => {
                    let id = st.new_object();
                    *slot = Some(id);
                    id
                }
            }
        })
    }

    /// Atomically releases the guard's mutex and blocks until notified.
    /// Mirrors `std`'s `LockResult` signature; never actually errors.
    pub fn wait<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
    ) -> std::sync::LockResult<MutexGuard<'a, T>> {
        let id = self.ensure_id();
        let mutex = guard.mutex;
        std::mem::forget(guard); // release manually, as one scheduler op
        with_current(|exec, tid| {
            let mut st = exec.lock();
            let mut ms = relock(&mutex.st);
            let mid = ms.id.unwrap_or(u32::MAX);
            exec.op_prologue(&mut st, tid, || {
                format!("condvar#{id}.wait (unlock mutex#{mid})")
            });
            debug_assert_eq!(ms.holder, Some(tid), "condvar wait without the lock");
            ms.holder = None;
            let myclock = st.threads[tid].clock.clone();
            ms.clock.join(&myclock);
            drop(ms);
            st.threads[tid].run = Run::BlockedCondvar(id);
            for t in st.threads.iter_mut() {
                if t.run == Run::BlockedMutex(mid) {
                    t.run = Run::Runnable;
                }
            }
            exec.schedule_next(st, tid);
            exec.wait_for_token(tid);
        });
        mutex.acquire();
        Ok(MutexGuard { mutex })
    }

    /// Modeled as [`wait`](Self::wait): the timeout never fires, so any
    /// wakeup the protocol can lose is reported as a deadlock rather than
    /// hidden by the timed fallback.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        _dur: Duration,
    ) -> std::sync::LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        match self.wait(guard) {
            Ok(g) => Ok((g, WaitTimeoutResult(()))),
            // Unreachable (wait never errors); kept for signature parity.
            Err(p) => Err(std::sync::PoisonError::new((
                p.into_inner(),
                WaitTimeoutResult(()),
            ))),
        }
    }

    /// Wakes every thread blocked on this condvar.
    pub fn notify_all(&self) {
        let id = self.ensure_id();
        with_current(|exec, tid| {
            let mut st = exec.lock();
            exec.op_prologue(&mut st, tid, || format!("condvar#{id}.notify_all"));
            for t in st.threads.iter_mut() {
                if t.run == Run::BlockedCondvar(id) {
                    t.run = Run::Runnable;
                }
            }
            exec.schedule_next(st, tid);
        });
    }
}
