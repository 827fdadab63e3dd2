//! kloom — a deterministic-interleaving concurrency checker for the
//! K-LEB reproduction's lock-free ingest path.
//!
//! Production code swaps its `std::sync::atomic` / `std::sync` /
//! `std::thread` imports for [`kloom::sync`](crate::sync) shadows under
//! `cfg(kloom)` (see `kchan/src/ring.rs` for the facade pattern). A model
//! test then wraps a small scenario in [`model`] and kloom runs it under
//! *every* thread interleaving (and every weak-memory value choice)
//! within configurable bounds:
//!
//! ```
//! use std::sync::atomic::Ordering;
//! use std::sync::Arc;
//!
//! kloom::model(|| {
//!     let flag = Arc::new(kloom::sync::atomic::AtomicBool::new(false));
//!     let f2 = Arc::clone(&flag);
//!     let t = kloom::thread::spawn(move || f2.store(true, Ordering::Release));
//!     let _ = flag.load(Ordering::Acquire);
//!     t.join().unwrap();
//! });
//! ```
//!
//! What kloom proves, within its bounds: absence of data races on probed
//! cells, absence of deadlocks/lost wakeups, and that model assertions
//! hold under all explored schedules. What it does *not* prove: anything
//! beyond the preemption bound or model size, real-time behavior, or
//! panics in un-instrumented code. See `DESIGN.md` § "Concurrency
//! verification" for the full contract.

mod atomic;
pub mod cell;
mod clock;
mod report;
mod sched;
mod sync_shadow;
pub mod thread;

pub use report::{Failure, FailureKind, Report};

/// `kloom::sync` mirrors the `std::sync` paths the facade swaps:
/// `kloom::sync::atomic::AtomicUsize`, `kloom::sync::Mutex`, ….
pub mod sync {
    pub use crate::sync_shadow::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

    /// Shadow of `std::sync::atomic`.
    pub mod atomic {
        pub use crate::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize};
        pub use std::sync::atomic::Ordering;
    }
}

use std::sync::Arc;

use sched::{advance, parse_schedule, spawn_model_thread, Choice, Exec};

/// Exploration bounds.
#[derive(Debug, Clone)]
pub struct Options {
    /// Max forced preemptions per execution (Musuvathi–Qadeer bound).
    pub preemption_bound: u32,
    /// Per-execution operation budget — trips on unbounded model loops.
    pub max_ops: usize,
    /// Total executions before exploration gives up with
    /// [`FailureKind::ExplorationBudget`].
    pub max_executions: usize,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            preemption_bound: 2,
            max_ops: 20_000,
            max_executions: 1_000_000,
        }
    }
}

/// Runs one execution following `path`, extending it with first-choice
/// decisions. Returns the failure (if any) and the full decision path.
fn run_one(
    f: &Arc<dyn Fn() + Send + Sync>,
    path: Vec<Choice>,
    opts: &Options,
    trace: bool,
) -> (Option<Failure>, Vec<Choice>) {
    let exec = Exec::new(path, opts.preemption_bound, opts.max_ops, trace);
    let g = Arc::clone(f);
    spawn_model_thread(&exec, crate::clock::VClock::new(), move || g());
    {
        let mut st = exec.lock();
        st.active = Some(0);
    }
    exec.cv.notify_all();
    exec.wait_all_finished();
    let mut st = exec.lock();
    let failure = st.failure.take();
    let path = std::mem::take(&mut st.path);
    (failure, path)
}

/// Explores the model exhaustively within `opts` bounds. Returns a
/// [`Report`]; on failure it re-runs the failing schedule once with trace
/// recording so the report shows the full interleaving.
pub fn explore(opts: Options, f: impl Fn() + Send + Sync + 'static) -> Report {
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let mut path: Vec<Choice> = Vec::new();
    let mut executions = 0usize;
    loop {
        if executions >= opts.max_executions {
            return Report {
                executions,
                failure: Some(Failure {
                    kind: FailureKind::ExplorationBudget,
                    message: format!(
                        "schedule tree not exhausted after {executions} executions — \
                         shrink the model or raise Options::max_executions"
                    ),
                    schedule: String::new(),
                    trace: Vec::new(),
                }),
            };
        }
        executions += 1;
        let (failure, new_path) = run_one(&f, path, &opts, false);
        if let Some(failure) = failure {
            let traced = retrace(&f, &failure, &opts);
            return Report {
                executions,
                failure: Some(traced),
            };
        }
        path = new_path;
        if !advance(&mut path) {
            return Report {
                executions,
                failure: None,
            };
        }
    }
}

/// Re-runs a failing schedule with trace recording. Determinism means
/// the same failure must reproduce; if it somehow does not, the original
/// (trace-less) failure is returned annotated.
fn retrace(f: &Arc<dyn Fn() + Send + Sync>, failure: &Failure, opts: &Options) -> Failure {
    let Some(path) = parse_schedule(&failure.schedule) else {
        return failure.clone();
    };
    let (refail, _) = run_one(f, path, opts, true);
    match refail {
        Some(mut r) if r.kind == failure.kind => {
            r.schedule.clone_from(&failure.schedule);
            r
        }
        _ => {
            let mut orig = failure.clone();
            orig.message
                .push_str(" [replay diverged — trace unavailable]");
            orig
        }
    }
}

/// Replays a schedule string from a failure report against the same
/// model, returning that single execution's outcome (with trace).
pub fn replay(schedule: &str, f: impl Fn() + Send + Sync + 'static) -> Report {
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let Some(path) = parse_schedule(schedule) else {
        return Report {
            executions: 0,
            failure: Some(Failure {
                kind: FailureKind::Assertion,
                message: format!("unparseable schedule string: {schedule:?}"),
                schedule: schedule.to_string(),
                trace: Vec::new(),
            }),
        };
    };
    let (failure, _) = run_one(&f, path, &Options::default(), true);
    Report {
        executions: 1,
        failure,
    }
}

/// Checks the model with default [`Options`].
///
/// # Panics
///
/// Panics with the full failure report (kind, replayable schedule string,
/// failing interleaving) if any explored execution fails.
pub fn model(f: impl Fn() + Send + Sync + 'static) {
    let report = explore(Options::default(), f);
    if let Some(failure) = report.failure {
        panic!(
            "model failed after {} execution(s)\n{failure}",
            report.executions
        );
    }
}
