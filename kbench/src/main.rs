//! The repository benchmark: end-to-end and per-layer timing of the K-LEB
//! reproduction on fixed, seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path kbench/Cargo.toml -- \
//!     --workload paper_regen --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Run from the repository root. The run sets the workload up, then runs
//! rounds of timed operations for at least `--seconds` and until every
//! reported percentile has enough samples, checking each operation's
//! output; further set-ups spread over that window give the median set-up
//! time. `--trace 1` then
//! reruns the first rounds, for a quarter of `--seconds`, with every layer
//! probed separately (see `layers.rs`) and reports per-layer metrics
//! instead. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod cases;
mod heap;
mod layers;
mod metrics;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use jsonlite::Value;

use crate::cases::{Case, Op};
use crate::layers::Layers;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{percentile, samples_needed};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Set-up repetitions; `setup_s` is their median. The first precedes the
/// timed operations; the rest are spread over the measured window, so that
/// set-up, like the operations, samples the host's slow and fast phases
/// instead of a single moment.
const SETUP_REPS: usize = 5;
/// Share of `--seconds` the traced rerun may last: the per-layer figures
/// are sums over whole rounds and settle within a few of them.
const TRACE_SHARE: u32 = 4;
/// Percentile reported as the latency tail.
const TAIL: f64 = 90.0;
/// Measuring stops here even if a percentile still lacks samples, so a run
/// ends well inside its time limit.
const MAX_MEASURE: Duration = Duration::from_secs(120);
/// Failed-check messages printed before the rest are only counted.
const MAX_ERRORS_SHOWN: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 50,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects an unsigned integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !cases::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload expects one of {:?}, got {:?}",
            cases::NAMES,
            args.workload
        ));
    }
    Ok(args)
}

/// The checkout's commit, read from `.git` without running git.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(format!(".git/{name}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(name))
                    .and_then(|l| l.split(' ').next())
                    .map(str::to_string)
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.into()
    }
}

/// Operations run, and how many failed their checks.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, round: &cases::Round) {
        for op in &round.ops {
            self.attempted += 1;
            if let Some(e) = &op.error {
                self.failed += 1;
                self.errors.push(e.clone());
            }
        }
        self.errors.extend(round.probe_errors.iter().cloned());
    }
}

/// True once the latency tail has enough samples.
fn enough(ops: &[Op]) -> bool {
    ops.len() >= samples_needed(TAIL)
}

/// The end-to-end metrics with the sample count behind each. Throughputs
/// are work over time summed across operations; timings are percentiles.
/// Failed operations count with their time and no work.
fn end_to_end(ops: &[Op], setups: &[f64], peaks: &[f64]) -> Result<Vec<Measured>, String> {
    let ms: Vec<f64> = ops.iter().map(|op| op.ms).collect();
    let recorded: Vec<(u64, f64)> = ops.iter().filter_map(|op| op.recorded).collect();
    let instructions: u64 = ops.iter().map(|op| op.instructions).sum();
    let samples: u64 = recorded.iter().map(|&(n, _)| n).sum();
    let record_ms: f64 = recorded.iter().map(|&(_, ms)| ms).sum();
    let setup = percentile(setups, 50.0)?;
    let p50 = percentile(&ms, 50.0)?;
    let p90 = percentile(&ms, TAIL)?;
    let peak = percentile(peaks, 50.0)?;
    Ok(vec![
        ("setup_s", setup.value, Some(setup.n)),
        (
            "sim_minstr_per_s",
            instructions as f64 / ms.iter().sum::<f64>() / 1e3,
            Some(ms.len()),
        ),
        ("run_ms_p50", p50.value, Some(p50.n)),
        ("run_ms_p90", p90.value, Some(p90.n)),
        (
            "record_samples_per_s",
            if record_ms > 0.0 {
                samples as f64 / record_ms * 1e3
            } else {
                0.0
            },
            Some(recorded.len()),
        ),
        ("peak_heap_mb", peak.value, Some(peak.n)),
    ])
}

/// A measured value with the sample count behind it, where it has one.
type Measured = (&'static str, f64, Option<usize>);

fn value_of(values: &[Measured], m: &Metric) -> (f64, Option<usize>) {
    values
        .iter()
        .find(|(name, ..)| *name == m.name)
        .map(|&(_, v, n)| (v, n))
        .unwrap_or_else(|| panic!("metric {} was not measured", m.name))
}

/// Prints every metric of `table` with its unit, direction and bound or
/// the end-to-end metric it should move.
fn print_metrics(table: &[Metric], values: &[Measured]) {
    for m in table {
        let (value, n) = value_of(values, m);
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let detail = match (m.bound, n) {
            (Some(bound), Some(n)) => {
                format!("n={n}, {better} is better, bound {:.0}%", bound * 100.0)
            }
            _ => format!("{better} is better, moves {}", m.moves),
        };
        println!("{} = {value:.4} {} ({detail})", m.name, m.unit);
    }
}

/// Renders the result line.
fn result_line(tally: &Tally, correct: bool, table: &[Metric], values: &[Measured]) -> String {
    let metrics = table
        .iter()
        .map(|m| {
            let entry = Value::Obj(vec![
                ("value".into(), Value::F64(value_of(values, m).0)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    let mut out = String::new();
    Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(tally.attempted)),
        ("failed".into(), Value::U64(tally.failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ])
    .render(&mut out);
    out
}

/// Sets the workload up in the empty directory `dir`, appending the time it
/// took to `setups`.
fn timed_setup(args: &Args, dir: &Path, setups: &mut Vec<f64>) -> Result<Box<dyn Case>, String> {
    let t = Instant::now();
    std::fs::create_dir_all(dir).map_err(|e| format!("scratch directory: {e}"))?;
    let case = cases::setup(&args.workload, args.seed, dir)?;
    setups.push(t.elapsed().as_secs_f64());
    Ok(case)
}

/// One more timed set-up, in a directory of its own, whose case is dropped.
fn spare_setup(args: &Args, scratch: &Path, setups: &mut Vec<f64>) -> Result<(), String> {
    let dir = scratch.join(format!("setup-{}", setups.len()));
    timed_setup(args, &dir, setups)?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

fn run(args: &Args, scratch: &Path) -> Result<String, String> {
    println!(
        "kbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "host_cores: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("git_rev: {}", git_rev());

    let mut setups = Vec::new();
    let mut case = timed_setup(args, scratch, &mut setups)?;

    let seconds = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    let mut ops = Vec::new();
    let mut round_ns = Vec::new();
    let mut peaks = Vec::new();
    let mut digest0 = None;
    let start = Instant::now();
    while start.elapsed() < seconds || !enough(&ops) {
        if start.elapsed() > MAX_MEASURE {
            return Err(format!(
                "only {} operations in {MAX_MEASURE:?}; percentiles lack samples",
                ops.len()
            ));
        }
        if start.elapsed() >= seconds * setups.len() as u32 / SETUP_REPS as u32 {
            spare_setup(args, scratch, &mut setups)?;
        }
        heap::reset_peak();
        let t = Instant::now();
        let round = case.round(round_ns.len() as u64, None);
        round_ns.push(t.elapsed().as_nanos() as f64);
        peaks.push(heap::peak_mb());
        digest0.get_or_insert(round.digest);
        tally.add(&round);
        ops.extend(round.ops);
    }
    while setups.len() < SETUP_REPS {
        spare_setup(args, scratch, &mut setups)?;
    }
    let digest0 = digest0.expect("at least one round ran");
    println!("digest round 0: {digest0:016x}");
    for line in case.fidelity() {
        println!("fidelity: {line}");
    }

    let mut correct = true;
    let values: Vec<Measured>;
    let table: &[Metric];
    if args.trace {
        let mut layers = Layers::default();
        let start = Instant::now();
        for (r, &untraced) in round_ns.iter().enumerate() {
            if r > 0 && start.elapsed() >= seconds / TRACE_SHARE {
                break;
            }
            let t = Instant::now();
            let round = case.round(r as u64, Some(&mut layers));
            layers.traced_ns += t.elapsed().as_nanos() as f64;
            layers.untraced_ns += untraced;
            if r == 0 && round.digest != digest0 {
                correct = false;
                println!(
                    "check failed: traced digest {:016x} differs from untraced",
                    round.digest
                );
            }
            tally.add(&round);
        }
        for name in layers.idle() {
            println!("note: {name} is 0: the layer did no such work on this workload");
        }
        println!("note: ksim.self_ns_per_block is an estimate: bare run minus the layers below it");
        values = layers
            .metrics()
            .into_iter()
            .map(|(name, v)| (name, v, None))
            .collect();
        table = &PER_LAYER;
    } else {
        values = end_to_end(&ops, &setups, &peaks)?;
        table = &END_TO_END;
    }
    print_metrics(table, &values);
    for e in tally.errors.iter().take(MAX_ERRORS_SHOWN) {
        println!("check failed: {e}");
    }
    if tally.errors.len() > MAX_ERRORS_SHOWN {
        println!(
            "check failed: ... and {} more",
            tally.errors.len() - MAX_ERRORS_SHOWN
        );
    }
    correct &= tally.errors.is_empty();
    println!(
        "attempted {} operations, {} failed",
        tally.attempted, tally.failed
    );
    Ok(result_line(&tally, correct, table, &values))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kbench: {e}");
            eprintln!(
                "usage: kbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                cases::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Scratch files (fleet recordings) live under the build directory, which
    // the repository ignores, and go away when the run ends.
    let scratch = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()))
        .join(format!("kbench-scratch-{}", std::process::id()));
    let result = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("kbench: {e}");
            ExitCode::FAILURE
        }
    }
}
