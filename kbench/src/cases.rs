//! The benchmark's workloads: their inputs, timed operations and checks.
//!
//! A workload runs in rounds. A round is a fixed list of operations whose
//! inputs derive from `(seed, round)` alone, so the same seed replays the
//! same inputs and round 0 — the one every run completes — is digested to
//! show that tracing, or a simulator change, left the simulation alone.

use std::path::{Path, PathBuf};
use std::time::Instant;

use baselines::{overhead_percent, run_tool, ToolRun, ToolSpec};
use fleet::{Backpressure, FleetConfig, FleetOutcome, FleetRunner, MachineSpec};
use kleb::{KlebTuning, Monitor};
use kleb_bench::experiments::{count_blocks, EVENTS_DETERMINISTIC, PERIOD_100US, PERIOD_10MS};
use kleb_bench::Scale;
use ksim::{FixedBlocks, Machine, MachineConfig, ProcessInfo, WorkBlock, Workload};
use ktrace::TraceReplayer;
use memsim::MemStats;
use pmu::{EventCounts, HwEvent};
use workloads::{DockerImage, Matmul};

use crate::layers::{Layers, SimInput};
use crate::stats::{mix, Digest};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 2] = ["paper_regen", "fleet_hf"];

/// Problem sizes of the experiment binaries' default run (no `--quick` or
/// `--full`): the matmul and container sizes users regenerating Table II
/// and Fig. 5 wait on.
fn scale() -> Scale {
    Scale::default_run()
}

/// Per-block runtime noise of the Table II workload, as the experiments use.
const MATMUL_NOISE: f64 = 0.004;
/// Fleet size: one machine thread per host core of the reference host.
const FLEET_MACHINES: u64 = 2;
/// Blocks per machine in a recorded fleet run: enough that simulation and
/// ingest, not thread start-up, dominate and the replay lasts milliseconds,
/// few enough that the hundred operations `run_ms_p90` needs fit in a run.
const FLEET_BLOCKS: u64 = 400_000;
/// Events the fleet machines count.
const FLEET_EVENTS: [HwEvent; 2] = [HwEvent::LlcReference, HwEvent::LlcMiss];

/// One timed operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Host milliseconds.
    pub ms: f64,
    /// Simulated instructions retired by the monitored processes.
    pub instructions: u64,
    /// K-LEB samples the operation recorded, if it ran K-LEB, and the host
    /// milliseconds the recording took.
    pub recorded: Option<(u64, f64)>,
    /// Why the operation's output was wrong, if it was.
    pub error: Option<String>,
}

/// The operations of one round and the digest of what they simulated.
#[derive(Debug)]
pub struct Round {
    /// Operations in round order.
    pub ops: Vec<Op>,
    /// Digest of the simulated statistics.
    pub digest: u64,
    /// Failures of the traced run's layer probes.
    pub probe_errors: Vec<String>,
}

/// A workload, set up and ready to run rounds.
pub trait Case {
    /// Runs round `r`; with `trace`, also probes every layer on its inputs.
    fn round(&mut self, r: u64, trace: Option<&mut Layers>) -> Round;
    /// Simulated results beside the paper's, from the untraced rounds.
    fn fidelity(&self) -> Vec<String>;
}

/// Sets a workload up: calibration, inputs and one untimed warm-up run.
pub fn setup(name: &str, seed: u64, scratch: &Path) -> Result<Box<dyn Case>, String> {
    Ok(match name {
        "paper_regen" => Box::new(PaperRegen::new(seed)?),
        "fleet_hf" => Box::new(FleetHf::new(seed, scratch)),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {NAMES:?}"
            ))
        }
    })
}

fn elapsed_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn digest_process(d: &mut Digest, p: &ProcessInfo) {
    d.word(p.try_wall_time().map_or(u64::MAX, |w| w.as_nanos()));
    for (_, count) in p.true_user_events.iter() {
        d.word(count);
    }
}

fn digest_mem(d: &mut Digest, s: MemStats) {
    for w in [
        s.accesses,
        s.l1d_misses,
        s.l2_misses,
        s.llc_references,
        s.llc_misses,
    ] {
        d.word(w);
    }
}

fn instructions(p: &ProcessInfo) -> u64 {
    p.true_user_events.get(HwEvent::InstructionsRetired)
}

// ---------------------------------------------------------------------
// paper_regen: the Table II method, then the Fig. 5 method
// ---------------------------------------------------------------------

/// Table II trials per `paper_regen` round. With two, the round's twelve
/// matmul runs outnumber its nine container runs, so the median operation
/// lies among the matmul runs, whose times differ only by the tools'
/// overheads, and not in a gap between two container images' times.
const TABLE2_TRIALS: u64 = 2;

/// The two paper-regeneration paths in one round: Table II trials
/// (strided memsim streams and the five tools), then the nine Fig. 5
/// containers (random accesses below and above the LLC). One operation is
/// one machine run of either.
struct PaperRegen {
    table2: PaperMatmul,
    fig5: DockerMix,
}

impl PaperRegen {
    fn new(seed: u64) -> Result<Self, String> {
        Ok(Self {
            table2: PaperMatmul::new(seed)?,
            fig5: DockerMix::new(seed),
        })
    }
}

impl Case for PaperRegen {
    fn round(&mut self, r: u64, mut trace: Option<&mut Layers>) -> Round {
        let mut parts: Vec<Round> = (0..TABLE2_TRIALS)
            .map(|t| {
                self.table2
                    .round(r * TABLE2_TRIALS + t, trace.as_deref_mut())
            })
            .collect();
        parts.push(self.fig5.round(r, trace));
        let mut digest = Digest::default();
        let mut round = Round {
            ops: Vec::new(),
            digest: 0,
            probe_errors: Vec::new(),
        };
        for part in parts {
            digest.word(part.digest);
            round.ops.extend(part.ops);
            round.probe_errors.extend(part.probe_errors);
        }
        round.digest = digest.value();
        round
    }

    fn fidelity(&self) -> Vec<String> {
        let mut lines = self.table2.fidelity();
        lines.extend(self.fig5.fidelity());
        lines
    }
}

// The Table II method.

fn matmul(seed: u64) -> Matmul {
    Matmul::new(scale().matmul_n, seed, MATMUL_NOISE)
}

/// Paired trials of the triple-loop matmul, bare and under each of the
/// five tools at 10 ms; one operation is one machine run.
struct PaperMatmul {
    seed: u64,
    /// `ToolSpec::None` first, then the five calibrated tools.
    tools: Vec<ToolSpec>,
    overhead_sums: Vec<f64>,
    trials: u64,
}

impl PaperMatmul {
    fn new(seed: u64) -> Result<Self, String> {
        // Table II's read-density calibration: the instrumented tools read
        // about as often as the timer-based tools sample.
        let blocks = count_blocks(Box::new(matmul(seed)));
        let mut machine = Machine::new(MachineConfig::i7_920(seed));
        let bare = baselines::run_unmonitored(&mut machine, "matmul", Box::new(matmul(seed)))
            .map_err(|e| format!("calibration run: {e}"))?;
        let reads = (bare.wall_time().as_nanos() / PERIOD_10MS.as_nanos()).max(1);
        let mut tools = vec![ToolSpec::None];
        tools.extend(ToolSpec::all_calibrated((blocks / reads).max(1)));
        Ok(Self {
            seed,
            overhead_sums: vec![0.0; tools.len()],
            tools,
            trials: 0,
        })
    }
}

impl Case for PaperMatmul {
    fn round(&mut self, r: u64, trace: Option<&mut Layers>) -> Round {
        let wl = mix(self.seed, r);
        let mut digest = Digest::default();
        let mut ops = Vec::new();
        let mut runs: Vec<Option<ToolRun>> = Vec::new();
        for (i, spec) in self.tools.iter().enumerate() {
            let t = Instant::now();
            let mut machine = Machine::new(MachineConfig::i7_920(mix(wl, i as u64)));
            let result = run_tool(
                spec,
                &mut machine,
                "matmul",
                Box::new(matmul(wl)),
                &EVENTS_DETERMINISTIC,
                PERIOD_10MS,
            );
            let ms = elapsed_ms(t);
            digest.word(i as u64);
            digest_mem(&mut digest, machine.mem(ksim::CoreId(0)).stats());
            let (op, run) = match result {
                Ok(run) => {
                    digest_process(&mut digest, &run.target);
                    for s in &run.samples {
                        digest.word(s.timestamp_ns);
                        s.values.iter().for_each(|&v| digest.word(v));
                    }
                    let op = Op {
                        ms,
                        instructions: instructions(&run.target),
                        recorded: matches!(spec, ToolSpec::Kleb(_))
                            .then_some((run.samples.len() as u64, ms)),
                        error: None,
                    };
                    (op, Some(run))
                }
                Err(e) => {
                    let error = Some(format!("{} run failed: {e}", spec.name()));
                    let op = Op {
                        ms,
                        instructions: 0,
                        recorded: None,
                        error,
                    };
                    (op, None)
                }
            };
            ops.push(op);
            runs.push(run);
        }

        // Ground truth must not depend on who watches: the target's user
        // branches, loads and stores are identical bare and under each tool.
        if let Some(bare) = &runs[0] {
            for (op, run) in ops.iter_mut().zip(&runs).skip(1) {
                let Some(run) = run else { continue };
                for event in EVENTS_DETERMINISTIC {
                    let (want, got) = (
                        bare.target.true_user_events.get(event),
                        run.target.true_user_events.get(event),
                    );
                    if want != got && op.error.is_none() {
                        op.error = Some(format!(
                            "{}: true {event:?} {got} differs from bare {want}",
                            run.tool
                        ));
                    }
                }
            }
            if trace.is_none() {
                self.trials += 1;
                for (sum, run) in self.overhead_sums.iter_mut().zip(&runs) {
                    if let Some(run) = run {
                        *sum += overhead_percent(bare.wall_time(), run.wall_time());
                    }
                }
            }
        }

        let mut probe_errors = Vec::new();
        if let Some(layers) = trace {
            // The round's own runs are the baseline layer's timings.
            layers.tool_runs(ops.iter().map(|op| op.ms));
            let make = || -> Box<dyn Workload> { Box::new(matmul(wl)) };
            let input = SimInput {
                label: "matmul",
                make: &make,
                machine: MachineConfig::i7_920(mix(wl, 0)),
                events: &EVENTS_DETERMINISTIC,
                period: PERIOD_10MS,
                tuning: KlebTuning::paper_calibrated(),
            };
            let probed = layers.probe_sim(&input).and_then(|batches| {
                layers.probe_pipeline(&[batches], &EVENTS_DETERMINISTIC, PERIOD_10MS)
            });
            probe_errors.extend(probed.err());
        }
        Round {
            ops,
            digest: digest.value(),
            probe_errors,
        }
    }

    fn fidelity(&self) -> Vec<String> {
        const PAPER: [&str; 6] = ["0", "0.68", "6.01", "~1.65", "6.43", "4.08"];
        let trials = self.trials.max(1) as f64;
        let mut lines = vec![format!(
            "Table II overhead %, simulated over {} trials (n={}) vs paper (n=1280):",
            self.trials,
            scale().matmul_n
        )];
        for ((spec, sum), paper) in self.tools.iter().zip(&self.overhead_sums).zip(PAPER) {
            lines.push(format!(
                "  {:<12} {:>7.2}   paper {paper}",
                spec.name(),
                sum / trials
            ));
        }
        lines
    }
}

// The Fig. 5 method.

/// Seed of image `i`'s container in round `r`.
fn image_seed(seed: u64, r: u64, i: usize) -> u64 {
    mix(seed, r * 16 + i as u64)
}

/// All nine container images under K-LEB at 10 ms with fork-following;
/// one operation is one image.
struct DockerMix {
    seed: u64,
    /// Per image: K-LEB-counted LLC misses and instructions.
    counted: Vec<(u64, u64)>,
}

impl DockerMix {
    fn new(seed: u64) -> Self {
        let mix = Self {
            seed,
            counted: vec![(0, 0); DockerImage::ALL.len()],
        };
        // Warm-up: one untimed container run.
        let _ = mix.run_image(0, 0);
        mix
    }

    /// Runs image `i` of round `r`: the operation, its digest, and the
    /// LLC misses and instructions K-LEB counted.
    fn run_image(&self, r: u64, i: usize) -> (Op, u64, (u64, u64)) {
        let image = DockerImage::ALL[i];
        let s = image_seed(self.seed, r, i);
        let mut digest = Digest::default();
        let t = Instant::now();
        let mut machine = Machine::new(MachineConfig::i7_920(mix(s, 1)));
        let result = Monitor::new(&[HwEvent::LlcMiss], PERIOD_10MS).run(
            &mut machine,
            image.name(),
            Box::new(image.container(scale().docker_blocks, s)),
        );
        let ms = elapsed_ms(t);
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                let error = Some(format!("{image}: monitor failed: {e}"));
                let op = Op {
                    ms,
                    instructions: 0,
                    recorded: None,
                    error,
                };
                return (op, 0, (0, 0));
            }
        };
        digest_process(&mut digest, &outcome.target);
        digest_mem(&mut digest, machine.mem(ksim::CoreId(0)).stats());
        let mut error = None;
        if outcome.status.samples_dropped != 0 {
            error = Some(format!(
                "{image}: {} samples dropped",
                outcome.status.samples_dropped
            ));
        }
        for (expected, s) in outcome.samples.iter().enumerate() {
            digest.word(s.seq);
            digest.word(s.timestamp_ns);
            s.pmc.iter().chain(&s.fixed).for_each(|&v| digest.word(v));
            if s.seq != expected as u64 && error.is_none() {
                error = Some(format!("{image}: sample {expected} has seq {}", s.seq));
            }
        }
        let misses = outcome.samples.iter().map(|s| s.pmc[0]).sum();
        let op = Op {
            ms,
            // The forked service's instructions reach only K-LEB's
            // fork-following counts, not the parent's ground truth.
            instructions: outcome.total_instructions(),
            recorded: Some((outcome.samples.len() as u64, ms)),
            error,
        };
        (op, digest.value(), (misses, outcome.total_instructions()))
    }
}

impl Case for DockerMix {
    fn round(&mut self, r: u64, mut trace: Option<&mut Layers>) -> Round {
        let mut digest = Digest::default();
        let mut ops = Vec::new();
        let mut streams = Vec::new();
        let mut probe_errors = Vec::new();
        for (i, image) in DockerImage::ALL.iter().enumerate() {
            let (op, d, (misses, instructions)) = self.run_image(r, i);
            ops.push(op);
            digest.word(d);
            if trace.is_none() {
                self.counted[i].0 += misses;
                self.counted[i].1 += instructions;
            }
            if let Some(layers) = trace.as_deref_mut() {
                let s = image_seed(self.seed, r, i);
                let make =
                    || -> Box<dyn Workload> { Box::new(image.container(scale().docker_blocks, s)) };
                let input = SimInput {
                    label: image.name(),
                    make: &make,
                    machine: MachineConfig::i7_920(mix(s, 1)),
                    events: &[HwEvent::LlcMiss],
                    period: PERIOD_10MS,
                    tuning: KlebTuning::paper_calibrated(),
                };
                match layers.probe_sim(&input) {
                    Ok(batches) => streams.push(batches),
                    Err(e) => probe_errors.push(e),
                }
            }
        }
        if let Some(layers) = trace {
            probe_errors.extend(
                layers
                    .probe_pipeline(&streams, &[HwEvent::LlcMiss], PERIOD_10MS)
                    .err(),
            );
        }
        Round {
            ops,
            digest: digest.value(),
            probe_errors,
        }
    }

    fn fidelity(&self) -> Vec<String> {
        let mut lines =
            vec!["Fig. 5 LLC MPKI (K-LEB, fork-following), simulated vs paper class:".to_string()];
        for (image, &(misses, instr)) in DockerImage::ALL.iter().zip(&self.counted) {
            let mpki = misses as f64 * 1000.0 / instr.max(1) as f64;
            let paper = match image {
                DockerImage::Golang | DockerImage::Ruby | DockerImage::Python => "< 1",
                DockerImage::Traefik | DockerImage::Mysql | DockerImage::Ghost => "1-10",
                _ => "> 10",
            };
            lines.push(format!("  {:<8} {mpki:>7.2}   paper {paper}", image.name()));
        }
        lines
    }
}

// ---------------------------------------------------------------------
// fleet_hf: record and replay a fleet at the paper's 100 µs
// ---------------------------------------------------------------------

fn fleet_seeds(seed: u64, r: u64) -> impl Iterator<Item = u64> {
    (0..FLEET_MACHINES).map(move |i| mix(seed, r * 8 + i))
}

fn fleet_workload(seed: u64) -> Box<dyn Workload> {
    let events = EventCounts::new()
        .with(HwEvent::LlcReference, 16 + seed % 8)
        .with(HwEvent::LlcMiss, 2 + seed % 4);
    Box::new(FixedBlocks::new(
        FLEET_BLOCKS,
        WorkBlock::compute(1_000, 2_670).with_events(events),
    ))
}

fn fleet_config(persist: Option<&Path>) -> FleetConfig {
    let builder = FleetConfig::builder(&FLEET_EVENTS, PERIOD_100US)
        .machine(MachineConfig::test_tiny)
        .backpressure(Backpressure::Block);
    match persist {
        Some(dir) => builder.persist(dir).build(),
        None => builder.build(),
    }
}

/// One recorded fleet run and its replay.
struct Recorded {
    live: FleetOutcome,
    replayed: FleetOutcome,
    /// The recording read back without damage.
    clean: bool,
    /// Host milliseconds of the recorded run, and of loading and replaying
    /// the recording.
    record_ms: f64,
    replay_ms: f64,
}

/// Records round `r`'s fleet into the empty directory `dir`, loads the
/// recording and replays it through the collector.
fn record_and_replay(seed: u64, r: u64, dir: &Path) -> Result<Recorded, String> {
    let specs = fleet_seeds(seed, r)
        .enumerate()
        .map(|(i, s)| MachineSpec::new(format!("node-{i}"), s, fleet_workload))
        .collect();
    let t = Instant::now();
    let live = FleetRunner::new(fleet_config(Some(dir)))
        .run(specs)
        .map_err(|e| format!("fleet run failed: {e}"))?;
    let record_ms = elapsed_ms(t);
    let t = Instant::now();
    let recording = TraceReplayer::load_dir(dir).map_err(|e| format!("loading recording: {e}"))?;
    let clean = recording.all_clean();
    let replayed = FleetRunner::new(fleet_config(None))
        .replay(recording.streams)
        .map_err(|e| format!("replay failed: {e}"))?;
    let replay_ms = elapsed_ms(t);
    Ok(Recorded {
        live,
        replayed,
        clean,
        record_ms,
        replay_ms,
    })
}

/// What is wrong with a recorded run: channel drops, an unhealthy
/// machine, a damaged recording, or a replay that differs from the live
/// run.
fn fleet_error(rec: &Recorded) -> Option<String> {
    let dropped = rec.live.channel.total_dropped();
    if !rec.clean {
        Some("recording did not read back clean".into())
    } else if dropped != 0 {
        Some(format!("fleet channel dropped {dropped} samples"))
    } else if !rec.live.all_healthy() {
        Some(format!("unhealthy fleet:\n{}", rec.live.health_table()))
    } else if rec.replayed.digest() != rec.live.digest() {
        Some("replayed digest differs from the live run's".into())
    } else {
        None
    }
}

/// A two-machine fleet with `persist(dir)`, its recording loaded with
/// `TraceReplayer::load_dir` and pushed through `FleetRunner::replay`;
/// one operation is the recorded run plus its replay.
struct FleetHf {
    seed: u64,
    dir: PathBuf,
}

impl FleetHf {
    fn new(seed: u64, scratch: &Path) -> Self {
        let dir = scratch.join("recording");
        // Warm-up: one untimed recorded run and replay. The timed rounds
        // check their own outputs.
        let _ = record_and_replay(seed, 0, &dir);
        Self { seed, dir }
    }
}

impl Case for FleetHf {
    fn round(&mut self, r: u64, trace: Option<&mut Layers>) -> Round {
        let mut digest = Digest::default();
        let mut probe_errors = Vec::new();
        let _ = std::fs::remove_dir_all(&self.dir);
        let t = Instant::now();
        let result = record_and_replay(self.seed, r, &self.dir);
        let ms = elapsed_ms(t);
        let op = match result {
            Ok(rec) => {
                digest.bytes(&rec.live.digest());
                let samples = rec.live.metrics.samples_ingested();
                if let Some(layers) = trace {
                    layers.live_channel(&rec.live.channel);
                    layers.replay(rec.replay_ms, samples);
                    probe_errors = probe_fleet(layers, fleet_seeds(self.seed, r));
                }
                Op {
                    ms,
                    instructions: rec
                        .live
                        .machines
                        .iter()
                        .map(|m| instructions(&m.outcome.target))
                        .sum(),
                    recorded: Some((samples, rec.record_ms)),
                    error: fleet_error(&rec),
                }
            }
            Err(e) => Op {
                ms,
                instructions: 0,
                recorded: None,
                error: Some(e),
            },
        };
        Round {
            ops: vec![op],
            digest: digest.value(),
            probe_errors,
        }
    }

    fn fidelity(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Probes every layer on each fleet machine's input, then pushes their
/// drain batches through the pipeline probe.
fn probe_fleet(layers: &mut Layers, seeds: impl Iterator<Item = u64>) -> Vec<String> {
    let mut streams = Vec::new();
    let mut errors = Vec::new();
    for s in seeds {
        let make = || fleet_workload(s);
        let input = SimInput {
            label: "node",
            make: &make,
            machine: MachineConfig::test_tiny(s),
            events: &FLEET_EVENTS,
            period: PERIOD_100US,
            tuning: KlebTuning::default(),
        };
        match layers.probe_sim(&input) {
            Ok(batches) => streams.push(batches),
            Err(e) => errors.push(e),
        }
    }
    errors.extend(
        layers
            .probe_pipeline(&streams, &FLEET_EVENTS, PERIOD_100US)
            .err(),
    );
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::ItemResult;

    /// Round `r`'s seeds and the first items of each operation's workload.
    fn inputs(name: &str, seed: u64, r: u64) -> Vec<String> {
        let first_items = |mut w: Box<dyn Workload>| {
            (0..3)
                .map(|_| format!("{:?}", w.next(&ItemResult::None)))
                .collect::<String>()
        };
        match name {
            "paper_regen" => {
                let table2 = (0..TABLE2_TRIALS).map(|t| {
                    let wl = mix(seed, r * TABLE2_TRIALS + t);
                    format!("{wl} {}", first_items(Box::new(matmul(wl))))
                });
                let fig5 = (0..DockerImage::ALL.len()).map(|i| {
                    let s = image_seed(seed, r, i);
                    let container = DockerImage::ALL[i].container(scale().docker_blocks, s);
                    format!("{s} {}", first_items(Box::new(container)))
                });
                table2.chain(fig5).collect()
            }
            "fleet_hf" => fleet_seeds(seed, r)
                .map(|s| format!("{s} {}", first_items(fleet_workload(s))))
                .collect(),
            other => panic!("no inputs for {other}"),
        }
    }

    #[test]
    fn the_seed_alone_decides_the_inputs() {
        for name in NAMES {
            assert_eq!(inputs(name, 7, 0), inputs(name, 7, 0), "{name}");
            assert_ne!(inputs(name, 7, 0), inputs(name, 8, 0), "{name}");
            assert_ne!(inputs(name, 7, 0), inputs(name, 7, 1), "{name}");
        }
    }

    #[test]
    fn unknown_workloads_are_refused() {
        let err = setup("nope", 1, Path::new("unused"))
            .err()
            .expect("refused");
        assert!(err.contains("paper_regen"), "{err}");
    }
}
