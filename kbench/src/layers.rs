//! Per-layer probes for the traced run.
//!
//! Every layer is timed from outside, through its crate's public
//! functions, on the same inputs the timed operations used: the workload
//! generator alone, its blocks' access patterns replayed into a standalone
//! cache hierarchy, their event batches fed to a K-LEB-programmed PMU, the
//! bare machine run, a K-LEB-monitored run, and the K-LEB drain batches
//! pushed through the fleet ingest ring, the fleet store and the ktrace
//! codec. The baseline tools and the fleet replay are timed by the traced
//! round's own operations. Nothing inside the program is instrumented.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fleet::{ring_fanin, Backpressure, ChannelStats, FleetStore, Polled};
use kleb::{KlebTuning, Monitor, Sample, SampleSink};
use ksim::{CoreId, Duration, ItemResult, Machine, MachineConfig, WorkBlock, WorkItem, Workload};
use ktrace::{StreamLedger, StreamMeta, TraceReader, TraceWriter};
use memsim::{AccessPattern, Hierarchy};
use pmu::{msr, EventSel, HwEvent, Pmu, Privilege, NUM_FIXED};

/// Per-stream ring capacity of the ingest probe: the fleet's default.
const RING_CAPACITY: usize = 64 * 1024;
/// Per-lane shard capacity of the store probe: the fleet's default.
const SHARD_CAPACITY: usize = 64 * 1024;

/// One operation's input, as the probes need it.
pub struct SimInput<'a> {
    /// Process name.
    pub label: &'a str,
    /// Builds a fresh copy of the operation's workload.
    pub make: &'a dyn Fn() -> Box<dyn Workload>,
    /// The machine the operation ran on.
    pub machine: MachineConfig,
    /// Events K-LEB and the tools count.
    pub events: &'a [HwEvent],
    /// Sampling period.
    pub period: Duration,
    /// K-LEB cost tuning.
    pub tuning: KlebTuning,
}

/// Access-pattern classes the memsim probe times separately.
#[derive(Clone, Copy)]
enum Stride {
    Unit,
    Large,
    Random,
}

fn stride_of(p: &AccessPattern) -> Stride {
    match *p {
        AccessPattern::Sequential { stride, .. } if stride <= 64 => Stride::Unit,
        AccessPattern::Sequential { .. } => Stride::Large,
        AccessPattern::Random { .. } | AccessPattern::Single { .. } => Stride::Random,
    }
}

/// Accumulated per-layer work counts and host nanoseconds.
#[derive(Debug, Default)]
pub struct Layers {
    gen_ns: f64,
    blocks: u64,
    mem_ns: [f64; 3],
    mem_accesses: [u64; 3],
    mem_l1_misses: u64,
    mem_llc_refs: u64,
    mem_llc_misses: u64,
    pmu_ns: f64,
    pmu_observes: u64,
    ksim_self_ns: f64,
    kleb_samples: u64,
    kleb_batches: u64,
    kleb_dropped: u64,
    kleb_extra_ns: f64,
    tool_ms: [Vec<f64>; 6],
    ingest_ns: f64,
    ingest_samples: u64,
    block_waits: u64,
    depth_hwm: u64,
    store_ns: f64,
    enc_ns: f64,
    dec_ns: f64,
    trace_bytes: u64,
    trace_samples: u64,
    live_channel: Option<(u64, u64)>,
    replay_ns: f64,
    replay_samples: u64,
    /// Wall time of the traced rounds and of the same rounds untraced.
    pub traced_ns: f64,
    /// See [`Layers::traced_ns`].
    pub untraced_ns: f64,
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Drains a workload generator, descending into spawned children, and
/// hands every block to `block`.
fn drain(w: &mut dyn Workload, block: &mut dyn FnMut(WorkBlock)) {
    while let Some(item) = w.next(&ItemResult::None) {
        match item {
            WorkItem::Block(b) => block(b),
            WorkItem::Spawn { mut child, .. } => drain(child.as_mut(), block),
            _ => {}
        }
    }
}

/// A PMU programmed the way the K-LEB module programs the target core:
/// `events` on the programmable counters and the three fixed counters,
/// user mode only, globally enabled.
fn kleb_programmed_pmu(events: &[HwEvent]) -> Pmu {
    let mut pmu = Pmu::new();
    let mut enable = 0;
    for (i, &event) in events.iter().enumerate() {
        let sel = EventSel::for_event(event).usr(true).enabled(true).bits();
        pmu.wrmsr(msr::perfevtsel(i), sel)
            .expect("event select is writable");
        enable |= msr::global_ctrl_pmc_bit(i);
    }
    pmu.wrmsr(msr::IA32_FIXED_CTR_CTRL, 0x222)
        .expect("fixed control is writable");
    for i in 0..NUM_FIXED {
        enable |= msr::global_ctrl_fixed_bit(i);
    }
    pmu.wrmsr(msr::IA32_PERF_GLOBAL_CTRL, enable)
        .expect("global control is writable");
    pmu
}

/// Keeps every drained batch so the pipeline probe can replay them.
#[derive(Debug, Default, Clone)]
struct Capture(Arc<Mutex<Vec<Vec<Sample>>>>);

impl SampleSink for Capture {
    fn on_batch(&mut self, samples: &[Sample]) {
        self.0
            .lock()
            .expect("capture lock is never held across a panic")
            .push(samples.to_vec());
    }
}

/// Blocks the memsim and PMU replays buffer at a time: the PMU loop is
/// timed a chunk at a time without keeping a whole run's blocks in memory.
const CHUNK: usize = 4096;

/// Replays blocks into a standalone cache hierarchy and a K-LEB-programmed
/// PMU, timing each layer.
struct BlockReplay {
    hierarchy: Hierarchy,
    pmu: Pmu,
    pending: Vec<WorkBlock>,
    blocks: u64,
    mem_ns: [f64; 3],
    mem_accesses: [u64; 3],
    pmu_ns: f64,
}

impl BlockReplay {
    fn new(input: &SimInput) -> Self {
        Self {
            hierarchy: Hierarchy::new(input.machine.mem),
            pmu: kleb_programmed_pmu(input.events),
            pending: Vec::with_capacity(CHUNK),
            blocks: 0,
            mem_ns: [0.0; 3],
            mem_accesses: [0; 3],
            pmu_ns: 0.0,
        }
    }

    fn push(&mut self, block: WorkBlock) {
        self.pending.push(block);
        if self.pending.len() == CHUNK {
            self.flush();
        }
    }

    fn flush(&mut self) {
        for block in &self.pending {
            for &line in &block.flushes {
                self.hierarchy.clflush(line);
            }
            for pattern in &block.patterns {
                let class = stride_of(pattern) as usize;
                let t = Instant::now();
                for (addr, kind) in pattern.cursor() {
                    black_box(self.hierarchy.access(addr, kind));
                }
                self.mem_ns[class] += ns_since(t);
                self.mem_accesses[class] += pattern.len();
            }
        }
        let t = Instant::now();
        for block in &self.pending {
            self.pmu
                .observe(black_box(&block.extra_events), Privilege::User);
        }
        self.pmu_ns += ns_since(t);
        black_box(self.pmu.snapshot());
        self.blocks += self.pending.len() as u64;
        self.pending.clear();
    }
}

impl Layers {
    /// Times the simulation layers on one operation input; returns the
    /// K-LEB run's drain batches.
    pub fn probe_sim(&mut self, input: &SimInput) -> Result<Vec<Vec<Sample>>, String> {
        // Generation is timed on its own, consuming blocks as the machine
        // does; a second pass replays them into memsim and the PMU.
        let t = Instant::now();
        drain((input.make)().as_mut(), &mut |b| {
            black_box(b);
        });
        let gen_ns = ns_since(t);
        let mut replay = BlockReplay::new(input);
        drain((input.make)().as_mut(), &mut |b| replay.push(b));
        replay.flush();
        let mem_ns: f64 = replay.mem_ns.iter().sum();
        let stats = replay.hierarchy.stats();
        self.mem_l1_misses += stats.l1d_misses;
        self.mem_llc_refs += stats.llc_references;
        self.mem_llc_misses += stats.llc_misses;
        for class in 0..3 {
            self.mem_ns[class] += replay.mem_ns[class];
            self.mem_accesses[class] += replay.mem_accesses[class];
        }

        // The bare and monitored runs are timed from after machine
        // construction, which costs the same in both and no block.
        let mut machine = Machine::new(input.machine);
        let t = Instant::now();
        machine.spawn(input.label, CoreId(0), (input.make)());
        machine.run_to_quiescence();
        let bare_ns = ns_since(t);

        let capture = Capture::default();
        let mut machine = Machine::new(input.machine);
        let t = Instant::now();
        let outcome = Monitor::new(input.events, input.period)
            .tuning(input.tuning)
            .run_with_sink(
                &mut machine,
                input.label,
                (input.make)(),
                Box::new(capture.clone()),
            )
            .map_err(|e| format!("{}: K-LEB probe: {e}", input.label))?;
        let kleb_ns = ns_since(t);
        let batches = std::mem::take(
            &mut *capture
                .0
                .lock()
                .expect("capture lock is never held across a panic"),
        );
        if !batches.iter().flatten().eq(&outcome.samples) {
            return Err(format!(
                "{}: the sink saw other samples than the run",
                input.label
            ));
        }

        self.gen_ns += gen_ns;
        self.blocks += replay.blocks;
        self.pmu_ns += replay.pmu_ns;
        self.pmu_observes += replay.blocks;
        self.ksim_self_ns += bare_ns - gen_ns - mem_ns - replay.pmu_ns;
        self.kleb_samples += outcome.samples.len() as u64;
        self.kleb_batches += batches.len() as u64;
        self.kleb_dropped += outcome.status.samples_dropped;
        self.kleb_extra_ns += kleb_ns - bare_ns;
        Ok(batches)
    }

    /// Pushes drain batches (one stream per inner vector) through the
    /// fleet ingest ring, the fleet store and the ktrace codec, checking
    /// that the codec returns exactly what it was given.
    pub fn probe_pipeline(
        &mut self,
        streams: &[Vec<Vec<Sample>>],
        events: &[HwEvent],
        period: Duration,
    ) -> Result<(), String> {
        let total: u64 = streams.iter().flatten().map(|b| b.len() as u64).sum();
        if total == 0 {
            return Ok(());
        }

        let (mut senders, mut collector) =
            ring_fanin(streams.len(), RING_CAPACITY, Backpressure::Block);
        let mut scratch = Vec::new();
        let t = Instant::now();
        for (sender, batches) in senders.iter_mut().zip(streams) {
            for batch in batches {
                if batch.len() > RING_CAPACITY {
                    return Err(format!("drain batch of {} overflows the ring", batch.len()));
                }
                sender.send(batch);
                let mut received = 0;
                while received < batch.len() {
                    match collector.poll(std::time::Duration::from_secs(1), &mut scratch) {
                        Polled::Batch { .. } => received += scratch.len(),
                        other => return Err(format!("ingest ring returned {other:?}")),
                    }
                }
            }
        }
        drop(senders);
        let end = collector.poll(std::time::Duration::from_secs(1), &mut scratch);
        self.ingest_ns += ns_since(t);
        if !matches!(end, Polled::Disconnected) {
            return Err(format!("ingest ring ended with {end:?}"));
        }
        let stats = collector.stats();
        if stats.total_dropped() != 0 || stats.delivered.iter().sum::<u64>() != total {
            return Err(format!("ingest ring lost samples: {stats:?}"));
        }
        self.ingest_samples += total;
        self.block_waits += stats.block_waits;
        self.depth_hwm = self.depth_hwm.max(stats.depth_high_water as u64);

        let mut store = FleetStore::new(streams.len(), events.to_vec(), SHARD_CAPACITY);
        let t = Instant::now();
        for (machine, batches) in streams.iter().enumerate() {
            for batch in batches {
                black_box(store.ingest(machine, batch));
            }
        }
        self.store_ns += ns_since(t);

        for (i, batches) in streams.iter().enumerate() {
            let meta = StreamMeta {
                label: format!("stream-{i}"),
                seed: i as u64,
                period_ns: period.as_nanos(),
                events: events.to_vec(),
            };
            let codec_err = |e: ktrace::TraceError| format!("ktrace probe: {e}");
            let t = Instant::now();
            let mut writer = TraceWriter::new(Vec::new(), &meta).map_err(codec_err)?;
            for batch in batches {
                writer.append_batch(batch).map_err(codec_err)?;
            }
            writer.finish(&StreamLedger::default()).map_err(codec_err)?;
            let bytes = writer.into_inner();
            self.enc_ns += ns_since(t);
            self.trace_bytes += bytes.len() as u64;

            let t = Instant::now();
            let read = TraceReader::from_bytes(bytes)
                .map_err(codec_err)?
                .read_all();
            self.dec_ns += ns_since(t);
            let written: Vec<Sample> = batches.iter().flatten().copied().collect();
            if !read.report.is_clean() || read.samples != written {
                return Err(format!("ktrace round trip changed stream {i}"));
            }
            self.trace_samples += written.len() as u64;
        }
        Ok(())
    }

    /// Records one Table II trial's machine runs, `ToolSpec::None` first
    /// and then the five tools, in host milliseconds.
    pub fn tool_runs(&mut self, ms: impl Iterator<Item = f64>) {
        for (runs, ms) in self.tool_ms.iter_mut().zip(ms) {
            runs.push(ms);
        }
    }

    /// Records one fleet replay: host milliseconds from loading the
    /// recording through the replay, and the samples it carried.
    pub fn replay(&mut self, ms: f64, samples: u64) {
        self.replay_ns += ms * 1e6;
        self.replay_samples += samples;
    }

    /// Records the live fleet channel's waits and depth, which replace the
    /// probe's own for fleet workloads.
    pub fn live_channel(&mut self, channel: &ChannelStats) {
        let (waits, hwm) = self.live_channel.get_or_insert((0, 0));
        *waits += channel.block_waits;
        *hwm = (*hwm).max(channel.depth_high_water as u64);
    }

    fn mem_ns_per_access(&self, stride: Stride) -> f64 {
        per(
            self.mem_ns[stride as usize],
            self.mem_accesses[stride as usize],
        )
    }

    /// Every per-layer metric, by name.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let accesses: u64 = self.mem_accesses.iter().sum();
        let (waits, hwm) = self
            .live_channel
            .unwrap_or((self.block_waits, self.depth_hwm));
        let mut out = vec![
            ("workloads.gen_ns_per_block", per(self.gen_ns, self.blocks)),
            ("memsim.accesses", accesses as f64),
            (
                "memsim.unit_stride_ns_per_access",
                self.mem_ns_per_access(Stride::Unit),
            ),
            (
                "memsim.large_stride_ns_per_access",
                self.mem_ns_per_access(Stride::Large),
            ),
            (
                "memsim.random_ns_per_access",
                self.mem_ns_per_access(Stride::Random),
            ),
            (
                "memsim.l1_hit_ratio",
                if accesses == 0 {
                    0.0
                } else {
                    1.0 - per(self.mem_l1_misses as f64, accesses)
                },
            ),
            (
                "memsim.llc_miss_ratio",
                per(self.mem_llc_misses as f64, self.mem_llc_refs),
            ),
            ("pmu.observes", self.pmu_observes as f64),
            ("pmu.observe_ns", per(self.pmu_ns, self.pmu_observes)),
            ("ksim.blocks", self.blocks as f64),
            (
                "ksim.self_ns_per_block",
                per(self.ksim_self_ns, self.blocks),
            ),
            ("kleb.samples", self.kleb_samples as f64),
            ("kleb.drain_batches", self.kleb_batches as f64),
            ("kleb.samples_dropped", self.kleb_dropped as f64),
            (
                "kleb.ns_per_sample",
                per(self.kleb_extra_ns, self.kleb_samples),
            ),
        ];
        for (tool, runs) in BASELINE_METRICS.iter().zip(&self.tool_ms) {
            let median = crate::stats::percentile(runs, 50.0).map_or(0.0, |p| p.value);
            out.push((tool, median));
        }
        out.extend([
            (
                "ingest.ns_per_sample",
                per(self.ingest_ns, self.ingest_samples),
            ),
            ("ingest.block_waits", waits as f64),
            ("ingest.depth_hwm", hwm as f64),
            (
                "store.ingest_ns_per_sample",
                per(self.store_ns, self.ingest_samples),
            ),
            (
                "ktrace.encode_ns_per_sample",
                per(self.enc_ns, self.trace_samples),
            ),
            (
                "ktrace.decode_ns_per_sample",
                per(self.dec_ns, self.trace_samples),
            ),
            (
                "ktrace.bytes_per_sample",
                per(self.trace_bytes as f64, self.trace_samples),
            ),
            (
                "fleet.replay_ns_per_sample",
                per(self.replay_ns, self.replay_samples),
            ),
            (
                "bench.trace_overhead_pct",
                (self.traced_ns / self.untraced_ns.max(1.0) - 1.0) * 100.0,
            ),
        ]);
        out
    }

    /// Metrics whose layer did no work on this workload (reported as 0).
    pub fn idle(&self) -> Vec<&'static str> {
        let mut idle = Vec::new();
        for (name, stride) in [
            ("memsim.unit_stride_ns_per_access", Stride::Unit),
            ("memsim.large_stride_ns_per_access", Stride::Large),
            ("memsim.random_ns_per_access", Stride::Random),
        ] {
            if self.mem_accesses[stride as usize] == 0 {
                idle.push(name);
            }
        }
        if self.mem_accesses.iter().sum::<u64>() == 0 {
            idle.extend(["memsim.l1_hit_ratio", "memsim.llc_miss_ratio"]);
        }
        if self.tool_ms[0].is_empty() {
            idle.extend(BASELINE_METRICS);
        }
        if self.replay_samples == 0 {
            idle.push("fleet.replay_ns_per_sample");
        }
        idle
    }
}

/// One metric per [`baselines::ToolSpec`] column of Table II, `None` first.
const BASELINE_METRICS: [&str; 6] = [
    "baselines.none.run_ms",
    "baselines.kleb.run_ms",
    "baselines.perf_stat.run_ms",
    "baselines.perf_record.run_ms",
    "baselines.papi.run_ms",
    "baselines.limit.run_ms",
];
