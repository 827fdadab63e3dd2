//! Sharded, append-only time-series store for fleet sample streams.
//!
//! Layout mirrors how queries read: one ring shard per
//! **machine × counter lane** (three fixed counters plus one lane per
//! programmed event), each a fixed-capacity ring of
//! `(timestamp, delta)` points. Appends are O(1); when a shard fills,
//! the oldest point is evicted and counted — the store bounds memory the
//! way K-LEB's kernel ring bounds its buffer, but visibly.
//!
//! Windowed aggregation is incremental, not a scan: each shard keeps a
//! prefix-sum array parallel to its ring (maintained O(1) per append,
//! eviction included) and exploits per-shard timestamp monotonicity to
//! binary-search window bounds, so `window_sum` and `window_mpki` are
//! O(log n) in the shard size.
//!
//! Invariants (property-tested in `tests/store_props.rs`):
//! - below capacity, every accepted sample is retained in full;
//! - per-shard timestamps are non-decreasing — out-of-order samples are
//!   rejected whole, never partially applied;
//! - `appended + rejected` equals samples offered.

use pmu::HwEvent;

/// One counter lane of a machine's sample stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// A fixed counter: 0 = instructions, 1 = core cycles,
    /// 2 = reference cycles.
    Fixed(usize),
    /// A programmable counter, indexed in configured-event order.
    Pmc(usize),
}

impl Lane {
    /// The instructions-retired lane (fixed counter 0).
    pub const INSTRUCTIONS: Lane = Lane::Fixed(0);
}

/// One stored point: a per-period counter delta at its sample time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// Sample timestamp, nanoseconds of simulated time.
    pub timestamp_ns: u64,
    /// Counter delta over the sampling period.
    pub delta: u64,
}

/// A half-open query window `[start_ns, end_ns)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Inclusive start, nanoseconds.
    pub start_ns: u64,
    /// Exclusive end, nanoseconds.
    pub end_ns: u64,
}

impl Window {
    /// The window covering all of time.
    pub fn all() -> Self {
        Self {
            start_ns: 0,
            end_ns: u64::MAX,
        }
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Shard {
    // Ring as (start, Vec) would complicate equality; a VecDeque keeps
    // append O(1) and iteration in time order.
    ring: std::collections::VecDeque<Point>,
    /// Prefix sums, parallel to `ring`: `cum[i]` is the wrapping sum of
    /// every delta ever appended to this shard up to and including
    /// `ring[i]` — eviction pops the front of both without touching the
    /// survivors, keeping appends O(1). Any window sum is then one
    /// subtraction: `prefix(hi) - prefix(lo)`.
    cum: std::collections::VecDeque<u64>,
    /// The prefix sum just before `ring[0]`: the wrapping sum of every
    /// evicted delta.
    cum_base: u64,
    evicted: u64,
}

impl Shard {
    /// The half-open index range of points inside `window`.
    ///
    /// Per-shard timestamps are non-decreasing (out-of-order samples are
    /// rejected whole at ingest), so both bounds are binary searches:
    /// O(log n) where the old linear filter was O(n).
    fn bounds(&self, window: Window) -> (usize, usize) {
        let lo = self
            .ring
            .partition_point(|p| p.timestamp_ns < window.start_ns);
        let hi = self
            .ring
            .partition_point(|p| p.timestamp_ns < window.end_ns);
        (lo, hi)
    }

    /// Wrapping sum of every delta ever appended before index `i`.
    fn prefix(&self, i: usize) -> u64 {
        if i == 0 {
            self.cum_base
        } else {
            self.cum[i - 1]
        }
    }

    /// Sum of `ring[lo..hi]` deltas, O(1) from the prefix array.
    fn range_sum(&self, lo: usize, hi: usize) -> u64 {
        self.prefix(hi).wrapping_sub(self.prefix(lo))
    }
}

/// Per-store counter totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Samples accepted (each fans out to every lane shard).
    pub appended: u64,
    /// Samples rejected for violating timestamp monotonicity.
    pub rejected: u64,
    /// Points evicted from full shards (across all shards).
    pub evicted_points: u64,
}

/// All shards of one machine, extractable for bit-exact comparison.
pub type MachineSnapshot = Vec<Vec<Point>>;

/// The fleet-wide sample store.
#[derive(Debug, Clone)]
pub struct FleetStore {
    machines: usize,
    events: Vec<HwEvent>,
    shard_capacity: usize,
    shards: Vec<Shard>,
    last_ts: Vec<Option<u64>>,
    stats: StoreStats,
}

impl FleetStore {
    /// A store for `machines` streams whose samples carry `events` on the
    /// programmable counters, each shard bounded to `shard_capacity`
    /// points.
    ///
    /// # Panics
    ///
    /// Panics if `machines == 0` or `shard_capacity == 0`.
    pub fn new(machines: usize, events: Vec<HwEvent>, shard_capacity: usize) -> Self {
        assert!(machines > 0, "need at least one machine");
        assert!(shard_capacity > 0, "shards must hold at least one point");
        let lanes = 3 + events.len();
        Self {
            machines,
            events,
            shard_capacity,
            shards: vec![Shard::default(); machines * lanes],
            last_ts: vec![None; machines],
            stats: StoreStats::default(),
        }
    }

    /// Number of machine streams.
    pub(crate) fn machines(&self) -> usize {
        self.machines
    }

    /// The `Lane::Pmc` lane for `event`, if it was configured.
    pub(crate) fn lane_of(&self, event: HwEvent) -> Option<Lane> {
        self.events.iter().position(|&e| e == event).map(Lane::Pmc)
    }

    fn lanes(&self) -> usize {
        3 + self.events.len()
    }

    fn lane_index(&self, lane: Lane) -> usize {
        match lane {
            Lane::Fixed(i) => {
                assert!(i < 3, "fixed lanes are 0..3");
                i
            }
            Lane::Pmc(i) => {
                assert!(i < self.events.len(), "pmc lane {i} not configured");
                3 + i
            }
        }
    }

    fn shard_index(&self, machine: usize, lane: Lane) -> usize {
        assert!(machine < self.machines, "machine {machine} out of range");
        machine * self.lanes() + self.lane_index(lane)
    }

    /// Appends a batch of samples from `machine`.
    ///
    /// Each sample is accepted atomically across lanes; a sample whose
    /// timestamp precedes the machine's last accepted one is rejected
    /// whole. Returns `(accepted, rejected)` counts.
    pub fn ingest(&mut self, machine: usize, samples: &[kleb::Sample]) -> (u64, u64) {
        let mut accepted = 0;
        let mut rejected = 0;
        for s in samples {
            if self.last_ts[machine].is_some_and(|last| s.timestamp_ns < last) {
                rejected += 1;
                continue;
            }
            self.last_ts[machine] = Some(s.timestamp_ns);
            for f in 0..3 {
                self.push(machine, Lane::Fixed(f), s.timestamp_ns, s.fixed[f]);
            }
            for e in 0..self.events.len() {
                self.push(machine, Lane::Pmc(e), s.timestamp_ns, s.pmc[e]);
            }
            accepted += 1;
        }
        self.stats.appended += accepted;
        self.stats.rejected += rejected;
        (accepted, rejected)
    }

    fn push(&mut self, machine: usize, lane: Lane, timestamp_ns: u64, delta: u64) {
        let cap = self.shard_capacity;
        let idx = self.shard_index(machine, lane);
        let shard = &mut self.shards[idx];
        if shard.ring.len() == cap {
            shard.ring.pop_front();
            // The evicted point's cumulative becomes the new base, so
            // surviving prefix sums keep their absolute values.
            if let Some(front) = shard.cum.pop_front() {
                shard.cum_base = front;
            }
            shard.evicted += 1;
            self.stats.evicted_points += 1;
        }
        let last = shard.cum.back().copied().unwrap_or(shard.cum_base);
        shard.cum.push_back(last.wrapping_add(delta));
        shard.ring.push_back(Point {
            timestamp_ns,
            delta,
        });
    }

    /// The retained points of one shard, oldest first.
    pub fn points(&self, machine: usize, lane: Lane) -> impl Iterator<Item = &Point> {
        self.shards[self.shard_index(machine, lane)].ring.iter()
    }

    /// Points evicted from one shard since creation.
    pub fn evicted(&self, machine: usize, lane: Lane) -> u64 {
        self.shards[self.shard_index(machine, lane)].evicted
    }

    /// Store-wide counter totals.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Sum of deltas in a window of one shard: two binary searches and
    /// one subtraction of prefix sums — O(log n), never a scan.
    pub fn window_sum(&self, machine: usize, lane: Lane, window: Window) -> u64 {
        let shard = &self.shards[self.shard_index(machine, lane)];
        let (lo, hi) = shard.bounds(window);
        shard.range_sum(lo, hi)
    }

    /// Misses-per-kilo-instruction over a window: `miss_lane` summed
    /// against the instructions lane.
    pub(crate) fn window_mpki(&self, machine: usize, miss_lane: Lane, window: Window) -> f64 {
        let misses = self.window_sum(machine, miss_lane, window);
        let instructions = self.window_sum(machine, Lane::INSTRUCTIONS, window);
        analysis::mpki(misses, instructions)
    }

    /// Retained points in one shard.
    pub(crate) fn lane_len(&self, machine: usize, lane: Lane) -> usize {
        self.shards[self.shard_index(machine, lane)].ring.len()
    }

    /// Per-sample MPKI stream for one machine, sample order — the
    /// fan-in detector's input. Pairs `miss_lane` with the instructions
    /// lane point-by-point (both lanes retain the same timestamps).
    /// Lazy: feeds a detector scan without materializing the series.
    pub(crate) fn mpki_iter(
        &self,
        machine: usize,
        miss_lane: Lane,
    ) -> impl Iterator<Item = f64> + '_ {
        self.points(machine, miss_lane)
            .zip(self.points(machine, Lane::INSTRUCTIONS))
            .map(|(miss, instr)| analysis::mpki(miss.delta, instr.delta))
    }

    /// Every retained point of one machine, lane-major — bit-exact
    /// equality of two snapshots proves bit-exact streams.
    pub fn machine_snapshot(&self, machine: usize) -> MachineSnapshot {
        let mut lanes: Vec<Lane> = (0..3).map(Lane::Fixed).collect();
        lanes.extend((0..self.events.len()).map(Lane::Pmc));
        lanes
            .into_iter()
            .map(|lane| self.points(machine, lane).copied().collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kleb::Sample;

    fn sample(t: u64, instr: u64, miss: u64) -> Sample {
        Sample {
            timestamp_ns: t,
            pid: 1,
            fixed: [instr, instr * 2, instr * 3],
            pmc: [0, miss, 0, 0],
            ..Sample::default()
        }
    }

    fn store() -> FleetStore {
        FleetStore::new(2, vec![HwEvent::LlcReference, HwEvent::LlcMiss], 8)
    }

    #[test]
    fn ingest_fans_out_to_every_lane() {
        let mut s = store();
        s.ingest(0, &[sample(100, 10, 3), sample(200, 20, 5)]);
        assert_eq!(
            s.points(0, Lane::INSTRUCTIONS)
                .map(|p| p.delta)
                .sum::<u64>(),
            30
        );
        assert_eq!(s.window_sum(0, Lane::Pmc(1), Window::all()), 8);
        assert_eq!(s.window_sum(1, Lane::Pmc(1), Window::all()), 0);
    }

    #[test]
    fn out_of_order_samples_are_rejected_whole() {
        let mut s = store();
        let (a, r) = s.ingest(
            0,
            &[sample(500, 1, 1), sample(400, 9, 9), sample(500, 2, 2)],
        );
        assert_eq!((a, r), (2, 1));
        // The rejected sample left no trace on any lane.
        assert_eq!(s.window_sum(0, Lane::INSTRUCTIONS, Window::all()), 3);
        let ts: Vec<u64> = s.points(0, Lane::Pmc(0)).map(|p| p.timestamp_ns).collect();
        assert_eq!(ts, vec![500, 500], "equal timestamps are allowed");
    }

    #[test]
    fn full_shards_evict_oldest_and_count() {
        let mut s = FleetStore::new(1, vec![], 4);
        let batch: Vec<Sample> = (0..10).map(|i| sample(i * 100, i, 0)).collect();
        s.ingest(0, &batch);
        assert_eq!(s.points(0, Lane::INSTRUCTIONS).count(), 4);
        assert_eq!(s.evicted(0, Lane::INSTRUCTIONS), 6);
        let first = s.points(0, Lane::INSTRUCTIONS).next().unwrap();
        assert_eq!(first.timestamp_ns, 600, "oldest went first");
        assert_eq!(s.stats().evicted_points, 6 * 3);
    }

    #[test]
    fn window_queries_respect_bounds() {
        let mut s = store();
        s.ingest(
            0,
            &[sample(100, 10, 1), sample(200, 10, 2), sample(300, 10, 4)],
        );
        let w = Window {
            start_ns: 100,
            end_ns: 300,
        };
        assert_eq!(s.window_sum(0, Lane::Pmc(1), w), 3, "end is exclusive");
        assert_eq!(s.window_mpki(0, Lane::Pmc(1), w), 3.0 / (20.0 / 1000.0));
        assert_eq!(s.window_sum(0, Lane::Pmc(1), Window::all()), 7);
    }

    #[test]
    fn snapshots_capture_machine_state_exactly() {
        let mut a = store();
        let mut b = store();
        let batch = [sample(100, 7, 2), sample(250, 8, 3)];
        a.ingest(0, &batch);
        b.ingest(0, &batch);
        assert_eq!(a.machine_snapshot(0), b.machine_snapshot(0));
        b.ingest(0, &[sample(900, 1, 1)]);
        assert_ne!(a.machine_snapshot(0), b.machine_snapshot(0));
        assert_eq!(
            a.machine_snapshot(1),
            b.machine_snapshot(1),
            "other machine untouched"
        );
    }

    #[test]
    fn window_sums_survive_eviction() {
        // Prefix sums must stay correct as the ring laps its capacity.
        let mut s = FleetStore::new(1, vec![], 4);
        for i in 0..12u64 {
            s.ingest(0, &[sample(i * 100, i + 1, 0)]);
            // Every window agrees with a naive filter at every step.
            for (start, end) in [(0, u64::MAX), (300, 900), (i * 100, u64::MAX), (500, 500)] {
                let w = Window {
                    start_ns: start,
                    end_ns: end,
                };
                let naive: u64 = s
                    .points(0, Lane::INSTRUCTIONS)
                    .filter(|p| (w.start_ns..w.end_ns).contains(&p.timestamp_ns))
                    .map(|p| p.delta)
                    .sum();
                assert_eq!(
                    s.window_sum(0, Lane::INSTRUCTIONS, w),
                    naive,
                    "i={i} w={w:?}"
                );
            }
        }
        assert_eq!(s.evicted(0, Lane::INSTRUCTIONS), 8);
    }

    #[test]
    fn lane_len_counts_retained_points() {
        let mut s = FleetStore::new(1, vec![], 4);
        assert_eq!(s.lane_len(0, Lane::INSTRUCTIONS), 0);
        let batch: Vec<Sample> = (0..6).map(|i| sample(i * 100, 1, 0)).collect();
        s.ingest(0, &batch);
        assert_eq!(s.lane_len(0, Lane::INSTRUCTIONS), 4, "capped at capacity");
    }

    #[test]
    fn mpki_iter_pairs_lanes() {
        let mut s = store();
        s.ingest(0, &[sample(100, 1000, 5), sample(200, 2000, 4)]);
        let series: Vec<f64> = s.mpki_iter(0, Lane::Pmc(1)).collect();
        assert_eq!(series, vec![5.0, 2.0]);
    }
}
