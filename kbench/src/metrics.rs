//! Every metric the benchmark prints: name, unit, direction, regression
//! bound, and — for per-layer metrics — which end-to-end metric it should
//! move on which workload. `BENCHMARK.json` at the repository root lists
//! the same names, units, directions and bounds; a test keeps them equal.

/// One printed metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Printed name.
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Per-layer metrics: the end-to-end metric it should move, and on
    /// which workload. Empty for end-to-end metrics, which every workload
    /// reports.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
        moves,
    }
}

/// Printed by untraced runs (`--trace 0`), measured with tracing off.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("sim_minstr_per_s", "Minstr/s", true, 0.25),
    e2e("run_ms_p50", "ms", false, 0.25),
    e2e("run_ms_p90", "ms", false, 0.25),
    e2e("record_samples_per_s", "1/s", true, 0.25),
    e2e("peak_heap_mb", "MB", false, 0.05),
];

const SIM_MATMUL: &str = "sim_minstr_per_s on paper_regen (its Table II runs)";
const SIM_ALL: &str = "sim_minstr_per_s on every workload";
const P90_MATMUL: &str = "run_ms_p90 on paper_regen";
const RECORD: &str = "record_samples_per_s on fleet_hf";
const REPLAY: &str = "run_ms_p50 on fleet_hf (the replay part)";

/// Printed by traced runs (`--trace 1`), from calls into each layer.
pub const PER_LAYER: [Metric; 30] = [
    layer("workloads.gen_ns_per_block", "ns", false, SIM_MATMUL),
    layer("memsim.accesses", "count", false, SIM_ALL),
    layer("memsim.unit_stride_ns_per_access", "ns", false, SIM_MATMUL),
    layer("memsim.large_stride_ns_per_access", "ns", false, SIM_MATMUL),
    layer(
        "memsim.random_ns_per_access",
        "ns",
        false,
        "sim_minstr_per_s on paper_regen (its Fig. 5 containers)",
    ),
    layer("memsim.l1_hit_ratio", "ratio", true, SIM_ALL),
    layer("memsim.llc_miss_ratio", "ratio", false, SIM_ALL),
    layer("pmu.observes", "count", false, SIM_ALL),
    layer(
        "pmu.observe_ns",
        "ns",
        false,
        "sim_minstr_per_s on fleet_hf",
    ),
    layer("ksim.blocks", "count", false, SIM_ALL),
    layer("ksim.self_ns_per_block", "ns", false, SIM_ALL),
    layer("kleb.samples", "count", true, RECORD),
    layer("kleb.drain_batches", "count", false, RECORD),
    layer("kleb.samples_dropped", "count", false, RECORD),
    layer("kleb.ns_per_sample", "ns", false, RECORD),
    layer("baselines.none.run_ms", "ms", false, P90_MATMUL),
    layer("baselines.kleb.run_ms", "ms", false, P90_MATMUL),
    layer("baselines.perf_stat.run_ms", "ms", false, P90_MATMUL),
    layer("baselines.perf_record.run_ms", "ms", false, P90_MATMUL),
    layer("baselines.papi.run_ms", "ms", false, P90_MATMUL),
    layer("baselines.limit.run_ms", "ms", false, P90_MATMUL),
    layer(
        "ingest.ns_per_sample",
        "ns",
        false,
        "record_samples_per_s and run_ms_p50 on fleet_hf",
    ),
    layer("ingest.block_waits", "count", false, RECORD),
    layer("ingest.depth_hwm", "count", false, RECORD),
    layer("store.ingest_ns_per_sample", "ns", false, REPLAY),
    layer("ktrace.encode_ns_per_sample", "ns", false, RECORD),
    layer("ktrace.decode_ns_per_sample", "ns", false, REPLAY),
    layer("ktrace.bytes_per_sample", "B", false, RECORD),
    layer("fleet.replay_ns_per_sample", "ns", false, REPLAY),
    layer("bench.trace_overhead_pct", "%", false, "none: tracing cost"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn benchmark_json() -> jsonlite::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bytes = std::fs::read(path).expect("BENCHMARK.json sits at the repository root");
        jsonlite::parse(&bytes).expect("BENCHMARK.json is valid JSON")
    }

    fn str_field<'a>(v: &'a jsonlite::Value, key: &str) -> &'a str {
        match v.get(key) {
            Some(jsonlite::Value::Str(s)) => s,
            other => panic!("{key}: expected a string, got {other:?}"),
        }
    }

    fn num_field(v: &jsonlite::Value, key: &str) -> f64 {
        match v.get(key) {
            Some(jsonlite::Value::F64(n)) => *n,
            Some(jsonlite::Value::U64(n)) => *n as f64,
            other => panic!("{key}: expected a number, got {other:?}"),
        }
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_printed_name_is_valid_and_listed_in_benchmark_json() {
        let json = benchmark_json();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = json.get(key).and_then(|v| v.as_arr()).expect(key);
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, metric) in listed.iter().zip(table) {
                assert!(valid_name(metric.name), "{}", metric.name);
                assert_eq!(str_field(entry, "name"), metric.name);
                assert_eq!(str_field(entry, "unit"), metric.unit, "{}", metric.name);
                let better = if metric.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(str_field(entry, "better"), better, "{}", metric.name);
                match metric.bound {
                    Some(bound) => assert_eq!(num_field(entry, "bound"), bound),
                    None => assert!(entry.get("bound").is_none(), "{}", metric.name),
                }
            }
        }
        let names: BTreeSet<_> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let json = benchmark_json();
        let listed: Vec<&str> = json
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| str_field(w, "name"))
            .collect();
        assert_eq!(listed, crate::cases::NAMES);
        assert!(listed.iter().all(|n| valid_name(n)));
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END[0];
        assert_eq!((setup.name, setup.unit), ("setup_s", "s"));
        assert!(!setup.higher_is_better);
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= setup.bound.unwrap() && bound <= 0.25);
        }
    }
}
