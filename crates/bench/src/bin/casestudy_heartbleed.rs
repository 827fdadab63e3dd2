//! Data-only exploit detection case study (paper reference \[26\], Torres &
//! Liu): a Heartbleed over-read changes no control flow, only the data
//! footprint — visible per-sample in K-LEB's high-frequency series.

use analysis::{EwmaDetector, TextTable};
use kleb::{KlebTuning, Monitor};
use kleb_bench::Scale;
use ksim::{Duration, Machine, MachineConfig, Workload};
use pmu::HwEvent;
use workloads::HeartbleedServer;

fn series(server: Box<dyn Workload>, seed: u64) -> Vec<f64> {
    let mut m = Machine::new(MachineConfig::i7_920(seed));
    let outcome = Monitor::new(
        &[HwEvent::Load, HwEvent::LlcMiss],
        Duration::from_micros(100),
    )
    .tuning(KlebTuning::microarchitectural())
    .run(&mut m, "tls", server)
    .expect("monitored server");
    outcome.samples.iter().map(|s| s.pmc[1] as f64).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args);
    println!("{}", scale.seed_line());
    let requests = scale.docker_blocks.max(600);
    println!("Case study - Heartbleed-style data-only exploit via K-LEB @ 100 us");
    println!(
        "Control flow is identical with and without the exploit; the LLC_MISS series is not\n"
    );

    let benign = series(Box::new(HeartbleedServer::benign(requests, 1)), 1);
    let exploited = series(Box::new(HeartbleedServer::exploited(requests, 2)), 2);

    let mut detector = EwmaDetector::new(0.15, 5.0, 6);
    for &v in &benign {
        detector.update(v);
    }
    let benign_hits = detector
        .clone()
        .scan(series(Box::new(HeartbleedServer::benign(requests, 3)), 3));
    let exploit_hits = detector.scan(exploited.iter().copied());

    let mut t = TextTable::new(&["Run", "Samples", "Detector alarms"]);
    t.row_owned(vec![
        "benign".into(),
        benign.len().to_string(),
        benign_hits.len().to_string(),
    ]);
    t.row_owned(vec![
        "exploited".into(),
        exploited.len().to_string(),
        exploit_hits.len().to_string(),
    ]);
    println!("{t}");
    let expected = requests / 8;
    println!(
        "exploit requests issued: {expected}; alarmed samples: {}",
        exploit_hits.len()
    );
}
