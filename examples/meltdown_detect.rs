//! Detect a Meltdown attack from 100 us counter samples (paper §IV-C).
//!
//! The benign program and the attacked program print the same secret, but
//! the attack's Flush+Reload loop hammers the LLC. At K-LEB's 100 us
//! granularity the per-sample MPKI separates them cleanly — a 10 ms tool
//! would see a single aggregate sample for the whole benign run.
//!
//! Run with: `cargo run --release --example meltdown_detect`

use kleb::{KlebTuning, Monitor};
use ksim::{Duration, Machine, MachineConfig, Pid, Workload};
use pmu::HwEvent;
use workloads::{MeltdownAttack, SecretPrinter, SECRET};

const MPKI_ALARM: f64 = 15.0;

/// Monitors `workload` on `machine`; returns its pid, the sample count,
/// the samples over the alarm line and the overall MPKI.
fn profile(
    machine: &mut Machine,
    name: &str,
    workload: Box<dyn Workload>,
) -> (Pid, usize, usize, f64) {
    let outcome = Monitor::new(
        &[HwEvent::LlcReference, HwEvent::LlcMiss],
        Duration::from_micros(100),
    )
    .tuning(KlebTuning::microarchitectural())
    .run(machine, name, workload)
    .expect("monitored run");
    let mut alarms = 0;
    for s in &outcome.samples {
        let sample_mpki = s.pmc[1] as f64 / (s.fixed[0].max(1) as f64 / 1000.0);
        if sample_mpki > MPKI_ALARM {
            alarms += 1;
        }
    }
    let misses: u64 = outcome.samples.iter().map(|s| s.pmc[1]).sum();
    let instr: u64 = outcome.samples.iter().map(|s| s.fixed[0]).sum();
    (
        outcome.target.pid,
        outcome.samples.len(),
        alarms,
        misses as f64 / (instr as f64 / 1000.0),
    )
}

fn main() {
    let mut machine = Machine::new(MachineConfig::i7_920(11));
    let (_, n, alarms, rate) = profile(&mut machine, "victim", Box::new(SecretPrinter::paper(1)));
    println!("benign run:   {n} samples, {alarms} over the MPKI-{MPKI_ALARM} alarm line, overall MPKI {rate:.1}");

    let mut machine = Machine::new(MachineConfig::i7_920(11));
    let (pid, n, alarms, rate) =
        profile(&mut machine, "meltdown", Box::new(MeltdownAttack::paper(2)));
    println!("attacked run: {n} samples, {alarms} over the MPKI-{MPKI_ALARM} alarm line, overall MPKI {rate:.1}");

    let attack: MeltdownAttack = machine.reap(pid).expect("the attack exited");
    let recovered = attack.recovered();
    println!(
        "attack recovered the secret from cache timing: {:?} (truth {:?})",
        String::from_utf8_lossy(recovered),
        String::from_utf8_lossy(SECRET)
    );
    assert_eq!(recovered, SECRET, "the simulated side channel works");
}
