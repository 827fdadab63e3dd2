//! Adapter running K-LEB through the same [`ToolRun`] interface as the
//! baselines, so the overhead/accuracy harnesses treat all five tools
//! uniformly.

use pmu::HwEvent;

use kleb::{KlebTuning, Monitor, MonitorError};
use ksim::{Duration, Machine, Workload};

use crate::common::{ToolRun, ToolSample};
use crate::ToolError;

/// Runs `workload` under K-LEB at `period` with `tuning`.
///
/// # Errors
///
/// [`ToolError`] if the simulation stalls or module setup fails.
pub(crate) fn run_kleb(
    machine: &mut Machine,
    name: &str,
    workload: Box<dyn Workload>,
    events: &[HwEvent],
    period: Duration,
    tuning: KlebTuning,
) -> Result<ToolRun, ToolError> {
    let outcome = Monitor::new(events, period)
        .tuning(tuning)
        .run(machine, name, workload)
        .map_err(|e| match e {
            MonitorError::Sim(s) => ToolError::Sim(s),
            MonitorError::Controller(msg) => ToolError::Tool(msg),
            // MonitorError is #[non_exhaustive]; surface anything newer
            // than this adapter as a tool-side error.
            other => ToolError::Tool(other.to_string()),
        })?;
    let n = events.len();
    let mut totals = vec![0u64; n];
    let mut fixed = [0u64; 3];
    let samples: Vec<ToolSample> = outcome
        .samples
        .iter()
        .map(|s| {
            for (t, v) in totals.iter_mut().zip(&s.pmc[..n]) {
                *t += v;
            }
            for (f, v) in fixed.iter_mut().zip(&s.fixed) {
                *f += v;
            }
            ToolSample {
                timestamp_ns: s.timestamp_ns,
                values: s.pmc[..n].to_vec(),
                instructions: s.fixed[0],
            }
        })
        .collect();
    Ok(ToolRun {
        tool: "K-LEB",
        target: outcome.target,
        event_totals: events.iter().copied().zip(totals).collect(),
        fixed_totals: fixed,
        samples,
        requested_period: period,
        effective_period: period,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::MachineConfig;
    use workloads::Synthetic;

    #[test]
    fn kleb_totals_are_exact() {
        let mut machine = Machine::new(MachineConfig::test_tiny(3));
        let run = run_kleb(
            &mut machine,
            "t",
            Box::new(Synthetic::cpu_bound(Duration::from_millis(30))),
            &[HwEvent::Load, HwEvent::BranchRetired],
            Duration::from_millis(1),
            KlebTuning::microarchitectural(),
        )
        .unwrap();
        // Per-period deltas + the exit flush sum exactly to the truth.
        assert_eq!(
            run.fixed_totals[0],
            run.target
                .true_user_events
                .get(pmu::HwEvent::InstructionsRetired)
        );
        assert_eq!(
            run.total(HwEvent::BranchRetired),
            Some(run.target.true_user_events.get(HwEvent::BranchRetired))
        );
        assert!(!run.samples.is_empty());
    }
}
