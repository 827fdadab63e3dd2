//! Derived metrics the paper reports: MPKI, GFLOPS, performance loss.

/// LLC misses per kilo-instruction.
///
/// Returns `0.0` when no instructions retired.
pub fn mpki(llc_misses: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        return 0.0;
    }
    llc_misses as f64 / (instructions as f64 / 1000.0)
}

/// Workload classification after Muralidhara et al. (paper §IV-B): MPKI
/// above 10 is memory-intensive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntensityClass {
    /// MPKI ≤ 10.
    ComputationIntensive,
    /// MPKI > 10.
    MemoryIntensive,
}

impl IntensityClass {
    /// Classifies an MPKI value.
    pub fn from_mpki(mpki: f64) -> Self {
        if mpki > 10.0 {
            IntensityClass::MemoryIntensive
        } else {
            IntensityClass::ComputationIntensive
        }
    }

    /// Short label as used in experiment output.
    pub(crate) fn label(self) -> &'static str {
        match self {
            IntensityClass::ComputationIntensive => "computation-intensive",
            IntensityClass::MemoryIntensive => "memory-intensive",
        }
    }
}

impl std::fmt::Display for IntensityClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Billions of floating-point operations per second.
///
/// Returns `0.0` for a zero-length duration.
pub fn gflops(flops: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    flops as f64 / seconds / 1e9
}

/// Performance loss relative to an unprofiled baseline, in percent
/// (Table I's metric: how much GFLOPS dropped; also works on runtimes
/// inverted by the caller).
pub fn performance_loss_percent(baseline: f64, measured: f64) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    (baseline - measured) / baseline * 100.0
}

/// Monitoring-overhead proxy: attempted samples per second with dropped
/// samples charged extra (`drop_penalty` each — the interrupt fired and
/// the copy happened, then the pipeline shed the result for nothing).
///
/// Lower is cheaper. Returns `0.0` for a zero-length window.
pub fn overhead_proxy(samples: u64, dropped: u64, elapsed_ns: u64, drop_penalty: f64) -> f64 {
    if elapsed_ns == 0 {
        return 0.0;
    }
    let attempted = (samples + dropped) as f64;
    let charged = attempted + dropped as f64 * drop_penalty;
    charged * 1e9 / elapsed_ns as f64
}

/// Effective coverage: delivered samples per second of monitored time.
///
/// Returns `0.0` for a zero-length window.
pub fn sample_coverage(samples: u64, elapsed_ns: u64) -> f64 {
    if elapsed_ns == 0 {
        return 0.0;
    }
    samples as f64 * 1e9 / elapsed_ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpki_math() {
        assert_eq!(mpki(1000, 100_000), 10.0);
        assert_eq!(mpki(5, 1000), 5.0);
        assert_eq!(mpki(10, 0), 0.0);
    }

    #[test]
    fn classification_boundary() {
        assert_eq!(
            IntensityClass::from_mpki(10.0),
            IntensityClass::ComputationIntensive
        );
        assert_eq!(
            IntensityClass::from_mpki(10.01),
            IntensityClass::MemoryIntensive
        );
        assert_eq!(
            IntensityClass::from_mpki(0.3).label(),
            "computation-intensive"
        );
    }

    #[test]
    fn gflops_math() {
        assert!((gflops(37_240_000_000, 1.0) - 37.24).abs() < 1e-9);
        assert_eq!(gflops(1, 0.0), 0.0);
    }

    #[test]
    fn loss_math() {
        assert!((performance_loss_percent(37.24, 37.00) - 0.644).abs() < 0.01);
        assert_eq!(performance_loss_percent(0.0, 1.0), 0.0);
    }
    #[test]
    fn overhead_proxy_charges_drops_and_normalises_per_second() {
        let second = 1_000_000_000;
        assert_eq!(overhead_proxy(1000, 0, second, 4.0), 1000.0);
        // 900 delivered + 100 dropped, each drop charged 4x extra.
        assert_eq!(overhead_proxy(900, 100, second, 4.0), 1400.0);
        // Same work in half the window costs twice the rate.
        assert_eq!(overhead_proxy(1000, 0, second / 2, 4.0), 2000.0);
        assert_eq!(overhead_proxy(1000, 50, 0, 4.0), 0.0);
    }

    #[test]
    fn coverage_is_delivered_rate() {
        let second = 1_000_000_000;
        assert_eq!(sample_coverage(500, second), 500.0);
        assert_eq!(sample_coverage(500, second / 2), 1000.0);
        assert_eq!(sample_coverage(500, 0), 0.0);
    }
}
