//! Experiment scaling: paper-faithful vs. fast configurations.

/// Problem sizes and trial counts for the experiment suite.
///
/// `Scale::paper` matches the paper's setup (n = 5000 LINPACK, 100-run
/// overhead studies) and takes minutes; [`Scale::default_run`] keeps every
/// qualitative property at ~10× less wall time and is what the binaries use
/// unless `--full` is passed; [`Scale::quick`] is for integration tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// LINPACK problem size (paper: 5000).
    pub linpack_n: u64,
    /// LINPACK trials for Table I (paper: 10).
    pub linpack_trials: u64,
    /// Triple-loop matmul size (paper-equivalent: 1280 ≈ 2 s).
    pub matmul_n: u64,
    /// MKL dgemm size (paper-equivalent: 1600 ≈ 90 ms).
    pub dgemm_n: u64,
    /// Overhead-study trials (paper: 100).
    pub overhead_trials: u64,
    /// Docker service blocks per image.
    pub docker_blocks: u64,
    /// Meltdown averaging rounds (paper: 100).
    pub meltdown_rounds: u64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Scale {
    /// The paper's configuration.
    pub(crate) fn paper() -> Self {
        Self {
            linpack_n: 5000,
            linpack_trials: 10,
            matmul_n: 1280,
            dgemm_n: 1600,
            overhead_trials: 100,
            docker_blocks: 6_000,
            meltdown_rounds: 100,
            seed: 42,
        }
    }

    /// Default for the binaries: every phenomenon visible, minutes → seconds.
    pub fn default_run() -> Self {
        Self {
            linpack_n: 2500,
            linpack_trials: 3,
            matmul_n: 640,
            dgemm_n: 1000,
            overhead_trials: 15,
            docker_blocks: 3_000,
            meltdown_rounds: 20,
            seed: 42,
        }
    }

    /// For integration tests.
    pub fn quick() -> Self {
        Self {
            linpack_n: 1200,
            linpack_trials: 2,
            matmul_n: 256,
            dgemm_n: 512,
            overhead_trials: 4,
            docker_blocks: 1_200,
            meltdown_rounds: 4,
            seed: 42,
        }
    }

    /// Parses `--full` / `--quick` (default: `default_run`) and
    /// `--seed N` from CLI args. Every experiment binary shares this
    /// parser so seeds behave identically across the suite.
    ///
    /// # Panics
    ///
    /// Panics if `--seed` is missing its value or the value is not a
    /// `u64` — wrong invocations should fail loudly, not run with a
    /// silently different seed.
    pub fn from_args(args: &[String]) -> Self {
        let mut scale = if args.iter().any(|a| a == "--full") {
            Self::paper()
        } else if args.iter().any(|a| a == "--quick") {
            Self::quick()
        } else {
            Self::default_run()
        };
        if let Some(at) = args.iter().position(|a| a == "--seed") {
            let value = args.get(at + 1).expect("--seed requires a value");
            scale.seed = value
                .parse()
                .unwrap_or_else(|_| panic!("--seed expects a u64, got {value:?}"));
        }
        scale
    }

    /// One-line seed announcement for experiment output headers, so any
    /// run can be reproduced with `--seed`.
    pub fn seed_line(&self) -> String {
        format!("rng seed: {} (override with --seed N)", self.seed)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::default_run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let full = Scale::from_args(&["--full".to_string()]);
        assert_eq!(full, Scale::paper());
        let quick = Scale::from_args(&["--quick".to_string()]);
        assert_eq!(quick, Scale::quick());
        assert_eq!(Scale::from_args(&[]), Scale::default_run());
    }

    #[test]
    fn seed_override_composes_with_scale_flags() {
        let args: Vec<String> = ["--quick", "--seed", "1234"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let s = Scale::from_args(&args);
        assert_eq!(s.seed, 1234);
        assert_eq!(s.linpack_n, Scale::quick().linpack_n);
        assert!(s.seed_line().contains("1234"));
    }

    #[test]
    #[should_panic(expected = "--seed expects a u64")]
    fn bad_seed_fails_loudly() {
        Scale::from_args(&["--seed".to_string(), "banana".to_string()]);
    }

    #[test]
    fn paper_sizes_match_the_paper() {
        let p = Scale::paper();
        assert_eq!(p.linpack_n, 5000);
        assert_eq!(p.linpack_trials, 10);
        assert_eq!(p.overhead_trials, 100);
        assert_eq!(p.meltdown_rounds, 100);
    }
}
