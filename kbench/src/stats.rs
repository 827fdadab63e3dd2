//! Order statistics and the simulated-statistics digest.

/// A percentile reported with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank value.
    pub value: f64,
    /// Samples the percentile was taken from.
    pub n: usize,
}

/// Fewest samples that must lie above a reported tail percentile (any
/// `p` above the median); with fewer, one outlier decides the value.
pub const MIN_BEYOND: usize = 10;

/// Samples needed before percentile `p` can be reported.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| p <= 50.0 || n - nearest_rank(n, p) >= MIN_BEYOND)
        .expect("some sample count always suffices for p < 100")
}

fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `p`-th percentile of `values`.
///
/// Refuses (with the reason) a tail percentile with fewer than
/// [`MIN_BEYOND`] samples above its rank, an empty sample, and `p` outside
/// `(0, 100)`. The median needs only one sample.
pub fn percentile(values: &[f64], p: f64) -> Result<Percentile, String> {
    if !(p > 0.0 && p < 100.0) {
        return Err(format!("percentile {p} is outside (0, 100)"));
    }
    let n = values.len();
    if n == 0 {
        return Err(format!("p{p} of no samples"));
    }
    let rank = nearest_rank(n, p);
    if p > 50.0 && n - rank < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {} beyond it, needs {MIN_BEYOND}",
            n - rank
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank - 1],
        n,
    })
}

/// FNV-1a over 64-bit words: the digest of everything a workload
/// simulated. Host timings never enter it.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in one word.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// SplitMix64 finaliser: derives independent seeds from `(seed, salt)`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&v, 90.0).unwrap();
        assert_eq!(
            p90,
            Percentile {
                value: 90.0,
                n: 100
            }
        );
        let p50 = percentile(&v, 50.0).unwrap();
        assert_eq!(
            p50,
            Percentile {
                value: 50.0,
                n: 100
            }
        );
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        let err = percentile(&v, 90.0).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        assert!(percentile(&v[..19], 95.0).is_err());
        assert_eq!(percentile(&v[..3], 50.0).unwrap().n, 3);
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&v, 100.0).is_err());
    }

    #[test]
    fn samples_needed_matches_the_refusal_rule() {
        for p in [50.0, 75.0, 90.0, 99.0] {
            let n = samples_needed(p);
            let v = vec![1.0; n];
            assert!(percentile(&v, p).is_ok());
            assert!(percentile(&v[..n - 1], p).is_err());
        }
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(50.0), 1);
    }

    #[test]
    fn digest_and_mix_are_order_sensitive() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.value(), b.value());
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
