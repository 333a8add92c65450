//! The benchmark's own statistics: medians and means, failure shares,
//! reduction percentages and tracing overhead.

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `xs`; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Largest of `xs`; `0.0` for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// How the optimize calls of a run ended, for the failure share.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Calls started.
    pub attempted: u64,
    /// Calls whose output failed a correctness check.
    pub failed: u64,
}

impl Outcomes {
    /// Failed share of attempted, in percent (`0.0` when nothing ran).
    pub fn failed_pct(&self) -> f64 {
        100.0 * ratio(self.failed as f64, self.attempted as f64)
    }
}

/// `100 · (Σ before − Σ after) / Σ before` over `(before, after)` pairs:
/// a ratio of sums, so large circuits weigh by their size rather than
/// each circuit counting once.
pub fn reduction_pct(pairs: &[(f64, f64)]) -> f64 {
    let before: f64 = pairs.iter().map(|p| p.0).sum();
    let after: f64 = pairs.iter().map(|p| p.1).sum();
    if before == 0.0 {
        0.0
    } else {
        100.0 * (before - after) / before
    }
}

/// Extra wall time of the traced run over the untraced one, in percent
/// of the untraced time.
pub fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    if untraced_s <= 0.0 {
        0.0
    } else {
        100.0 * (traced_s - untraced_s) / untraced_s
    }
}

/// `num / den`, or `0.0` when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A deterministic 64-bit mixer (SplitMix64), used to derive the serve
/// probe's tenants and the per-repetition optimizer seeds from the
/// workload seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mean_of_values_and_of_nothing() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn failure_share_is_failed_over_attempted() {
        let o = Outcomes {
            attempted: 200,
            failed: 10,
        };
        assert_eq!(o.failed_pct(), 5.0);
        assert_eq!(Outcomes::default().failed_pct(), 0.0);
    }

    #[test]
    fn reduction_is_ratio_of_sums_not_mean_of_ratios() {
        // 50 % on a small circuit, 10 % on a large one: the mean of the
        // percentages would be 30 %, the ratio of sums is 100/900.
        let pairs = [(100.0, 50.0), (800.0, 720.0)];
        let r = reduction_pct(&pairs);
        assert!((r - 100.0 * 130.0 / 900.0).abs() < 1e-12, "{r}");
        assert_eq!(reduction_pct(&[]), 0.0);
    }

    #[test]
    fn tracing_overhead_is_relative_to_untraced() {
        assert!((overhead_pct(10.5, 10.0) - 5.0).abs() < 1e-12);
        assert!(overhead_pct(9.0, 10.0) < 0.0);
        assert_eq!(overhead_pct(1.0, 0.0), 0.0);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let (mut a, mut b) = (7u64, 7u64);
        let xs: Vec<u64> = (0..4).map(|_| splitmix64(&mut a)).collect();
        let ys: Vec<u64> = (0..4).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs[0], xs[1]);
    }
}
