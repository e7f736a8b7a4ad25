//! The benchmark's arithmetic: percentiles, distribution summaries and
//! the log-log slope fit.

/// Percentile `p` (0–100) of `sorted` (ascending) by the trimmed
/// Harrell–Davis estimator: a weighted mean of the samples around rank
/// `qn`, `q = p/100`. The `i`-th of `n` samples weighs the probability
/// that a Beta(`q(n+1)`, `(1−q)(n+1)`) variable falls in `((i−1)/n, i/n]`,
/// with the distribution cut to its densest interval of width `1/√n`, so
/// the weights span about `√n` ranks.
///
/// Where the host's speed flips between a fast and a slow state, the
/// samples near a percentile fall into two groups, and the sample at one
/// fixed rank jumps from one group to the other between runs; this
/// estimate moves smoothly with the groups' proportions. The cut keeps it
/// from reaching into the samples of another app when a few apps each
/// contribute one cluster of samples, as on the ladder. `None` on an
/// empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let (first, last) = (*sorted.first()?, *sorted.last()?);
    let q = p / 100.0;
    // Equal samples (a work counter that repeats exactly) read back
    // exactly, not with the weights' rounding error.
    if q <= 0.0 || first == last {
        return Some(first);
    }
    if q >= 1.0 {
        return Some(last);
    }
    let n = sorted.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let (lo, hi) = beta_densest(a, b, 1.0 / n.sqrt());
    let (cdf_lo, cdf_hi) = (beta_cdf(a, b, lo), beta_cdf(a, b, hi));
    let cut_cdf = |x: f64| (beta_cdf(a, b, x.clamp(lo, hi)) - cdf_lo) / (cdf_hi - cdf_lo);
    let mut below = 0.0;
    let mut estimate = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let upto = cut_cdf((i + 1) as f64 / n);
        estimate += (upto - below) * x;
        below = upto;
    }
    Some(estimate)
}

/// The interval of `width` within [0, 1] that holds the most of a
/// Beta(`a`, `b`) distribution: the one around the mode whose ends have
/// equal density (or the one at the edge the density rises towards).
fn beta_densest(a: f64, b: f64, width: f64) -> (f64, f64) {
    if a <= 1.0 {
        return (0.0, width);
    }
    if b <= 1.0 {
        return (1.0 - width, 1.0);
    }
    let mode = (a - 1.0) / (a + b - 2.0);
    let ln_density = |x: f64| (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln();
    let (mut lo, mut hi) = ((mode - width).max(0.0), mode.min(1.0 - width));
    for _ in 0..100 {
        let mid = (lo + hi) / 2.0;
        if ln_density(mid) < ln_density(mid + width) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let start = (lo + hi) / 2.0;
    (start, start + width)
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7, nine terms; relative error
/// below 1e-13).
fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)·Γ(1−x) = π / sin(πx).
        return (std::f64::consts::PI / (std::f64::consts::PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + G + 0.5;
    let series = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |acc, (i, c)| acc + c / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The regularized incomplete beta function `I_x(a, b)`: the CDF of a
/// Beta(`a`, `b`) variable at `x`.
fn beta_cdf(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    // The continued fraction converges fast below the mode; above it,
    // use the symmetry I_x(a, b) = 1 − I_{1−x}(b, a).
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// Continued fraction of the incomplete beta function (modified Lentz).
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let floor = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / floor(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..10_000 {
        let m = m as f64;
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / floor(1.0 + even * d);
        c = floor(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / floor(1.0 + odd * d);
        c = floor(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Median of unsorted values; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// The percentiles a summary may report as its tail, highest first.
const TAILS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile in [`TAILS`] that leaves at least ten of `n`
/// samples beyond it.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Median, quartiles and the best-supported tail of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    /// `(percentile, value)` of the highest percentile with at least ten
    /// samples beyond it; `None` below twenty samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let q = |p| percentile(&sorted, p).expect("non-empty");
        let p50 = percentile(&sorted, 50.0)?;
        Some(Summary {
            n: sorted.len(),
            p25: q(25.0),
            p50,
            p75: q(75.0),
            tail: highest_supported_tail(sorted.len()).map(|p| (p, q(p))),
        })
    }

    /// One human-readable line: `n=.. p25=.. p50=.. p75=.. p90=..`.
    pub fn describe(&self, digits: usize) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(" p{p}={v:.digits$}"),
            None => " (no percentile has 10 samples beyond it)".to_owned(),
        };
        format!(
            "n={} p25={:.digits$} p50={:.digits$} p75={:.digits$}{tail}",
            self.n, self.p25, self.p50, self.p75
        )
    }
}

/// Least-squares slope of `ln y` against `ln x` — the exponent `k` of
/// `y ≈ c·x^k`. Points with a non-positive coordinate are skipped;
/// `None` unless at least two distinct `x` remain.
pub fn loglog_slope(points: &[(f64, f64)]) -> Option<f64> {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = logs.len() as f64;
    let mean_x = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = logs.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    let sxy: f64 = logs.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    (logs.len() >= 2 && sxx > 1e-12).then(|| sxy / sxx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Option<f64>, b: f64) -> bool {
        a.is_some_and(|a| (a - b).abs() < 1e-9 * b.abs().max(1.0))
    }

    #[test]
    fn percentiles_follow_trimmed_harrell_davis() {
        // Reference values from an independent implementation.
        let v = [1.0, 2.0, 3.0, 4.0, 10.0];
        assert!(close(percentile(&v, 50.0), 3.0));
        assert!(close(percentile(&v, 25.0), 1.554_261_102_475_416));
        assert!(close(percentile(&v, 90.0), 9.111_226_832_628_422));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(close(percentile(&hundred, 50.0), 50.5));
        assert!(close(percentile(&hundred, 90.0), 90.769_501_116_453_77));
        assert!(close(percentile(&[3.0, 7.0], 50.0), 5.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
        // Weights sum to one on large samples too, and equal samples
        // (a repeating counter) read back exactly.
        let ramp: Vec<f64> = (0..20_000).map(|i| 1.0 + 1e-9 * f64::from(i)).collect();
        assert!(close(percentile(&ramp, 50.0), 1.00001));
        assert!(close(percentile(&ramp, 99.9), 1.00001998));
        assert_eq!(percentile(&[174.0; 49], 50.0), Some(174.0));
    }

    #[test]
    fn percentiles_move_smoothly_between_two_groups() {
        // Ten fast and ten slow samples: one more slow sample moves the
        // median part of the way, not across the whole gap.
        let mut even: Vec<f64> = [vec![60.0; 10], vec![100.0; 10]].concat();
        assert!(close(percentile(&even, 50.0), 80.0));
        even[9] = 100.0;
        even.sort_by(f64::total_cmp);
        assert!(close(percentile(&even, 50.0), 90.077_340_524_260_75));
    }

    #[test]
    fn percentiles_stay_within_one_cluster() {
        // Five apps, twelve samples each, a decade apart: the median and
        // the 90th percentile stay among the third and fifth app's own
        // samples (the untrimmed estimator's median, 152.6, does not).
        let clusters: Vec<f64> = [1.0, 10.0, 100.0, 1000.0, 10000.0]
            .iter()
            .flat_map(|m| (0..12).map(move |i| m * (1.0 + 0.01 * i as f64)))
            .collect();
        assert!(close(percentile(&clusters, 50.0), 105.5));
        let p90 = percentile(&clusters, 90.0).expect("non-empty");
        assert!((10_000.0..=11_100.0).contains(&p90), "{p90}");
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        let mut factorial = 1.0f64;
        for k in 1..30 {
            assert!(
                (ln_gamma(k as f64) - factorial.ln()).abs() < 1e-10,
                "Γ({k})"
            );
            factorial *= k as f64;
        }
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(19), None);
        assert_eq!(highest_supported_tail(20), Some(50.0));
        assert_eq!(highest_supported_tail(100), Some(90.0));
        assert_eq!(highest_supported_tail(174), Some(90.0));
        assert_eq!(highest_supported_tail(1000), Some(99.0));
        assert_eq!(highest_supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_quartiles_and_tail() {
        let values: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        let s = Summary::of(&values).expect("non-empty");
        assert_eq!(s.n, 101);
        assert!(close(Some(s.p25), 25.435_245_116_721_07));
        assert!(close(Some(s.p50), 51.0) && close(Some(s.p75), 76.564_754_883_278_92));
        let (p, tail) = s.tail.expect("101 samples support p90");
        assert_eq!(p, 90.0);
        assert!(close(Some(tail), 91.669_317_433_848_78));
        assert!(s.describe(1).contains("p90=91.7"));
        let small = Summary::of(&[2.0, 1.0]).expect("non-empty");
        assert!(close(Some(small.p50), 1.5));
        assert_eq!(small.tail, None);
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn slope_recovers_the_exponent() {
        let cubic: Vec<(f64, f64)> = [32.0, 64.0, 128.0, 512.0]
            .iter()
            .map(|&x: &f64| (x, 3.0 * x.powi(3)))
            .collect();
        assert!((loglog_slope(&cubic).expect("fit") - 3.0).abs() < 1e-9);
        let linear = [(2.0, 10.0), (4.0, 20.0), (0.0, 5.0)];
        assert!((loglog_slope(&linear).expect("fit") - 1.0).abs() < 1e-9);
        assert_eq!(loglog_slope(&[(8.0, 1.0), (8.0, 2.0)]), None);
        assert_eq!(loglog_slope(&[]), None);
    }
}
