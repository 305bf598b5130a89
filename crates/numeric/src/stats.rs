//! Descriptive statistics used across the evaluation pipeline.
//!
//! * [`harmonic_mean`] — the paper's bandwidth estimator (Section IV-C):
//!   the harmonic mean of recent download throughputs damps outliers better
//!   than the arithmetic mean under bursty LTE conditions.
//! * [`Ecdf`] — empirical CDFs, used for Fig. 5 (switching speed) and
//!   Fig. 8 (Ptile size ratios).
//! * [`percentile`], [`mean`], [`pearson_correlation`] —
//!   assorted summaries reported in the paper's tables.

/// Arithmetic mean. Returns `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Harmonic mean of strictly positive samples.
///
/// The paper uses the harmonic mean of the last several segments' download
/// throughputs to estimate future bandwidth, because it "eliminates the
/// impacts of fluctuations" (Section IV-C).
///
/// # Panics
///
/// Panics if the slice is empty or any sample is not strictly positive.
///
/// # Example
///
/// ```
/// use ee360_numeric::stats::harmonic_mean;
/// let hm = harmonic_mean(&[2.0, 6.0, 6.0]);
/// assert!((hm - 3.6).abs() < 1e-12);
/// ```
pub fn harmonic_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "harmonic mean of an empty slice");
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "harmonic mean requires strictly positive samples"
    );
    xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>()
}

/// Linear-interpolated percentile, `p` in `[0, 100]`.
///
/// # Panics
///
/// Panics if the slice is empty or `p` is out of range.
///
/// # Example
///
/// ```
/// use ee360_numeric::stats::percentile;
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile(&xs, 50.0), 2.5);
/// assert_eq!(percentile(&xs, 0.0), 1.0);
/// assert_eq!(percentile(&xs, 100.0), 4.0);
/// ```
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    // lint:allow(hot-path-alloc, "sort scratch: percentile needs an owned copy, bounded by the caller's sample window")
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Pearson correlation coefficient between two equal-length samples.
///
/// The paper reports r = 0.9791 between its fitted Q_o model and the VMAF
/// training data (Section III-C1).
///
/// # Panics
///
/// Panics if the slices differ in length or have fewer than two samples.
pub fn pearson_correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "samples must have equal length");
    assert!(xs.len() >= 2, "correlation needs at least two samples");
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    // lint:allow(float-compare, "intentional exact check: correlation is undefined only at exactly zero variance")
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// An empirical cumulative distribution function.
///
/// # Example
///
/// ```
/// use ee360_numeric::stats::Ecdf;
/// let cdf = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
/// assert_eq!(cdf.fraction_above(10.0), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains NaN.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "ECDF of an empty sample set");
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "ECDF samples must not contain NaN"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Self { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false` (construction rejects empty sample sets); provided for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples `> x`.
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_or_below(x)
    }

    /// The `q`-quantile (`q` in `[0, 1]`) with linear interpolation.
    pub fn quantile(&self, q: f64) -> f64 {
        percentile(&self.sorted, q * 100.0)
    }

    /// Evaluates the ECDF at evenly spaced points for plotting: returns
    /// `(value, cumulative_fraction)` pairs at each sample.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_support::prelude::*;

    #[test]
    fn mean_of_samples() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_mean_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn harmonic_mean_vs_arithmetic() {
        // HM <= AM always; equal iff all samples equal.
        let xs = [1.0, 4.0, 4.0];
        assert!(harmonic_mean(&xs) < mean(&xs));
        let eq = [3.0, 3.0, 3.0];
        assert!((harmonic_mean(&eq) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_damps_spikes() {
        // One huge outlier barely moves the harmonic mean.
        let base = harmonic_mean(&[4.0, 4.0, 4.0, 4.0]);
        let spiked = harmonic_mean(&[4.0, 4.0, 4.0, 400.0]);
        assert!((spiked - base) / base < 0.40);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn harmonic_mean_rejects_zero() {
        let _ = harmonic_mean(&[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn harmonic_mean_rejects_empty() {
        let _ = harmonic_mean(&[]);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0];
        assert_eq!(percentile(&xs, 25.0), 15.0);
        assert_eq!(percentile(&xs, 75.0), 25.0);
        assert_eq!(median(&xs), 20.0);
    }

    #[test]
    fn correlation_perfect_and_inverse() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson_correlation(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson_correlation(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_constant_is_zero() {
        assert_eq!(pearson_correlation(&[1.0, 2.0], &[5.0, 5.0]), 0.0);
    }

    #[test]
    fn ecdf_basics() {
        let cdf = Ecdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(cdf.len(), 4);
        assert!(!cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
        assert_eq!(cdf.fraction_at_or_below(4.0), 1.0);
        assert_eq!(cdf.fraction_above(3.0), 0.25);
    }

    #[test]
    fn ecdf_points_monotone() {
        let cdf = Ecdf::new(vec![5.0, 1.0, 3.0]);
        let pts = cdf.points();
        assert_eq!(pts.len(), 3);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn ecdf_quantile_matches_percentile() {
        let xs = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let cdf = Ecdf::new(xs.clone());
        assert_eq!(cdf.quantile(0.5), median(&xs));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn ecdf_rejects_nan() {
        let _ = Ecdf::new(vec![1.0, f64::NAN]);
    }

    proptest! {
        #[test]
        fn hm_le_am(xs in ee360_support::prop::collection::vec(0.1f64..100.0, 1..50)) {
            prop_assert!(harmonic_mean(&xs) <= mean(&xs) + 1e-9);
        }

        #[test]
        fn percentile_within_range(
            xs in ee360_support::prop::collection::vec(-100.0f64..100.0, 1..50),
            p in 0.0f64..=100.0,
        ) {
            let v = percentile(&xs, p);
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }

        #[test]
        fn ecdf_fraction_in_unit_interval(
            xs in ee360_support::prop::collection::vec(-50.0f64..50.0, 1..40),
            probe in -60.0f64..60.0,
        ) {
            let cdf = Ecdf::new(xs);
            let f = cdf.fraction_at_or_below(probe);
            prop_assert!((0.0..=1.0).contains(&f));
        }

        #[test]
        fn correlation_bounded(
            pairs in ee360_support::prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 2..40)
        ) {
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let r = pearson_correlation(&xs, &ys);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
    }
}
