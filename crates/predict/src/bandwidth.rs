//! Bandwidth estimation from recent download throughputs.
//!
//! The paper uses the harmonic mean of the last several segments'
//! throughputs (Section IV-C); the arithmetic-mean and last-sample
//! estimators are provided as ablation baselines.

use std::collections::VecDeque;

use ee360_support::quantile::QuantileSketch;

/// A windowed bandwidth estimator fed one throughput sample per downloaded
/// segment.
pub trait BandwidthEstimator {
    /// Records the throughput (bits per second) observed while downloading
    /// the latest segment.
    ///
    /// # Panics
    ///
    /// Implementations panic on non-positive or non-finite samples.
    fn observe(&mut self, throughput_bps: f64);

    /// The current estimate, or `None` before any observation.
    fn estimate(&self) -> Option<f64>;

    /// Drops all history.
    fn reset(&mut self);
}

fn validate(throughput_bps: f64) {
    assert!(
        throughput_bps.is_finite() && throughput_bps > 0.0,
        "throughput samples must be positive, got {throughput_bps}"
    );
}

/// The paper's estimator: harmonic mean over a sliding window.
#[derive(Debug, Clone, PartialEq)]
pub struct HarmonicMeanEstimator {
    window: usize,
    samples: VecDeque<f64>,
}

impl HarmonicMeanEstimator {
    /// Creates an estimator over the last `window` segments.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be at least 1");
        Self {
            window,
            samples: VecDeque::with_capacity(window),
        }
    }

    /// The paper does not pin the window; five segments is the common MPC
    /// setting (robust-MPC lineage) and what the evaluation uses.
    pub fn paper_default() -> Self {
        Self::new(5)
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` before the first observation.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

impl BandwidthEstimator for HarmonicMeanEstimator {
    fn observe(&mut self, throughput_bps: f64) {
        validate(throughput_bps);
        if self.samples.len() == self.window {
            self.samples.pop_front();
        }
        self.samples.push_back(throughput_bps);
    }

    fn estimate(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            // `harmonic_mean`'s arithmetic over the window in place: the
            // samples were validated positive when observed.
            let n = self.samples.len() as f64;
            Some(n / self.samples.iter().map(|x| 1.0 / x).sum::<f64>())
        }
    }

    fn reset(&mut self) {
        self.samples.clear();
    }
}

/// Ablation baseline: arithmetic mean over the same window.
#[derive(Debug, Clone, PartialEq)]
pub struct ArithmeticMeanEstimator {
    window: usize,
    samples: VecDeque<f64>,
}

impl ArithmeticMeanEstimator {
    /// Creates an estimator over the last `window` segments.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be at least 1");
        Self {
            window,
            samples: VecDeque::with_capacity(window),
        }
    }
}

impl BandwidthEstimator for ArithmeticMeanEstimator {
    fn observe(&mut self, throughput_bps: f64) {
        validate(throughput_bps);
        if self.samples.len() == self.window {
            self.samples.pop_front();
        }
        self.samples.push_back(throughput_bps);
    }

    fn estimate(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    fn reset(&mut self) {
        self.samples.clear();
    }
}

/// Ablation baseline: the last observed throughput.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LastSampleEstimator {
    last: Option<f64>,
}

impl LastSampleEstimator {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl BandwidthEstimator for LastSampleEstimator {
    fn observe(&mut self, throughput_bps: f64) {
        validate(throughput_bps);
        self.last = Some(throughput_bps);
    }

    fn estimate(&self) -> Option<f64> {
        self.last
    }

    fn reset(&mut self) {
        self.last = None;
    }
}

/// Downside margin for a bandwidth estimate, fitted online from the
/// estimator's own realised errors.
///
/// After each download the client knows both what it *planned against*
/// (the harmonic-mean estimate) and what it *got* (the realised
/// throughput). The ratio `actual / estimated` streams into a
/// deterministic [`QuantileSketch`]; a downside quantile of that ratio
/// (p25 by default) is the multiplicative safety factor the robust
/// controller applies before the DP transition, so it plans against the
/// p25 bandwidth instead of the mean. Until enough ratios are observed
/// the factor is exactly 1.0 — the signal that keeps the robust
/// controller bit-identical to the point controller.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthMargin {
    sketch: QuantileSketch,
    /// Estimates seen alongside the ratios, so [`Self::factor_for`] can
    /// tell a *fresh* optimistic estimate from one that has already
    /// collapsed below its recent range.
    estimates: QuantileSketch,
    quantile: f64,
    min_samples: usize,
}

impl BandwidthMargin {
    /// Floor on the margin factor: even a pathological error history
    /// never scales the planning bandwidth below a tenth of the estimate.
    pub const MIN_FACTOR: f64 = 0.1;

    /// Creates a margin tracking the given downside `quantile` of the
    /// realised/estimated throughput ratio, inert until `min_samples`
    /// ratios have been observed.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < quantile ≤ 1` and `min_samples ≥ 1`.
    pub fn new(cap: usize, quantile: f64, min_samples: usize) -> Self {
        assert!(
            quantile > 0.0 && quantile <= 1.0,
            "quantile must be in (0, 1], got {quantile}"
        );
        assert!(min_samples >= 1, "min_samples must be at least 1");
        Self {
            sketch: QuantileSketch::new(cap),
            estimates: QuantileSketch::new(cap),
            quantile,
            min_samples,
        }
    }

    /// The evaluation default: p25 downside ratio over a 128-sample
    /// sketch, warming up after 8 downloads.
    pub fn paper_default() -> Self {
        Self::new(128, 0.25, 8)
    }

    /// Records one realised outcome: the estimate the plan used and the
    /// throughput actually achieved.
    ///
    /// # Panics
    ///
    /// Panics on non-positive or non-finite inputs.
    pub fn observe(&mut self, estimated_bps: f64, actual_bps: f64) {
        validate(estimated_bps);
        validate(actual_bps);
        self.sketch.observe(actual_bps / estimated_bps);
        self.estimates.observe(estimated_bps);
    }

    /// The multiplicative safety factor to apply to the next estimate:
    /// exactly 1.0 while warming up, otherwise the downside ratio
    /// quantile clamped to `[MIN_FACTOR, 1.0]` (over-delivery never
    /// inflates the plan).
    pub fn factor(&self) -> f64 {
        if self.sketch.len() < self.min_samples {
            return 1.0;
        }
        self.sketch
            .quantile(self.quantile)
            .unwrap_or(1.0)
            .clamp(Self::MIN_FACTOR, 1.0)
    }

    /// [`Self::factor`] guarded against double-counting: the downside
    /// ratios in the sketch were measured against estimates that had not
    /// yet priced a collapse in, so once the estimator itself has caught
    /// up — the current estimate sits in the bottom quartile of the
    /// estimates seen recently — deflating it *again* would charge the
    /// plan twice for the same outage. Returns 1.0 for such depressed
    /// estimates, the ordinary downside factor otherwise.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or non-finite `estimate_bps`.
    pub fn factor_for(&self, estimate_bps: f64) -> f64 {
        validate(estimate_bps);
        if let Some(floor) = self.depressed_floor() {
            if estimate_bps < floor {
                return 1.0;
            }
        }
        self.factor()
    }

    /// The depressed-estimate guard's threshold: the bottom quartile of
    /// the raw estimates observed recently, present once the margin is
    /// warm. Estimates below it already carry the collapse the ratio
    /// sketch measured, so [`Self::factor_for`] leaves them alone. The
    /// floor only moves when a sample arrives, so callers that plan more
    /// often than they observe can cache it instead of paying the sketch
    /// query per plan.
    pub fn depressed_floor(&self) -> Option<f64> {
        if self.sketch.len() >= self.min_samples {
            self.estimates.quantile(0.25)
        } else {
            None
        }
    }

    /// Ratios currently retained by the sketch.
    pub fn len(&self) -> usize {
        self.sketch.len()
    }

    /// `true` before the first observation.
    pub fn is_empty(&self) -> bool {
        self.sketch.is_empty()
    }

    /// Drops all history, as if freshly constructed.
    pub fn reset(&mut self) {
        self.sketch.reset();
        self.estimates.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_estimators_return_none() {
        assert_eq!(HarmonicMeanEstimator::paper_default().estimate(), None);
        assert_eq!(ArithmeticMeanEstimator::new(3).estimate(), None);
        assert_eq!(LastSampleEstimator::new().estimate(), None);
    }

    #[test]
    fn harmonic_mean_known_values() {
        let mut e = HarmonicMeanEstimator::new(3);
        for s in [2.0e6, 6.0e6, 6.0e6] {
            e.observe(s);
        }
        assert!((e.estimate().unwrap() - 3.6e6).abs() < 1e-3);
    }

    #[test]
    fn harmonic_estimate_matches_stats_harmonic_mean_bit_for_bit() {
        // Enough observations to wrap the ring, so the window's storage
        // is split when it is summed.
        let samples = [3.1e6, 4.4e6, 2.9e6, 5.0e6, 3.8e6, 0.7e6, 9.3e6, 1.1e6];
        let mut e = HarmonicMeanEstimator::new(5);
        for (i, &s) in samples.iter().enumerate() {
            e.observe(s);
            let window = &samples[(i + 1).saturating_sub(5)..=i];
            let expected = ee360_numeric::stats::harmonic_mean(window);
            assert_eq!(e.estimate().unwrap().to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn window_slides() {
        let mut e = HarmonicMeanEstimator::new(2);
        e.observe(1.0e6);
        e.observe(2.0e6);
        e.observe(2.0e6); // evicts the 1.0e6
        assert!((e.estimate().unwrap() - 2.0e6).abs() < 1e-6);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn harmonic_damps_burst_more_than_arithmetic() {
        let mut h = HarmonicMeanEstimator::new(5);
        let mut a = ArithmeticMeanEstimator::new(5);
        for s in [4.0e6, 4.0e6, 4.0e6, 4.0e6, 40.0e6] {
            h.observe(s);
            a.observe(s);
        }
        assert!(h.estimate().unwrap() < a.estimate().unwrap());
    }

    #[test]
    fn harmonic_is_conservative_lower_than_arithmetic() {
        let mut h = HarmonicMeanEstimator::new(4);
        let mut a = ArithmeticMeanEstimator::new(4);
        for s in [3.1e6, 5.7e6, 2.4e6, 8.0e6] {
            h.observe(s);
            a.observe(s);
        }
        assert!(h.estimate().unwrap() <= a.estimate().unwrap());
    }

    #[test]
    fn last_sample_tracks_latest() {
        let mut e = LastSampleEstimator::new();
        e.observe(3.0e6);
        e.observe(7.0e6);
        assert_eq!(e.estimate(), Some(7.0e6));
    }

    #[test]
    fn reset_clears_history() {
        let mut e = HarmonicMeanEstimator::new(3);
        e.observe(4.0e6);
        e.reset();
        assert_eq!(e.estimate(), None);
        assert!(e.is_empty());
        let mut l = LastSampleEstimator::new();
        l.observe(4.0e6);
        l.reset();
        assert_eq!(l.estimate(), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_sample_panics() {
        let mut e = HarmonicMeanEstimator::new(3);
        e.observe(0.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let _ = HarmonicMeanEstimator::new(0);
    }

    #[test]
    fn margin_is_unity_until_warm() {
        let mut m = BandwidthMargin::new(32, 0.25, 4);
        for _ in 0..3 {
            m.observe(10.0e6, 5.0e6); // persistent 2× over-estimate
            assert_eq!(m.factor(), 1.0, "cold margin must be inert");
        }
        m.observe(10.0e6, 5.0e6); // 4th sample: warm
        assert!((m.factor() - 0.5).abs() < 1e-12, "got {}", m.factor());
    }

    #[test]
    fn depressed_estimate_skips_the_margin() {
        let mut m = BandwidthMargin::new(64, 0.25, 4);
        // Normal operation: persistent 20% over-estimates at ~10 Mbps.
        for _ in 0..6 {
            m.observe(10.0e6, 8.0e6);
        }
        assert!((m.factor() - 0.8).abs() < 1e-12);
        // Once the estimator has priced a collapse in, the estimate sits
        // far below its recent range — deflating it again would charge
        // the plan twice for the same outage.
        assert_eq!(m.factor_for(1.0e6), 1.0);
        // An estimate inside the usual range still gets the margin.
        assert!((m.factor_for(10.0e6) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn margin_tracks_downside_quantile_of_ratio() {
        let mut m = BandwidthMargin::new(64, 0.25, 4);
        // Ratios 0.6, 0.8, 1.0, 1.2: p25 by interpolation is 0.75.
        for actual in [6.0e6, 8.0e6, 10.0e6, 12.0e6] {
            m.observe(10.0e6, actual);
        }
        assert!((m.factor() - 0.75).abs() < 1e-12, "got {}", m.factor());
    }

    #[test]
    fn margin_never_exceeds_unity_or_falls_below_floor() {
        let mut hi = BandwidthMargin::new(16, 0.25, 2);
        hi.observe(5.0e6, 10.0e6);
        hi.observe(5.0e6, 20.0e6); // over-delivery: ratios > 1
        assert_eq!(hi.factor(), 1.0);

        let mut lo = BandwidthMargin::new(16, 0.25, 2);
        lo.observe(100.0e6, 1.0); // catastrophic over-estimates
        lo.observe(100.0e6, 1.0);
        assert_eq!(lo.factor(), BandwidthMargin::MIN_FACTOR);
    }

    #[test]
    fn margin_reset_restores_unity() {
        let mut m = BandwidthMargin::new(16, 0.25, 1);
        m.observe(10.0e6, 5.0e6);
        assert!(m.factor() < 1.0);
        m.reset();
        assert!(m.is_empty());
        assert_eq!(m.factor(), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn margin_rejects_bad_samples() {
        let mut m = BandwidthMargin::paper_default();
        m.observe(0.0, 5.0e6);
    }
}
