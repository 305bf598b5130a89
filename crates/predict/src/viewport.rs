//! Viewport prediction with ridge regression (Section IV-B).
//!
//! The headset records (x, y) viewing-center coordinates at a fixed rate;
//! the client regresses each coordinate against time over a short recent
//! window and extrapolates to the playback time of the segment about to be
//! downloaded. The yaw series is unwrapped before regression so a pan
//! through the antimeridian looks linear rather than discontinuous.

use std::error::Error;
use std::fmt;

use ee360_geom::switching::SwitchingSample;
use ee360_geom::viewport::ViewCenter;
/// The model of each coordinate in a [`LinearFit`].
pub use ee360_numeric::ridge::SingleRidge;
use ee360_support::quantile::QuantileSketch;

/// Why a predictor could not be built or a prediction could not be made.
///
/// Mirrors the `HeadTraceError`/`VideoError` pattern: a plain enum with a
/// `Display` impl, so callers can match on the variant or surface the
/// message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictError {
    /// Ridge regularisation strength was negative.
    NegativeLambda {
        /// The offending λ.
        lambda: f64,
    },
    /// The history window was zero or negative.
    NonPositiveWindow {
        /// The offending window length (seconds).
        window_sec: f64,
    },
    /// The prediction horizon was negative or non-finite.
    InvalidHorizon {
        /// The offending horizon (seconds).
        horizon_sec: f64,
    },
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PredictError::NegativeLambda { lambda } => {
                write!(f, "lambda must be non-negative, got {lambda}")
            }
            PredictError::NonPositiveWindow { window_sec } => {
                write!(f, "window must be positive, got {window_sec}")
            }
            PredictError::InvalidHorizon { horizon_sec } => {
                write!(f, "horizon must be non-negative, got {horizon_sec}")
            }
        }
    }
}

impl Error for PredictError {}

/// Which regression backs the predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Ridge regression with the configured λ (the paper's choice).
    Ridge,
    /// Ordinary least squares (λ = 0 ablation).
    OrdinaryLeastSquares,
    /// Repeat the last observed center (no-regression ablation).
    LastSample,
}

ee360_support::impl_json_enum!(PredictorKind {
    Ridge,
    OrdinaryLeastSquares,
    LastSample
});

/// Predicts a future viewing center from recent gaze samples.
///
/// # Example
///
/// ```
/// use ee360_geom::switching::SwitchingSample;
/// use ee360_geom::viewport::ViewCenter;
/// use ee360_predict::viewport::ViewportPredictor;
///
/// // Steady pan at 20°/s.
/// let history: Vec<SwitchingSample> = (0..10)
///     .map(|i| {
///         let t = i as f64 * 0.1;
///         SwitchingSample::new(t, ViewCenter::new(20.0 * t, 0.0))
///     })
///     .collect();
/// let predictor = ViewportPredictor::paper_default();
/// let predicted = predictor.predict(&history, 1.0).unwrap();
/// // Expect roughly yaw = 20° × 1.9 s ≈ 38°; ridge shrinkage over the
/// // short window pulls the extrapolation slightly conservative.
/// assert!((predicted.yaw_deg() - 38.0).abs() < 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewportPredictor {
    kind: PredictorKind,
    /// Ridge regularisation strength.
    lambda: f64,
    /// How much history (seconds) to regress over.
    window_sec: f64,
}

ee360_support::impl_json_struct!(ViewportPredictor {
    kind,
    lambda,
    window_sec
});

impl ViewportPredictor {
    /// The paper's predictor: ridge regression over the most recent
    /// 2 seconds of gaze history ("the coordinates of the most recent
    /// viewed segment have strong correlation with the segment to be
    /// downloaded").
    pub const fn paper_default() -> Self {
        Self {
            kind: PredictorKind::Ridge,
            lambda: 0.1,
            window_sec: 2.0,
        }
    }

    /// A custom predictor; infallible wrapper around [`Self::try_new`].
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or `window_sec` is not positive.
    pub fn new(kind: PredictorKind, lambda: f64, window_sec: f64) -> Self {
        match Self::try_new(kind, lambda, window_sec) {
            Ok(p) => p,
            // lint:allow(no-panic-paths, "documented panic: infallible wrapper; try_new is the graceful API")
            Err(e) => panic!("invalid predictor config: {e}"),
        }
    }

    /// A custom predictor, rejecting bad configuration as a
    /// [`PredictError`] instead of panicking.
    pub fn try_new(
        kind: PredictorKind,
        lambda: f64,
        window_sec: f64,
    ) -> Result<Self, PredictError> {
        if !(lambda >= 0.0) {
            return Err(PredictError::NegativeLambda { lambda });
        }
        if !(window_sec > 0.0) {
            return Err(PredictError::NonPositiveWindow { window_sec });
        }
        Ok(Self {
            kind,
            lambda,
            window_sec,
        })
    }

    /// Which regression this predictor uses.
    pub fn kind(&self) -> PredictorKind {
        self.kind
    }

    /// Predicts the viewing center `horizon_sec` seconds after the last
    /// sample. Returns `None` when `history` is empty; a single sample
    /// predicts itself. Infallible wrapper around [`Self::try_predict`].
    ///
    /// # Panics
    ///
    /// Panics if `horizon_sec` is negative or non-finite.
    pub fn predict(&self, history: &[SwitchingSample], horizon_sec: f64) -> Option<ViewCenter> {
        self.predict_with(history, horizon_sec, &mut PredictorWorkspace::default())
    }

    /// [`Self::predict`] over a caller-owned [`PredictorWorkspace`]: the
    /// same value, bit for bit, and with a warm workspace the default
    /// ridge predictor allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `horizon_sec` is negative or non-finite.
    pub fn predict_with(
        &self,
        history: &[SwitchingSample],
        horizon_sec: f64,
        ws: &mut PredictorWorkspace,
    ) -> Option<ViewCenter> {
        match self.try_predict_with(history, horizon_sec, ws) {
            Ok(c) => c,
            // lint:allow(no-panic-paths, "documented panic: infallible wrapper; try_predict is the graceful API")
            Err(e) => panic!("invalid prediction request: {e}"),
        }
    }

    /// Fallible prediction: a bad horizon comes back as a
    /// [`PredictError`] instead of a panic. `Ok(None)` means an empty
    /// history — no prediction is possible, but nothing was invalid.
    pub fn try_predict(
        &self,
        history: &[SwitchingSample],
        horizon_sec: f64,
    ) -> Result<Option<ViewCenter>, PredictError> {
        self.try_predict_with(history, horizon_sec, &mut PredictorWorkspace::default())
    }

    fn try_predict_with(
        &self,
        history: &[SwitchingSample],
        horizon_sec: f64,
        ws: &mut PredictorWorkspace,
    ) -> Result<Option<ViewCenter>, PredictError> {
        if !(horizon_sec.is_finite() && horizon_sec >= 0.0) {
            return Err(PredictError::InvalidHorizon { horizon_sec });
        }
        Ok(self.predict_inner(history, horizon_sec, ws))
    }

    /// The regression core, reached only with a validated horizon.
    fn predict_inner(
        &self,
        history: &[SwitchingSample],
        horizon_sec: f64,
        ws: &mut PredictorWorkspace,
    ) -> Option<ViewCenter> {
        let last = history.last()?;
        if matches!(self.kind, PredictorKind::LastSample) || history.len() == 1 {
            return Some(last.center);
        }
        // Restrict to the recent window.
        let t_end = last.t_sec;
        let start = t_end - self.window_sec;
        let window = || history.iter().filter(move |s| s.t_sec >= start - 1e-9);
        let mut samples = window();
        let (Some(first), Some(_)) = (samples.next(), samples.next()) else {
            return Some(last.center);
        };

        // Regress against time relative to the window start (conditioning).
        let t0 = first.t_sec;
        ws.ts.clear();
        ws.ts.extend(window().map(|s| s.t_sec - t0));
        ws.pitch.clear();
        ws.pitch.extend(window().map(|s| s.center.pitch_deg()));
        // Unwrap yaw into a continuous series.
        let mut prev = first.center.yaw_deg();
        let mut acc = prev;
        ws.yaw.clear();
        ws.yaw
            .extend(std::iter::once(acc).chain(window().skip(1).map(|s| {
                let yaw = s.center.yaw_deg();
                acc += ee360_geom::angles::signed_yaw_diff_deg(yaw, prev);
                prev = yaw;
                acc
            })));

        let lambda = match self.kind {
            PredictorKind::Ridge => self.lambda,
            // LastSample returned above; the OLS arm keeps the match
            // total without a panic path.
            PredictorKind::OrdinaryLeastSquares | PredictorKind::LastSample => 0.0,
        };
        let t_pred = (t_end - t0) + horizon_sec;
        // Single time feature: the allocation-free fast path, bit-identical
        // to `fit` on one-element rows (see `SingleRidge`).
        let yaw_model = SingleRidge::fit(&ws.ts, &ws.yaw, lambda).ok()?;
        let pitch_model = SingleRidge::fit(&ws.ts, &ws.pitch, lambda).ok()?;
        Some(ViewCenter::new(
            yaw_model.predict(t_pred),
            pitch_model.predict(t_pred),
        ))
    }

    /// The fit [`Self::predict`] extrapolates from, computed over a
    /// time-ordered window read straight from where it is stored: no
    /// series is copied. For every valid horizon, `fit_window(window)`'s
    /// [`WindowFit::predict`] equals `predict` over the same samples, bit
    /// for bit.
    ///
    /// The window is read in two passes through the iterator's clones:
    /// one to convert each sample, unwrap its yaw and sum the time, yaw
    /// and pitch series, and one to recompute the same series and
    /// accumulate both fits' cross terms around one shared gram term
    /// ([`SingleRidge::fit_pair`]). The series values and the unwrap are
    /// `predict`'s, operation for operation. Over time-ordered samples
    /// `predict`'s recency filter keeps a suffix of the window, which
    /// [`Self::recent_span`] finds: the fit skips that prefix.
    pub fn fit_window<I>(&self, window: I) -> WindowFit
    where
        I: DoubleEndedIterator<Item = SwitchingSample> + ExactSizeIterator + Clone,
    {
        let lambda = match self.kind {
            PredictorKind::Ridge => self.lambda,
            PredictorKind::OrdinaryLeastSquares | PredictorKind::LastSample => 0.0,
        };
        // lint:allow(hot-path-alloc, "clones an iterator over borrowed samples: no heap allocation")
        let Some(last) = window.clone().next_back() else {
            return WindowFit::Unfit;
        };
        if matches!(self.kind, PredictorKind::LastSample) || window.len() == 1 {
            return WindowFit::Hold(last.center);
        }
        // lint:allow(hot-path-alloc, "clones an iterator over borrowed samples: no heap allocation")
        let Some((stale, span)) = self.recent_span(window.clone()) else {
            return WindowFit::Unfit;
        };
        let mut recent = window.skip(stale);
        let (Some(first), 1..) = (recent.next(), recent.len()) else {
            return WindowFit::Hold(last.center);
        };
        let t0 = first.t_sec;
        let yaw0 = first.center.yaw_deg();
        // The first sample, then each later one with its yaw unwrapped
        // against the one before: the state is (previous yaw, unwrapped).
        let tail = recent.scan((yaw0, yaw0), move |(prev, acc), s| {
            let yaw = s.center.yaw_deg();
            *acc += ee360_geom::angles::signed_yaw_diff_deg(yaw, *prev);
            *prev = yaw;
            Some((s.t_sec - t0, *acc, s.center.pitch_deg()))
        });
        let series =
            std::iter::once((first.t_sec - t0, yaw0, first.center.pitch_deg())).chain(tail);
        match SingleRidge::fit_pair(series, lambda) {
            Ok((yaw, pitch)) => WindowFit::Linear(LinearFit { span, yaw, pitch }),
            Err(_) => WindowFit::Unfit,
        }
    }

    /// Where the recency filter of [`Self::predict`] starts a
    /// time-ordered window: the number of leading samples it drops
    /// (those more than the predictor's window, plus 1e-9 s, older than
    /// the last) and [`LinearFit::span`] over the rest. `None` for an
    /// empty window.
    ///
    /// The filter can drop a sample that a window cut at `t_end − window`
    /// holds, by the rounding of `t_end − window − 1e-9`, so the samples
    /// a fit used are the window minus this prefix.
    pub fn recent_span<I>(&self, window: I) -> Option<(usize, f64)>
    where
        I: DoubleEndedIterator<Item = SwitchingSample> + Clone,
    {
        let t_end = window.clone().next_back()?.t_sec;
        let start = t_end - self.window_sec;
        let mut stale = 0;
        for s in window {
            if s.t_sec >= start - 1e-9 {
                return Some((stale, t_end - s.t_sec));
            }
            stale += 1;
        }
        Some((stale, 0.0))
    }

    /// Prediction error in degrees against a known ground truth — the
    /// planar distance between prediction and truth.
    pub fn error_deg(
        &self,
        history: &[SwitchingSample],
        horizon_sec: f64,
        truth: ViewCenter,
    ) -> Option<f64> {
        self.predict(history, horizon_sec)
            .map(|p| p.distance_deg(&truth))
    }
}

/// What a window's history gives to extrapolate from:
/// [`ViewportPredictor::fit_window`]'s result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowFit {
    /// No prediction: an empty window, or a fit whose gram term is not
    /// positive and finite. [`ViewportPredictor::predict`] gives `None`.
    Unfit,
    /// A centre that holds at every horizon: the window's last sample,
    /// when it has one sample, fewer than two recent ones, or the
    /// predictor is [`PredictorKind::LastSample`].
    Hold(ViewCenter),
    /// Per-coordinate ridge fits against time.
    Linear(LinearFit),
}

impl WindowFit {
    /// The centre predicted `horizon_sec` after the window's last sample.
    /// The horizon is not checked: pass one [`ViewportPredictor::try_predict`]
    /// would accept.
    pub fn predict(&self, horizon_sec: f64) -> Option<ViewCenter> {
        match self {
            WindowFit::Unfit => None,
            WindowFit::Hold(center) => Some(*center),
            WindowFit::Linear(fit) => Some(fit.predict(horizon_sec)),
        }
    }
}

/// The yaw and pitch ridge fits of one window, against time since the
/// window's first recent sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// `t_end − t0`: the last sample's time relative to the first fitted
    /// one.
    pub span: f64,
    /// The unwrapped yaw's fit.
    pub yaw: SingleRidge,
    /// The pitch's fit.
    pub pitch: SingleRidge,
}

impl LinearFit {
    /// The centre `horizon_sec` after the window's last sample, with
    /// [`ViewportPredictor::predict`]'s operations.
    pub fn predict(&self, horizon_sec: f64) -> ViewCenter {
        let t_pred = self.span + horizon_sec;
        ViewCenter::new(self.yaw.predict(t_pred), self.pitch.predict(t_pred))
    }
}

/// Caller-owned scratch for [`ViewportPredictor::predict_with`]: the
/// window's relative times, unwrapped yaw and pitch series. Every call
/// clears and refills it, so it carries no state between predictions.
/// Its users are the slice API ([`ViewportPredictor::predict`] and
/// `predict_with`); sessions read their windows through
/// [`ViewportPredictor::fit_window`] instead.
#[derive(Debug, Clone, Default)]
pub struct PredictorWorkspace {
    ts: Vec<f64>,
    yaw: Vec<f64>,
    pitch: Vec<f64>,
}

/// Online tracker of *realised* viewport prediction errors.
///
/// Each played segment reveals the true viewing center; feeding the
/// prediction error (degrees) into this tracker fits the residual
/// distribution with a deterministic [`QuantileSketch`], so the robust
/// controller can plan against "the error exceeded X° only 10% of the
/// time" instead of trusting the point estimate. Pure function of the
/// observation sequence — no clock, no RNG — so same-seed replays stay
/// bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualTracker {
    sketch: QuantileSketch,
    quantile: f64,
    min_samples: usize,
}

impl ResidualTracker {
    /// Creates a tracker reporting the given error `quantile`, staying
    /// silent (width 0°) until `min_samples` errors have been observed.
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
            quantile,
            min_samples,
        }
    }

    /// The evaluation default: p90 residual width over a 128-sample
    /// sketch, warming up after 8 realised errors.
    pub fn paper_default() -> Self {
        Self::new(128, 0.9, 8)
    }

    /// Feeds one realised prediction error.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite errors.
    pub fn observe_error_deg(&mut self, error_deg: f64) {
        assert!(
            error_deg.is_finite() && error_deg >= 0.0,
            "prediction errors must be non-negative, got {error_deg}"
        );
        self.sketch.observe(error_deg);
    }

    /// The tracked error quantile in degrees, or 0.0 while the tracker is
    /// still warming up (fewer than `min_samples` errors seen). Zero
    /// width is the signal that keeps the robust controller bit-identical
    /// to the point controller.
    pub fn width_deg(&self) -> f64 {
        if self.sketch.len() < self.min_samples {
            return 0.0;
        }
        self.sketch.quantile(self.quantile).unwrap_or(0.0)
    }

    /// Empirical probability that the realised error stays within
    /// `slack_deg` — an estimate of the viewport hit probability given
    /// that much angular slack. Optimistic 1.0 while warming up.
    pub fn hit_probability(&self, slack_deg: f64) -> f64 {
        if self.sketch.len() < self.min_samples {
            return 1.0;
        }
        self.sketch.fraction_at_or_below(slack_deg).unwrap_or(1.0)
    }

    /// Realised errors currently retained by the sketch.
    pub fn len(&self) -> usize {
        self.sketch.len()
    }

    /// `true` before the first realised error.
    pub fn is_empty(&self) -> bool {
        self.sketch.is_empty()
    }

    /// Drops all realised errors, as if freshly constructed.
    pub fn reset(&mut self) {
        self.sketch.reset();
    }
}

impl Default for ViewportPredictor {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_support::prelude::*;

    fn pan_history(speed_deg_s: f64, n: usize, dt: f64) -> Vec<SwitchingSample> {
        (0..n)
            .map(|i| {
                let t = i as f64 * dt;
                SwitchingSample::new(t, ViewCenter::new(speed_deg_s * t, 5.0))
            })
            .collect()
    }

    #[test]
    fn recycled_workspace_predicts_the_same_bits() {
        // One workspace reused across windows of different lengths and
        // kinds gives exactly what a fresh one gives.
        let mut ws = PredictorWorkspace::default();
        for kind in [PredictorKind::Ridge, PredictorKind::OrdinaryLeastSquares] {
            let p = ViewportPredictor::new(kind, 0.1, 2.0);
            for (speed, n) in [(170.0, 40), (-35.0, 3), (12.0, 21), (400.0, 2)] {
                let h = pan_history(speed, n, 0.1);
                let fresh = p.predict(&h, 1.0).unwrap();
                let reused = p.predict_with(&h, 1.0, &mut ws).unwrap();
                assert_eq!(fresh.yaw_deg().to_bits(), reused.yaw_deg().to_bits());
                assert_eq!(fresh.pitch_deg().to_bits(), reused.pitch_deg().to_bits());
            }
        }
    }

    /// `fit_window` over `history`'s iterator against `predict_with`,
    /// bit for bit, at a few horizons.
    fn assert_fit_window_matches(p: &ViewportPredictor, history: &[SwitchingSample]) {
        let fit = p.fit_window(history.iter().copied());
        for horizon in [0.0, 0.37, 1.0, 3.0] {
            let fused = fit.predict(horizon);
            let reference = p.predict_with(history, horizon, &mut PredictorWorkspace::default());
            assert_eq!(
                fused.map(|c| (c.yaw_deg().to_bits(), c.pitch_deg().to_bits())),
                reference.map(|c| (c.yaw_deg().to_bits(), c.pitch_deg().to_bits())),
                "horizon {horizon}, {} samples",
                history.len()
            );
        }
    }

    /// The two models `predict` fits over `history` when it regresses:
    /// its series rebuilt step for step and fitted by two
    /// `SingleRidge::fit`s.
    fn reference_models(
        p: &ViewportPredictor,
        history: &[SwitchingSample],
    ) -> Option<(SingleRidge, SingleRidge)> {
        let t_end = history.last()?.t_sec;
        let start = t_end - p.window_sec;
        let recent: Vec<_> = history.iter().filter(|s| s.t_sec >= start - 1e-9).collect();
        let t0 = recent.first()?.t_sec;
        let ts: Vec<f64> = recent.iter().map(|s| s.t_sec - t0).collect();
        let pitch: Vec<f64> = recent.iter().map(|s| s.center.pitch_deg()).collect();
        let mut yaw = Vec::new();
        let mut prev = recent.first()?.center.yaw_deg();
        let mut acc = prev;
        for (i, s) in recent.iter().enumerate() {
            if i > 0 {
                acc += ee360_geom::angles::signed_yaw_diff_deg(s.center.yaw_deg(), prev);
                prev = s.center.yaw_deg();
            }
            yaw.push(acc);
        }
        Some((
            SingleRidge::fit(&ts, &yaw, p.lambda).ok()?,
            SingleRidge::fit(&ts, &pitch, p.lambda).ok()?,
        ))
    }

    /// `fit_window`'s models equal `reference_models`, bit for bit.
    fn assert_models_match(p: &ViewportPredictor, history: &[SwitchingSample]) {
        let WindowFit::Linear(fit) = p.fit_window(history.iter().copied()) else {
            panic!("expected a linear fit over {} samples", history.len());
        };
        let (yaw, pitch) = reference_models(p, history).expect("a regular fit");
        for (got, expected) in [(fit.yaw, yaw), (fit.pitch, pitch)] {
            assert_eq!(got.weight.to_bits(), expected.weight.to_bits());
            assert_eq!(got.intercept.to_bits(), expected.intercept.to_bits());
        }
    }

    #[test]
    fn fit_window_matches_predict_with_on_edge_windows() {
        let p = ViewportPredictor::paper_default();
        let at =
            |t: f64, yaw: f64, pitch: f64| SwitchingSample::new(t, ViewCenter::new(yaw, pitch));
        // Pitch all -0.0 and all +0.0: the sums' start value decides the
        // sign of the pitch mean, and with it the intercept's.
        for pitch in [-0.0, 0.0] {
            let h: Vec<_> = (0..12)
                .map(|i| at(i as f64 * 0.1, 3.0 * i as f64, pitch))
                .collect();
            assert_fit_window_matches(&p, &h);
            assert_models_match(&p, &h);
            let WindowFit::Linear(fit) = p.fit_window(h.iter().copied()) else {
                panic!("expected a linear fit");
            };
            assert_eq!(
                fit.pitch.intercept.is_sign_negative(),
                pitch.is_sign_negative()
            );
        }
        // Two samples, and 121 samples at 60 Hz.
        let pair = [at(4.0, 10.0, 5.0), at(4.1, 12.0, 4.0)];
        assert_fit_window_matches(&p, &pair);
        assert_models_match(&p, &pair);
        let long: Vec<_> = (0..121)
            .map(|i| {
                let t = 7.0 + i as f64 / 60.0;
                at(t, 40.0 * (t * 1.3).sin(), -20.0 + 9.0 * t)
            })
            .collect();
        assert_fit_window_matches(&p, &long);
        assert_models_match(&p, &long);
        // A pan through the antimeridian: the yaw unwraps past 180.
        let pan: Vec<_> = (0..21)
            .map(|i| at(i as f64 * 0.1, 170.0 + 13.0 * i as f64, 1.0))
            .collect();
        assert_fit_window_matches(&p, &pan);
        assert_models_match(&p, &pan);
        // The recency filter drops the first sample, 2 s + 2e-9 older
        // than the last.
        let stale: Vec<_> = std::iter::once(at(8.0 - 2e-9, 90.0, 0.0))
            .chain((1..=20).map(|i| at(8.0 + i as f64 * 0.1, i as f64, 2.0)))
            .collect();
        assert_eq!(p.recent_span(stale.iter().copied()).map(|r| r.0), Some(1));
        assert_fit_window_matches(&p, &stale);
        assert_models_match(&p, &stale);
        // ... and then leaves one sample: a held centre.
        let lone = [at(0.0, 5.0, 5.0), at(2.5, 6.0, 6.0)];
        assert_eq!(
            p.fit_window(lone.iter().copied()),
            WindowFit::Hold(lone[1].center)
        );
        assert_fit_window_matches(&p, &lone);
        // A gram term that overflows: no prediction, so the caller falls
        // back exactly where `predict` gives `None`.
        let p_wide = ViewportPredictor::new(PredictorKind::Ridge, 0.1, 1e300);
        let wide = [at(0.0, 1.0, 1.0), at(1e160, 2.0, 2.0), at(3e160, 3.0, 3.0)];
        assert_eq!(p_wide.fit_window(wide.iter().copied()), WindowFit::Unfit);
        assert_fit_window_matches(&p_wide, &wide);
        // Empty and one-sample windows.
        assert_eq!(p.fit_window(std::iter::empty()), WindowFit::Unfit);
        assert_fit_window_matches(&p, &[at(1.0, 2.0, 3.0)]);
    }

    proptest! {
        #[test]
        fn fit_window_matches_predict_with_bit_for_bit(
            steps in prop::collection::vec(
                (0.001f64..0.4, -400.0f64..400.0, -120.0f64..120.0),
                0..160,
            ),
            rate in 0usize..3,
            t0 in -5.0f64..5.0,
            kind in 0usize..3,
            pitch_mode in 0usize..4,
            window_sec in 0.05f64..4.0,
        ) {
            // 10 Hz, 60 Hz or irregular steps; pitch as drawn, all -0.0,
            // all +0.0, or on the poles.
            let mut t = t0;
            let history: Vec<SwitchingSample> = steps
                .iter()
                .enumerate()
                .map(|(i, &(dt, yaw, pitch))| {
                    t = match rate {
                        0 => t0 + i as f64 / 10.0,
                        1 => t0 + i as f64 / 60.0,
                        _ => t + dt,
                    };
                    let pitch = match pitch_mode {
                        0 => pitch,
                        1 => -0.0,
                        2 => 0.0,
                        _ => 90.0f64.copysign(pitch),
                    };
                    SwitchingSample::new(t, ViewCenter::new(yaw, pitch))
                })
                .collect();
            let kind = [
                PredictorKind::Ridge,
                PredictorKind::OrdinaryLeastSquares,
                PredictorKind::LastSample,
            ][kind];
            let lambda = if kind == PredictorKind::Ridge { 0.1 } else { 0.0 };
            let p = ViewportPredictor::new(kind, lambda, window_sec);
            let fit = p.fit_window(history.iter().copied());
            for horizon in [0.0, 0.5, 2.9] {
                let fused = fit.predict(horizon);
                let reference = p.predict(&history, horizon);
                prop_assert_eq!(
                    fused.map(|c| (c.yaw_deg().to_bits(), c.pitch_deg().to_bits())),
                    reference.map(|c| (c.yaw_deg().to_bits(), c.pitch_deg().to_bits()))
                );
            }
            // The span and stale prefix `recent_span` reports are the
            // fit's own.
            if let (WindowFit::Linear(linear), Some((stale, span))) =
                (fit, p.recent_span(history.iter().copied()))
            {
                let models = reference_models(&p, &history);
                let bits = |m: SingleRidge| (m.weight.to_bits(), m.intercept.to_bits());
                prop_assert_eq!(
                    models.map(|(y, q)| (bits(y), bits(q))),
                    Some((bits(linear.yaw), bits(linear.pitch)))
                );
                prop_assert_eq!(linear.span.to_bits(), span.to_bits());
                let tail = history.get(stale..).unwrap_or_default();
                let refit = p.fit_window(tail.iter().copied());
                prop_assert_eq!(refit, fit);
            }
        }
    }

    #[test]
    fn empty_history_is_none() {
        let p = ViewportPredictor::paper_default();
        assert!(p.predict(&[], 1.0).is_none());
    }

    #[test]
    fn single_sample_predicts_itself() {
        let p = ViewportPredictor::paper_default();
        let h = vec![SwitchingSample::new(0.0, ViewCenter::new(33.0, -12.0))];
        let c = p.predict(&h, 1.0).unwrap();
        assert_eq!(c, ViewCenter::new(33.0, -12.0));
    }

    #[test]
    fn static_gaze_predicts_static() {
        let p = ViewportPredictor::paper_default();
        let h: Vec<SwitchingSample> = (0..20)
            .map(|i| SwitchingSample::new(i as f64 * 0.1, ViewCenter::new(40.0, 10.0)))
            .collect();
        let c = p.predict(&h, 1.0).unwrap();
        assert!(c.distance_deg(&ViewCenter::new(40.0, 10.0)) < 0.5);
    }

    #[test]
    fn linear_pan_extrapolates() {
        let p = ViewportPredictor::paper_default();
        let h = pan_history(15.0, 21, 0.1); // 0..2 s
        let c = p.predict(&h, 0.5).unwrap();
        // Truth at t = 2.5 s: yaw 37.5.
        assert!(
            (c.yaw_deg() - 37.5).abs() < 1.5,
            "predicted {}",
            c.yaw_deg()
        );
        assert!((c.pitch_deg() - 5.0).abs() < 0.5);
    }

    #[test]
    fn pan_through_antimeridian() {
        let p = ViewportPredictor::paper_default();
        let h: Vec<SwitchingSample> = (0..21)
            .map(|i| {
                let t = i as f64 * 0.1;
                SwitchingSample::new(t, ViewCenter::new(170.0 + 10.0 * t, 0.0))
            })
            .collect();
        // Truth at t = 3.0: yaw 200 → wrapped −160.
        let c = p.predict(&h, 1.0).unwrap();
        assert!(
            ee360_geom::angles::angular_diff_deg(c.yaw_deg(), -160.0) < 2.0,
            "predicted {}",
            c.yaw_deg()
        );
    }

    #[test]
    fn last_sample_predictor_ignores_trend() {
        let p = ViewportPredictor::new(PredictorKind::LastSample, 0.0, 2.0);
        let h = pan_history(20.0, 11, 0.1);
        let c = p.predict(&h, 1.0).unwrap();
        assert!((c.yaw_deg() - 20.0).abs() < 1e-9); // last sample at t=1.0
    }

    #[test]
    fn ridge_more_stable_than_ols_under_noise() {
        // Noisy static gaze with a wild last sample: OLS chases the
        // outlier-heavy trend harder than ridge.
        let mut h: Vec<SwitchingSample> = (0..10)
            .map(|i| {
                let t = i as f64 * 0.2;
                let wobble = if i % 2 == 0 { 4.0 } else { -4.0 };
                SwitchingSample::new(t, ViewCenter::new(wobble, 0.0))
            })
            .collect();
        h.push(SwitchingSample::new(2.0, ViewCenter::new(25.0, 0.0)));
        let ridge = ViewportPredictor::new(PredictorKind::Ridge, 50.0, 3.0);
        let ols = ViewportPredictor::new(PredictorKind::OrdinaryLeastSquares, 0.0, 3.0);
        let truth = ViewCenter::new(0.0, 0.0);
        let e_ridge = ridge.error_deg(&h, 1.0, truth).unwrap();
        let e_ols = ols.error_deg(&h, 1.0, truth).unwrap();
        assert!(
            e_ridge < e_ols,
            "ridge {e_ridge} should beat OLS {e_ols} here"
        );
    }

    #[test]
    fn window_limits_history() {
        // Old motion outside the window must not influence the prediction.
        let p = ViewportPredictor::new(PredictorKind::Ridge, 0.01, 1.0);
        let mut h = pan_history(60.0, 11, 0.1); // fast pan 0..1 s
                                                // Then hold still from t=1.1 to 3.0.
        for i in 0..20 {
            let t = 1.1 + i as f64 * 0.1;
            h.push(SwitchingSample::new(t, ViewCenter::new(60.0, 5.0)));
        }
        let c = p.predict(&h, 1.0).unwrap();
        assert!(c.distance_deg(&ViewCenter::new(60.0, 5.0)) < 2.0);
    }

    #[test]
    fn negative_horizon_is_a_typed_error() {
        let p = ViewportPredictor::paper_default();
        assert_eq!(
            p.try_predict(&pan_history(1.0, 5, 0.1), -1.0),
            Err(PredictError::InvalidHorizon { horizon_sec: -1.0 })
        );
        assert!(matches!(
            p.try_predict(&pan_history(1.0, 5, 0.1), f64::NAN),
            Err(PredictError::InvalidHorizon { .. })
        ));
        // A valid horizon on an empty history is Ok(None), not an error.
        assert_eq!(p.try_predict(&[], 1.0), Ok(None));
    }

    #[test]
    fn bad_config_is_a_typed_error() {
        assert_eq!(
            ViewportPredictor::try_new(PredictorKind::Ridge, -0.1, 1.0),
            Err(PredictError::NegativeLambda { lambda: -0.1 })
        );
        assert_eq!(
            ViewportPredictor::try_new(PredictorKind::Ridge, 0.1, 0.0),
            Err(PredictError::NonPositiveWindow { window_sec: 0.0 })
        );
        assert!(ViewportPredictor::try_new(PredictorKind::Ridge, 0.0, 2.0).is_ok());
    }

    #[test]
    fn predict_error_messages_name_the_field() {
        let e = PredictError::NegativeLambda { lambda: -0.1 };
        assert!(e.to_string().contains("lambda"));
        let e = PredictError::InvalidHorizon { horizon_sec: -1.0 };
        assert!(e.to_string().contains("horizon"));
        let e = PredictError::NonPositiveWindow { window_sec: 0.0 };
        assert!(e.to_string().contains("window"));
    }

    #[test]
    fn tracker_is_silent_until_warm_then_reports_quantile() {
        let mut tr = ResidualTracker::new(64, 0.9, 8);
        for i in 0..7 {
            tr.observe_error_deg(i as f64);
            assert_eq!(tr.width_deg(), 0.0, "cold tracker must report zero");
            assert_eq!(tr.hit_probability(0.0), 1.0);
        }
        tr.observe_error_deg(7.0); // 8th sample: warm
        let w = tr.width_deg();
        // p90 of {0..7} by linear interpolation: 6.3.
        assert!((w - 6.3).abs() < 1e-9, "width was {w}");
        assert!(tr.hit_probability(3.0) > 0.4 && tr.hit_probability(3.0) < 0.6);
        tr.reset();
        assert!(tr.is_empty());
        assert_eq!(tr.width_deg(), 0.0);
    }
}
