//! Chance-constrained MPC: planning against uncertainty quantiles.
//!
//! The point MPC (Section IV-C) trusts two point estimates — the
//! ridge-regression viewport prediction and the harmonic-mean bandwidth
//! estimate — and fails hardest exactly where those estimates are worst:
//! exploratory gaze and outage-heavy traces. Following the robust
//! tile-streaming formulation of Ghosh, Aggarwal & Qian
//! (arXiv:1812.00816), [`RobustMpcController`] wraps the point MPC
//! solver and deflects only the *inputs* it plans against:
//!
//! * **FoV uncertainty** — realised prediction errors stream into a
//!   [`ResidualTracker`]; the tracked error quantile, weighted by the
//!   empirical miss probability beyond the point plan's slack, widens
//!   the planned Ptile coverage so bits land where the gaze actually
//!   goes (the chance-constrained coverage term). A widening is
//!   *accepted* only when the widened solve holds the base plan's
//!   quality rung and frame rate — coverage is bought from slack in the
//!   quality constraint, never by trading a rung for it.
//! * **Bandwidth uncertainty** — realised/estimated throughput ratios
//!   stream into a [`BandwidthMargin`]; its downside quantile scales the
//!   bandwidth entering the DP transition, so the solver plans against
//!   the p25 throughput instead of the mean. The margin engages only
//!   below [`MARGIN_BUFFER_SEC`] of buffer, where the no-rebuffer
//!   constraint actually binds.
//!
//! **Reduction to the point MPC.** Both trackers report the identity
//! (width 0°, factor 1.0) until warm, and any time uncertainty is zero
//! the controller passes the [`SegmentContext`] through *untouched* —
//! not multiplied by 1.0, but the very same struct — so the identical
//! point solve runs and the plans are bit-identical to
//! [`MpcController`]'s. `tests/robustness.rs` pins this with a seeded
//! proptest, and `reference::solve_reference` stays the oracle because
//! the solver core itself is never modified.

use ee360_predict::bandwidth::BandwidthMargin;
use ee360_predict::viewport::ResidualTracker;

use crate::controller::{Controller, RobustStats, Scheme, SolverStats};
use crate::mpc::{MpcConfig, MpcController};
use crate::plan::{SegmentContext, SegmentPlan};

/// Angular slack (degrees) the *point* plan already tolerates: a Ptile is
/// built over the predicted block plus its popularity-weighted margin, so
/// small prediction errors land inside the covered region anyway. Errors
/// beyond this slack are the ones the robust widening pays to cover.
pub const POINT_SLACK_DEG: f64 = 10.0;

/// The paper's 100°×100° field of view, against which the widening is
/// expressed as an area ratio.
const FOV_DEG: f64 = 100.0;

/// Buffer level (seconds) below which the bandwidth margin engages. The
/// margin guards the no-rebuffer constraint (8a), and that constraint
/// only binds when the buffer is thin: with half the 3 s cap or more
/// banked, a downside bandwidth error drains buffer instead of stalling,
/// so deflating the estimate there would be pure pessimism — the robust
/// controller would trail the point MPC on quality while saving zero
/// stall time.
pub const MARGIN_BUFFER_SEC: f64 = 1.5;

/// Smallest widening (degrees) worth paying for. The Ptile's own
/// popularity margin plus the [`POINT_SLACK_DEG`] slack already absorbs
/// sub-degree drift, so micro-widenings would spend bits on 52 plans to
/// save one miss; below this floor the context passes through untouched.
pub const MIN_GROW_DEG: f64 = 3.0;

/// The uncertainty-aware controller ([`Scheme::RobustMpc`]).
///
/// # Example
///
/// ```
/// use ee360_abr::controller::Controller;
/// use ee360_abr::plan::SegmentContext;
/// use ee360_abr::robust::RobustMpcController;
/// use ee360_video::content::SiTi;
///
/// let mut c = RobustMpcController::paper_default();
/// let ctx = SegmentContext::example(SiTi::new(60.0, 25.0), 6.0e6);
/// // Cold trackers: identical to the point MPC.
/// let plan = c.plan(&ctx);
/// assert!(plan.bits > 0.0);
/// ```
#[derive(Debug)]
pub struct RobustMpcController {
    inner: MpcController,
    tracker: ResidualTracker,
    margin: BandwidthMargin,
    stats: RobustStats,
    /// The raw (pre-margin) bandwidth estimate the latest plan used, so
    /// the next realised throughput can be turned into a ratio.
    last_estimate_bps: Option<f64>,
    /// [`Self::planned_width_deg`], cached when a residual arrives. The
    /// sketches only move in the observe hooks, so `plan` can reuse
    /// these instead of paying a quantile query (a sort of the sketch
    /// buffer) per solve — that query, not the dual solve, dominated the
    /// warmed overhead before the caches existed.
    cached_grow_deg: f64,
    /// [`BandwidthMargin::factor`], cached when a throughput arrives.
    cached_factor: f64,
    /// [`BandwidthMargin::depressed_floor`], cached alongside it.
    cached_floor: Option<f64>,
    /// The margined copy of the latest hedged context (bandwidth hedge).
    margined: Option<SegmentContext>,
    /// The widened copy of the latest hedged context (FoV hedge).
    widened: Option<SegmentContext>,
}

/// `slot`'s context overwritten with `src`: cloned on the first hedged
/// plan, then refilled in place, reusing its `upcoming` allocation.
fn hedge_from<'a>(
    slot: &'a mut Option<SegmentContext>,
    src: &SegmentContext,
) -> &'a mut SegmentContext {
    // lint:allow(hot-path-alloc, "first hedged plan per controller only: every later plan refills this context in place")
    let hedged = slot.get_or_insert_with(|| src.clone());
    hedged.assign_from(src);
    hedged
}

impl RobustMpcController {
    /// The evaluation configuration: the paper-default point solver plus
    /// the default residual tracker (p90 FoV error) and bandwidth margin
    /// (p25 downside ratio).
    pub fn paper_default() -> Self {
        Self::new(MpcConfig::default())
    }

    /// Wraps the point solver built from `config` with cold uncertainty
    /// trackers.
    pub fn new(config: MpcConfig) -> Self {
        Self {
            inner: MpcController::new(config),
            tracker: ResidualTracker::paper_default(),
            margin: BandwidthMargin::paper_default(),
            stats: RobustStats::default(),
            last_estimate_bps: None,
            cached_grow_deg: 0.0,
            cached_factor: 1.0,
            cached_floor: None,
            margined: None,
            widened: None,
        }
    }

    /// The effective widening (degrees) the next plan would apply: the
    /// tracked error quantile weighted by the probability that the error
    /// escapes the point plan's slack. Zero while the tracker is cold.
    pub fn planned_width_deg(&self) -> f64 {
        let width = self.tracker.width_deg();
        if width <= 0.0 {
            return 0.0;
        }
        width * (1.0 - self.tracker.hit_probability(POINT_SLACK_DEG))
    }

    /// The bandwidth margin factor the tracker currently reports. Plans
    /// only apply it below [`MARGIN_BUFFER_SEC`] of buffer — see there.
    pub fn margin_factor(&self) -> f64 {
        self.margin.factor()
    }
}

impl Controller for RobustMpcController {
    fn plan(&mut self, ctx: &SegmentContext) -> SegmentPlan {
        self.last_estimate_bps = Some(ctx.predicted_bandwidth_bps);
        let grow_deg = self.cached_grow_deg;
        // The cached pair reproduces `BandwidthMargin::factor_for`: an
        // estimate that has already collapsed below the recent floor
        // carries the outage — a second deflation would double-count it.
        let factor = if ctx.buffer_sec < MARGIN_BUFFER_SEC {
            match self.cached_floor {
                Some(floor) if ctx.predicted_bandwidth_bps < floor => 1.0,
                _ => self.cached_factor,
            }
        } else {
            1.0
        };
        let widen = grow_deg >= MIN_GROW_DEG && ctx.ptile_available;
        // lint:allow(float-compare, "intentional exact check: factor is exactly 1.0 iff the margin is inert, which selects the bit-identical passthrough")
        if !widen && factor == 1.0 {
            // Zero (or negligible) uncertainty: hand the *same* context to
            // the same point solver — the reduction-to-point-MPC
            // guarantee.
            self.stats.last_width_deg = 0.0;
            return self.inner.plan(ctx);
        }
        let base: &SegmentContext = if factor < 1.0 {
            let margined = hedge_from(&mut self.margined, ctx);
            margined.predicted_bandwidth_bps = ctx.predicted_bandwidth_bps * factor;
            self.stats.margin_applied += 1;
            margined
        } else {
            ctx
        };
        let base_plan = self.inner.plan(base);
        let mut chosen = base_plan;
        self.stats.last_width_deg = 0.0;
        if widen {
            // Chance-constrained coverage: buy the probability mass the
            // point plan misses by growing the planned viewport grow_deg
            // on each side, expressed as an area ratio of the 100° FoV.
            let side = (FOV_DEG + 2.0 * grow_deg) / FOV_DEG;
            let wctx = hedge_from(&mut self.widened, base);
            wctx.ptile_area_frac = (base.ptile_area_frac * side * side).min(1.0);
            let wide_plan = self.inner.plan(wctx);
            // Acceptance rule: coverage is bought only while the quality
            // constraint stays slack — the widened solve must hold the
            // base plan's rung and frame rate, otherwise hedging against
            // a *possible* miss would charge every viewer a *certain*
            // quality drop and the robust controller would trail the
            // point MPC exactly where predictions are good.
            if wide_plan.quality >= base_plan.quality && wide_plan.fps >= base_plan.fps {
                self.stats.widened_plans += 1;
                self.stats.last_width_deg = grow_deg;
                self.stats.width_sum_deg += grow_deg;
                chosen = wide_plan;
            }
        }
        chosen
    }

    fn scheme(&self) -> Scheme {
        Scheme::RobustMpc
    }

    fn observe_throughput(&mut self, throughput_bps: f64) {
        if let Some(est) = self.last_estimate_bps {
            if est > 0.0 && throughput_bps.is_finite() && throughput_bps > 0.0 {
                self.margin.observe(est, throughput_bps);
                self.cached_factor = self.margin.factor();
                self.cached_floor = self.margin.depressed_floor();
            }
        }
        self.inner.observe_throughput(throughput_bps);
    }

    fn observe_prediction_error(&mut self, error_deg: f64) {
        // A realised miss the widening covered: beyond the point slack
        // but inside the widened band the latest plan paid for.
        if self.stats.last_width_deg > 0.0
            && error_deg > POINT_SLACK_DEG
            && error_deg <= POINT_SLACK_DEG + self.stats.last_width_deg
        {
            self.stats.coverage_miss_saved += 1;
        }
        self.tracker.observe_error_deg(error_deg);
        self.cached_grow_deg = self.planned_width_deg();
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.tracker.reset();
        self.margin.reset();
        self.stats = RobustStats::default();
        self.last_estimate_bps = None;
        self.cached_grow_deg = 0.0;
        self.cached_factor = 1.0;
        self.cached_floor = None;
    }

    fn solver_stats(&self) -> Option<SolverStats> {
        self.inner.solver_stats()
    }

    fn robust_stats(&self) -> Option<RobustStats> {
        Some(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_video::content::SiTi;

    fn ctx(bandwidth: f64) -> SegmentContext {
        let content = SiTi::new(60.0, 25.0);
        SegmentContext {
            index: 0,
            upcoming: vec![content; 5],
            predicted_bandwidth_bps: bandwidth,
            buffer_sec: 3.0,
            switching_speed_deg_s: 8.0,
            ptile_available: true,
            ptile_area_frac: 9.0 / 32.0,
            background_blocks: 3,
            ftile_fov_area: 0.0,
            ftile_fov_tiles: 0,
        }
    }

    /// Warms the margin to a known downside factor.
    fn warm_margin(c: &mut RobustMpcController, ratio: f64) {
        for _ in 0..8 {
            c.last_estimate_bps = Some(10.0e6);
            c.observe_throughput(10.0e6 * ratio);
        }
    }

    /// Warms the residual tracker with a constant error.
    fn warm_tracker(c: &mut RobustMpcController, error_deg: f64) {
        for _ in 0..8 {
            c.observe_prediction_error(error_deg);
        }
    }

    #[test]
    fn cold_controller_is_bit_identical_to_point_mpc() {
        let mut point = MpcController::paper_default();
        let mut robust = RobustMpcController::paper_default();
        for bw in [2.0e6, 4.0e6, 6.0e6, 9.0e6, 15.0e6] {
            let c = ctx(bw);
            let p = point.plan(&c);
            let r = robust.plan(&c);
            assert_eq!(p, r, "cold robust plan must equal the point plan");
            assert_eq!(p.bits.to_bits(), r.bits.to_bits());
        }
        assert_eq!(robust.robust_stats().unwrap().margin_applied, 0);
        assert_eq!(robust.robust_stats().unwrap().widened_plans, 0);
    }

    #[test]
    fn warm_margin_plans_against_downside_bandwidth() {
        let mut point = MpcController::paper_default();
        let mut robust = RobustMpcController::paper_default();
        warm_margin(&mut robust, 0.5);
        assert!((robust.margin_factor() - 0.5).abs() < 1e-12);
        let mut c = ctx(10.0e6);
        c.buffer_sec = 1.0; // thin: the no-rebuffer constraint binds
        let r = robust.plan(&c);
        // The robust plan must equal the point plan at the margined
        // bandwidth — the solver core is shared, only the input moves.
        let mut c_margined = ctx(5.0e6);
        c_margined.buffer_sec = 1.0;
        let p = point.plan(&c_margined);
        assert_eq!(r, p);
        assert_eq!(robust.robust_stats().unwrap().margin_applied, 1);
    }

    #[test]
    fn deep_buffer_skips_the_margin() {
        let mut point = MpcController::paper_default();
        let mut robust = RobustMpcController::paper_default();
        warm_margin(&mut robust, 0.5);
        let c = ctx(10.0e6); // buffer 3.0 s: nothing to protect
        assert_eq!(robust.plan(&c), point.plan(&c));
        assert_eq!(robust.robust_stats().unwrap().margin_applied, 0);
    }

    #[test]
    fn warm_tracker_widens_coverage_and_books_it() {
        let mut robust = RobustMpcController::paper_default();
        warm_tracker(&mut robust, 30.0); // every error escapes the slack
        let grow = robust.planned_width_deg();
        assert!(grow > 0.0, "persistent misses must widen the plan");
        // Ample bandwidth: the widened solve holds the rung, so the
        // acceptance rule takes it.
        let c = ctx(40.0e6);
        let _ = robust.plan(&c);
        let st = robust.robust_stats().unwrap();
        assert_eq!(st.widened_plans, 1);
        assert!((st.last_width_deg - grow).abs() < 1e-12);
        assert!((st.width_sum_deg - grow).abs() < 1e-12);
    }

    #[test]
    fn widened_plan_requests_more_bits_than_point_plan() {
        let mut point = MpcController::paper_default();
        let mut robust = RobustMpcController::paper_default();
        warm_tracker(&mut robust, 30.0);
        // Ample bandwidth so both controllers pick the same quality and
        // the difference is purely the widened coverage area.
        let c = ctx(40.0e6);
        let p = point.plan(&c);
        let r = robust.plan(&c);
        assert!(
            r.bits > p.bits,
            "widened coverage must cost bits: robust {} vs point {}",
            r.bits,
            p.bits
        );
    }

    #[test]
    fn widening_never_costs_a_quality_rung() {
        // Scarce bandwidth: paying side² more area would force a lower
        // rung, so the acceptance rule must fall back to the base plan.
        let mut point = MpcController::paper_default();
        let mut robust = RobustMpcController::paper_default();
        warm_tracker(&mut robust, 30.0);
        for bw in [1.5e6, 2.5e6, 4.0e6, 6.0e6] {
            let c = ctx(bw);
            let p = point.plan(&c);
            let r = robust.plan(&c);
            assert!(
                r.quality >= p.quality,
                "widening dropped the rung at {bw}: robust {:?} vs point {:?}",
                r.quality,
                p.quality
            );
        }
    }

    #[test]
    fn accurate_predictions_keep_the_plan_tight() {
        let mut robust = RobustMpcController::paper_default();
        warm_tracker(&mut robust, 2.0); // all errors inside the slack
        assert_eq!(
            robust.planned_width_deg(),
            0.0,
            "errors inside the point slack must not widen anything"
        );
    }

    #[test]
    fn coverage_miss_saved_counts_only_the_widened_band() {
        let mut robust = RobustMpcController::paper_default();
        warm_tracker(&mut robust, 30.0);
        let _ = robust.plan(&ctx(8.0e6));
        let w = robust.robust_stats().unwrap().last_width_deg;
        assert!(w > 0.0);
        let before = robust.robust_stats().unwrap().coverage_miss_saved;
        robust.observe_prediction_error(POINT_SLACK_DEG + w * 0.5); // inside the band
        robust.observe_prediction_error(POINT_SLACK_DEG * 0.5); // point plan covers it
        robust.observe_prediction_error(POINT_SLACK_DEG + w + 50.0); // beyond even the band
        let after = robust.robust_stats().unwrap().coverage_miss_saved;
        assert_eq!(after - before, 1);
    }

    #[test]
    fn margin_never_inflates_bandwidth() {
        let mut robust = RobustMpcController::paper_default();
        warm_margin(&mut robust, 2.0); // persistent over-delivery
        assert_eq!(robust.margin_factor(), 1.0);
        let mut point = MpcController::paper_default();
        let c = ctx(6.0e6);
        assert_eq!(robust.plan(&c), point.plan(&c));
    }

    #[test]
    fn reset_returns_to_the_point_reduction() {
        let mut robust = RobustMpcController::paper_default();
        warm_margin(&mut robust, 0.5);
        warm_tracker(&mut robust, 30.0);
        let mut c = ctx(10.0e6);
        c.buffer_sec = 1.0;
        let _ = robust.plan(&c);
        assert!(robust.robust_stats().unwrap().margin_applied > 0);
        robust.reset();
        let st = robust.robust_stats().unwrap();
        assert_eq!(st, RobustStats::default());
        let mut point = MpcController::paper_default();
        let c = ctx(8.0e6);
        assert_eq!(robust.plan(&c), point.plan(&c));
    }

    #[test]
    fn no_ptile_fallback_still_applies_the_margin() {
        let mut robust = RobustMpcController::paper_default();
        warm_margin(&mut robust, 0.5);
        let mut c = ctx(10.0e6);
        c.buffer_sec = 1.0;
        c.ptile_available = false;
        c.ptile_area_frac = 0.0;
        let r = robust.plan(&c);
        let mut point = MpcController::paper_default();
        let mut c_margined = c.clone();
        c_margined.predicted_bandwidth_bps = 5.0e6;
        assert_eq!(r, point.plan(&c_margined));
    }
}
