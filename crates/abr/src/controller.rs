//! The controller abstraction shared by all five schemes.

use ee360_video::ladder::EncodingLadder;

use crate::plan::{PlanBuffers, SegmentContext, SegmentPlan};
use crate::sizer::SchemeSizer;

/// The five evaluated schemes (Section V-A), plus the beyond-paper
/// robust variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Conventional fixed 4×8 tiling.
    Ctile,
    /// Ten variable-size tiles clustered from 450 fine blocks.
    Ftile,
    /// Whole-frame streaming (no tiles).
    Nontile,
    /// Popularity tile at the original frame rate (no frame-rate ladder).
    Ptile,
    /// The paper's energy-efficient QoE-aware MPC algorithm.
    Ours,
    /// Beyond-paper: chance-constrained MPC planning against FoV and
    /// bandwidth uncertainty quantiles. Not in [`Scheme::ALL`] — the
    /// paper's figures compare exactly the five published schemes.
    RobustMpc,
}

ee360_support::impl_json_enum!(Scheme {
    Ctile,
    Ftile,
    Nontile,
    Ptile,
    Ours,
    RobustMpc
});

impl Scheme {
    /// All schemes in the paper's plotting order.
    pub const ALL: [Scheme; 5] = [
        Scheme::Ctile,
        Scheme::Ftile,
        Scheme::Nontile,
        Scheme::Ptile,
        Scheme::Ours,
    ];

    /// Display label as used in the figures.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Ctile => "Ctile",
            Scheme::Ftile => "Ftile",
            Scheme::Nontile => "Nontile",
            Scheme::Ptile => "Ptile",
            Scheme::Ours => "Ours",
            Scheme::RobustMpc => "RobustMpc",
        }
    }

    /// Kebab-case command-line token, as accepted by `--scheme` flags.
    pub fn cli_token(&self) -> &'static str {
        match self {
            Scheme::Ctile => "ctile",
            Scheme::Ftile => "ftile",
            Scheme::Nontile => "nontile",
            Scheme::Ptile => "ptile",
            Scheme::Ours => "ours",
            Scheme::RobustMpc => "robust-mpc",
        }
    }

    /// Parses a `--scheme` token; the inverse of [`Scheme::cli_token`].
    /// Accepts every variant, including [`Scheme::RobustMpc`], which is
    /// deliberately absent from [`Scheme::ALL`].
    pub fn from_cli_token(token: &str) -> Option<Scheme> {
        match token {
            "ctile" => Some(Scheme::Ctile),
            "ftile" => Some(Scheme::Ftile),
            "nontile" => Some(Scheme::Nontile),
            "ptile" => Some(Scheme::Ptile),
            "ours" => Some(Scheme::Ours),
            "robust-mpc" => Some(Scheme::RobustMpc),
            _ => None,
        }
    }
}

/// Cumulative DP-solver work counters, exposed for observability.
///
/// All fields are lifetime totals for one controller instance; callers
/// diff two snapshots around a `plan` call to attribute work to a
/// single decision.
///
/// The solver keeps no cache, so the two memo fields keep their names
/// (the `solver_plan` event schema and the benchmark read them) with
/// fixed meanings: `memo_misses` counts candidate sets built, `H` per
/// solve, and `memo_hits` is always 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// DP solves performed (one per `plan` on the MPC path).
    pub plans: u64,
    /// Always 0: no candidate set is ever reused.
    pub memo_hits: u64,
    /// Candidate sets built, one per horizon step of every solve.
    pub memo_misses: u64,
    /// `(state, candidate)` transitions evaluated by the DP: each step
    /// adds its candidate count once per live buffer state.
    pub states_expanded: u64,
}

ee360_support::impl_json_struct!(SolverStats {
    plans,
    memo_hits,
    memo_misses,
    states_expanded
});

impl SolverStats {
    /// Component-wise `self - earlier`, for per-plan attribution.
    /// Saturates rather than wrapping if snapshots are swapped.
    #[must_use]
    pub fn since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            plans: self.plans.saturating_sub(earlier.plans),
            memo_hits: self.memo_hits.saturating_sub(earlier.memo_hits),
            memo_misses: self.memo_misses.saturating_sub(earlier.memo_misses),
            states_expanded: self.states_expanded.saturating_sub(earlier.states_expanded),
        }
    }
}

/// Cumulative uncertainty-handling counters for the robust controller,
/// exposed for observability.
///
/// Like [`SolverStats`], all integer fields are lifetime totals diffed
/// around a `plan` call; the two `f64` fields carry the latest width and
/// the controller's own running sum, which observability reconciles
/// bit-exactly against the `robust.quantile_width_deg` histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RobustStats {
    /// Plans whose DP bandwidth was scaled down by the margin factor.
    pub margin_applied: u64,
    /// Plans whose coverage target was widened by a non-zero FoV
    /// quantile.
    pub widened_plans: u64,
    /// Realised prediction errors that exceeded the point-plan slack but
    /// fell inside the widened band — misses the widening paid for.
    pub coverage_miss_saved: u64,
    /// The FoV error quantile (degrees) applied by the most recent plan.
    pub last_width_deg: f64,
    /// Running sum of applied widths across all widened plans.
    pub width_sum_deg: f64,
}

ee360_support::impl_json_struct!(RobustStats {
    margin_applied,
    widened_plans,
    coverage_miss_saved,
    last_width_deg,
    width_sum_deg
});

impl RobustStats {
    /// Component-wise `self - earlier` on the counters, for per-plan
    /// attribution; the width fields carry `self`'s latest values (they
    /// are gauges, not counters). Saturates rather than wrapping if
    /// snapshots are swapped.
    #[must_use]
    pub fn since(&self, earlier: &RobustStats) -> RobustStats {
        RobustStats {
            margin_applied: self.margin_applied.saturating_sub(earlier.margin_applied),
            widened_plans: self.widened_plans.saturating_sub(earlier.widened_plans),
            coverage_miss_saved: self
                .coverage_miss_saved
                .saturating_sub(earlier.coverage_miss_saved),
            last_width_deg: self.last_width_deg,
            width_sum_deg: self.width_sum_deg,
        }
    }
}

/// A per-segment planner.
pub trait Controller {
    /// Decides quality/frame-rate/bits for the next segment.
    fn plan(&mut self, ctx: &SegmentContext) -> SegmentPlan;

    /// [`Controller::plan`], and nothing else: planners own their
    /// scratch, so `buffers` carries nothing. Kept only because the
    /// benchmark's timing wrapper (`benchmark/src/layers.rs`) implements
    /// it; no controller in the workspace overrides it and no caller
    /// uses it.
    fn plan_into(&mut self, ctx: &SegmentContext, buffers: &mut PlanBuffers) -> SegmentPlan {
        let _ = buffers;
        self.plan(ctx)
    }

    /// The scheme this controller implements.
    fn scheme(&self) -> Scheme;

    /// Feeds back the throughput the last download experienced. Default:
    /// ignored (the baselines rely on the context's estimate alone); the
    /// forecast-enabled MPC uses it to fit its AR(1) model.
    fn observe_throughput(&mut self, _throughput_bps: f64) {}

    /// Re-plans a segment `rungs` steps down the degradation ladder after
    /// the resilient pipeline abandoned the original download.
    ///
    /// The default walks both axes the paper adapts: each rung lowers the
    /// quality level one step (floored at Q1) and the frame rate one step
    /// along the 21/24/27/30 fps ladder (floored at the minimum), scaling
    /// the payload by the effective-bitrate and frame-rate ratios so the
    /// retry actually gets cheaper. Controllers with richer state may
    /// override (e.g. to respect a Ptile/Ctile fallback decision).
    fn replan_degraded(
        &mut self,
        _ctx: &SegmentContext,
        original: &SegmentPlan,
        rungs: usize,
    ) -> SegmentPlan {
        if rungs == 0 {
            return *original;
        }
        let sizer = SchemeSizer::paper_default();
        let mut quality = original.quality;
        for _ in 0..rungs {
            if let Some(lower) = quality.lower() {
                quality = lower;
            }
        }
        let rates = EncodingLadder::paper_default().frame_rates();
        let idx = rates
            .iter()
            .rposition(|r| r.fps() <= original.fps + 1e-9)
            .unwrap_or(0);
        let fps = rates[idx.saturating_sub(rungs)].fps().min(original.fps);
        let rate_ratio =
            sizer.effective_bitrate_mbps(quality) / sizer.effective_bitrate_mbps(original.quality);
        let fps_ratio = fps / original.fps;
        SegmentPlan {
            quality,
            fps,
            bits: (original.bits * rate_ratio * fps_ratio).max(1.0),
            decode_scheme: original.decode_scheme,
            effective_bitrate_mbps: sizer.effective_bitrate_mbps(quality),
        }
    }

    /// Resets internal state between sessions (default: nothing to reset).
    fn reset(&mut self) {}

    /// Cumulative solver work counters, when the controller runs a
    /// solver worth metering. Default: `None` (the rate-based baselines
    /// do no search). Observability instrumentation diffs consecutive
    /// snapshots to attribute candidate sets built and states expanded
    /// to individual plans.
    fn solver_stats(&self) -> Option<SolverStats> {
        None
    }

    /// Cumulative uncertainty-handling counters, when the controller
    /// plans against uncertainty. Default: `None` (point controllers
    /// have no margin accounting).
    fn robust_stats(&self) -> Option<RobustStats> {
        None
    }

    /// Feeds back the realised viewport prediction error (degrees) once
    /// a segment plays and the true viewing center is known. Default:
    /// ignored — only the robust controller fits its residual sketch.
    fn observe_prediction_error(&mut self, _error_deg: f64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_paper_names() {
        let labels: Vec<&str> = Scheme::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["Ctile", "Ftile", "Nontile", "Ptile", "Ours"]);
    }

    #[test]
    fn serde_roundtrip() {
        let json = ee360_support::json::to_string(&Scheme::Ours).unwrap();
        let back: Scheme = ee360_support::json::from_str(&json).unwrap();
        assert_eq!(back, Scheme::Ours);
    }

    #[test]
    fn robust_mpc_round_trips_everywhere_despite_living_outside_all() {
        // RobustMpc is intentionally excluded from the paper's plotting
        // set — pin that first so a future edit can't silently change
        // which schemes the figures compare.
        assert!(!Scheme::ALL.contains(&Scheme::RobustMpc));

        // Every surface must agree on its spelling: obs metric labels and
        // figure legends use `label()`, JSON reports serialise through
        // `impl_json_enum` (same string), and `chaos_run --scheme` parses
        // the kebab-case CLI token.
        assert_eq!(Scheme::RobustMpc.label(), "RobustMpc");
        let json = ee360_support::json::to_string(&Scheme::RobustMpc).unwrap();
        assert_eq!(json, "\"RobustMpc\"");
        let back: Scheme = ee360_support::json::from_str(&json).unwrap();
        assert_eq!(back, Scheme::RobustMpc);
        assert_eq!(Scheme::RobustMpc.cli_token(), "robust-mpc");
        assert_eq!(
            Scheme::from_cli_token("robust-mpc"),
            Some(Scheme::RobustMpc)
        );
    }

    #[test]
    fn cli_tokens_round_trip_for_every_scheme() {
        for s in Scheme::ALL.into_iter().chain([Scheme::RobustMpc]) {
            assert_eq!(Scheme::from_cli_token(s.cli_token()), Some(s), "{s:?}");
            // The JSON string is always the label, for all six variants.
            let json = ee360_support::json::to_string(&s).unwrap();
            assert_eq!(json, format!("{:?}", s.label()));
        }
        assert_eq!(Scheme::from_cli_token("robustmpc"), None);
        assert_eq!(Scheme::from_cli_token(""), None);
    }

    use ee360_power::model::DecoderScheme;
    use ee360_video::content::SiTi;
    use ee360_video::ladder::QualityLevel;

    /// A trivial controller to exercise the default `replan_degraded`.
    struct Fixed(SegmentPlan);

    impl Controller for Fixed {
        fn plan(&mut self, _ctx: &SegmentContext) -> SegmentPlan {
            self.0
        }
        fn scheme(&self) -> Scheme {
            Scheme::Ours
        }
    }

    fn original_plan() -> SegmentPlan {
        SegmentPlan {
            quality: QualityLevel::Q4,
            fps: 30.0,
            bits: 4.0e6,
            decode_scheme: DecoderScheme::Ptile,
            effective_bitrate_mbps: SchemeSizer::paper_default()
                .effective_bitrate_mbps(QualityLevel::Q4),
        }
    }

    #[test]
    fn replan_walks_both_axes_down() {
        let ctx = SegmentContext::example(SiTi::new(50.0, 20.0), 4.0e6);
        let mut c = Fixed(original_plan());
        let original = original_plan();
        let d1 = c.replan_degraded(&ctx, &original, 1);
        assert_eq!(d1.quality, QualityLevel::Q3);
        assert!((d1.fps - 27.0).abs() < 1e-9);
        assert!(d1.bits < original.bits, "a degraded retry must be cheaper");
        assert!(d1.effective_bitrate_mbps < original.effective_bitrate_mbps);
        // Deeper rungs keep shrinking.
        let d2 = c.replan_degraded(&ctx, &original, 2);
        assert!(d2.bits < d1.bits);
        assert_eq!(d2.quality, QualityLevel::Q2);
        assert!((d2.fps - 24.0).abs() < 1e-9);
    }

    #[test]
    fn replan_floors_at_the_bottom_of_the_ladder() {
        let ctx = SegmentContext::example(SiTi::new(50.0, 20.0), 4.0e6);
        let mut c = Fixed(original_plan());
        let original = original_plan();
        let floor = c.replan_degraded(&ctx, &original, 99);
        assert_eq!(floor.quality, QualityLevel::Q1);
        assert!((floor.fps - 21.0).abs() < 1e-9);
        assert!(floor.bits > 0.0, "the floor is still a playable request");
        // Rung 0 is the identity.
        assert_eq!(c.replan_degraded(&ctx, &original, 0), original);
    }

    #[test]
    fn replan_preserves_decode_scheme() {
        let ctx = SegmentContext::example(SiTi::new(50.0, 20.0), 4.0e6);
        let mut c = Fixed(original_plan());
        let original = original_plan();
        let d = c.replan_degraded(&ctx, &original, 3);
        assert_eq!(d.decode_scheme, original.decode_scheme);
    }
}
