//! The four rate-based baselines (Section V-A).
//!
//! Each baseline downloads "the best possible quality based on the current
//! network condition": the highest quality level whose segment downloads
//! within one segment duration at the estimated bandwidth (the sustainable
//! rate rule used by throughput-based ABR). The Ptile baseline additionally
//! falls back to conventional tiles when no Ptile covers the predicted
//! viewport, exactly as the paper's client does.

use ee360_video::ladder::QualityLevel;
use ee360_video::segment::SEGMENT_DURATION_SEC;

use ee360_power::model::DecoderScheme;

use crate::controller::{Controller, Scheme};
use crate::plan::{SegmentContext, SegmentPlan};
use crate::sizer::{SchemeSizer, FOV_AREA_FRACTION};

/// A throughput-based controller for one of the four baseline schemes.
///
/// # Panics
///
/// `new` panics if constructed with [`Scheme::Ours`] — the MPC controller
/// lives in [`crate::mpc`].
#[derive(Debug, Clone, PartialEq)]
pub struct RateBasedController {
    scheme: Scheme,
    sizer: SchemeSizer,
}

impl RateBasedController {
    /// Creates a baseline controller with the paper's size model.
    pub fn new(scheme: Scheme) -> Self {
        assert!(
            scheme != Scheme::Ours && scheme != Scheme::RobustMpc,
            "use MpcController/RobustMpcController for the MPC schemes"
        );
        Self {
            scheme,
            sizer: SchemeSizer::paper_default(),
        }
    }

    /// Segment bits for this scheme at a quality level given a context.
    fn bits_for(&self, q: QualityLevel, ctx: &SegmentContext) -> (f64, DecoderScheme) {
        let content = ctx.content();
        match self.scheme {
            Scheme::Ctile => (self.sizer.ctile_bits(q, content), DecoderScheme::Ctile),
            Scheme::Ftile => {
                let bits = if ctx.ftile_fov_area > 0.0 && ctx.ftile_fov_tiles > 0 {
                    self.sizer.ftile_bits_with(
                        q,
                        ctx.ftile_fov_area.min(1.0),
                        ctx.ftile_fov_tiles.min(10),
                        content,
                    )
                } else {
                    self.sizer.ftile_bits(q, content)
                };
                (bits, DecoderScheme::Ftile)
            }
            Scheme::Nontile => (self.sizer.nontile_bits(q, content), DecoderScheme::Nontile),
            Scheme::Ptile => {
                if ctx.ptile_available {
                    (
                        self.sizer.ptile_bits(
                            q,
                            self.sizer.model().reference_fps(),
                            ctx.ptile_area_frac.max(FOV_AREA_FRACTION),
                            ctx.background_blocks,
                            content,
                        ),
                        DecoderScheme::Ptile,
                    )
                } else {
                    // No covering Ptile: download conventional tiles.
                    (self.sizer.ctile_bits(q, content), DecoderScheme::Ctile)
                }
            }
            // lint:allow(no-panic-paths, "documented invariant: the MPC schemes are rejected by new()")
            Scheme::Ours | Scheme::RobustMpc => unreachable!("rejected in new()"),
        }
    }

    /// The rate rule: highest quality whose download fits in one segment
    /// duration at the estimated bandwidth; the lowest level if none does.
    fn pick_quality(&self, ctx: &SegmentContext) -> QualityLevel {
        let budget_bits = ctx.predicted_bandwidth_bps * SEGMENT_DURATION_SEC;
        QualityLevel::ALL
            .iter()
            .rev()
            .find(|q| self.bits_for(**q, ctx).0 <= budget_bits)
            .copied()
            .unwrap_or(QualityLevel::Q1)
    }
}

impl Controller for RateBasedController {
    fn plan(&mut self, ctx: &SegmentContext) -> SegmentPlan {
        assert!(
            ctx.predicted_bandwidth_bps > 0.0,
            "bandwidth estimate must be positive"
        );
        let quality = self.pick_quality(ctx);
        let (bits, decode_scheme) = self.bits_for(quality, ctx);
        SegmentPlan {
            quality,
            fps: self.sizer.model().reference_fps(),
            bits,
            decode_scheme,
            effective_bitrate_mbps: self.sizer.effective_bitrate_mbps(quality),
        }
    }

    fn scheme(&self) -> Scheme {
        self.scheme
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_video::content::SiTi;

    fn ctx(bandwidth: f64) -> SegmentContext {
        SegmentContext::example(SiTi::new(60.0, 25.0), bandwidth)
    }

    #[test]
    fn high_bandwidth_gets_top_quality() {
        for scheme in [Scheme::Ctile, Scheme::Ftile, Scheme::Nontile, Scheme::Ptile] {
            let mut c = RateBasedController::new(scheme);
            let plan = c.plan(&ctx(50.0e6));
            assert_eq!(plan.quality, QualityLevel::Q5, "{scheme:?}");
        }
    }

    #[test]
    fn starved_bandwidth_gets_bottom_quality() {
        for scheme in [Scheme::Ctile, Scheme::Ftile, Scheme::Nontile, Scheme::Ptile] {
            let mut c = RateBasedController::new(scheme);
            let plan = c.plan(&ctx(0.2e6));
            assert_eq!(plan.quality, QualityLevel::Q1, "{scheme:?}");
        }
    }

    #[test]
    fn quality_monotone_in_bandwidth() {
        let mut c = RateBasedController::new(Scheme::Ctile);
        let mut prev = 0usize;
        for bw in [1.0e6, 3.0e6, 5.0e6, 9.0e6, 20.0e6] {
            let q = c.plan(&ctx(bw)).quality.index();
            assert!(q >= prev, "bw {bw}: {q} < {prev}");
            prev = q;
        }
    }

    #[test]
    fn ptile_streams_higher_quality_than_ctile_at_equal_bandwidth() {
        // The compression advantage converts into quality (Fig. 11's story).
        let bw = 4.0e6;
        let mut ptile = RateBasedController::new(Scheme::Ptile);
        let mut ctile = RateBasedController::new(Scheme::Ctile);
        let qp = ptile.plan(&ctx(bw)).quality.index();
        let qc = ctile.plan(&ctx(bw)).quality.index();
        assert!(qp > qc, "ptile {qp} vs ctile {qc}");
    }

    #[test]
    fn ptile_falls_back_to_ctile_without_coverage() {
        let mut c = RateBasedController::new(Scheme::Ptile);
        let mut ctx = ctx(4.0e6);
        ctx.ptile_available = false;
        let plan = c.plan(&ctx);
        assert_eq!(plan.decode_scheme, DecoderScheme::Ctile);
        let mut ctile = RateBasedController::new(Scheme::Ctile);
        let ref_plan = ctile.plan(&ctx);
        assert_eq!(plan.quality, ref_plan.quality);
        assert!((plan.bits - ref_plan.bits).abs() < 1e-9);
    }

    #[test]
    fn baselines_never_reduce_framerate() {
        for scheme in [Scheme::Ctile, Scheme::Ftile, Scheme::Nontile, Scheme::Ptile] {
            let mut c = RateBasedController::new(scheme);
            assert_eq!(c.plan(&ctx(4.0e6)).fps, 30.0, "{scheme:?}");
        }
    }

    #[test]
    fn plan_bits_fit_rate_rule_when_feasible() {
        let bw = 6.0e6;
        let mut c = RateBasedController::new(Scheme::Ptile);
        let plan = c.plan(&ctx(bw));
        if plan.quality != QualityLevel::Q1 {
            assert!(plan.bits <= bw * SEGMENT_DURATION_SEC + 1e-6);
        }
    }

    #[test]
    fn larger_ptile_area_costs_more_bits() {
        let mut c = RateBasedController::new(Scheme::Ptile);
        let mut small = ctx(4.0e6);
        small.ptile_area_frac = 9.0 / 32.0;
        let mut large = ctx(4.0e6);
        large.ptile_area_frac = 16.0 / 32.0;
        let q_small = c.plan(&small);
        let q_large = c.plan(&large);
        if q_small.quality == q_large.quality {
            assert!(q_large.bits > q_small.bits);
        } else {
            // A bigger Ptile can force a lower quality instead.
            assert!(q_large.quality < q_small.quality);
        }
    }

    #[test]
    #[should_panic(expected = "MpcController")]
    fn ours_rejected() {
        let _ = RateBasedController::new(Scheme::Ours);
    }

    mod properties {
        use super::*;
        use ee360_support::prelude::*;

        proptest! {
            #[test]
            fn plans_are_well_formed(
                bw in 0.3e6f64..30.0e6,
                si in 20.0f64..100.0,
                ti in 2.0f64..60.0,
                area in 0.2f64..0.9,
            ) {
                for scheme in [Scheme::Ctile, Scheme::Ftile, Scheme::Nontile, Scheme::Ptile] {
                    let mut c = RateBasedController::new(scheme);
                    let mut context = SegmentContext::example(SiTi::new(si, ti), bw);
                    context.ptile_area_frac = area;
                    let plan = c.plan(&context);
                    prop_assert!(plan.bits.is_finite() && plan.bits > 0.0);
                    prop_assert_eq!(plan.fps, 30.0);
                    prop_assert!(plan.effective_bitrate_mbps > 0.0);
                }
            }

            #[test]
            fn quality_never_decreases_with_bandwidth(
                si in 20.0f64..100.0, ti in 2.0f64..60.0,
            ) {
                for scheme in [Scheme::Ctile, Scheme::Ftile, Scheme::Nontile, Scheme::Ptile] {
                    let mut c = RateBasedController::new(scheme);
                    let mut prev = 0usize;
                    for bw in [0.5e6, 1.5e6, 3.0e6, 6.0e6, 12.0e6, 24.0e6] {
                        let q = c
                            .plan(&SegmentContext::example(SiTi::new(si, ti), bw))
                            .quality
                            .index();
                        prop_assert!(q >= prev, "{:?} at {}: {} < {}", scheme, bw, q, prev);
                        prev = q;
                    }
                }
            }
        }
    }
}
