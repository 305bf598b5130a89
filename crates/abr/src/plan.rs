//! Controller inputs and outputs.

use ee360_power::model::DecoderScheme;
use ee360_video::content::SiTi;
use ee360_video::ladder::QualityLevel;

/// Everything a controller may look at when planning one segment.
///
/// Note what is *not* here: the true future bandwidth. Controllers only see
/// the estimate their bandwidth predictor produced.
///
/// The default describes no segment (`upcoming` is empty): a placeholder
/// for a context that is filled before any controller reads it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentContext {
    /// Zero-based index of the segment about to be requested.
    pub index: usize,
    /// SI/TI of this segment and the next `H−1` (the prefetched metadata of
    /// Section IV-C step (a)); `upcoming[0]` is the current segment.
    pub upcoming: Vec<SiTi>,
    /// The bandwidth estimate for the horizon, bits per second.
    pub predicted_bandwidth_bps: f64,
    /// Buffer level at request time, seconds (`B_k`).
    pub buffer_sec: f64,
    /// Recent view-switching speed `S_fov`, degrees per second (Eq. 4).
    pub switching_speed_deg_s: f64,
    /// Whether the predicted viewport is covered by a constructed Ptile.
    pub ptile_available: bool,
    /// That Ptile's area as a fraction of the frame (`0` if unavailable).
    pub ptile_area_frac: f64,
    /// Number of background blocks shipped alongside the Ptile.
    pub background_blocks: usize,
    /// Ftile scheme: area fraction of the variable-size tiles overlapping
    /// the predicted viewport (`0` when no layout is available — the
    /// controller then falls back to the nominal constants).
    pub ftile_fov_area: f64,
    /// Ftile scheme: how many of the ten variable-size tiles overlap the
    /// predicted viewport.
    pub ftile_fov_tiles: usize,
}

ee360_support::impl_json_struct!(SegmentContext {
    index,
    upcoming,
    predicted_bandwidth_bps,
    buffer_sec,
    switching_speed_deg_s,
    ptile_available,
    ptile_area_frac,
    background_blocks,
    ftile_fov_area,
    ftile_fov_tiles
});

impl SegmentContext {
    /// A minimal context for documentation examples and quick tests: one
    /// segment of the given content, a 9/32-frame Ptile available, 3 s of
    /// buffer.
    pub fn example(content: SiTi, bandwidth_bps: f64) -> Self {
        Self {
            index: 0,
            upcoming: vec![content],
            predicted_bandwidth_bps: bandwidth_bps,
            buffer_sec: 3.0,
            switching_speed_deg_s: 10.0,
            ptile_available: true,
            ptile_area_frac: 9.0 / 32.0,
            background_blocks: 3,
            ftile_fov_area: 0.0,
            ftile_fov_tiles: 0,
        }
    }

    /// The current segment's content.
    ///
    /// # Panics
    ///
    /// Panics if `upcoming` is empty (a context always describes at least
    /// the segment being planned).
    pub fn content(&self) -> SiTi {
        self.content_at(0)
    }

    /// Content at horizon step `h`, clamped to the last known segment —
    /// the lookahead every controller plans against.
    ///
    /// # Panics
    ///
    /// Panics if `upcoming` is empty (a context always describes at least
    /// the segment being planned).
    pub fn content_at(&self, h: usize) -> SiTi {
        *self
            .upcoming
            .get(h)
            .or_else(|| self.upcoming.last())
            // lint:allow(no-panic-paths, "documented invariant: every context holds >= 1 segment")
            .expect("context must describe at least the current segment")
    }

    /// Overwrites `self` with `src`, reusing the existing `upcoming`
    /// allocation (the only heap field) instead of cloning afresh. The
    /// full destructure makes adding a `SegmentContext` field a compile
    /// error here rather than a silently stale buffer.
    pub(crate) fn assign_from(&mut self, src: &Self) {
        let Self {
            index,
            upcoming,
            predicted_bandwidth_bps,
            buffer_sec,
            switching_speed_deg_s,
            ptile_available,
            ptile_area_frac,
            background_blocks,
            ftile_fov_area,
            ftile_fov_tiles,
        } = src;
        self.index = *index;
        self.upcoming.clear();
        self.upcoming.extend_from_slice(upcoming);
        self.predicted_bandwidth_bps = *predicted_bandwidth_bps;
        self.buffer_sec = *buffer_sec;
        self.switching_speed_deg_s = *switching_speed_deg_s;
        self.ptile_available = *ptile_available;
        self.ptile_area_frac = *ptile_area_frac;
        self.background_blocks = *background_blocks;
        self.ftile_fov_area = *ftile_fov_area;
        self.ftile_fov_tiles = *ftile_fov_tiles;
    }
}

/// The argument type of
/// [`Controller::plan_into`](crate::controller::Controller::plan_into).
///
/// It has no fields: every planner owns its scratch (the MPC its
/// horizon bandwidths, the robust controller its hedged contexts), so
/// there is nothing to hand in. It stays only because the benchmark's
/// timing wrapper (`benchmark/src/layers.rs`) names it when it
/// implements `plan_into`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanBuffers;

/// A controller's decision for one segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentPlan {
    /// Chosen quality level for the FoV content.
    pub quality: QualityLevel,
    /// Chosen displayed frame rate, fps.
    pub fps: f64,
    /// Total bits to download (FoV + background).
    pub bits: f64,
    /// Which decode pipeline the scheme runs (selects the Table I row).
    pub decode_scheme: DecoderScheme,
    /// The bitrate, in Mbps, that enters the Q_o model (the quality level's
    /// whole-frame equivalent rate — quantisation, not payload size).
    pub effective_bitrate_mbps: f64,
}

ee360_support::impl_json_struct!(SegmentPlan {
    quality,
    fps,
    bits,
    decode_scheme,
    effective_bitrate_mbps
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_context_is_consistent() {
        let ctx = SegmentContext::example(SiTi::new(50.0, 20.0), 4.0e6);
        assert_eq!(ctx.content(), SiTi::new(50.0, 20.0));
        assert!(ctx.ptile_available);
        assert!(ctx.ptile_area_frac > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least the current segment")]
    fn empty_upcoming_panics_on_content() {
        let mut ctx = SegmentContext::example(SiTi::new(50.0, 20.0), 4.0e6);
        ctx.upcoming.clear();
        let _ = ctx.content();
    }

    #[test]
    fn plan_serde_roundtrip() {
        let plan = SegmentPlan {
            quality: QualityLevel::Q4,
            fps: 27.0,
            bits: 3.1e6,
            decode_scheme: DecoderScheme::Ptile,
            effective_bitrate_mbps: 6.4,
        };
        let json = ee360_support::json::to_string(&plan).unwrap();
        let back: SegmentPlan = ee360_support::json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
