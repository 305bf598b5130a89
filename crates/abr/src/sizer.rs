//! Per-scheme segment sizes.
//!
//! Translates each scheme's tiling layout into calls on the calibrated
//! [`SizeModel`]. All schemes ship the area outside the FoV at the lowest
//! quality (the paper's, and DRL360's, convention); they differ in how the
//! frame is cut, which is what drives the compression-efficiency gap.

use ee360_video::content::SiTi;
use ee360_video::ladder::QualityLevel;
use ee360_video::size_model::SizeModel;

/// Sizes for all five schemes on the paper's 4×8 grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeSizer {
    model: SizeModel,
}

ee360_support::impl_json_struct!(SchemeSizer { model });

/// Fraction of the frame covered by the 3×3 FoV block on the 4×8 grid.
pub const FOV_AREA_FRACTION: f64 = 9.0 / 32.0;
/// Number of conventional tiles in the FoV block.
pub const FOV_TILE_COUNT: usize = 9;
/// Conventional tiles outside the FoV block.
pub const BACKGROUND_TILE_COUNT: usize = 32 - 9;
/// Ftile: tiles overlapping the FoV (of its ten variable-size tiles).
pub const FTILE_FOV_TILES: usize = 3;
/// Ftile: the area those tiles cover (cluster boundaries overshoot the FoV).
pub const FTILE_FOV_AREA: f64 = 0.34;

impl SchemeSizer {
    /// A sizer over the calibrated paper model.
    pub fn paper_default() -> Self {
        Self {
            model: SizeModel::paper_default(),
        }
    }

    /// A sizer over a custom size model.
    pub fn new(model: SizeModel) -> Self {
        Self { model }
    }

    /// The underlying size model.
    pub fn model(&self) -> &SizeModel {
        &self.model
    }

    /// The bitrate, in Mbps, that enters Eq. 3 for a quality level: the
    /// CRF-equivalent bitrate of the full 4K encode at that quantisation
    /// (the x-axis of the paper's Fig. 4b). This is deliberately distinct
    /// from the *payload* rates of the size model — perceived quality
    /// tracks the quantisation level, while the downloaded bytes depend on
    /// the tiling layout.
    pub fn effective_bitrate_mbps(&self, q: QualityLevel) -> f64 {
        const QO_BITRATE_MBPS: [f64; 5] = [0.8, 1.6, 3.2, 6.4, 12.8];
        QO_BITRATE_MBPS[q.index() - 1]
    }

    /// Ctile: 9 FoV tiles at `q` + 23 background tiles at the lowest
    /// quality, all at the original frame rate.
    pub fn ctile_bits(&self, q: QualityLevel, content: SiTi) -> f64 {
        let fps = self.model.reference_fps();
        self.model
            .region_bits(FOV_AREA_FRACTION, FOV_TILE_COUNT, q, fps, content)
            + self.model.region_bits(
                1.0 - FOV_AREA_FRACTION,
                BACKGROUND_TILE_COUNT,
                QualityLevel::Q1,
                fps,
                content,
            )
    }

    /// Ftile: ten variable-size tiles; the ones overlapping the FoV at
    /// `q`, the rest at the lowest quality. Uses the nominal layout
    /// constants (≈3 tiles over 34% of the frame).
    pub fn ftile_bits(&self, q: QualityLevel, content: SiTi) -> f64 {
        self.ftile_bits_with(q, FTILE_FOV_AREA, FTILE_FOV_TILES, content)
    }

    /// Ftile with an explicit per-segment layout: `fov_area` of the frame
    /// across `fov_tiles` variable tiles at `q`, the remaining area at the
    /// lowest quality across the other `10 − fov_tiles` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `fov_area` is outside `(0, 1]` or `fov_tiles` is zero or
    /// greater than ten.
    pub fn ftile_bits_with(
        &self,
        q: QualityLevel,
        fov_area: f64,
        fov_tiles: usize,
        content: SiTi,
    ) -> f64 {
        assert!(
            fov_area > 0.0 && fov_area <= 1.0,
            "Ftile FoV area must be in (0, 1]"
        );
        assert!(
            (1..=10).contains(&fov_tiles),
            "Ftile FoV tile count must be in 1..=10"
        );
        let fps = self.model.reference_fps();
        let mut bits = self.model.region_bits(fov_area, fov_tiles, q, fps, content);
        if fov_area < 1.0 - 1e-12 && fov_tiles < 10 {
            bits += self.model.region_bits(
                1.0 - fov_area,
                10 - fov_tiles,
                QualityLevel::Q1,
                fps,
                content,
            );
        }
        bits
    }

    /// Nontile: the whole frame as one stream at `q`.
    pub fn nontile_bits(&self, q: QualityLevel, content: SiTi) -> f64 {
        let fps = self.model.reference_fps();
        self.model.region_bits(1.0, 1, q, fps, content)
    }

    /// Ptile: one large tile of `ptile_area` at `(q, fps)` plus the
    /// remaining area as `background_blocks` large lowest-quality blocks at
    /// the original rate.
    ///
    /// # Panics
    ///
    /// Panics if `ptile_area` is outside `(0, 1]`.
    pub fn ptile_bits(
        &self,
        q: QualityLevel,
        fps: f64,
        ptile_area: f64,
        background_blocks: usize,
        content: SiTi,
    ) -> f64 {
        assert!(
            ptile_area > 0.0 && ptile_area <= 1.0,
            "ptile area must be in (0, 1]"
        );
        let mut bits = self.model.region_bits(ptile_area, 1, q, fps, content);
        if ptile_area < 1.0 - 1e-12 {
            bits += self.model.region_bits(
                1.0 - ptile_area,
                background_blocks.max(1),
                QualityLevel::Q1,
                self.model.reference_fps(),
                content,
            );
        }
        bits
    }
}

impl Default for SchemeSizer {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_video::catalog::VideoCatalog;
    use ee360_video::segment::SegmentTimeline;

    fn sizer() -> SchemeSizer {
        SchemeSizer::paper_default()
    }

    fn content() -> SiTi {
        SiTi::new(60.0, 25.0)
    }

    #[test]
    fn ptile_smaller_than_ctile_at_same_quality() {
        let s = sizer();
        for q in QualityLevel::ALL {
            let p = s.ptile_bits(q, 30.0, FOV_AREA_FRACTION, 3, content());
            let c = s.ctile_bits(q, content());
            assert!(p < c, "quality {q:?}: ptile {p} >= ctile {c}");
        }
    }

    #[test]
    fn scheme_ordering_matches_paper() {
        // At equal quality: Ptile < Ftile < Ctile for FoV-equivalent
        // streams; Nontile is the largest at high quality because it ships
        // the whole frame at `q`.
        let s = sizer();
        let q = QualityLevel::Q5;
        let p = s.ptile_bits(q, 30.0, FOV_AREA_FRACTION, 3, content());
        let f = s.ftile_bits(q, content());
        let c = s.ctile_bits(q, content());
        let n = s.nontile_bits(q, content());
        assert!(p < f, "ptile {p} vs ftile {f}");
        assert!(f < c, "ftile {f} vs ctile {c}");
        assert!(c < n, "ctile {c} vs nontile {n}");
    }

    #[test]
    fn nontile_lowest_quality_is_small() {
        // At the bottom rung the whole-frame encode beats tiled schemes
        // (no tiling overhead) — why Nontile's energy approaches Ctile's
        // under the slow trace.
        let s = sizer();
        let n = s.nontile_bits(QualityLevel::Q1, content());
        let c = s.ctile_bits(QualityLevel::Q1, content());
        assert!(n < c);
    }

    #[test]
    fn reduced_framerate_shrinks_ptile() {
        let s = sizer();
        let full = s.ptile_bits(QualityLevel::Q4, 30.0, FOV_AREA_FRACTION, 3, content());
        let reduced = s.ptile_bits(QualityLevel::Q4, 21.0, FOV_AREA_FRACTION, 3, content());
        assert!(reduced < full);
        // Only the Ptile part shrinks; the saving is bounded by its share.
        assert!(reduced > full * 0.6);
    }

    #[test]
    fn full_frame_ptile_has_no_background() {
        let s = sizer();
        let bits = s.ptile_bits(QualityLevel::Q3, 30.0, 1.0, 3, content());
        let whole = s.nontile_bits(QualityLevel::Q3, content());
        assert!((bits - whole).abs() < 1e-6);
    }

    #[test]
    fn ptile_bits_split_into_fov_and_background_regions() {
        // Below a full frame, the Ptile total is the one-tile FoV region at
        // (q, fps) plus three lowest-quality background blocks at 30 fps.
        let catalog = VideoCatalog::paper_default();
        let timeline = SegmentTimeline::for_video(catalog.video(3).unwrap());
        let s = sizer();
        let model = s.model();
        let area = 12.0 / 32.0;
        for k in [0usize, 50, 200] {
            let c = timeline.segment(k).unwrap().si_ti;
            for q in QualityLevel::ALL {
                for fps in [21.0, 30.0] {
                    let fov = model.region_bits(area, 1, q, fps, c);
                    let bg = model.region_bits(1.0 - area, 3, QualityLevel::Q1, 30.0, c);
                    let total = s.ptile_bits(q, fps, area, 3, c);
                    assert!(
                        (total - (fov + bg)).abs() < 1e-6,
                        "segment {k} {q:?}@{fps}: sizer {total} vs regions {}",
                        fov + bg
                    );
                }
            }
        }
    }

    #[test]
    fn effective_bitrates_double() {
        let s = sizer();
        assert!((s.effective_bitrate_mbps(QualityLevel::Q1) - 0.8).abs() < 1e-12);
        assert!((s.effective_bitrate_mbps(QualityLevel::Q5) - 12.8).abs() < 1e-12);
        for w in QualityLevel::ALL.windows(2) {
            let ratio = s.effective_bitrate_mbps(w[1]) / s.effective_bitrate_mbps(w[0]);
            assert!((ratio - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sizes_in_streamable_range() {
        // Sanity: typical segment sizes must be streamable over the paper's
        // LTE traces (2.3–16.8 Mbps across trace 1 and 2).
        let s = sizer();
        let c1 = s.ctile_bits(QualityLevel::Q1, content());
        assert!(c1 < 8.0e6, "Ctile Q1 too big: {c1}");
        let p5 = s.ptile_bits(QualityLevel::Q5, 30.0, FOV_AREA_FRACTION, 3, content());
        assert!(p5 < 8.0e6, "Ptile Q5 too big: {p5}");
    }

    #[test]
    #[should_panic(expected = "ptile area")]
    fn bad_area_panics() {
        let _ = sizer().ptile_bits(QualityLevel::Q1, 30.0, 0.0, 3, content());
    }
}
