//! Server-side preparation: Ptile construction per segment.
//!
//! "For each video, forty users are randomly selected and their head
//! movement traces are used to construct the video tiles (and Ptiles)"
//! (Section V-A). The server runs Algorithm 1 over the training users'
//! viewing centers for every segment, stores the resulting Ptiles, and at
//! request time answers: *does a Ptile cover this predicted viewport, and
//! how big is it?*

use std::error::Error;
use std::fmt;

use ee360_cluster::coverage::{segment_coverage, CoverageStats};
use ee360_cluster::ftile::FtileLayout;
use ee360_cluster::ptile::{background_blocks, build_ptiles, Ptile, PtileConfig};
use ee360_geom::grid::TileGrid;
use ee360_geom::viewport::{ViewCenter, Viewport};
use ee360_trace::head::HeadTrace;
use ee360_video::catalog::VideoSpec;
use ee360_video::segment::SegmentTimeline;

/// Why [`VideoServer::try_prepare`] refused its training set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrepareError {
    /// No training traces were given.
    EmptyTraining,
    /// A training trace belongs to another video.
    ForeignTrace {
        /// The id of the video being prepared.
        expected: usize,
        /// The id of the first trace that does not match.
        found: usize,
    },
}

impl fmt::Display for PrepareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrepareError::EmptyTraining => write!(f, "need at least one training trace"),
            PrepareError::ForeignTrace { expected, found } => write!(
                f,
                "training traces must belong to video {expected}, found one of video {found}"
            ),
        }
    }
}

impl Error for PrepareError {}

/// The prepared server state for one video.
#[derive(Debug, Clone)]
pub struct VideoServer {
    video_id: usize,
    grid: TileGrid,
    config: PtileConfig,
    timeline: SegmentTimeline,
    ptiles: Vec<Vec<Ptile>>,
    /// Per segment, each Ptile's `(area fraction, background-block
    /// count)`, parallel to `ptiles`: both depend only on the Ptile, so
    /// they are computed once here instead of on every lookup.
    ptile_costs: Vec<Vec<(f64, usize)>>,
    ftile_layouts: Vec<FtileLayout>,
}

impl VideoServer {
    /// Builds the server for a video from the training users' traces.
    ///
    /// # Panics
    ///
    /// Panics if `training` is empty or a trace belongs to another video;
    /// [`Self::try_prepare`] returns those cases as a [`PrepareError`].
    pub fn prepare(
        spec: &VideoSpec,
        training: &[&HeadTrace],
        grid: TileGrid,
        config: PtileConfig,
    ) -> Self {
        match Self::try_prepare(spec, training, grid, config) {
            Ok(server) => server,
            // lint:allow(no-panic-paths, "documented panic: prepare() requires a non-empty training set of this video")
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Self::prepare`]: rejects an empty training set and
    /// traces of another video instead of panicking.
    pub fn try_prepare(
        spec: &VideoSpec,
        training: &[&HeadTrace],
        grid: TileGrid,
        config: PtileConfig,
    ) -> Result<Self, PrepareError> {
        if training.is_empty() {
            return Err(PrepareError::EmptyTraining);
        }
        if let Some(t) = training.iter().find(|t| t.video_id() != spec.id) {
            return Err(PrepareError::ForeignTrace {
                expected: spec.id,
                found: t.video_id(),
            });
        }
        let timeline = SegmentTimeline::for_video(spec);
        let n = spec.segment_count();
        let mut ptiles = Vec::with_capacity(n);
        let mut ptile_costs = Vec::with_capacity(n);
        let mut ftile_layouts = Vec::with_capacity(n);
        for_each_segment(training, n, |_, centers| {
            let built = build_ptiles(centers, &grid, &config);
            ptile_costs.push(
                built
                    .iter()
                    .map(|p| {
                        let area = p.region.area_fraction(&grid);
                        let bg = background_blocks(&p.region, &grid).len();
                        (area, bg)
                    })
                    .collect(),
            );
            ptiles.push(built);
            ftile_layouts.push(FtileLayout::build(centers));
        });
        Ok(Self {
            video_id: spec.id,
            grid,
            config,
            timeline,
            ptiles,
            ptile_costs,
            ftile_layouts,
        })
    }

    /// The video this server serves.
    pub fn video_id(&self) -> usize {
        self.video_id
    }

    /// The conventional tile grid.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// The per-segment content timeline.
    pub fn timeline(&self) -> &SegmentTimeline {
        &self.timeline
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.ptiles.len()
    }

    /// The Ftile baseline's variable-size tiling for a segment, or `None`
    /// past the end of the video.
    pub fn ftile_layout(&self, segment: usize) -> Option<&FtileLayout> {
        self.ftile_layouts.get(segment)
    }

    /// The Ptiles constructed for a segment (most popular first).
    pub fn ptiles(&self, segment: usize) -> &[Ptile] {
        self.ptiles
            .get(segment)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Looks up the Ptile (if any) covering a predicted viewport at a
    /// segment: the first (most popular) Ptile whose region contains the
    /// viewport's whole FoV tile block. Returns the Ptile, its area
    /// fraction, and its background-block count.
    ///
    /// The block is computed once, as a region, when the segment has a
    /// Ptile at all, and each candidate is tested from the two regions'
    /// bounds.
    pub fn covering_ptile(
        &self,
        segment: usize,
        predicted: ViewCenter,
    ) -> Option<(&Ptile, f64, usize)> {
        let ptiles = self.ptiles(segment);
        if ptiles.is_empty() {
            return None;
        }
        let vp = Viewport::new(predicted, self.config.fov_h_deg, self.config.fov_v_deg);
        let block = self.grid.fov_block_region(&vp);
        let costs = self
            .ptile_costs
            .get(segment)
            .map(|v| v.as_slice())
            .unwrap_or(&[]);
        ptiles
            .iter()
            .zip(costs)
            .find(|(p, _)| p.region.contains_region(&block))
            .map(|(p, &(area, bg))| (p, area, bg))
    }

    /// Fig. 7 statistics over a set of evaluation traces: per segment, how
    /// many Ptiles exist and which fraction of the users they cover.
    pub fn coverage_stats(&self, users: &[&HeadTrace]) -> CoverageStats {
        let mut stats = CoverageStats::new();
        for_each_segment(users, self.segment_count(), |k, centers| {
            stats.push(segment_coverage(
                centers,
                self.ptiles(k),
                &self.grid,
                self.config.fov_h_deg,
                self.config.fov_v_deg,
            ));
        });
        stats
    }
}

/// Calls `visit(k, centers)` for segments `k` in `0..segments`, in
/// order, with the viewing centres of the traces that reach segment k,
/// in trace order: the centres collecting every trace's
/// `segment_center(k)` gives.
///
/// Each trace is read in one forward walk ([`HeadTrace::segment_centers`])
/// whose k-th step is its `segment_center(k)`; a trace too short for
/// segment k has ended its walk, as `segment_center(k)` is `None`. The
/// centres of a segment go into one buffer reused for every segment.
fn for_each_segment(
    traces: &[&HeadTrace],
    segments: usize,
    mut visit: impl FnMut(usize, &[ViewCenter]),
) {
    let mut walks: Vec<_> = traces.iter().map(|t| t.segment_centers()).collect();
    let mut centers = Vec::with_capacity(traces.len());
    for k in 0..segments {
        centers.clear();
        centers.extend(walks.iter_mut().filter_map(Iterator::next));
        visit(k, &centers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_trace::dataset::VideoTraces;
    use ee360_trace::head::GazeConfig;
    use ee360_video::catalog::VideoCatalog;

    fn server_for(video: usize, users: usize) -> (VideoServer, VideoTraces) {
        let catalog = VideoCatalog::paper_default();
        let spec = catalog.video(video).unwrap();
        let traces = VideoTraces::generate(spec, users, 11, GazeConfig::default());
        let refs: Vec<&HeadTrace> = traces.traces().iter().collect();
        let server = VideoServer::prepare(
            spec,
            &refs,
            TileGrid::paper_default(),
            PtileConfig::paper_default(),
        );
        (server, traces)
    }

    #[test]
    fn prepares_every_segment() {
        let (server, _) = server_for(6, 10);
        assert_eq!(server.segment_count(), 164);
        assert_eq!(server.video_id(), 6);
    }

    #[test]
    fn focused_video_mostly_one_ptile() {
        let (server, _) = server_for(2, 12); // boxing, focused
        let mut with_one = 0;
        for k in 0..server.segment_count() {
            if server.ptiles(k).len() <= 1 {
                with_one += 1;
            }
        }
        let frac = with_one as f64 / server.segment_count() as f64;
        assert!(frac > 0.7, "only {frac} of segments have ≤1 Ptile");
    }

    #[test]
    fn covering_lookup_finds_popular_view() {
        let (server, traces) = server_for(2, 12);
        // A training user's own center should usually be covered.
        let trace = &traces.traces()[0];
        let mut hits = 0;
        let mut total = 0;
        for k in (0..server.segment_count()).step_by(10) {
            if let Some(center) = trace.segment_center(k) {
                total += 1;
                if server.covering_ptile(k, center).is_some() {
                    hits += 1;
                }
            }
        }
        assert!(hits as f64 / total as f64 > 0.5, "{hits}/{total} covered");
    }

    #[test]
    fn covering_lookup_reports_the_ptiles_own_area_and_background() {
        let (server, traces) = server_for(6, 12);
        let grid = *server.grid();
        let mut found = 0;
        for trace in traces.traces() {
            for k in 0..server.segment_count() {
                let Some(center) = trace.segment_center(k) else {
                    continue;
                };
                if let Some((p, area, bg)) = server.covering_ptile(k, center) {
                    found += 1;
                    assert_eq!(area.to_bits(), p.region.area_fraction(&grid).to_bits());
                    assert_eq!(bg, background_blocks(&p.region, &grid).len());
                }
            }
        }
        assert!(found > 0, "no lookup hit a Ptile");
    }

    #[test]
    fn covering_lookup_rejects_antipode() {
        let (server, traces) = server_for(2, 12);
        let trace = &traces.traces()[0];
        let mut miss = 0;
        let mut total = 0;
        for k in (0..server.segment_count()).step_by(10) {
            if let Some(center) = trace.segment_center(k) {
                total += 1;
                let far = ViewCenter::new(center.yaw_deg() + 180.0, -center.pitch_deg());
                if server.covering_ptile(k, far).is_none() {
                    miss += 1;
                }
            }
        }
        assert!(miss as f64 / total as f64 > 0.6, "{miss}/{total} misses");
    }

    #[test]
    fn coverage_stats_have_all_segments() {
        let (server, traces) = server_for(6, 8);
        let refs: Vec<&HeadTrace> = traces.traces().iter().collect();
        let stats = server.coverage_stats(&refs);
        assert_eq!(stats.len(), server.segment_count());
        assert!(stats.mean_coverage() > 0.0);
    }

    #[test]
    #[should_panic(expected = "belong to video")]
    fn wrong_video_traces_panic() {
        let catalog = VideoCatalog::paper_default();
        let spec2 = catalog.video(2).unwrap();
        let spec3 = catalog.video(3).unwrap();
        let traces = VideoTraces::generate(spec3, 4, 1, GazeConfig::default());
        let refs: Vec<&HeadTrace> = traces.traces().iter().collect();
        let _ = VideoServer::prepare(
            spec2,
            &refs,
            TileGrid::paper_default(),
            PtileConfig::paper_default(),
        );
    }

    #[test]
    fn try_prepare_rejects_an_empty_training_set() {
        let catalog = VideoCatalog::paper_default();
        let spec = catalog.video(1).unwrap();
        let err = VideoServer::try_prepare(
            spec,
            &[],
            TileGrid::paper_default(),
            PtileConfig::paper_default(),
        )
        .unwrap_err();
        assert_eq!(err, PrepareError::EmptyTraining);
        assert!(err.to_string().contains("at least one training trace"));
    }

    #[test]
    fn try_prepare_names_the_foreign_trace() {
        let catalog = VideoCatalog::paper_default();
        let spec2 = catalog.video(2).unwrap();
        let spec3 = catalog.video(3).unwrap();
        let traces = VideoTraces::generate(spec3, 4, 1, GazeConfig::default());
        let refs: Vec<&HeadTrace> = traces.traces().iter().collect();
        let err = VideoServer::try_prepare(
            spec2,
            &refs,
            TileGrid::paper_default(),
            PtileConfig::paper_default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            PrepareError::ForeignTrace {
                expected: 2,
                found: 3
            }
        );
        let _: &dyn Error = &err;
    }

    #[test]
    #[should_panic(expected = "at least one training trace")]
    fn empty_training_panics() {
        let catalog = VideoCatalog::paper_default();
        let spec = catalog.video(1).unwrap();
        let _ = VideoServer::prepare(
            spec,
            &[],
            TileGrid::paper_default(),
            PtileConfig::paper_default(),
        );
    }
}
