//! Segment timing and per-segment content.
//!
//! The server splits each video into `L = 1 s` segments (Section III-A).
//! [`SegmentTimeline`] derives a deterministic per-segment [`SiTi`] series
//! from a [`VideoSpec`]: content complexity drifts slowly across a video
//! (scenes change every handful of seconds) around the video's base SI/TI.

use crate::catalog::VideoSpec;
use crate::content::SiTi;

/// Length of one video segment in seconds (`L` in the paper).
pub const SEGMENT_DURATION_SEC: f64 = 1.0;

/// Segments of prefetched SI/TI metadata the player holds ahead of the
/// one it requests, counting that one: the MPC horizon `H` of
/// Section IV-C step (a).
pub const LOOKAHEAD_SEGMENTS: usize = 5;

/// The player's buffer threshold β, seconds: it waits before requesting
/// while the buffer holds more (Eq. 6).
pub const BUFFER_THRESHOLD_SEC: f64 = 3.0;

/// The content descriptor of one segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentContent {
    /// Zero-based segment index.
    pub index: usize,
    /// The segment's SI/TI.
    pub si_ti: SiTi,
}

ee360_support::impl_json_struct!(SegmentContent { index, si_ti });

/// Deterministic per-segment content series for one video.
///
/// # Example
///
/// ```
/// use ee360_video::catalog::VideoCatalog;
/// use ee360_video::segment::SegmentTimeline;
///
/// let catalog = VideoCatalog::paper_default();
/// let timeline = SegmentTimeline::for_video(catalog.video(8).unwrap());
/// assert_eq!(timeline.len(), 201);
/// let first = timeline.segment(0).unwrap();
/// assert!(first.si_ti.ti() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentTimeline {
    video_id: usize,
    segments: Vec<SegmentContent>,
}

ee360_support::impl_json_struct!(SegmentTimeline { video_id, segments });

/// A cheap deterministic hash → `[-1, 1]` noise source (SplitMix64-based),
/// so the timeline never depends on `rand` and is identical across runs.
fn hash_noise(video_id: usize, index: usize, salt: u64) -> f64 {
    let mut z = (video_id as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(index as u64)
        .wrapping_add(salt.wrapping_mul(0xBF58476D1CE4E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
}

impl SegmentTimeline {
    /// Builds the timeline for one video.
    ///
    /// The SI/TI series combines a slow sinusoidal scene drift (period of a
    /// few tens of seconds) with small per-segment noise, all seeded from
    /// the video id so every run sees the same content.
    pub fn for_video(spec: &VideoSpec) -> Self {
        let n = spec.segment_count();
        let base = spec.base_si_ti;
        let segments = (0..n)
            .map(|i| {
                let t = i as f64;
                // Two incommensurate slow waves emulate scene changes.
                let drift = 0.12 * (t / 23.0 + spec.id as f64).sin()
                    + 0.08 * (t / 61.0 + spec.id as f64 * 2.0).cos();
                let si_noise = 0.05 * hash_noise(spec.id, i, 1);
                let ti_noise = 0.10 * hash_noise(spec.id, i, 2);
                let si = (base.si() * (1.0 + drift + si_noise)).max(1.0);
                let ti = (base.ti() * (1.0 + 1.5 * drift + ti_noise)).max(0.5);
                SegmentContent {
                    index: i,
                    si_ti: SiTi::new(si, ti),
                }
            })
            .collect();
        Self {
            video_id: spec.id,
            segments,
        }
    }

    /// The video this timeline belongs to.
    pub fn video_id(&self) -> usize {
        self.video_id
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// `true` if the video has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// One segment's content, or `None` past the end.
    pub fn segment(&self, index: usize) -> Option<&SegmentContent> {
        self.segments.get(index)
    }

    /// All segments in order.
    pub fn segments(&self) -> &[SegmentContent] {
        &self.segments
    }

    /// Mean SI/TI over the whole timeline.
    pub fn mean_si_ti(&self) -> SiTi {
        let n = self.segments.len().max(1) as f64;
        let si = self.segments.iter().map(|s| s.si_ti.si()).sum::<f64>() / n;
        let ti = self.segments.iter().map(|s| s.si_ti.ti()).sum::<f64>() / n;
        SiTi::new(si, ti)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::VideoCatalog;

    fn timeline(id: usize) -> SegmentTimeline {
        let c = VideoCatalog::paper_default();
        SegmentTimeline::for_video(c.video(id).unwrap())
    }

    #[test]
    fn length_matches_duration() {
        let c = VideoCatalog::paper_default();
        for v in c.videos() {
            let t = SegmentTimeline::for_video(v);
            assert_eq!(t.len(), v.segment_count());
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn deterministic_across_builds() {
        let a = timeline(3);
        let b = timeline(3);
        assert_eq!(a, b);
    }

    #[test]
    fn different_videos_differ() {
        let a = timeline(1);
        let b = timeline(2);
        assert_ne!(a.segment(0).unwrap().si_ti, b.segment(0).unwrap().si_ti);
    }

    #[test]
    fn mean_close_to_base() {
        let c = VideoCatalog::paper_default();
        for v in c.videos() {
            let t = SegmentTimeline::for_video(v);
            let m = t.mean_si_ti();
            let base = v.base_si_ti;
            assert!(
                (m.si() - base.si()).abs() / base.si() < 0.2,
                "video {} SI drifted: {} vs {}",
                v.id,
                m.si(),
                base.si()
            );
            assert!(
                (m.ti() - base.ti()).abs() / base.ti() < 0.3,
                "video {} TI drifted: {} vs {}",
                v.id,
                m.ti(),
                base.ti()
            );
        }
    }

    #[test]
    fn values_stay_positive() {
        for id in 1..=8 {
            let t = timeline(id);
            for s in t.segments() {
                assert!(s.si_ti.si() >= 1.0);
                assert!(s.si_ti.ti() >= 0.5);
            }
        }
    }

    #[test]
    fn indices_are_sequential() {
        let t = timeline(5);
        for (i, s) in t.segments().iter().enumerate() {
            assert_eq!(s.index, i);
        }
    }

    #[test]
    fn out_of_range_segment_is_none() {
        let t = timeline(6);
        assert!(t.segment(10_000).is_none());
    }

    #[test]
    fn content_varies_over_time() {
        let t = timeline(1);
        let first = t.segment(0).unwrap().si_ti;
        let later = t.segment(100).unwrap().si_ti;
        assert!((first.ti() - later.ti()).abs() > 1e-6);
    }
}
