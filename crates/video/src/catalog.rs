//! The test-video catalog (Table III of the paper).
//!
//! Eight 4K 30 fps videos spanning sports, performance and exploration
//! content. The paper notes (Section V-B) that users were instructed to
//! focus on the content for videos 1–4, while for videos 5–8 they were free
//! to explore — which drives both the Ptile count (Fig. 7) and the
//! switching-speed distribution (Fig. 5). Each spec carries the per-video
//! SI/TI centre and motion parameters that the trace generator and content
//! model consume.

use crate::content::SiTi;
use crate::error::VideoError;

/// Whether users focus on the director's intended view or explore freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BehaviorProfile {
    /// Users are instructed to focus on the video content (videos 1–4):
    /// viewing centers cluster tightly around a few salient regions.
    Focused,
    /// Users explore freely (videos 5–8): viewing centers spread widely and
    /// switch more often.
    Exploratory,
}

ee360_support::impl_json_enum!(BehaviorProfile {
    Focused,
    Exploratory
});

/// One test video (a row of Table III plus the modelling parameters the
/// synthetic substrate needs).
#[derive(Debug, Clone, PartialEq)]
pub struct VideoSpec {
    /// Table III video id, 1-based.
    pub id: usize,
    /// Human-readable content label.
    pub name: String,
    /// Video length in seconds.
    pub duration_sec: u32,
    /// Viewing-behaviour profile (focused vs. exploratory).
    pub behavior: BehaviorProfile,
    /// Mean SI/TI of the video (per-segment values vary around this).
    pub base_si_ti: SiTi,
    /// How many salient regions users' attention rotates between.
    pub hotspot_count: usize,
    /// Mean dwell time on one salient region, seconds.
    pub mean_dwell_sec: f64,
    /// Typical smooth-pursuit speed while tracking action, degrees/second.
    pub pursuit_speed_deg_s: f64,
}

ee360_support::impl_json_struct!(VideoSpec {
    id,
    name,
    duration_sec,
    behavior,
    base_si_ti,
    hotspot_count,
    mean_dwell_sec,
    pursuit_speed_deg_s
});

impl VideoSpec {
    /// Number of one-second segments in the video.
    pub fn segment_count(&self) -> usize {
        self.duration_sec as usize
    }
}

/// The eight-video catalog of Table III.
///
/// # Example
///
/// ```
/// use ee360_video::catalog::VideoCatalog;
/// let catalog = VideoCatalog::paper_default();
/// assert_eq!(catalog.videos().len(), 8);
/// assert_eq!(catalog.video(8).unwrap().name, "Freestyle Skiing");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VideoCatalog {
    videos: Vec<VideoSpec>,
}

ee360_support::impl_json_struct!(VideoCatalog { videos });

impl VideoCatalog {
    /// Builds the catalog from explicit specs.
    ///
    /// # Panics
    ///
    /// Panics if the specs are empty or their ids are not unique — the
    /// infallible wrapper around [`VideoCatalog::try_new`].
    pub fn new(videos: Vec<VideoSpec>) -> Self {
        match Self::try_new(videos) {
            Ok(catalog) => catalog,
            // lint:allow(no-panic-paths, "documented panic: infallible wrapper; try_new is the graceful API")
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`VideoCatalog::new`]: an empty spec list or a duplicated
    /// id comes back as a [`VideoError`] instead of panicking.
    pub fn try_new(videos: Vec<VideoSpec>) -> Result<Self, VideoError> {
        if videos.is_empty() {
            return Err(VideoError::EmptyCatalog);
        }
        let mut ids: Vec<usize> = videos.iter().map(|v| v.id).collect();
        ids.sort_unstable();
        if let Some(dup) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(VideoError::DuplicateVideoId { id: dup[0] });
        }
        Ok(Self { videos })
    }

    /// Table III: the eight test videos with lengths as published.
    ///
    /// SI/TI centres are placed to mirror Fig. 4a: sports content (boxing,
    /// football, skiing) carries high TI, performances (gala, dancing) high
    /// SI with moderate TI, and nature content lower TI.
    pub fn paper_default() -> Self {
        let spec = |id: usize,
                    name: &str,
                    mins: u32,
                    secs: u32,
                    behavior: BehaviorProfile,
                    si: f64,
                    ti: f64,
                    hotspots: usize,
                    dwell: f64,
                    pursuit: f64| VideoSpec {
            id,
            name: name.to_owned(),
            duration_sec: mins * 60 + secs,
            behavior,
            base_si_ti: SiTi::new(si, ti),
            hotspot_count: hotspots,
            mean_dwell_sec: dwell,
            pursuit_speed_deg_s: pursuit,
        };
        Self::new(vec![
            spec(
                1,
                "Basketball Match",
                6,
                1,
                BehaviorProfile::Focused,
                62.0,
                28.0,
                3,
                4.0,
                20.0,
            ),
            spec(
                2,
                "Showtime Boxing",
                2,
                52,
                BehaviorProfile::Focused,
                55.0,
                32.0,
                1,
                8.0,
                15.0,
            ),
            spec(
                3,
                "Festival Gala",
                6,
                13,
                BehaviorProfile::Focused,
                78.0,
                18.0,
                2,
                7.0,
                12.0,
            ),
            spec(
                4,
                "Idol Dancing",
                4,
                38,
                BehaviorProfile::Focused,
                70.0,
                22.0,
                1,
                9.0,
                10.0,
            ),
            spec(
                5,
                "Moving Rhinos",
                4,
                52,
                BehaviorProfile::Exploratory,
                48.0,
                12.0,
                3,
                10.0,
                38.0,
            ),
            spec(
                6,
                "Football Match",
                2,
                44,
                BehaviorProfile::Exploratory,
                60.0,
                30.0,
                2,
                8.0,
                42.0,
            ),
            spec(
                7,
                "Tahiti Surf",
                3,
                25,
                BehaviorProfile::Exploratory,
                45.0,
                24.0,
                3,
                9.0,
                40.0,
            ),
            spec(
                8,
                "Freestyle Skiing",
                3,
                21,
                BehaviorProfile::Exploratory,
                52.0,
                34.0,
                2,
                8.0,
                45.0,
            ),
        ])
    }

    /// All videos in id order.
    pub fn videos(&self) -> &[VideoSpec] {
        &self.videos
    }

    /// Looks up a video by its Table III id.
    pub fn video(&self, id: usize) -> Option<&VideoSpec> {
        self.videos.iter().find(|v| v.id == id)
    }

    /// Like [`VideoCatalog::video`], but an unknown id is a typed error
    /// naming the id — for callers that propagate with `?`.
    pub fn require(&self, id: usize) -> Result<&VideoSpec, VideoError> {
        self.video(id).ok_or(VideoError::UnknownVideo { id })
    }
}

impl Default for VideoCatalog {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_lengths() {
        let c = VideoCatalog::paper_default();
        let lengths: Vec<u32> = c.videos().iter().map(|v| v.duration_sec).collect();
        // 6:01, 2:52, 6:13, 4:38, 4:52, 2:44, 3:25, 3:21
        assert_eq!(lengths, vec![361, 172, 373, 278, 292, 164, 205, 201]);
    }

    #[test]
    fn behavior_split_matches_paper() {
        let c = VideoCatalog::paper_default();
        let ids = |behavior| {
            c.videos()
                .iter()
                .filter(|v| v.behavior == behavior)
                .map(|v| v.id)
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(BehaviorProfile::Focused), vec![1, 2, 3, 4]);
        assert_eq!(ids(BehaviorProfile::Exploratory), vec![5, 6, 7, 8]);
    }

    #[test]
    fn lookup_by_id() {
        let c = VideoCatalog::paper_default();
        assert_eq!(c.video(2).unwrap().name, "Showtime Boxing");
        assert!(c.video(9).is_none());
    }

    #[test]
    fn segment_counts() {
        let c = VideoCatalog::paper_default();
        assert_eq!(c.video(1).unwrap().segment_count(), 361);
        assert_eq!(c.video(6).unwrap().segment_count(), 164);
    }

    #[test]
    fn sports_have_high_ti() {
        let c = VideoCatalog::paper_default();
        // Boxing, football and skiing should read as high-motion content.
        for id in [2, 6, 8] {
            assert!(c.video(id).unwrap().base_si_ti.ti() >= 28.0, "video {id}");
        }
        // Rhinos is calm.
        assert!(c.video(5).unwrap().base_si_ti.ti() <= 15.0);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_ids_panic() {
        let c = VideoCatalog::paper_default();
        let mut vids = c.videos().to_vec();
        vids[1].id = 1;
        let _ = VideoCatalog::new(vids);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_catalog_panics() {
        let _ = VideoCatalog::new(Vec::new());
    }

    #[test]
    fn serde_roundtrip() {
        let c = VideoCatalog::paper_default();
        let json = ee360_support::json::to_string(&c).unwrap();
        let back: VideoCatalog = ee360_support::json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
