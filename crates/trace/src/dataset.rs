//! User populations and the train/eval split (Section V-A).
//!
//! "For each video, forty users are randomly selected and their head
//! movement traces are used to construct the video tiles (and Ptiles), and
//! the remaining traces are used for evaluation." [`Dataset::generate`]
//! builds the full 48-user population per video; [`VideoTraces::split`]
//! reproduces the 40/8 division deterministically.

use ee360_video::catalog::{VideoCatalog, VideoSpec};

use crate::head::{GazeConfig, HeadTrace, HeadTraceGenerator};

/// Number of users in the paper's dataset.
pub const PAPER_USER_COUNT: usize = 48;

/// Number of users whose traces construct the Ptiles.
pub const PAPER_TRAIN_USERS: usize = 40;

/// All users' traces over one video.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoTraces {
    video_id: usize,
    traces: Vec<HeadTrace>,
}

ee360_support::impl_json_struct!(VideoTraces { video_id, traces });

impl VideoTraces {
    /// Generates traces for `user_count` users watching `spec`.
    pub fn generate(spec: &VideoSpec, user_count: usize, seed: u64, config: GazeConfig) -> Self {
        assert!(user_count > 0, "need at least one user");
        Self {
            video_id: spec.id,
            traces: HeadTraceGenerator::new(config).generate_users(spec, user_count, seed),
        }
    }

    /// The video these traces cover.
    pub fn video_id(&self) -> usize {
        self.video_id
    }

    /// All traces, by user id.
    pub fn traces(&self) -> &[HeadTrace] {
        &self.traces
    }

    /// Number of users.
    pub fn user_count(&self) -> usize {
        self.traces.len()
    }

    /// Splits into (training, evaluation) sets with `n_train` training
    /// users, selected pseudo-randomly but deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n_train` is zero or not smaller than the population.
    pub fn split(&self, n_train: usize, seed: u64) -> (Vec<&HeadTrace>, Vec<&HeadTrace>) {
        assert!(
            n_train > 0 && n_train < self.traces.len(),
            "n_train must be in 1..user_count"
        );
        // Deterministic Fisher–Yates over the index set via SplitMix64.
        let mut indices: Vec<usize> = (0..self.traces.len()).collect();
        let mut state = seed.wrapping_add(self.video_id as u64);
        for i in (1..indices.len()).rev() {
            state = (state ^ (state >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            state = (state ^ (state >> 27)).wrapping_mul(0x94D049BB133111EB);
            let j = (state % (i as u64 + 1)) as usize;
            indices.swap(i, j);
        }
        let train = indices[..n_train]
            .iter()
            .map(|&i| &self.traces[i])
            .collect();
        let eval = indices[n_train..]
            .iter()
            .map(|&i| &self.traces[i])
            .collect();
        (train, eval)
    }
}

/// The full dataset: one [`VideoTraces`] per catalog video.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    videos: Vec<VideoTraces>,
}

ee360_support::impl_json_struct!(Dataset { videos });

impl Dataset {
    /// Generates the paper-scale dataset: 48 users per catalog video.
    pub fn generate(catalog: &VideoCatalog, user_count: usize, seed: u64) -> Self {
        let config = GazeConfig::default();
        let videos = catalog
            .videos()
            .iter()
            .map(|spec| VideoTraces::generate(spec, user_count, seed, config))
            .collect();
        Self { videos }
    }

    /// Traces for one video, by Table III id.
    pub fn video(&self, video_id: usize) -> Option<&VideoTraces> {
        self.videos.iter().find(|v| v.video_id == video_id)
    }

    /// All per-video trace sets.
    pub fn videos(&self) -> &[VideoTraces] {
        &self.videos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_video::catalog::VideoCatalog;

    fn small_dataset() -> Dataset {
        // Keep tests fast: 8 users over the full catalog.
        Dataset::generate(&VideoCatalog::paper_default(), 8, 3)
    }

    #[test]
    fn one_trace_set_per_video() {
        let d = small_dataset();
        assert_eq!(d.videos().len(), 8);
        for id in 1..=8 {
            let v = d.video(id).unwrap();
            assert_eq!(v.video_id(), id);
            assert_eq!(v.user_count(), 8);
        }
        assert!(d.video(9).is_none());
    }

    #[test]
    fn split_is_partition() {
        let d = small_dataset();
        let v = d.video(1).unwrap();
        let (train, eval) = v.split(6, 77);
        assert_eq!(train.len(), 6);
        assert_eq!(eval.len(), 2);
        let mut users: Vec<usize> = train
            .iter()
            .chain(eval.iter())
            .map(|t| t.user_id())
            .collect();
        users.sort_unstable();
        assert_eq!(users, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn split_deterministic() {
        let d = small_dataset();
        let v = d.video(2).unwrap();
        let (a, _) = v.split(6, 10);
        let (b, _) = v.split(6, 10);
        let ids =
            |ts: &[&crate::head::HeadTrace]| ts.iter().map(|t| t.user_id()).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b));
        let (c, _) = v.split(6, 11);
        // Different seed usually shuffles differently (not guaranteed for
        // every seed pair, but true for this one).
        assert_ne!(ids(&a), ids(&c));
    }

    #[test]
    fn traces_match_video_durations() {
        let d = small_dataset();
        let catalog = VideoCatalog::paper_default();
        for v in d.videos() {
            let expected = catalog.video(v.video_id()).unwrap().duration_sec as f64;
            for t in v.traces() {
                assert!((t.duration_sec() - expected).abs() < 0.2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "n_train")]
    fn bad_split_panics() {
        let d = small_dataset();
        let _ = d.video(1).unwrap().split(8, 1);
    }

    #[test]
    fn paper_constants() {
        assert_eq!(PAPER_USER_COUNT, 48);
        assert_eq!(PAPER_TRAIN_USERS, 40);
    }
}
