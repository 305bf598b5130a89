//! Synthetic head-movement (gaze) traces.
//!
//! The generator reproduces the statistical structure the paper's pipeline
//! consumes from the MMSys'17 dataset:
//!
//! * **Hotspots** — each video has a few salient regions whose positions
//!   slowly oscillate (the action moves around the scene).
//! * **Fixation** — a user dwells on a hotspot with small
//!   Ornstein–Uhlenbeck gaze jitter, offset by a per-user interest bias
//!   (small for focused videos, large for exploratory ones).
//! * **Pursuit** — on dwell expiry the user swings to the next hotspot
//!   along the great circle at the video's pursuit speed: these swings are
//!   the >10°/s tail of Fig. 5.
//! * **Exploration** — users of exploratory videos occasionally wander to
//!   a uniformly random point, producing the scattered, Ptile-uncovered
//!   viewers of Fig. 7(b).
//!
//! Hotspot choice is shared across users for focused videos (everyone
//! watches the ball) and Zipf-skewed but individual for exploratory videos
//! (most users follow the main action, a minority roams), which is what
//! gives Algorithm 1 its one-or-two dominant clusters.

use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

use ee360_support::rng::StdRng;

use ee360_geom::angles::{lerp_yaw_deg, wrap_yaw_deg};
use ee360_geom::grid::TileGrid;
use ee360_geom::projection::PixelSampler;
use ee360_geom::sphere::Orientation;
use ee360_geom::switching::{
    fast_speed_of, fast_switching_speed, mean_switching_speed, switching_speed_deg_per_sec,
    SwitchingSample,
};
use ee360_geom::viewport::ViewCenter;
use ee360_video::catalog::{BehaviorProfile, VideoSpec};

/// Tuning knobs of the gaze simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GazeConfig {
    /// Gaze sampling rate in Hz (the paper's headsets record at 50 Hz; 10 Hz
    /// is plenty for 1 s segments and keeps experiments fast).
    pub sample_hz: f64,
    /// Standard deviation of fixation jitter, degrees.
    pub jitter_deg: f64,
    /// Per-user interest offset (1σ), degrees, for focused videos.
    pub focused_offset_deg: f64,
    /// Per-user interest offset (1σ), degrees, for exploratory videos.
    pub exploratory_offset_deg: f64,
    /// Probability that an exploratory user's next target is a random
    /// point rather than a hotspot.
    pub roam_probability: f64,
    /// Zipf skew for exploratory hotspot choice.
    pub zipf_exponent: f64,
    /// Rate of saccadic micro-flicks while fixating, per second. Flicks are
    /// brief 3–7° re-fixations: they dominate the fast tail of the
    /// switching-speed distribution (Fig. 5) without moving the user out of
    /// the Ptile.
    pub flick_rate_hz: f64,
}

ee360_support::impl_json_struct!(GazeConfig {
    sample_hz,
    jitter_deg,
    focused_offset_deg,
    exploratory_offset_deg,
    roam_probability,
    zipf_exponent,
    flick_rate_hz
});

impl Default for GazeConfig {
    fn default() -> Self {
        Self {
            sample_hz: 10.0,
            jitter_deg: 1.2,
            focused_offset_deg: 6.0,
            exploratory_offset_deg: 10.0,
            roam_probability: 0.06,
            zipf_exponent: 1.1,
            flick_rate_hz: 1.2,
        }
    }
}

/// Horizontal and vertical FoV, degrees, of the realised viewports whose
/// pixel counts [`HeadTrace::segment_view_counts`] keeps: the paper's
/// 100° × 100° HMD view.
pub const VIEW_FOV_DEG: f64 = 100.0;

/// Pixel samples per axis of those viewports: 16 × 16 rays.
pub const VIEW_SAMPLES: usize = 16;

/// The sampler of those viewports on the paper's grid, built on first
/// use and shared by every trace's view table.
static VIEW_SAMPLER: OnceLock<PixelSampler> = OnceLock::new();

/// Tiles of the paper's 4 × 8 grid, the one grid the view table covers.
const VIEW_TILES: usize = 32;

/// Bound on the view table's slots (about 18 hours of 1 s segments);
/// later segments get no table entry.
const MAX_VIEW_SEGMENTS: usize = 1 << 16;

/// One slot per segment, each filled at most once with the per-tile
/// sample counts of that segment's realised viewport (`None` if a count
/// did not fit a `u8`, which the paper grid rules out).
type ViewTable = Box<[OnceLock<Option<[u8; VIEW_TILES]>>]>;

/// The Eq. 5 speed of every interval of a trace (interval `i` joins
/// samples `i` and `i + 1`) as `f64` bits, [`UNFILLED`] until first
/// computed.
type SpeedTable = Box<[AtomicU64]>;

/// The bits of an interval whose speed is not in the table yet (a NaN
/// payload). A computed speed with these bits is returned but not
/// stored.
const UNFILLED: u64 = u64::MAX;

/// Slots of a trace's window-fit ring, direct-mapped on the window's
/// end sample.
const WINDOW_SLOTS: usize = 64;

/// The derived state a trace's live sessions share, behind one `Arc`
/// that each [`IntervalSpeeds`] over the trace holds: the interval-speed
/// table, and the window-fit ring once a second session is live.
#[derive(Debug)]
struct SessionTables {
    speeds: SpeedTable,
    /// Live views made by [`IntervalSpeeds::for_session`].
    sessions: AtomicUsize,
    /// Allocated when `sessions` first reaches two: with one session at a
    /// time no window recurs before the slot is overwritten.
    windows: OnceLock<Box<[WindowSlot]>>,
}

/// One slot of the window-fit ring: a per-slot seqlock over the words
/// of a [`WindowKey`] and a [`SharedFit`].
///
/// `version` is even while the slot is stable and odd while a writer
/// stores; `0` means never written. A writer claims the slot by moving
/// an even version to odd with a compare-exchange, issues a `Release`
/// fence, stores the words and publishes `version + 2` with `Release`.
/// A reader loads the version with `Acquire`, loads the words, issues
/// an `Acquire` fence and loads the version again: if it read any word a
/// writer stored, the fence pairs with that writer's `Release` fence, so
/// the second load sees at least the writer's odd version and the read
/// is discarded. Every word is an atomic, so a torn read is detected,
/// never undefined.
#[derive(Debug)]
struct WindowSlot {
    version: AtomicU64,
    /// `plan_start, fit_start, end`, then `yaw.0, yaw.1, pitch.0,
    /// pitch.1, fast_speed` as `f64` bits.
    words: [AtomicU64; 8],
}

impl WindowSlot {
    fn empty() -> Self {
        Self {
            version: AtomicU64::new(0),
            words: Default::default(),
        }
    }

    /// The slot's fit if it is stable and holds `key`.
    fn read(&self, key: &WindowKey) -> Option<SharedFit> {
        let before = self.version.load(Ordering::Acquire);
        if before == 0 || before % 2 == 1 {
            return None;
        }
        let words = self.words.each_ref().map(|w| w.load(Ordering::Relaxed));
        fence(Ordering::Acquire);
        if self.version.load(Ordering::Relaxed) != before {
            return None;
        }
        let [plan_start, fit_start, end, words @ ..] = words;
        if [plan_start, fit_start, end] != key.words() {
            return None;
        }
        let [yaw_w, yaw_i, pitch_w, pitch_i, fast] = words.map(f64::from_bits);
        Some(SharedFit {
            yaw: (yaw_w, yaw_i),
            pitch: (pitch_w, pitch_i),
            fast_speed: fast,
        })
    }

    /// Stores `fit` under `key` unless another writer holds the slot.
    fn write(&self, key: &WindowKey, fit: &SharedFit) {
        let before = self.version.load(Ordering::Relaxed);
        if before % 2 == 1
            || self
                .version
                .compare_exchange(before, before + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        fence(Ordering::Release);
        let [a, b, c] = key.words();
        let values = [
            a,
            b,
            c,
            fit.yaw.0.to_bits(),
            fit.yaw.1.to_bits(),
            fit.pitch.0.to_bits(),
            fit.pitch.1.to_bits(),
            fit.fast_speed.to_bits(),
        ];
        for (word, value) in self.words.iter().zip(values) {
            word.store(value, Ordering::Relaxed);
        }
        self.version.store(before + 2, Ordering::Release);
    }
}

/// Which plan window a [`SharedFit`] belongs to, as stored-sample
/// indices: the window is `plan_start..end` (its fast speed's range) and
/// the viewport fit regressed over `fit_start..end`, what is left after
/// the predictor's own recency filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowKey {
    /// First sample of the plan window.
    pub plan_start: usize,
    /// First sample the fit used.
    pub fit_start: usize,
    /// One past the last sample of both.
    pub end: usize,
}

impl WindowKey {
    fn words(&self) -> [u64; 3] {
        [self.plan_start, self.fit_start, self.end].map(|i| i as u64)
    }
}

/// A plan window's viewport fit and fast speed, as one session computed
/// them and every other session over the trace may reuse: the yaw and
/// pitch ridge models as `(weight, intercept)` and the window's fast
/// (p75) switching speed. The ring stores the bits and returns them
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedFit {
    /// Yaw model `(weight, intercept)`.
    pub yaw: (f64, f64),
    /// Pitch model `(weight, intercept)`.
    pub pitch: (f64, f64),
    /// The fast switching speed of `plan_start..end`.
    pub fast_speed: f64,
}

/// One user's gaze trace over one video.
pub struct HeadTrace {
    video_id: usize,
    user_id: usize,
    sample_hz: f64,
    /// (t_sec, yaw_deg, pitch_deg) triples, strictly increasing in time.
    samples: Vec<(f64, f64, f64)>,
    /// The per-segment view table behind [`Self::segment_view_counts`],
    /// allocated on first use: a derived cache, not part of the trace's
    /// value, so equality, `Debug` and JSON ignore it.
    views: OnceLock<ViewTable>,
    /// The tables of the live [`IntervalSpeeds`] over this trace. Each of
    /// them holds an `Arc`, the trace only this `Weak`, so the tables
    /// exist while a session over the trace does and are freed with the
    /// last one. A derived cache like `views`: equality, `Debug` and JSON
    /// ignore it, and a clone starts without one.
    shared: Mutex<Weak<SessionTables>>,
}

ee360_support::impl_json_struct!(HeadTrace {
    video_id,
    user_id,
    sample_hz,
    samples
} skip {
    views,
    shared
});

impl Clone for HeadTrace {
    fn clone(&self) -> Self {
        Self {
            video_id: self.video_id,
            user_id: self.user_id,
            sample_hz: self.sample_hz,
            samples: self.samples.clone(),
            views: self.views.clone(),
            shared: Mutex::default(),
        }
    }
}

impl PartialEq for HeadTrace {
    fn eq(&self, other: &Self) -> bool {
        self.video_id == other.video_id
            && self.user_id == other.user_id
            && self.sample_hz == other.sample_hz
            && self.samples == other.samples
    }
}

impl fmt::Debug for HeadTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeadTrace")
            .field("video_id", &self.video_id)
            .field("user_id", &self.user_id)
            .field("sample_hz", &self.sample_hz)
            .field("samples", &self.samples)
            .finish()
    }
}

/// A malformed raw head trace (the import path external datasets use).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadTraceError {
    /// The sample list was empty.
    EmptyTrace,
    /// A timestamp was NaN or infinite.
    NonFiniteTime {
        /// Index of the offending sample.
        index: usize,
    },
    /// A timestamp failed to increase over its predecessor.
    NonIncreasingTime {
        /// Index of the offending sample.
        index: usize,
    },
}

impl fmt::Display for HeadTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeadTraceError::EmptyTrace => write!(f, "a trace needs at least one sample"),
            HeadTraceError::NonFiniteTime { index } => {
                write!(f, "sample times must be finite (sample {index} is not)")
            }
            HeadTraceError::NonIncreasingTime { index } => write!(
                f,
                "sample times must be strictly increasing (sample {index} does not advance)"
            ),
        }
    }
}

impl Error for HeadTraceError {}

impl HeadTrace {
    /// Builds a trace from raw `(t_sec, yaw_deg, pitch_deg)` samples — the
    /// entry point for external datasets (see [`crate::mmsys`]).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or timestamps are not finite and
    /// strictly increasing — the infallible wrapper around
    /// [`HeadTrace::try_from_samples`].
    pub fn from_samples(video_id: usize, user_id: usize, samples: Vec<(f64, f64, f64)>) -> Self {
        match Self::try_from_samples(video_id, user_id, samples) {
            Ok(trace) => trace,
            // lint:allow(no-panic-paths, "documented panic: infallible wrapper; try_from_samples is the graceful API")
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`HeadTrace::from_samples`]: empty input, non-finite
    /// and out-of-order timestamps come back as [`HeadTraceError`]s
    /// instead of panicking — the path external datasets arrive through.
    /// Finiteness is checked first: a NaN compares false both ways, so
    /// the ordering check alone would let it through.
    pub fn try_from_samples(
        video_id: usize,
        user_id: usize,
        samples: Vec<(f64, f64, f64)>,
    ) -> Result<Self, HeadTraceError> {
        if samples.is_empty() {
            return Err(HeadTraceError::EmptyTrace);
        }
        if let Some(index) = samples.iter().position(|s| !s.0.is_finite()) {
            return Err(HeadTraceError::NonFiniteTime { index });
        }
        if let Some(index) = samples.windows(2).position(|w| w[1].0 <= w[0].0) {
            return Err(HeadTraceError::NonIncreasingTime { index: index + 1 });
        }
        let sample_hz = match (samples.first(), samples.last()) {
            (Some(first), Some(last)) if samples.len() >= 2 => {
                let span = last.0 - first.0;
                (samples.len() as f64 - 1.0) / span.max(1e-9)
            }
            _ => 1.0,
        };
        Ok(Self {
            video_id,
            user_id,
            sample_hz,
            samples,
            views: OnceLock::new(),
            shared: Mutex::default(),
        })
    }

    /// The video this trace was recorded over.
    pub fn video_id(&self) -> usize {
        self.video_id
    }

    /// The user id within the video's population.
    pub fn user_id(&self) -> usize {
        self.user_id
    }

    /// Trace duration in seconds.
    pub fn duration_sec(&self) -> f64 {
        self.samples.last().map_or(0.0, |s| s.0)
    }

    /// Number of gaze samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All samples as [`SwitchingSample`]s.
    pub fn switching_samples(&self) -> Vec<SwitchingSample> {
        self.samples.iter().map(to_switching_sample).collect()
    }

    /// Replaces `out` with the samples whose time lies in the closed
    /// interval `[t_lo, t_hi]`, as [`SwitchingSample`]s. Timestamps are
    /// strictly increasing (enforced by `try_from_samples`), so the window
    /// is a contiguous run found by two binary searches, and only that run
    /// is converted: the cost is O(log n + window), not O(n). The values
    /// equal [`Self::switching_samples`] filtered to `t_lo ≤ t ≤ t_hi`.
    ///
    /// Returns the stored-sample indices of the window (see
    /// [`Self::sample_range`]), so callers can key per-sample work by them.
    pub fn switching_window_into(
        &self,
        t_lo: f64,
        t_hi: f64,
        out: &mut Vec<SwitchingSample>,
    ) -> Range<usize> {
        let range = self.sample_range(t_lo, t_hi);
        out.clear();
        out.extend(self.window_samples(range.clone()));
        range
    }

    /// Indices of the stored samples whose time lies in the closed
    /// interval `[t_lo, t_hi]`: two binary searches (`t < t_lo`,
    /// `t <= t_hi`) over the strictly increasing timestamps. An inverted
    /// interval gives an empty range.
    pub fn sample_range(&self, t_lo: f64, t_hi: f64) -> Range<usize> {
        let lo = self.samples.partition_point(|s| s.0 < t_lo);
        let hi = self.samples.partition_point(|s| s.0 <= t_hi);
        lo..hi.max(lo)
    }

    /// [`Self::sample_range`] searched from a hint: the same range for
    /// every `*hint`, found in O(log d) probes when it starts `d` samples
    /// from the hint. The range's start is left in `*hint`, so a caller
    /// whose windows move a little at a time keeps each search local.
    pub fn sample_range_from(&self, hint: &mut usize, t_lo: f64, t_hi: f64) -> Range<usize> {
        let lo = partition_point_from(&self.samples, *hint, |t| t < t_lo);
        let hi = partition_point_from(&self.samples, lo, |t| t <= t_hi);
        *hint = lo;
        lo..hi.max(lo)
    }

    /// The stored samples `range` (a range from [`Self::sample_range`])
    /// as [`SwitchingSample`]s, converted as they are read: the values
    /// [`Self::switching_window_into`] copies out, without the copy.
    /// Empty for a range that is not within the trace.
    pub fn window_samples(
        &self,
        range: Range<usize>,
    ) -> impl DoubleEndedIterator<Item = SwitchingSample> + ExactSizeIterator + Clone + '_ {
        self.samples
            .get(range)
            .unwrap_or_default()
            .iter()
            .map(to_switching_sample)
    }

    /// Switching speed (Eq. 5) of the interval between stored samples `i`
    /// and `i + 1`, degrees per second: the value
    /// [`ee360_geom::switching::switching_speeds`] gives for that pair of
    /// any window holding both.
    ///
    /// # Panics
    ///
    /// Panics if `i + 1` is not a stored sample index.
    pub fn interval_speed(&self, i: usize) -> f64 {
        switching_speed_deg_per_sec(
            &to_switching_sample(&self.samples[i]),
            &to_switching_sample(&self.samples[i + 1]),
        )
    }

    /// The gaze position of the first sample, or `None` for an empty trace.
    pub fn first_center(&self) -> Option<ViewCenter> {
        self.samples.first().map(|s| to_switching_sample(s).center)
    }

    /// The gaze position at the start of segment `k` (the sample closest to
    /// `t = k` seconds), or `None` past the end of the trace.
    pub fn segment_center(&self, segment: usize) -> Option<ViewCenter> {
        let t = segment as f64;
        if t > self.duration_sec() + 1e-9 {
            return None;
        }
        let idx = self
            .samples
            .partition_point(|s| s.0 < t - 1e-9)
            .min(self.samples.len() - 1);
        let (_, y, p) = self.samples[idx];
        Some(ViewCenter::new(y, p))
    }

    /// [`Self::segment_center`] searched from a hint: the same centre for
    /// every `*hint`. Unless the segment has no centre, `*hint` is left at
    /// the first sample at or after `segment − 1e-9` (the search's
    /// partition point, before it is clamped to the last sample).
    pub fn segment_center_from(&self, hint: &mut usize, segment: usize) -> Option<ViewCenter> {
        let t = segment as f64;
        if t > self.duration_sec() + 1e-9 {
            return None;
        }
        let from = t - 1e-9;
        *hint = partition_point_from(&self.samples, *hint, |s| s < from);
        let last = self.samples.len().checked_sub(1)?;
        let &(_, y, p) = self.samples.get((*hint).min(last))?;
        Some(ViewCenter::new(y, p))
    }

    /// [`Self::segment_center`] of segments `0, 1, 2, …` in one forward
    /// walk, ending at the first segment without a centre.
    ///
    /// The sample `segment_center(k)` picks is the first with `t ≥ k −
    /// 1e-9`; that index never decreases in `k`, so a cursor that only
    /// moves forward finds it, and the walk stops at the same `k ≤
    /// duration + 1e-9` bound. The centres are bit-identical to the
    /// per-segment lookups at O(samples + segments) in all.
    pub fn segment_centers(&self) -> impl Iterator<Item = ViewCenter> + '_ {
        let last = self.duration_sec() + 1e-9;
        let mut cursor = 0;
        (0usize..).map_while(move |segment| {
            let t = segment as f64;
            if t > last {
                return None;
            }
            cursor += self
                .samples
                .get(cursor..)?
                .iter()
                .take_while(|s| s.0 < t - 1e-9)
                .count();
            let &(_, y, p) = self
                .samples
                .get(cursor.min(self.samples.len().saturating_sub(1)))?;
            Some(ViewCenter::new(y, p))
        })
    }

    /// Per-tile sample counts, in flat-index order, of segment `segment`'s
    /// realised viewport: `Viewport::new(segment_center(segment),`
    /// [`VIEW_FOV_DEG`]`, VIEW_FOV_DEG)` sampled at [`VIEW_SAMPLES`]² rays
    /// by one process-wide [`PixelSampler`], the same pass as
    /// [`ee360_geom::projection::for_each_pixel_tile`]. Pass them to
    /// [`ee360_geom::projection::coverage_from_counts`] for that viewport's
    /// pixel coverage of any region, bit-identical to
    /// [`ee360_geom::projection::pixel_coverage`].
    ///
    /// The first request for a segment, from any thread, runs the
    /// sampling pass; every later one reads the stored counts. So all the
    /// sessions over this trace share one pass per segment.
    ///
    /// The counts are stored as `u8`, one byte per tile. No count
    /// reaches 256: the two outermost ray columns of the 100° view are
    /// about 96° apart, and no 45° × 45° tile of the paper grid holds two
    /// points that far apart, so no tile gets all 256 rays (a scan of
    /// 801,000 centres, poles included, found at most 64). The narrowing
    /// is checked all the same.
    ///
    /// `None` when `grid` is not the paper's 4 × 8 grid, the segment has no
    /// [`Self::segment_center`], it lies past the table's bound of 65,536
    /// segments, or a count failed to narrow: the caller then samples the
    /// viewport itself.
    pub fn segment_view_counts(&self, segment: usize, grid: &TileGrid) -> Option<&[u8]> {
        if *grid != TileGrid::paper_default() {
            return None;
        }
        let slot = self
            .views
            .get_or_init(|| {
                (0..self.view_slot_count())
                    .map(|_| OnceLock::new())
                    .collect()
            })
            .get(segment)?;
        if let Some(counts) = slot.get() {
            return counts.as_ref().map(|c| c.as_slice());
        }
        let center = self.segment_center(segment)?;
        let counts = slot.get_or_init(|| {
            let sampler = VIEW_SAMPLER
                .get_or_init(|| PixelSampler::new(grid, VIEW_FOV_DEG, VIEW_FOV_DEG, VIEW_SAMPLES));
            let mut counts = [0u16; VIEW_TILES];
            sampler.for_each_tile(center, |t| {
                if let Some(c) = counts.get_mut(grid.flat_index(t)) {
                    *c += 1;
                }
            });
            let mut narrow = [0u8; VIEW_TILES];
            for (n, &c) in narrow.iter_mut().zip(&counts) {
                *n = u8::try_from(c).ok()?;
            }
            Some(narrow)
        });
        counts.as_ref().map(|c| c.as_slice())
    }

    /// Number of segments with a [`Self::segment_center`] (those `k` with
    /// `k ≤ duration + 1e-9`), capped at [`MAX_VIEW_SEGMENTS`].
    fn view_slot_count(&self) -> usize {
        let last = self.duration_sec() + 1e-9;
        if last >= 0.0 {
            (last.floor() as usize)
                .saturating_add(1)
                .min(MAX_VIEW_SEGMENTS)
        } else {
            0
        }
    }

    /// Mean view-switching speed within segment `k`, degrees per second
    /// (the `S_fov` input of Eq. 4). `None` past the end of the trace.
    pub fn segment_switching_speed(&self, segment: usize) -> Option<f64> {
        let t0 = segment as f64;
        if t0 > self.duration_sec() {
            return None;
        }
        Some(mean_switching_speed(&self.segment_window(t0)))
    }

    /// The samples inside `[t0 - 1e-9, t0 + 1 + 1e-9]` as switching
    /// samples.
    fn segment_window(&self, t0: f64) -> Vec<SwitchingSample> {
        let mut window = Vec::new();
        let (lo, hi) = segment_bounds(t0);
        self.switching_window_into(lo, hi, &mut window);
        window
    }

    /// Per-interval switching speeds over the whole trace (Fig. 5's raw
    /// material), degrees per second.
    pub fn switching_speeds(&self) -> Vec<f64> {
        ee360_geom::switching::switching_speeds(&self.switching_samples())
    }

    /// The *fast* switching speed within segment `k` (the 75th percentile
    /// of the within-segment speeds, see [`fast_switching_speed`]).
    /// `None` past the end of the trace.
    pub fn segment_fast_switching_speed(&self, segment: usize) -> Option<f64> {
        let t0 = segment as f64;
        if t0 > self.duration_sec() {
            return None;
        }
        Some(fast_switching_speed(&self.segment_window(t0)))
    }
}

/// The closed time window of segment `t0`'s samples, `[t0 - 1e-9,
/// t0 + 1 + 1e-9]`: the one definition the per-segment speed views share.
fn segment_bounds(t0: f64) -> (f64, f64) {
    (t0 - 1e-9, t0 + 1.0 + 1e-9)
}

/// A session's view of its trace's Eq. 5 interval speeds, keyed by
/// stored-sample index.
///
/// A session asks for the fast (75th-percentile) speed of overlapping
/// windows: two 2 s planning windows and one booking window cover each
/// interval, and every session over the same trace asks for the same
/// intervals. So the speeds live in one table per trace, shared by every
/// live `IntervalSpeeds` over it: an interval's speed is computed the
/// first time any of them needs it and read from the table after that.
/// The first `IntervalSpeeds` over a trace allocates the table (8 bytes
/// per interval) and the last one to drop frees it; the trace itself
/// keeps only a `Weak`.
///
/// Adjacent intervals share a sample, so a view also remembers the
/// orientation of the last right endpoint it converted, keyed by sample
/// index. Interval `i`'s left endpoint reuses it when that index is `i`,
/// which on forward playback converts each sample once instead of twice.
///
/// Results are bit-identical to [`fast_switching_speed`] over the same
/// window: every speed runs [`switching_speed_deg_per_sec`]'s operations
/// on the same two stored tuples, a sample's orientation is a pure
/// function of its tuple, and the percentile rule ([`fast_speed_of`])
/// does not depend on the order the speeds are gathered in. Because a
/// speed is a pure function of the stored samples, every thread that
/// fills an entry stores the same bits, and an entry is one atomic word:
/// a reader sees either `UNFILLED`, and computes the speed itself, or
/// those bits. Relaxed loads and stores are therefore enough.
///
/// A view made by [`Self::for_session`] also counts as a live session
/// of the trace. Once two are live, the shared tables gain a ring of
/// plan-window fits ([`Self::shared_fit`], [`Self::share_fit`]), freed
/// with the tables.
#[derive(Debug)]
pub struct IntervalSpeeds<'a> {
    trace: &'a HeadTrace,
    /// The trace's shared tables.
    shared: Arc<SessionTables>,
    /// Whether this view counts in `shared.sessions`.
    session: bool,
    /// `(sample index, orientation)` of the last right endpoint converted;
    /// `usize::MAX` before the first.
    last: (usize, Orientation),
    /// Recycled gather buffer for the percentile selection.
    scratch: Vec<f64>,
}

impl Drop for IntervalSpeeds<'_> {
    fn drop(&mut self) {
        if self.session {
            self.shared.sessions.fetch_sub(1, Ordering::Relaxed);
        }
        // The last view also clears the trace's `Weak`, so the tables'
        // `Arc` allocation is freed now rather than pinned until the
        // trace drops. Views are only made under this lock, so no other
        // holder can appear while the count reads 1.
        let mut weak = self
            .trace
            .shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if Arc::strong_count(&self.shared) == 1 {
            *weak = Weak::new();
        }
    }
}

impl<'a> IntervalSpeeds<'a> {
    /// A view of `trace`'s interval speeds: the tables of the live views
    /// over `trace`, or fresh ones when there are none.
    pub fn new(trace: &'a HeadTrace) -> Self {
        // The guarded `Weak` is only ever replaced whole, so it is valid
        // even if a holder of the lock panicked.
        let mut weak = trace.shared.lock().unwrap_or_else(PoisonError::into_inner);
        let shared = weak.upgrade().unwrap_or_else(|| {
            let intervals = trace.samples.len().saturating_sub(1);
            let shared = Arc::new(SessionTables {
                speeds: (0..intervals).map(|_| AtomicU64::new(UNFILLED)).collect(),
                sessions: AtomicUsize::new(0),
                windows: OnceLock::new(),
            });
            *weak = Arc::downgrade(&shared);
            shared
        });
        drop(weak);
        Self {
            trace,
            shared,
            session: false,
            last: (usize::MAX, Orientation::new(1.0, 0.0, 0.0)),
            scratch: Vec::new(),
        }
    }

    /// [`Self::new`] for a session over `trace`: the view counts as a live
    /// session until dropped, and the second live session allocates the
    /// window-fit ring (64 slots of 72 B). Other holders, such as a task
    /// that keeps the speeds alive between sessions run one after
    /// another, use [`Self::new`] and allocate no ring.
    pub fn for_session(trace: &'a HeadTrace) -> Self {
        let mut view = Self::new(trace);
        view.session = true;
        // `Relaxed` publishes nothing: the ring itself is published by
        // its `OnceLock`.
        if view.shared.sessions.fetch_add(1, Ordering::Relaxed) >= 1 {
            view.shared
                .windows
                .get_or_init(|| (0..WINDOW_SLOTS).map(|_| WindowSlot::empty()).collect());
        }
        view
    }

    /// The fit another session over the trace shared for `key`, if the
    /// ring holds it and no writer is storing into its slot. `None`
    /// without a ring.
    pub fn shared_fit(&self, key: &WindowKey) -> Option<SharedFit> {
        self.window_slot(key)?.read(key)
    }

    /// Offers `fit` to the other sessions over the trace under `key`,
    /// replacing what the key's slot held. Does nothing without a ring or
    /// while another writer holds the slot. `fit` must be a pure function
    /// of `key` and the trace, the same for every session that stores it.
    pub fn share_fit(&self, key: &WindowKey, fit: &SharedFit) {
        if let Some(slot) = self.window_slot(key) {
            slot.write(key, fit);
        }
    }

    fn window_slot(&self, key: &WindowKey) -> Option<&WindowSlot> {
        self.shared.windows.get()?.get(key.end % WINDOW_SLOTS)
    }

    /// The fast switching speed of the stored samples `samples` (a range
    /// from [`HeadTrace::sample_range`]): the 75th percentile of their
    /// interval speeds, `0.0` with fewer than two samples. Equals
    /// [`fast_switching_speed`] of the same window, bit for bit.
    pub fn fast_speed(&mut self, samples: Range<usize>) -> f64 {
        let Self {
            trace,
            shared,
            last,
            scratch,
            ..
        } = self;
        let table: &[AtomicU64] = &shared.speeds;
        let intervals = samples.start..samples.end.saturating_sub(1);
        scratch.clear();
        scratch.extend(intervals.map(|i| {
            let entry = table.get(i);
            match entry.map(|e| e.load(Ordering::Relaxed)) {
                Some(bits) if bits != UNFILLED => f64::from_bits(bits),
                _ => {
                    let speed = interval_speed_reusing(&trace.samples, i, last);
                    if let Some(e) = entry.filter(|_| speed.to_bits() != UNFILLED) {
                        e.store(speed.to_bits(), Ordering::Relaxed);
                    }
                    speed
                }
            }
        }));
        fast_speed_of(scratch)
    }

    /// [`HeadTrace::segment_fast_switching_speed`] served from the table:
    /// `None` past the end of the trace.
    pub fn segment_fast_speed(&mut self, segment: usize) -> Option<f64> {
        self.segment_fast_speed_from(&mut 0, segment)
    }

    /// [`Self::segment_fast_speed`] with its window searched from `*hint`
    /// (see [`HeadTrace::sample_range_from`]), which is left at the
    /// window's first sample. That is the sample
    /// [`HeadTrace::segment_center_from`] leaves there for the same
    /// segment: both search for the first time at or after
    /// `segment − 1e-9`.
    pub fn segment_fast_speed_from(&mut self, hint: &mut usize, segment: usize) -> Option<f64> {
        let t0 = segment as f64;
        if t0 > self.trace.duration_sec() {
            return None;
        }
        let (lo, hi) = segment_bounds(t0);
        let samples = self.trace.sample_range_from(hint, lo, hi);
        Some(self.fast_speed(samples))
    }
}

/// [`HeadTrace::interval_speed`] of interval `i` over `samples`, taking
/// the left endpoint's orientation from `last` when it holds sample `i`,
/// and leaving sample `i + 1`'s orientation in `last`. The operations are
/// [`switching_speed_deg_per_sec`]'s, in its order, so the speed is
/// bit-identical.
fn interval_speed_reusing(
    samples: &[(f64, f64, f64)],
    i: usize,
    last: &mut (usize, Orientation),
) -> f64 {
    let prev = to_switching_sample(&samples[i]);
    let next = to_switching_sample(&samples[i + 1]);
    let dt = next.t_sec - prev.t_sec;
    assert!(dt > 0.0, "samples must be strictly increasing in time");
    let o0 = if last.0 == i {
        last.1
    } else {
        Orientation::from_view_center(prev.center)
    };
    let o1 = Orientation::from_view_center(next.center);
    *last = (i + 1, o1);
    o0.angle_to_deg(&o1) / dt
}

/// `samples.partition_point(|s| below(s.0))`, searched from `hint`.
///
/// `below` must hold on a prefix of the times, as `t < x` and `t <= x`
/// do over strictly increasing times. The search gallops out from
/// `hint` (steps 1, 2, 4, … forward when the hint's sample is below,
/// backward otherwise) until it brackets the partition point, then
/// bisects inside the bracket. Every probe past the bracket's ends
/// agrees with the prefix, so the result is the partition point for
/// every hint, 0 and past the end included: O(log d) probes for a
/// point `d` samples from the hint.
fn partition_point_from(
    samples: &[(f64, f64, f64)],
    hint: usize,
    below: impl Fn(f64) -> bool,
) -> usize {
    let is_below = |i: usize| samples.get(i).is_some_and(|s| below(s.0));
    let mut step = 1usize;
    // Every index before `lo` is below; the partition point is at most `hi`.
    let (lo, hi) = if is_below(hint) {
        let mut lo = hint + 1;
        loop {
            let probe = hint.saturating_add(step);
            if probe >= samples.len() {
                break (lo, samples.len());
            }
            if !is_below(probe) {
                break (lo, probe);
            }
            lo = probe + 1;
            step = step.saturating_mul(2);
        }
    } else {
        let top = hint.min(samples.len());
        let mut hi = top;
        loop {
            let Some(probe) = top.checked_sub(step) else {
                break (0, hi);
            };
            if is_below(probe) {
                break (probe + 1, hi);
            }
            hi = probe;
            step = step.saturating_mul(2);
        }
    };
    lo + samples
        .get(lo..hi)
        .map_or(0, |run| run.partition_point(|s| below(s.0)))
}

/// One stored `(t, yaw, pitch)` tuple as a [`SwitchingSample`] — the single
/// conversion every sample view of a trace goes through.
fn to_switching_sample(&(t, y, p): &(f64, f64, f64)) -> SwitchingSample {
    SwitchingSample::new(t, ViewCenter::new(y, p))
}

/// A salient region whose position oscillates over time.
#[derive(Debug, Clone, Copy)]
struct Hotspot {
    yaw0: f64,
    pitch0: f64,
    yaw_amp: f64,
    yaw_period: f64,
    phase: f64,
}

impl Hotspot {
    fn position(&self, t: f64) -> ViewCenter {
        let yaw = self.yaw0
            + self.yaw_amp * (2.0 * std::f64::consts::PI * t / self.yaw_period + self.phase).sin();
        ViewCenter::new(wrap_yaw_deg(yaw), self.pitch0)
    }
}

/// The per-video half of a trace: every hotspot's position at every
/// sample step. It depends only on the video, the seed and the sample
/// rate, so [`HeadTraceGenerator::generate_users`] builds it once and
/// every user reads it instead of re-running the hotspots' `sin`s.
struct HotspotTable {
    /// Samples per trace: positions per hotspot.
    sample_count: usize,
    /// `positions[h * sample_count + step]` is hotspot `h` at time
    /// `step · dt`.
    positions: Vec<ViewCenter>,
}

impl HotspotTable {
    /// The hotspot layout of `spec` under `seed` (from the video RNG, keyed
    /// by (video, seed) only), tabulated at `t = step as f64 * dt` for
    /// `step` in `0..sample_count`: the times a trace samples.
    fn new(spec: &VideoSpec, seed: u64, dt: f64, sample_count: usize) -> Self {
        let mut video_rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x2545F4914F6CDD1D)
                .wrapping_add(spec.id as u64),
        );
        let positions = HeadTraceGenerator::hotspots(spec, &mut video_rng)
            .iter()
            .flat_map(|h| (0..sample_count).map(move |step| h.position(step as f64 * dt)))
            .collect();
        Self {
            sample_count,
            positions,
        }
    }

    /// Number of hotspots.
    fn count(&self) -> usize {
        self.positions.len() / self.sample_count
    }

    /// Where a target lies at sample step `step`.
    fn target_position(&self, target: &Target, step: usize) -> ViewCenter {
        match target {
            Target::Hotspot { index, offset } => {
                let h = self.positions[index * self.sample_count + step];
                ViewCenter::new(h.yaw_deg() + offset.0, h.pitch_deg() + offset.1)
            }
            Target::Point(p) => *p,
        }
    }
}

/// What the simulated user is currently doing.
enum GazeState {
    /// Dwelling on a target until the given time.
    Fixate { target: Target, until: f64 },
    /// Swinging towards a target at a given speed (deg/s).
    Travel { target: Target, speed: f64 },
}

/// Where the gaze is headed.
#[derive(Clone, Copy)]
enum Target {
    Hotspot { index: usize, offset: (f64, f64) },
    Point(ViewCenter),
}

/// Generates [`HeadTrace`]s for a video's user population.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadTraceGenerator {
    config: GazeConfig,
}

impl HeadTraceGenerator {
    /// Creates a generator.
    pub fn new(config: GazeConfig) -> Self {
        assert!(config.sample_hz > 0.0, "sample rate must be positive");
        Self { config }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &GazeConfig {
        &self.config
    }

    /// Deterministic hotspot layout for a video.
    fn hotspots(spec: &VideoSpec, rng: &mut StdRng) -> Vec<Hotspot> {
        let n = spec.hotspot_count.max(1);
        (0..n)
            .map(|i| Hotspot {
                // Salient action clusters in the front hemisphere of real
                // 360° footage; spreading hotspots over the whole sphere
                // would make users spend most of their time in transit.
                yaw0: if n == 1 {
                    rng.gen_range(-30.0..30.0)
                } else {
                    -80.0 + 160.0 * i as f64 / (n as f64 - 1.0) + rng.gen_range(-15.0..15.0)
                },
                pitch0: rng.gen_range(-18.0..18.0),
                yaw_amp: rng.gen_range(8.0..30.0),
                yaw_period: rng.gen_range(25.0..70.0),
                phase: rng.gen_range(0.0..std::f64::consts::TAU),
            })
            .collect()
    }

    /// The hotspot all focused users attend to at time `t` (attention
    /// rotates every few dwell periods, shared across the population).
    fn focused_active_hotspot(spec: &VideoSpec, t: f64) -> usize {
        let period = (5.0 * spec.mean_dwell_sec).max(8.0);
        ((t / period) as usize) % spec.hotspot_count.max(1)
    }

    /// Zipf-skewed hotspot choice for exploratory users.
    fn zipf_hotspot(&self, n: usize, rng: &mut StdRng) -> usize {
        let weights: Vec<f64> = (0..n)
            .map(|i| 1.0 / ((i + 1) as f64).powf(self.config.zipf_exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut u = rng.gen_range(0.0..total);
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                return i;
            }
            u -= w;
        }
        n - 1
    }

    /// Generates one user's trace. Deterministic in `(spec.id, user_id,
    /// seed)`.
    pub fn generate(&self, spec: &VideoSpec, user_id: usize, seed: u64) -> HeadTrace {
        let (dt, sample_count) = self.sampling(spec);
        self.generate_user(
            spec,
            &HotspotTable::new(spec, seed, dt, sample_count),
            user_id,
            seed,
        )
    }

    /// The traces of users `0..user_count` of `spec`, equal to
    /// [`Self::generate`] of each: the hotspot positions all of them
    /// track are tabulated once for the video.
    pub(crate) fn generate_users(
        &self,
        spec: &VideoSpec,
        user_count: usize,
        seed: u64,
    ) -> Vec<HeadTrace> {
        let (dt, sample_count) = self.sampling(spec);
        let table = HotspotTable::new(spec, seed, dt, sample_count);
        (0..user_count)
            .map(|u| self.generate_user(spec, &table, u, seed))
            .collect()
    }

    /// The sample interval and the number of samples of a trace over
    /// `spec`: one at every `step · dt` for `step` in `0..=duration · hz`.
    fn sampling(&self, spec: &VideoSpec) -> (f64, usize) {
        let dt = 1.0 / self.config.sample_hz;
        let steps = (spec.duration_sec as f64 * self.config.sample_hz) as usize;
        (dt, steps + 1)
    }

    /// The per-user half of [`Self::generate`]: one user's gaze over the
    /// video's hotspot `table`. The user RNG is the only source of draws.
    fn generate_user(
        &self,
        spec: &VideoSpec,
        table: &HotspotTable,
        user_id: usize,
        seed: u64,
    ) -> HeadTrace {
        let mut mix = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((spec.id as u64) << 32)
            .wrapping_add(user_id as u64);
        mix = (mix ^ (mix >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        let mut rng = StdRng::seed_from_u64(mix);

        let exploratory = spec.behavior == BehaviorProfile::Exploratory;
        let offset_sigma = if exploratory {
            self.config.exploratory_offset_deg
        } else {
            self.config.focused_offset_deg
        };
        let user_offset = (
            rng.gen_range(-1.5..1.5) * offset_sigma,
            rng.gen_range(-1.0..1.0) * offset_sigma * 0.7,
        );

        // Focused users react to the same on-screen events within a short
        // personal delay, which keeps the pack together during transits.
        let reaction_delay = rng.gen_range(0.0..0.8);

        let (dt, sample_count) = self.sampling(spec);

        // Initial target.
        let initial_idx = if exploratory {
            self.zipf_hotspot(table.count(), &mut rng)
        } else {
            Self::focused_active_hotspot(spec, 0.0)
        };
        let mut state = GazeState::Fixate {
            target: Target::Hotspot {
                index: initial_idx,
                offset: user_offset,
            },
            until: self.sample_dwell(spec, &mut rng),
        };
        let start = table.target_position(&state_target(&state), 0);
        let mut pos = start;
        let mut jitter = (0.0f64, 0.0f64);
        let mut flick = (0.0f64, 0.0f64);
        let mut samples = Vec::with_capacity(sample_count);

        for step in 0..sample_count {
            let t = step as f64 * dt;
            // Ornstein–Uhlenbeck jitter around the nominal gaze point.
            let theta = 1.2 * dt;
            jitter.0 +=
                -theta * jitter.0 + self.config.jitter_deg * dt.sqrt() * rng.gen_range(-1.0..1.0);
            jitter.1 +=
                -theta * jitter.1 + self.config.jitter_deg * dt.sqrt() * rng.gen_range(-1.0..1.0);

            match &mut state {
                GazeState::Fixate { target, until } => {
                    let nominal = table.target_position(target, step);
                    // Track the (slowly moving) hotspot.
                    pos = ViewCenter::new(
                        lerp_yaw_deg(pos.yaw_deg(), nominal.yaw_deg(), (3.0 * dt).min(1.0)),
                        pos.pitch_deg()
                            + (nominal.pitch_deg() - pos.pitch_deg()) * (3.0 * dt).min(1.0),
                    );
                    // Focused viewers switch when the on-screen action
                    // switches (synchronised across the population), not on
                    // a private schedule.
                    let stimulus_switch = !exploratory
                        && matches!(target, Target::Hotspot { index, .. }
                        if *index != Self::focused_active_hotspot(
                            spec,
                            (t - reaction_delay).max(0.0),
                        ));
                    if stimulus_switch || t >= *until {
                        let current = match target {
                            Target::Hotspot { index, .. } => Some(*index),
                            Target::Point(_) => None,
                        };
                        let next = self.pick_next_target(
                            spec,
                            exploratory,
                            user_offset,
                            t,
                            table.count(),
                            current,
                            &mut rng,
                        );
                        let next_pos = table.target_position(&next, step);
                        let dist = Orientation::from_view_center(pos)
                            .angle_to_deg(&Orientation::from_view_center(next_pos));
                        if dist > 5.0 {
                            let spread = if exploratory { 0.8..1.3 } else { 0.9..1.15 };
                            let speed = spec.pursuit_speed_deg_s * rng.gen_range(spread);
                            state = GazeState::Travel {
                                target: next,
                                speed,
                            };
                        } else {
                            state = GazeState::Fixate {
                                target: next,
                                until: t + self.sample_dwell(spec, &mut rng),
                            };
                        }
                    }
                }
                GazeState::Travel { target, speed } => {
                    let goal = table.target_position(target, step);
                    let here = Orientation::from_view_center(pos);
                    let there = Orientation::from_view_center(goal);
                    let remaining = here.angle_to_deg(&there);
                    let step_deg = *speed * dt;
                    if remaining <= step_deg || remaining < 3.0 {
                        pos = goal;
                        state = GazeState::Fixate {
                            target: *target,
                            until: t + self.sample_dwell(spec, &mut rng),
                        };
                    } else {
                        pos = here.slerp(&there, step_deg / remaining).to_view_center();
                    }
                }
            }

            // Saccadic micro-flicks: a sudden small re-fixation that decays
            // over a few samples — fast by Eq. 5, but spatially tiny.
            if rng.gen_range(0.0..1.0) < self.config.flick_rate_hz * dt {
                let magnitude = rng.gen_range(4.0..8.0);
                let angle = rng.gen_range(0.0..std::f64::consts::TAU);
                flick.0 += magnitude * angle.cos();
                flick.1 += magnitude * 0.6 * angle.sin();
            }
            flick.0 *= 0.45;
            flick.1 *= 0.45;

            let observed = ViewCenter::new(
                pos.yaw_deg() + jitter.0 + flick.0,
                pos.pitch_deg() + jitter.1 + flick.1,
            );
            samples.push((t, observed.yaw_deg(), observed.pitch_deg()));
        }

        HeadTrace {
            video_id: spec.id,
            user_id,
            sample_hz: self.config.sample_hz,
            samples,
            views: OnceLock::new(),
            shared: Mutex::default(),
        }
    }

    fn sample_dwell(&self, spec: &VideoSpec, rng: &mut StdRng) -> f64 {
        // Exponential dwell with the video's mean, floored at 0.8 s.
        let u: f64 = rng.gen_range(1e-9..1.0);
        (-u.ln() * spec.mean_dwell_sec).max(0.8)
    }

    #[allow(clippy::too_many_arguments)]
    fn pick_next_target(
        &self,
        spec: &VideoSpec,
        exploratory: bool,
        user_offset: (f64, f64),
        t: f64,
        hotspot_count: usize,
        current_hotspot: Option<usize>,
        rng: &mut StdRng,
    ) -> Target {
        if exploratory {
            let r = rng.gen_range(0.0..1.0);
            if r < self.config.roam_probability {
                return Target::Point(ViewCenter::new(
                    rng.gen_range(-180.0..180.0),
                    rng.gen_range(-40.0..40.0),
                ));
            }
            // Most "exploration" is local: re-framing around the current
            // action rather than beelining across the sphere.
            if r < self.config.roam_probability + 0.45 {
                if let Some(index) = current_hotspot {
                    return Target::Hotspot {
                        index,
                        offset: (
                            user_offset.0 + rng.gen_range(-8.0..8.0),
                            user_offset.1 + rng.gen_range(-5.0..5.0),
                        ),
                    };
                }
            }
            Target::Hotspot {
                index: self.zipf_hotspot(hotspot_count, rng),
                offset: user_offset,
            }
        } else {
            Target::Hotspot {
                index: Self::focused_active_hotspot(spec, t),
                offset: user_offset,
            }
        }
    }
}

fn state_target(state: &GazeState) -> Target {
    match state {
        GazeState::Fixate { target, .. } => *target,
        GazeState::Travel { target, .. } => *target,
    }
}

impl Default for HeadTraceGenerator {
    fn default() -> Self {
        Self::new(GazeConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_support::prelude::*;
    use ee360_video::catalog::VideoCatalog;

    fn generator() -> HeadTraceGenerator {
        HeadTraceGenerator::default()
    }

    fn video(id: usize) -> VideoSpec {
        VideoCatalog::paper_default().video(id).unwrap().clone()
    }

    #[test]
    fn trace_covers_video_duration() {
        let spec = video(6); // 164 s
        let trace = generator().generate(&spec, 0, 1);
        assert!((trace.duration_sec() - 164.0).abs() < 0.2);
        assert_eq!(trace.len(), 164 * 10 + 1);
        assert!(!trace.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = video(2);
        let a = generator().generate(&spec, 3, 99);
        let b = generator().generate(&spec, 3, 99);
        assert_eq!(a, b);
        let c = generator().generate(&spec, 3, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn different_users_differ() {
        let spec = video(2);
        let a = generator().generate(&spec, 0, 7);
        let b = generator().generate(&spec, 1, 7);
        assert_ne!(a, b);
    }

    #[test]
    fn segment_centers_available_for_all_segments() {
        let spec = video(8); // 201 s
        let trace = generator().generate(&spec, 0, 5);
        for k in 0..spec.segment_count() {
            assert!(trace.segment_center(k).is_some(), "segment {k}");
        }
        assert!(trace.segment_center(10_000).is_none());
    }

    #[test]
    fn segment_switching_speed_reasonable() {
        let spec = video(8);
        let trace = generator().generate(&spec, 1, 5);
        for k in 0..spec.segment_count() {
            let s = trace.segment_switching_speed(k).unwrap();
            assert!((0.0..=200.0).contains(&s), "segment {k}: {s}");
        }
    }

    #[test]
    fn focused_users_cluster_together() {
        // Two focused-video users should usually gaze at the same hotspot.
        let spec = video(2); // boxing: 1 hotspot
        let gen = generator();
        let a = gen.generate(&spec, 0, 11);
        let b = gen.generate(&spec, 1, 11);
        let mut close = 0;
        let mut total = 0;
        for k in 0..spec.segment_count() {
            let ca = a.segment_center(k).unwrap();
            let cb = b.segment_center(k).unwrap();
            if ca.distance_deg(&cb) < 45.0 {
                close += 1;
            }
            total += 1;
        }
        assert!(
            close as f64 / total as f64 > 0.7,
            "only {close}/{total} segments close"
        );
    }

    #[test]
    fn exploratory_users_spread_wider_than_focused() {
        let gen = generator();
        let spread = |id: usize| {
            let spec = video(id);
            let traces: Vec<HeadTrace> = (0..6).map(|u| gen.generate(&spec, u, 13)).collect();
            let mut total = 0.0;
            let mut count = 0;
            for k in (0..spec.segment_count().min(120)).step_by(5) {
                for i in 0..traces.len() {
                    for j in (i + 1)..traces.len() {
                        let a = traces[i].segment_center(k).unwrap();
                        let b = traces[j].segment_center(k).unwrap();
                        total += a.distance_deg(&b);
                        count += 1;
                    }
                }
            }
            total / count as f64
        };
        let focused = spread(4);
        let exploratory = spread(7);
        assert!(
            exploratory > focused,
            "exploratory {exploratory} <= focused {focused}"
        );
    }

    #[test]
    fn fig5_switching_speed_distribution() {
        // The paper (Fig. 5): users exceed 10°/s for more than 30% of the
        // time. Accept a generous band around that.
        let gen = generator();
        let catalog = VideoCatalog::paper_default();
        let mut speeds = Vec::new();
        for v in catalog.videos() {
            for u in 0..4 {
                let trace = gen.generate(v, u, 21);
                speeds.extend(trace.switching_speeds());
            }
        }
        let above = speeds.iter().filter(|s| **s > 10.0).count() as f64 / speeds.len() as f64;
        assert!(
            (0.18..=0.55).contains(&above),
            "fraction above 10°/s = {above}"
        );
    }

    #[test]
    fn pitch_stays_physical() {
        let spec = video(5);
        let trace = generator().generate(&spec, 2, 3);
        for s in trace.switching_samples() {
            assert!(s.center.pitch_deg().abs() <= 90.0);
        }
    }

    /// A strictly increasing trace from per-sample time steps.
    fn trace_from_steps(t0: f64, steps: &[(f64, f64, f64)]) -> HeadTrace {
        let mut t = t0;
        let samples = steps
            .iter()
            .map(|&(dt, y, p)| {
                t += dt;
                (t, y, p)
            })
            .collect();
        HeadTrace::from_samples(0, 0, samples)
    }

    #[test]
    fn first_center_ignores_trace_start_time() {
        // A trace that ends before t = 0 has no segment 0, but still has
        // a first sample to fall back on.
        let trace = HeadTrace::from_samples(0, 0, vec![(-3.0, 10.0, 5.0), (-2.0, 20.0, 0.0)]);
        assert_eq!(trace.segment_center(0), None);
        assert_eq!(trace.first_center(), Some(ViewCenter::new(10.0, 5.0)));
    }

    proptest! {
        #[test]
        fn switching_window_equals_filtered_samples(
            steps in prop::collection::vec(
                (0.001f64..1.0, -400.0f64..400.0, -120.0f64..120.0),
                1..40,
            ),
            t0 in -5.0f64..5.0,
            mode in 0usize..4,
            picks in (0usize..64, 0usize..64),
            fracs in (-0.5f64..1.5, -0.5f64..1.5),
        ) {
            let trace = trace_from_steps(t0, &steps);
            let all = trace.switching_samples();
            let times: Vec<f64> = all.iter().map(|s| s.t_sec).collect();
            let (first, last) = (times[0], times[times.len() - 1]);
            let span = (last - first).max(1e-3);
            let at = |i: usize| times[i % times.len()];
            let (lo, hi) = match mode {
                // Free bounds: before the first sample, past the last,
                // anywhere between, and inverted (empty) windows.
                0 => (first + fracs.0 * span, first + fracs.1 * span),
                // Bounds exactly on sample times (inverted ones are empty).
                1 => (at(picks.0), at(picks.1)),
                // A single-instant window on a sample time.
                2 => (at(picks.0), at(picks.0)),
                // Wholly before the first or wholly past the last sample.
                _ if fracs.0 < 0.5 => (first - 2.0 * span, first - 1e-3),
                _ => (last + 1e-3, last + 2.0 * span),
            };
            let expected: Vec<_> = all
                .iter()
                .filter(|s| lo <= s.t_sec && s.t_sec <= hi)
                .copied()
                .collect();
            // Stale contents must be replaced, not appended to.
            let mut got = vec![all[0]; 3];
            trace.switching_window_into(lo, hi, &mut got);
            prop_assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(&expected) {
                prop_assert_eq!(g.t_sec.to_bits(), e.t_sec.to_bits());
                prop_assert_eq!(g.center.yaw_deg().to_bits(), e.center.yaw_deg().to_bits());
                prop_assert_eq!(g.center.pitch_deg().to_bits(), e.center.pitch_deg().to_bits());
            }
        }
    }

    proptest! {
        #[test]
        fn interval_speeds_match_fast_switching_speed_bit_for_bit(
            angles in prop::collection::vec(
                (0.001f64..0.5, -400.0f64..400.0, -120.0f64..120.0),
                1..300,
            ),
            sixty_hz in 0usize..2,
            t0 in -3.0f64..3.0,
            requests in prop::collection::vec((0usize..5, 0.0f64..1.0, 0usize..48), 1..60),
        ) {
            // Irregular steps, or the same gaze at exactly 60 Hz: a 2 s
            // window then holds ~120 intervals, most of them served from
            // the table by later requests.
            let trace = if sixty_hz == 1 {
                let samples = angles
                    .iter()
                    .enumerate()
                    .map(|(i, &(_, y, p))| (t0 + i as f64 / 60.0, y, p))
                    .collect();
                HeadTrace::from_samples(0, 0, samples)
            } else {
                trace_from_steps(t0, &angles)
            };
            let all = trace.switching_samples();
            let first = all[0].t_sec;
            let span = trace.duration_sec() - first;
            let mut speeds = IntervalSpeeds::new(&trace);
            let mut window = Vec::new();
            let mut pos = first;
            let mut booked = None;
            for &(kind, frac, pick) in &requests {
                match kind {
                    // Monotone playback: forward by up to 1 s.
                    0 => pos += frac,
                    // Backwards by up to 3 s.
                    1 => pos -= 3.0 * frac,
                    // A jump anywhere from before the first sample to past
                    // the last, usually further than one window.
                    2 => pos = first - 2.5 + (span + 5.0) * frac,
                    // A window starting one sample past the remembered
                    // endpoint, so its first interval must not take it.
                    4 if pick % 3 == 2 => {
                        let start = speeds.last.0.saturating_add(1).min(all.len());
                        let end = (start + 1 + pick).min(all.len());
                        let expected = fast_switching_speed(&all[start..end]);
                        let got = speeds.fast_speed(start..end).to_bits();
                        prop_assert_eq!(got, expected.to_bits());
                        continue;
                    }
                    // A booking request for segment `pick`, which may lie
                    // past the end of the trace (`None`: the caller falls
                    // back to its planning estimate). Kind 4 instead books
                    // the segment after the last booked one (the windows
                    // abut), or the last booked segment again, now read
                    // from the table.
                    _ => {
                        let k = match (kind, booked) {
                            (4, Some(b)) if pick % 3 == 0 => b + 1,
                            (4, Some(b)) => b,
                            _ => pick,
                        };
                        let got = speeds.segment_fast_speed(k).map(f64::to_bits);
                        let expected = trace.segment_fast_switching_speed(k).map(f64::to_bits);
                        prop_assert_eq!(got, expected);
                        booked = Some(k);
                        continue;
                    }
                }
                // The client's 2 s planning window, a single instant (at
                // most one sample) or a sliver (often empty).
                let (lo, hi) = match pick % 3 {
                    0 => (pos - 2.0, pos + 1e-9),
                    1 => (pos, pos),
                    _ => (pos - 0.05 * frac, pos),
                };
                let range = trace.switching_window_into(lo, hi, &mut window);
                prop_assert_eq!(range.clone(), trace.sample_range(lo, hi));
                prop_assert_eq!(range.len(), window.len());
                let expected = fast_switching_speed(&window);
                prop_assert_eq!(speeds.fast_speed(range).to_bits(), expected.to_bits());
            }
        }
    }

    /// `true` while `trace` has a live interval-speed table.
    fn has_speed_table(trace: &HeadTrace) -> bool {
        trace
            .shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .upgrade()
            .is_some()
    }

    proptest! {
        #[test]
        fn interval_speeds_shared_by_two_threads_match_bit_for_bit(
            angles in prop::collection::vec(
                (0.001f64..0.5, -400.0f64..400.0, -120.0f64..120.0),
                2..200,
            ),
            t0 in -3.0f64..3.0,
            windows in (
                prop::collection::vec((0.0f64..1.0, 0.0f64..2.5), 1..40),
                prop::collection::vec((0.0f64..1.0, 0.0f64..2.5), 1..40),
            ),
        ) {
            let trace = trace_from_steps(t0, &angles);
            let all = trace.switching_samples();
            let first = all[0].t_sec;
            let span = trace.duration_sec() - first;
            let mut a = IntervalSpeeds::new(&trace);
            let mut b = IntervalSpeeds::new(&trace);
            prop_assert!(Arc::ptr_eq(&a.shared, &b.shared));
            // Each thread serves its own window sequence from the one
            // table, racing the other to fill the intervals they share,
            // and returns (served, reference) bits per window.
            let barrier = std::sync::Barrier::new(2);
            let serve = |speeds: &mut IntervalSpeeds<'_>, seq: &[(f64, f64)]| {
                barrier.wait();
                seq.iter()
                    .map(|&(at, len)| {
                        let lo = first - 0.5 + (span + 1.0) * at;
                        let range = trace.sample_range(lo, lo + len);
                        let reference = fast_switching_speed(&all[range.clone()]);
                        (speeds.fast_speed(range).to_bits(), reference.to_bits())
                    })
                    .collect::<Vec<_>>()
            };
            let (from_a, from_b) = std::thread::scope(|s| {
                let ta = s.spawn(|| serve(&mut a, &windows.0));
                let tb = s.spawn(|| serve(&mut b, &windows.1));
                (ta.join().expect("thread a"), tb.join().expect("thread b"))
            });
            for (got, expected) in from_a.iter().chain(&from_b) {
                prop_assert_eq!(got, expected);
            }
            // Both holders are alive: still one table, and every entry
            // either side filled is that interval's own speed.
            prop_assert!(Arc::ptr_eq(&a.shared, &b.shared));
            for (i, entry) in a.shared.speeds.iter().enumerate() {
                let bits = entry.load(Ordering::Relaxed);
                if bits != UNFILLED {
                    prop_assert_eq!(bits, trace.interval_speed(i).to_bits());
                }
            }
            // Once every holder has dropped the table is freed, and the
            // next holder starts from a fresh, unfilled one.
            drop(a);
            prop_assert!(has_speed_table(&trace));
            drop(b);
            prop_assert!(!has_speed_table(&trace));
            let mut fresh = IntervalSpeeds::new(&trace);
            prop_assert_eq!(fresh.shared.speeds.len(), all.len() - 1);
            prop_assert!(fresh.shared.speeds.iter().all(|e| e.load(Ordering::Relaxed) == UNFILLED));
            let (at, len) = windows.0[0];
            let lo = first - 0.5 + (span + 1.0) * at;
            let range = trace.sample_range(lo, lo + len);
            let expected = fast_switching_speed(&all[range.clone()]);
            prop_assert_eq!(fresh.fast_speed(range).to_bits(), expected.to_bits());
        }
    }

    /// A trace at 10 Hz, at 60 Hz or with the irregular steps given
    /// (`rate` 0, 1, 2), from `t0`. Every fifth sample sits on a pole and
    /// every seventh on the antimeridian.
    fn trace_at_rate(rate: usize, t0: f64, steps: &[(f64, f64, f64)]) -> HeadTrace {
        let mut t = t0;
        let samples = steps
            .iter()
            .enumerate()
            .map(|(i, &(dt, y, p))| {
                t = match rate {
                    0 => t0 + i as f64 / 10.0,
                    1 => t0 + i as f64 / 60.0,
                    _ => t + dt,
                };
                let p = if i % 5 == 4 { 90.0f64.copysign(p) } else { p };
                let y = if i % 7 == 6 { 180.0f64.copysign(y) } else { y };
                (t, y, p)
            })
            .collect();
        HeadTrace::from_samples(0, 0, samples)
    }

    proptest! {
        #[test]
        fn hinted_searches_match_binary_search(
            steps in prop::collection::vec(
                (0.001f64..0.5, -400.0f64..400.0, -120.0f64..120.0),
                1..300,
            ),
            rate in 0usize..3,
            t0 in -3.0f64..3.0,
            requests in prop::collection::vec(
                (0usize..6, -0.3f64..1.3, -1.0f64..3.0, 0usize..512),
                1..40,
            ),
        ) {
            let trace = trace_at_rate(rate, t0, &steps);
            let len = trace.len();
            let first = trace.samples[0].0;
            let span = (trace.duration_sec() - first).max(1e-3);
            let mut speeds = IntervalSpeeds::new(&trace);
            // Running cursors, carried across requests whichever way the
            // windows move, next to fixed and random hints.
            let (mut plan, mut booking) = (0usize, 0usize);
            for &(kind, at, width, pick) in &requests {
                let mut hint = match kind {
                    0 => 0,
                    1 => len,
                    2 => usize::MAX,
                    3 => pick % (len + 2),
                    _ => plan,
                };
                // A free interval (inverted when `width` < 0), the
                // client's plan window, or bounds on sample times.
                let pos = first + at * span;
                let (lo, hi) = match pick % 3 {
                    0 => (pos, pos + width),
                    1 => (pos - 2.0, pos + 1e-9),
                    _ => (trace.samples[pick % len].0, trace.samples[(pick / 3) % len].0),
                };
                let range = trace.sample_range_from(&mut hint, lo, hi);
                prop_assert_eq!(range.clone(), trace.sample_range(lo, hi));
                prop_assert_eq!(hint, range.start);
                if kind >= 4 {
                    plan = hint;
                }

                // Booking segment `k`, from the running cursor or a hint
                // of the same kinds; `k` may lie past the trace's end.
                let k = pick % (trace.duration_sec().max(0.0) as usize + 3);
                let mut hint = if kind >= 4 { booking } else { hint };
                let center = trace.segment_center_from(&mut hint, k);
                let expected = trace.segment_center(k);
                prop_assert_eq!(
                    center.map(|c| (c.yaw_deg().to_bits(), c.pitch_deg().to_bits())),
                    expected.map(|c| (c.yaw_deg().to_bits(), c.pitch_deg().to_bits()))
                );
                if center.is_some() {
                    // The booking window starts at the centre's partition
                    // point, so the cursor serves both lookups.
                    let (lo, hi) = segment_bounds(k as f64);
                    let window = trace.sample_range(lo, hi);
                    prop_assert_eq!(hint, window.start);
                    let mut from_center = hint;
                    prop_assert_eq!(trace.sample_range_from(&mut from_center, lo, hi), window);
                }
                let speed = speeds.segment_fast_speed_from(&mut hint, k);
                prop_assert_eq!(
                    speed.map(f64::to_bits),
                    trace.segment_fast_switching_speed(k).map(f64::to_bits)
                );
                if kind >= 4 {
                    booking = hint;
                }
            }
        }
    }

    /// The fit the ring test stores under `key`: a pure function of the
    /// key, so any mix of two keys' words is detectable.
    fn fit_of(key: &WindowKey) -> SharedFit {
        let x = (key.plan_start * 7 + key.fit_start * 3 + key.end) as f64;
        SharedFit {
            yaw: (x, -x),
            pitch: (x * 0.5, x + 1.0),
            fast_speed: x * 3.0,
        }
    }

    proptest! {
        #[test]
        fn window_ring_never_serves_a_torn_slot(
            keys in prop::collection::vec((0usize..4, 0usize..3, 0usize..4), 1..24),
            rounds in 50usize..400,
        ) {
            // Keys that collide on a handful of slots (ends 64 apart map
            // to one slot), written and read by two barrier-started
            // threads at once.
            let keys: Vec<WindowKey> = keys
                .iter()
                .map(|&(start, stale, lap)| WindowKey {
                    plan_start: start,
                    fit_start: start + stale,
                    end: 8 + start + lap * WINDOW_SLOTS,
                })
                .collect();
            let trace = trace_from_steps(0.0, &[(0.1, 0.0, 0.0), (0.1, 1.0, 0.0)]);
            let a = IntervalSpeeds::for_session(&trace);
            let b = IntervalSpeeds::for_session(&trace);
            let barrier = std::sync::Barrier::new(2);
            let hammer = |view: &IntervalSpeeds<'_>, offset: usize| {
                barrier.wait();
                let mut served = 0usize;
                for round in 0..rounds {
                    let key = &keys[(round + offset) % keys.len()];
                    if let Some(fit) = view.shared_fit(key) {
                        if fit != fit_of(key) {
                            return Err(format!("{key:?} served {fit:?}"));
                        }
                        served += 1;
                    }
                    view.share_fit(key, &fit_of(key));
                }
                Ok(served)
            };
            let (from_a, from_b) = std::thread::scope(|s| {
                let ta = s.spawn(|| hammer(&a, 0));
                let tb = s.spawn(|| hammer(&b, 1));
                (ta.join().expect("thread a"), tb.join().expect("thread b"))
            });
            prop_assert!(from_a.is_ok() && from_b.is_ok(), "{:?} {:?}", from_a, from_b);
            // Quiescent: the last key written to each slot is served.
            for key in &keys {
                if let Some(fit) = a.shared_fit(key) {
                    prop_assert_eq!(fit, fit_of(key));
                }
            }
            let last = keys[keys.len() - 1];
            a.share_fit(&last, &fit_of(&last));
            prop_assert_eq!(b.shared_fit(&last), Some(fit_of(&last)));
        }
    }

    #[test]
    fn window_ring_is_allocated_by_the_second_live_session() {
        let trace = trace_from_steps(0.0, &[(0.1, 0.0, 0.0), (0.1, 1.0, 0.0), (0.1, 2.0, 0.0)]);
        let key = WindowKey {
            plan_start: 0,
            fit_start: 0,
            end: 3,
        };
        let fit = fit_of(&key);
        let has_ring = |view: &IntervalSpeeds<'_>| view.shared.windows.get().is_some();
        // A holder that is not a session, then sessions one after
        // another: never two live sessions, so no ring.
        let holder = IntervalSpeeds::new(&trace);
        for _ in 0..3 {
            let session = IntervalSpeeds::for_session(&trace);
            session.share_fit(&key, &fit);
            assert_eq!(session.shared_fit(&key), None);
            assert!(!has_ring(&session));
        }
        // Two live sessions: the second allocates it, and it stays while
        // the tables live.
        let first = IntervalSpeeds::for_session(&trace);
        assert!(!has_ring(&first));
        let second = IntervalSpeeds::for_session(&trace);
        assert!(has_ring(&holder));
        first.share_fit(&key, &fit);
        assert_eq!(second.shared_fit(&key), Some(fit));
        drop((first, second));
        assert_eq!(holder.shared.sessions.load(Ordering::Relaxed), 0);
        assert_eq!(holder.shared_fit(&key), Some(fit));
        drop(holder);
        assert!(!has_speed_table(&trace));
    }

    #[test]
    fn interval_speeds_table_is_invisible_to_eq_debug_clone_and_json() {
        use ee360_support::json::{from_str, to_string};
        let steps = [(0.1, 10.0, 5.0), (0.1, 14.0, 6.0), (0.2, 30.0, -4.0)];
        let trace = trace_from_steps(0.0, &steps);
        let plain = trace_from_steps(0.0, &steps);
        let mut speeds = IntervalSpeeds::new(&trace);
        assert!(speeds.segment_fast_speed(0).is_some());
        assert!(speeds
            .shared
            .speeds
            .iter()
            .any(|e| e.load(Ordering::Relaxed) != UNFILLED));
        assert_eq!(trace, plain);
        assert_eq!(format!("{trace:?}"), format!("{plain:?}"));
        let text = to_string(&trace).expect("serialises");
        assert_eq!(text, to_string(&plain).expect("serialises"));
        let back: HeadTrace = from_str(&text).expect("parses");
        assert_eq!(back, plain);
        assert!(!has_speed_table(&back));
        // A clone starts without a table: its first holder gets a fresh one.
        let copy = trace.clone();
        assert_eq!(copy, plain);
        assert!(has_speed_table(&trace) && !has_speed_table(&copy));
        let of_copy = IntervalSpeeds::new(&copy);
        assert!(!Arc::ptr_eq(&of_copy.shared, &speeds.shared));
        assert!(of_copy
            .shared
            .speeds
            .iter()
            .all(|e| e.load(Ordering::Relaxed) == UNFILLED));
    }

    #[test]
    fn view_table_has_a_slot_for_every_segment_center() {
        assert_eq!(TileGrid::paper_default().tile_count(), VIEW_TILES);
        let grid = TileGrid::paper_default();
        // Ends on, just before, just after and well before a segment
        // boundary, and before t = 0.
        for end in [5.0, 5.0 - 1e-10, 5.0 + 1e-10, 4.5, -0.5] {
            let trace = HeadTrace::from_samples(0, 0, vec![(end - 3.0, 1.0, 2.0), (end, 3.0, 4.0)]);
            for k in 0..8 {
                assert_eq!(
                    trace.segment_view_counts(k, &grid).is_some(),
                    trace.segment_center(k).is_some(),
                    "end {end}, segment {k}"
                );
            }
            if let Some(counts) = trace.segment_view_counts(0, &grid) {
                let total: usize = counts.iter().map(|&c| usize::from(c)).sum();
                assert_eq!(total, VIEW_SAMPLES * VIEW_SAMPLES);
            }
        }
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn zero_sample_rate_panics() {
        let cfg = GazeConfig {
            sample_hz: 0.0,
            ..GazeConfig::default()
        };
        let _ = HeadTraceGenerator::new(cfg);
    }

    fn center_bits(centers: &[ViewCenter]) -> Vec<(u64, u64)> {
        centers
            .iter()
            .map(|c| (c.yaw_deg().to_bits(), c.pitch_deg().to_bits()))
            .collect()
    }

    proptest! {
        #[test]
        fn segment_centers_match_per_segment_lookup(
            steps in prop::collection::vec(
                (0.0f64..0.45, -400.0f64..400.0, -120.0f64..120.0),
                1..400,
            ),
            hz in 1.0f64..=60.0,
            t0 in -1.0f64..3.0,
            mode in 0usize..4,
        ) {
            // Integer rates from an integer start (samples on segment
            // boundaries), jittered timestamps from any start, a clean
            // grid starting after t = 0, and samples 1e-9 before the
            // boundaries.
            let (hz, t0, jitter) = match mode {
                0 => (hz.round(), t0.round().abs(), false),
                1 => (hz, t0, true),
                2 => (hz, t0.abs(), false),
                _ => (2.0, -1e-9, false),
            };
            let samples = steps
                .iter()
                .enumerate()
                .map(|(i, &(j, y, p))| {
                    let offset = if jitter { j } else { 0.0 };
                    (t0 + (i as f64 + offset) / hz, y, p)
                })
                .collect();
            let trace = HeadTrace::try_from_samples(0, 0, samples).unwrap();
            let walked: Vec<ViewCenter> = trace.segment_centers().collect();
            let looked_up: Vec<ViewCenter> =
                (0..).map_while(|k| trace.segment_center(k)).collect();
            prop_assert_eq!(center_bits(&walked), center_bits(&looked_up));
        }
    }

    /// FNV-1a over the little-endian bytes of every stored sample's
    /// `(t, yaw, pitch)` bits, for `users` users of every catalog video.
    fn generator_fingerprint(users: usize, seed: u64) -> u64 {
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for spec in VideoCatalog::paper_default().videos() {
            let traces =
                crate::dataset::VideoTraces::generate(spec, users, seed, GazeConfig::default());
            for trace in traces.traces() {
                for &(t, y, p) in &trace.samples {
                    for word in [t.to_bits(), y.to_bits(), p.to_bits()] {
                        for b in word.to_le_bytes() {
                            hash ^= u64::from(b);
                            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
                        }
                    }
                }
            }
        }
        hash
    }

    #[test]
    fn generator_output_is_pinned_bit_for_bit() {
        // Recorded from the per-user generator that recomputed every
        // hotspot position itself: 48 users over the eight catalog videos.
        assert_eq!(generator_fingerprint(48, 7), 0x18dd_8a6d_451f_588e);
        assert_eq!(generator_fingerprint(48, 2022), 0xdfd2_7b63_b5c8_11dc);
    }

    #[test]
    fn single_user_generation_matches_the_population() {
        let gen = generator();
        for id in [1, 4, 7] {
            let spec = video(id);
            let population =
                crate::dataset::VideoTraces::generate(&spec, 6, 31, GazeConfig::default());
            for (u, trace) in population.traces().iter().enumerate() {
                let alone = gen.generate(&spec, u, 31);
                let bits = |t: &HeadTrace| {
                    t.samples
                        .iter()
                        .map(|&(t, y, p)| (t.to_bits(), y.to_bits(), p.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&alone), bits(trace), "video {id}, user {u}");
                assert_eq!(alone, *trace);
            }
        }
    }

    #[test]
    fn non_finite_times_are_rejected_before_the_ordering_check() {
        let at = |t: f64| (t, 0.0, 0.0);
        let cases = [
            // A NaN compares false both ways, so it used to pass the
            // `w[1] <= w[0]` ordering check as "increasing".
            (vec![at(0.0), at(f64::NAN), at(1.0), at(2.0)], 1),
            (vec![at(f64::NAN)], 0),
            (vec![at(0.0), at(f64::INFINITY)], 1),
        ];
        for (samples, index) in cases {
            assert_eq!(
                HeadTrace::try_from_samples(0, 0, samples).unwrap_err(),
                HeadTraceError::NonFiniteTime { index }
            );
        }
        // Finite but out of order still reports the ordering error.
        assert_eq!(
            HeadTrace::try_from_samples(0, 0, vec![at(1.0), at(0.5)]).unwrap_err(),
            HeadTraceError::NonIncreasingTime { index: 1 }
        );
    }
}
