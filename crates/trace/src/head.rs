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

use ee360_support::json::{field, FromJson, Json, JsonError, ToJson};
use ee360_support::rng::StdRng;

use ee360_geom::angles::{lerp_yaw_deg, wrap_yaw_deg};
use ee360_geom::sphere::Orientation;
use ee360_geom::switching::{fast_switching_speed, switching_speed_deg_per_sec, SwitchingSample};
use ee360_geom::viewport::ViewCenter;
use ee360_video::catalog::{BehaviorProfile, VideoSpec};

use crate::derived::Derived;
// Keeps the paths callers import these by from `ee360_trace::head`.
pub use crate::derived::{IntervalSpeeds, VIEW_FOV_DEG, VIEW_SAMPLES};

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

/// One user's gaze trace over one video: the samples and their ids,
/// plus one field of state derived from them ([`crate::derived`]).
#[derive(Clone, Debug, PartialEq)]
pub struct HeadTrace {
    video_id: usize,
    user_id: usize,
    /// (t_sec, yaw_deg, pitch_deg) triples, strictly increasing in time.
    samples: Vec<(f64, f64, f64)>,
    /// Not part of the trace's value: a clone starts without it, and
    /// equality, `Debug` and JSON ignore it.
    pub(crate) derived: Derived,
}

impl ToJson for HeadTrace {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("video_id".to_owned(), self.video_id.to_json()),
            ("user_id".to_owned(), self.user_id.to_json()),
            ("samples".to_owned(), self.samples.to_json()),
        ])
    }
}

impl FromJson for HeadTrace {
    /// Reads a trace back through the sample checks of
    /// [`HeadTrace::try_from_samples`], so a stored trace is held to the
    /// same rules as an imported one. Keys other than the ids and the
    /// samples are ignored, so files that carry a sample rate still load.
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if v.as_object().is_none() {
            return Err(JsonError::Type {
                expected: "object",
                found: "non-object",
            });
        }
        let trace = Self {
            video_id: field(v, "video_id")?,
            user_id: field(v, "user_id")?,
            samples: field(v, "samples")?,
            derived: Derived::default(),
        };
        check_samples(&trace.samples)
            .map_err(|e| JsonError::Invalid(format!("field `samples`: {e}")))?;
        Ok(trace)
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
    /// A yaw or pitch was NaN or infinite.
    NonFiniteAngle {
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
            HeadTraceError::NonFiniteAngle { index } => {
                write!(f, "sample angles must be finite (sample {index} is not)")
            }
            HeadTraceError::NonIncreasingTime { index } => write!(
                f,
                "sample times must be strictly increasing (sample {index} does not advance)"
            ),
        }
    }
}

impl Error for HeadTraceError {}

/// The rules every trace's samples obey, however the trace is built:
/// at least one sample, finite times and angles, strictly increasing
/// times. Finiteness is checked first, on every sample: a NaN compares
/// false both ways, so the ordering check alone would let it through.
fn check_samples(samples: &[(f64, f64, f64)]) -> Result<(), HeadTraceError> {
    if samples.is_empty() {
        return Err(HeadTraceError::EmptyTrace);
    }
    for (index, &(t, yaw, pitch)) in samples.iter().enumerate() {
        if !t.is_finite() {
            return Err(HeadTraceError::NonFiniteTime { index });
        }
        if !(yaw.is_finite() && pitch.is_finite()) {
            return Err(HeadTraceError::NonFiniteAngle { index });
        }
    }
    match samples.windows(2).position(|w| w[1].0 <= w[0].0) {
        Some(index) => Err(HeadTraceError::NonIncreasingTime { index: index + 1 }),
        None => Ok(()),
    }
}

impl HeadTrace {
    /// Builds a trace from raw `(t_sec, yaw_deg, pitch_deg)` samples — the
    /// entry point for external datasets (see [`crate::mmsys`]).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, a timestamp, yaw or pitch is not
    /// finite, or timestamps are not strictly increasing — the
    /// infallible wrapper around [`HeadTrace::try_from_samples`].
    pub fn from_samples(video_id: usize, user_id: usize, samples: Vec<(f64, f64, f64)>) -> Self {
        match Self::try_from_samples(video_id, user_id, samples) {
            Ok(trace) => trace,
            // lint:allow(no-panic-paths, "documented panic: infallible wrapper; try_from_samples is the graceful API")
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`HeadTrace::from_samples`]: empty input, non-finite
    /// timestamps or angles and out-of-order timestamps come back as
    /// [`HeadTraceError`]s instead of panicking — the path external
    /// datasets arrive through.
    pub fn try_from_samples(
        video_id: usize,
        user_id: usize,
        samples: Vec<(f64, f64, f64)>,
    ) -> Result<Self, HeadTraceError> {
        check_samples(&samples)?;
        Ok(Self {
            video_id,
            user_id,
            samples,
            derived: Derived::default(),
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

    /// The stored `(t_sec, yaw_deg, pitch_deg)` samples.
    pub(crate) fn samples(&self) -> &[(f64, f64, f64)] {
        &self.samples
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
        let mut window = Vec::new();
        let (lo, hi) = segment_bounds(t0);
        self.switching_window_into(lo, hi, &mut window);
        Some(fast_switching_speed(&window))
    }
}

/// The closed time window of segment `t0`'s samples, `[t0 - 1e-9,
/// t0 + 1 + 1e-9]`: the one definition the per-segment speed views share.
pub(crate) fn segment_bounds(t0: f64) -> (f64, f64) {
    (t0 - 1e-9, t0 + 1.0 + 1e-9)
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
pub(crate) fn to_switching_sample(&(t, y, p): &(f64, f64, f64)) -> SwitchingSample {
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
            samples,
            derived: Derived::default(),
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

    #[test]
    fn non_finite_angles_are_rejected_on_every_sample() {
        let finite: Vec<(f64, f64, f64)> = (0..200)
            .map(|i| (i as f64 * 0.1, (i as f64 * 1.7) % 360.0 - 180.0, 10.0))
            .collect();
        let mut nan_yaw = finite.clone();
        nan_yaw[57].1 = f64::NAN;
        assert_eq!(
            HeadTrace::try_from_samples(0, 0, nan_yaw).unwrap_err(),
            HeadTraceError::NonFiniteAngle { index: 57 }
        );
        let mut inf_pitch = finite.clone();
        inf_pitch[199].2 = f64::INFINITY;
        assert_eq!(
            HeadTrace::try_from_samples(0, 0, inf_pitch).unwrap_err(),
            HeadTraceError::NonFiniteAngle { index: 199 }
        );
        let trace = HeadTrace::try_from_samples(0, 0, finite).expect("finite input is accepted");
        assert_eq!(trace.samples.len(), 200);
    }

    #[test]
    fn decoding_rejects_what_try_from_samples_rejects() {
        let decode = |samples: &str| {
            ee360_support::json::from_str::<HeadTrace>(&format!(
                r#"{{"video_id":1,"user_id":0,"sample_hz":10.0,"samples":{samples}}}"#
            ))
        };
        for bad in [
            "[]",
            "[[1.0,0.0,0.0],[0.5,0.0,0.0]]",
            "[[1.0,0.0,0.0],[1.0,0.0,0.0]]",
        ] {
            let err = decode(bad).expect_err(bad);
            assert!(matches!(err, JsonError::Invalid(_)), "{bad}: {err}");
        }
        // A valid list decodes; the rate key older files carry is ignored.
        let trace = decode("[[0.0,0.0,0.0],[0.5,10.0,0.0]]").expect("valid samples");
        assert!(trace.segment_center(0).is_some());
    }
}
