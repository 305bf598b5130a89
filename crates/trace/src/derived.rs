//! Per-trace derived state: what the sessions over one [`HeadTrace`]
//! compute from its samples once and share. That is the per-segment view
//! counts booking sums into Eq. 2 coverage
//! ([`HeadTrace::segment_view_counts`]), the Eq. 5 interval speeds
//! ([`IntervalSpeeds`]) and a ring of plan-window fits
//! ([`IntervalSpeeds::shared_fit`]). A trace keeps all of it in one
//! field outside its value, and a session reaches it through
//! `ee360_core::gaze::SessionGaze`.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

use ee360_geom::grid::TileGrid;
use ee360_geom::projection::PixelSampler;
use ee360_geom::sphere::Orientation;
use ee360_geom::switching::fast_speed_of;
use ee360_geom::viewport::PAPER_FOV_DEG;

use crate::head::{segment_bounds, to_switching_sample, HeadTrace};

/// Horizontal and vertical FoV, degrees, of the realised viewports whose
/// pixel counts [`HeadTrace::segment_view_counts`] keeps: the paper's
/// 100° × 100° HMD view.
pub const VIEW_FOV_DEG: f64 = PAPER_FOV_DEG;

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

/// The derived state of one trace, held in its one field outside its
/// value: a clone starts empty, any two compare equal, `Debug` prints no
/// contents and JSON skips it. Each lifetime pays on a workload:
///
/// * **The view counts live as long as the trace.** `chaos-mpc` runs
///   the Ours cell and then the RobustMpc cell of each video over the
///   same 8 traces, and the second cell reads the first one's counts.
///   Fills are 20–35% of `step_download` there.
/// * **The interval speeds and the window-fit ring live as long as
///   their holders**, the live [`IntervalSpeeds`] over the trace, which
///   hold an `Arc` where the trace holds a `Weak`. Kept for the trace's
///   life, the speeds (8 B per 10 Hz interval) of the 64 evaluation
///   traces would add about 1.3 MB (2,046 s of catalog video × 8 users,
///   computed, not measured), against `chaos-mpc`'s 1.11 MB
///   `peak_heap_mb`. The ring is allocated only once two sessions are
///   live ([`IntervalSpeeds::for_session`]); against a copy without it,
///   outputs bit-identical, it raised `fleet-scale` `segments_per_ref_s`
///   by 9–24% (medians of two sets of 5 alternating 20 s pairs on 2
///   vCPUs, 4 and 5 of 5 won) for 0.30 MB of `peak_heap_mb`.
#[derive(Default)]
pub(crate) struct Derived {
    /// Allocated on first use.
    views: OnceLock<ViewTable>,
    /// The tables of the live [`IntervalSpeeds`], if any.
    shared: Mutex<Weak<SessionTables>>,
}

impl Clone for Derived {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for Derived {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for Derived {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Derived").finish_non_exhaustive()
    }
}

/// The derived state a trace's live sessions share, behind one `Arc`
/// that each [`IntervalSpeeds`] over the trace holds: the interval-speed
/// table, and the window-fit ring once a second session is live.
#[derive(Debug)]
struct SessionTables {
    speeds: SpeedTable,
    /// Live views made by [`IntervalSpeeds::for_session`].
    sessions: AtomicUsize,
    /// Allocated when `sessions` first reaches two.
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
#[derive(Debug, Default)]
struct WindowSlot {
    version: AtomicU64,
    /// `plan_start, fit_start, end`, then `yaw.0, yaw.1, pitch.0,
    /// pitch.1, fast_speed` as `f64` bits.
    words: [AtomicU64; 8],
}

impl WindowSlot {
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

impl HeadTrace {
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
            .derived
            .views
            .get_or_init(|| {
                let slots = self.segment_centers().take(MAX_VIEW_SEGMENTS).count();
                (0..slots).map(|_| OnceLock::new()).collect()
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
/// Views made by [`Self::for_session`] also share plan-window fits
/// ([`Self::shared_fit`], [`Self::share_fit`]).
///
/// [`fast_switching_speed`]: ee360_geom::switching::fast_switching_speed
/// [`switching_speed_deg_per_sec`]: ee360_geom::switching::switching_speed_deg_per_sec
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
            .derived
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
        let mut weak = trace
            .derived
            .shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let shared = weak.upgrade().unwrap_or_else(|| {
            let intervals = trace.len().saturating_sub(1);
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
                .get_or_init(|| (0..WINDOW_SLOTS).map(|_| WindowSlot::default()).collect());
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
    ///
    /// [`fast_switching_speed`]: ee360_geom::switching::fast_switching_speed
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
                    let speed = interval_speed_reusing(trace.samples(), i, last);
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
///
/// [`switching_speed_deg_per_sec`]: ee360_geom::switching::switching_speed_deg_per_sec
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

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_geom::switching::fast_switching_speed;
    use ee360_support::prelude::*;

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
            .derived
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
    fn a_clone_starts_without_derived_state_and_refills_it_bit_for_bit() {
        let grid = TileGrid::paper_default();
        let steps: Vec<_> = (0..60)
            .map(|i| (0.1, 9.0 * i as f64 - 200.0, 40.0 - 1.5 * i as f64))
            .collect();
        let trace = trace_from_steps(0.0, &steps);
        let segments = 0..6;
        let counts: Vec<Vec<u8>> = segments
            .clone()
            .map(|k| trace.segment_view_counts(k, &grid).expect("slot").to_vec())
            .collect();
        let mut speeds = IntervalSpeeds::new(&trace);
        let fast: Vec<_> = segments
            .clone()
            .map(|k| speeds.segment_fast_speed(k).map(f64::to_bits))
            .collect();
        let copy = trace.clone();
        assert!(trace.derived.views.get().is_some() && has_speed_table(&trace));
        assert!(copy.derived.views.get().is_none() && !has_speed_table(&copy));
        let mut of_copy = IntervalSpeeds::new(&copy);
        for k in segments {
            assert_eq!(copy.segment_view_counts(k, &grid), Some(&counts[k][..]));
            assert_eq!(of_copy.segment_fast_speed(k).map(f64::to_bits), fast[k]);
        }
        assert!(!Arc::ptr_eq(&of_copy.shared, &speeds.shared));
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
}
