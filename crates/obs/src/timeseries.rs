//! Logical-time windowed metrics: fixed-width windows over *simulation*
//! time, folded in user-index order so a fleet's time-resolved series is
//! a pure function of the seed — independent of thread count, shard
//! boundaries, and completion order.
//!
//! Two complementary shapes live here:
//!
//! * [`TimeSeries`] — a generic window → [`Registry`] map for the traced
//!   paper-session paths. Emission sites that know the simulation clock
//!   call [`Record::count_at`](crate::Record::count_at)/
//!   [`Record::observe_at`](crate::Record::observe_at)
//!   and the recorder buckets the same value into the same-named
//!   per-window registry entry (mirror-don't-model: the whole-run
//!   registry sees the identical observation, so per-window counters
//!   partition the whole-run counters exactly).
//! * [`WindowCell`] + [`FleetSeries`] — the scale-fleet pipeline.
//!   Each session seals a **cumulative** snapshot of its own summary
//!   accumulators ([`WindowCums`], bit-copies of the very `+=` chains
//!   the fleet report folds) into at most one [`WindowCell`] per
//!   window, appended to its shard's one log; the shard regroups the
//!   log by session, and the fold then walks sessions in user-index
//!   order and accumulates, per window, each session's carried-forward
//!   cumulative value. Because the last window's accumulation is
//!   exactly the sequence `total += session_final` in user order — the
//!   same chain `run_scale_fleet` uses for its report — the final
//!   cumulative row reconciles **bit-exactly** (f64) and
//!   **integer-exactly** (u64) with the whole-run registry, while
//!   per-window deltas (differences of adjacent cumulative rows) give
//!   the plottable series.
//!
//! Windows are cumulative rather than per-window sums precisely because
//! f64 addition is non-associative: regrouping per-booking values into
//! windows and re-summing cannot reproduce the whole-run total bit for
//! bit, but carrying the *same running accumulator* can, by copy.

use std::collections::BTreeMap;

use ee360_support::json::{Json, ToJson};

use crate::metrics::{Histogram, Registry};

/// Schema tag stamped into every exported fleet timeseries artifact.
pub const TIMESERIES_SCHEMA: &str = "ee360.timeseries.v1";

/// Hard cap on materialised windows: bookings past this index clamp
/// into the last window, so a pathological session cannot make the
/// series (or a shard's window log) unbounded.
pub const MAX_WINDOWS: usize = 4096;

/// O(1) bucket index of simulation time `t_sec` under `window_sec`-wide
/// windows. Degenerate widths and non-positive times land in window 0;
/// times past [`MAX_WINDOWS`] clamp into the last window.
#[must_use]
pub fn window_index(t_sec: f64, window_sec: f64) -> u32 {
    if window_sec <= 0.0 || t_sec <= 0.0 || !t_sec.is_finite() {
        return 0;
    }
    // Saturating float->int cast; both operands are finite positives, so
    // the quotient is deterministic on every platform.
    let idx = (t_sec / window_sec) as u64;
    idx.min(MAX_WINDOWS as u64 - 1) as u32
}

/// The scale fleet's one telemetry switch. On, a run collects all three
/// subsystems at fixed settings: [`Self::WINDOW_SEC`]-wide windows,
/// sampled `Detail` traces for [`Self::SAMPLE_PPM`] of the sessions, and
/// [`Self::EXEMPLAR_K`] exemplars per tail. Off (the default) keeps the
/// fleet byte-identical to the pre-telemetry build. `Copy` so the fleet
/// config stays `Copy`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    on: bool,
}

impl TelemetryConfig {
    /// Window width in simulation seconds.
    pub const WINDOW_SEC: f64 = 5.0;
    /// Sessions keeping a full `Detail` trace, in parts per million of
    /// the session-index space (deterministic splitmix64 hash of
    /// `(seed, session)`, see [`sampled`](crate::sampled)): 1%.
    pub const SAMPLE_PPM: u32 = 10_000;
    /// Worst-K exemplar capacity per tail (top-K stall, bottom-K QoE).
    pub const EXEMPLAR_K: u32 = 8;

    /// Telemetry off — the default for fleet callers.
    #[must_use]
    pub const fn off() -> Self {
        TelemetryConfig { on: false }
    }

    /// Telemetry on: windows, sampled traces and exemplars at the
    /// constants above.
    #[must_use]
    pub const fn standard() -> Self {
        TelemetryConfig { on: true }
    }

    /// True when telemetry is on.
    #[must_use]
    pub const fn enabled(&self) -> bool {
        self.on
    }
}

/// Cumulative per-session snapshot at the session's latest booking
/// inside one window: bit-copies of the session's own running summary
/// accumulators, never re-derived values.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowCums {
    /// Running stall seconds (the summary's `+=` chain, copied).
    pub stall_sec: f64,
    /// Running QoE sum.
    pub qoe_sum: f64,
    /// Running energy, millijoules.
    pub energy_mj: f64,
    /// Running bits moved (delivered + wasted).
    pub bits: f64,
    /// Segment slots consumed so far.
    pub segments: u32,
    /// Segments delivered so far.
    pub delivered: u32,
    /// Segments skipped so far.
    pub skipped: u32,
}

/// One window's cumulative snapshot for one session. A session seals
/// at most one cell per window, in strictly increasing window order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowCell {
    /// Window index ([`window_index`] of the booking clock).
    pub window: u32,
    /// User index of the session that sealed the cell, so a shard's
    /// log can be regrouped by session. It fills the padding before
    /// `cums`: a cell is 56 B with or without it.
    pub session: u32,
    /// The session's cumulative accumulators at its last booking in
    /// this window.
    pub cums: WindowCums,
}

/// One window's fleet-level accumulators. The scalar fields are
/// **cumulative at end-of-window**, summed over sessions in user-index
/// order; the histograms hold per-session *within-window* deltas for
/// tail statistics (their sums are display values, not reconciliation
/// surfaces).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowAccum {
    /// Σ over sessions of cumulative stall seconds at end of window.
    pub stall_sec: f64,
    /// Σ cumulative QoE sum.
    pub qoe_sum: f64,
    /// Σ cumulative energy, millijoules.
    pub energy_mj: f64,
    /// Σ cumulative bits.
    pub bits: f64,
    /// Σ cumulative segment slots.
    pub segments: u64,
    /// Σ cumulative delivered segments.
    pub delivered: u64,
    /// Σ cumulative skipped segments.
    pub skipped: u64,
    /// Sessions that booked at least one slot within this window.
    pub active_sessions: u64,
    /// Per-session stall seconds added within this window (active
    /// sessions only).
    pub stall_hist: Histogram,
    /// Per-session mean QoE over the slots booked within this window.
    pub qoe_hist: Histogram,
    /// Startup latency of sessions whose first delivery landed in this
    /// window.
    pub startup_hist: Histogram,
}

/// Per-window fleet deltas derived from two adjacent cumulative rows —
/// the plottable series (stall per window, delivered bitrate per
/// window, …). u64 deltas are exact; f64 deltas are well-defined
/// display values (the *cumulative* rows are the bit-exact surface).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowDelta {
    /// Window index.
    pub window: u32,
    /// Window start, simulation seconds.
    pub t_start_sec: f64,
    /// Stall seconds booked fleet-wide within the window.
    pub stall_sec: f64,
    /// QoE sum booked within the window.
    pub qoe_sum: f64,
    /// Energy booked within the window, millijoules.
    pub energy_mj: f64,
    /// Bits moved within the window.
    pub bits: f64,
    /// Segment slots consumed within the window.
    pub segments: u64,
    /// Segments delivered within the window.
    pub delivered: u64,
    /// Segments skipped within the window.
    pub skipped: u64,
    /// Sessions that booked within the window.
    pub active_sessions: u64,
}

/// The fleet-level windowed series: a dense vector of [`WindowAccum`]s
/// folded session by session in user-index order via [`fold_session`]
/// (carry-forward semantics — a session contributes its latest
/// cumulative snapshot to every later window, its final totals to the
/// last).
///
/// [`fold_session`]: FleetSeries::fold_session
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSeries {
    window_sec: f64,
    accums: Vec<WindowAccum>,
}

impl FleetSeries {
    /// An empty series of `n_windows` dense windows of `window_sec`
    /// width (clamped to [`MAX_WINDOWS`]).
    #[must_use]
    pub fn new(window_sec: f64, n_windows: usize) -> Self {
        let n = n_windows.clamp(1, MAX_WINDOWS);
        FleetSeries {
            window_sec,
            accums: vec![WindowAccum::default(); n],
        }
    }

    /// Window width in simulation seconds.
    #[must_use]
    pub fn window_sec(&self) -> f64 {
        self.window_sec
    }

    /// Number of dense windows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.accums.len()
    }

    /// True when the series holds no windows (never: `new` clamps to 1).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.accums.is_empty()
    }

    /// The dense cumulative rows.
    #[must_use]
    pub fn windows(&self) -> &[WindowAccum] {
        &self.accums
    }

    /// The final cumulative row — the reconciliation surface: its f64
    /// fields are the exact `+=` chain over per-session finals in user
    /// order, its u64 fields the exact counter totals.
    #[must_use]
    pub fn final_row(&self) -> Option<&WindowAccum> {
        self.accums.last()
    }

    /// Folds one session's cells (strictly increasing windows, possibly
    /// none) into the series. **Must** be called in user-index order
    /// across the whole fleet: the per-window scalar chains are `+=`
    /// sequences whose order is the determinism contract. `startup_sec`
    /// is the session's startup latency (if it ever delivered), observed
    /// into the window of its first delivery.
    pub fn fold_session(&mut self, cells: &[WindowCell], startup_sec: Option<f64>) {
        let mut cells = cells.iter().peekable();
        let mut cur = WindowCums::default();
        let mut prev = WindowCums::default();
        let mut startup_done = false;
        for (w, acc) in self.accums.iter_mut().enumerate() {
            let mut active = false;
            while let Some(cell) = cells.peek() {
                if cell.window as usize > w {
                    break;
                }
                cur = cell.cums;
                active = true;
                cells.next();
            }
            acc.stall_sec += cur.stall_sec;
            acc.qoe_sum += cur.qoe_sum;
            acc.energy_mj += cur.energy_mj;
            acc.bits += cur.bits;
            acc.segments += u64::from(cur.segments);
            acc.delivered += u64::from(cur.delivered);
            acc.skipped += u64::from(cur.skipped);
            if active {
                acc.active_sessions += 1;
                acc.stall_hist.observe(cur.stall_sec - prev.stall_sec);
                let slots = cur.segments.saturating_sub(prev.segments);
                if slots > 0 {
                    acc.qoe_hist
                        .observe((cur.qoe_sum - prev.qoe_sum) / f64::from(slots));
                }
                if !startup_done && cur.delivered > 0 {
                    startup_done = true;
                    if let Some(s) = startup_sec {
                        acc.startup_hist.observe(s);
                    }
                }
            }
            prev = cur;
        }
    }

    /// The per-window delta view (cumulative row minus its predecessor).
    #[must_use]
    pub fn delta(&self, w: usize) -> Option<WindowDelta> {
        let acc = self.accums.get(w)?;
        let zero = WindowAccum::default();
        let prev = if w == 0 {
            &zero
        } else {
            self.accums.get(w - 1)?
        };
        Some(WindowDelta {
            window: w as u32,
            t_start_sec: w as f64 * self.window_sec,
            stall_sec: acc.stall_sec - prev.stall_sec,
            qoe_sum: acc.qoe_sum - prev.qoe_sum,
            energy_mj: acc.energy_mj - prev.energy_mj,
            bits: acc.bits - prev.bits,
            segments: acc.segments - prev.segments,
            delivered: acc.delivered - prev.delivered,
            skipped: acc.skipped - prev.skipped,
            active_sessions: acc.active_sessions,
        })
    }

    /// All per-window deltas in window order.
    #[must_use]
    pub fn deltas(&self) -> Vec<WindowDelta> {
        (0..self.accums.len())
            .filter_map(|w| self.delta(w))
            .collect()
    }
}

impl ToJson for FleetSeries {
    fn to_json(&self) -> Json {
        let windows: Vec<Json> = (0..self.accums.len())
            .filter_map(|w| {
                let d = self.delta(w)?;
                let acc = self.accums.get(w)?;
                Some(Json::Obj(vec![
                    ("window".to_owned(), Json::Int(i64::from(d.window))),
                    ("t_start_sec".to_owned(), Json::Num(d.t_start_sec)),
                    ("stall_sec".to_owned(), Json::Num(d.stall_sec)),
                    ("qoe_sum".to_owned(), Json::Num(d.qoe_sum)),
                    ("energy_mj".to_owned(), Json::Num(d.energy_mj)),
                    ("bits".to_owned(), Json::Num(d.bits)),
                    ("segments".to_owned(), Json::Int(d.segments as i64)),
                    ("delivered".to_owned(), Json::Int(d.delivered as i64)),
                    ("skipped".to_owned(), Json::Int(d.skipped as i64)),
                    (
                        "active_sessions".to_owned(),
                        Json::Int(d.active_sessions as i64),
                    ),
                    ("cum_stall_sec".to_owned(), Json::Num(acc.stall_sec)),
                    ("cum_qoe_sum".to_owned(), Json::Num(acc.qoe_sum)),
                    ("cum_energy_mj".to_owned(), Json::Num(acc.energy_mj)),
                    ("cum_bits".to_owned(), Json::Num(acc.bits)),
                    ("stall_hist".to_owned(), acc.stall_hist.to_json()),
                    ("qoe_hist".to_owned(), acc.qoe_hist.to_json()),
                    ("startup_hist".to_owned(), acc.startup_hist.to_json()),
                ]))
            })
            .collect();
        Json::Obj(vec![
            ("window_sec".to_owned(), Json::Num(self.window_sec)),
            ("n_windows".to_owned(), Json::Int(self.accums.len() as i64)),
            ("windows".to_owned(), Json::Arr(windows)),
        ])
    }
}

/// A generic window → [`Registry`] series for the traced paper-session
/// paths: [`crate::Recorder`] owns one (opt-in) and routes
/// `count_at`/`observe_at` into both the whole-run registry and the
/// window's registry — same statement, same value — so per-window
/// counters partition the whole-run counters exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    window_sec: f64,
    windows: BTreeMap<u32, Registry>,
}

impl TimeSeries {
    /// An empty series with `window_sec`-wide windows.
    #[must_use]
    pub fn new(window_sec: f64) -> Self {
        TimeSeries {
            window_sec,
            windows: BTreeMap::new(),
        }
    }

    /// Window width in simulation seconds.
    #[must_use]
    pub fn window_sec(&self) -> f64 {
        self.window_sec
    }

    fn registry_at(&mut self, t_sec: f64) -> &mut Registry {
        let w = window_index(t_sec, self.window_sec);
        // lint:allow(hot-path-alloc, "first touch of a window only: later emissions into the same window hit the BTreeMap entry in place")
        self.windows.entry(w).or_default()
    }

    /// Adds `n` to `name` in the window containing `t_sec`.
    pub fn inc_at(&mut self, t_sec: f64, name: &str, n: u64) {
        self.registry_at(t_sec).inc(name, n);
    }

    /// Observes `v` under `name` in the window containing `t_sec`.
    pub fn observe_at(&mut self, t_sec: f64, name: &str, v: f64) {
        self.registry_at(t_sec).observe(name, v);
    }

    /// The registry of one window, if it was ever touched.
    #[must_use]
    pub fn window(&self, w: u32) -> Option<&Registry> {
        self.windows.get(&w)
    }

    /// Touched windows in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Registry)> {
        self.windows.iter().map(|(w, r)| (*w, r))
    }

    /// Number of touched windows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when no window was ever touched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Sum of the named counter across all windows — integer-exact, so
    /// it reconciles with the whole-run registry by `==`.
    #[must_use]
    pub fn counter_total(&self, name: &str) -> u64 {
        self.windows.values().map(|r| r.counter(name)).sum()
    }

    /// Sum of the named histogram's sample count across all windows.
    #[must_use]
    pub fn hist_count_total(&self, name: &str) -> u64 {
        self.windows
            .values()
            .filter_map(|r| r.histogram(name))
            .map(Histogram::count)
            .sum()
    }

    /// Folds another series into this one (per-window registry merge).
    /// Callers merge in user-index order after fan-outs, exactly like
    /// the whole-run registry merge.
    pub fn merge(&mut self, other: &TimeSeries) {
        for (w, reg) in &other.windows {
            self.windows.entry(*w).or_default().merge(reg);
        }
    }
}

impl ToJson for TimeSeries {
    fn to_json(&self) -> Json {
        let windows: Vec<Json> = self
            .windows
            .iter()
            .map(|(w, reg)| {
                Json::Obj(vec![
                    ("window".to_owned(), Json::Int(i64::from(*w))),
                    (
                        "t_start_sec".to_owned(),
                        Json::Num(f64::from(*w) * self.window_sec),
                    ),
                    ("metrics".to_owned(), reg.to_json()),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("window_sec".to_owned(), Json::Num(self.window_sec)),
            ("windows".to_owned(), Json::Arr(windows)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_index_buckets_and_clamps() {
        assert_eq!(window_index(0.0, 5.0), 0);
        assert_eq!(window_index(4.999, 5.0), 0);
        assert_eq!(window_index(5.0, 5.0), 1);
        assert_eq!(window_index(17.3, 5.0), 3);
        assert_eq!(window_index(-1.0, 5.0), 0);
        assert_eq!(window_index(1.0, 0.0), 0);
        assert_eq!(
            window_index(1e12, 5.0),
            (MAX_WINDOWS - 1) as u32,
            "far future clamps into the last window"
        );
    }

    /// A session-0 cell (the fold reads one session's slice, so the
    /// session field is not consulted).
    fn cell(window: u32, cums: WindowCums) -> WindowCell {
        WindowCell {
            window,
            session: 0,
            cums,
        }
    }

    #[test]
    fn cell_session_fills_padding() {
        assert_eq!(std::mem::size_of::<WindowCell>(), 56);
    }

    #[test]
    fn fold_carries_forward_and_final_row_matches_user_order_chain() {
        // Two sessions; session 0 books in windows 0 and 1, session 1
        // only in window 0. The final row must equal the user-order
        // chain over final cums.
        let s0 = [
            cell(
                0,
                WindowCums {
                    stall_sec: 0.25,
                    segments: 1,
                    delivered: 1,
                    ..WindowCums::default()
                },
            ),
            cell(
                1,
                WindowCums {
                    stall_sec: 0.75,
                    segments: 3,
                    delivered: 3,
                    ..WindowCums::default()
                },
            ),
        ];
        let s1 = [cell(
            0,
            WindowCums {
                stall_sec: 0.1,
                segments: 2,
                delivered: 1,
                skipped: 1,
                ..WindowCums::default()
            },
        )];
        let mut series = FleetSeries::new(5.0, 3);
        series.fold_session(&s0, Some(0.4));
        series.fold_session(&s1, Some(1.2));
        let last = series.final_row().expect("rows");
        assert_eq!(last.segments, 5);
        assert_eq!(last.delivered, 4);
        assert_eq!(last.skipped, 1);
        let expected = {
            let mut t = 0.0f64;
            t += 0.75;
            t += 0.1;
            t
        };
        assert_eq!(last.stall_sec.to_bits(), expected.to_bits());
        // Window 1 delta: only session 0 moved (0.75 - 0.25 stall, 2 slots).
        let d1 = series.delta(1).expect("delta");
        assert_eq!(d1.segments, 2);
        assert_eq!(d1.active_sessions, 1);
        assert!((d1.stall_sec - 0.5).abs() < 1e-12);
        // Window 2: pure carry-forward — no deltas, no active sessions.
        let d2 = series.delta(2).expect("delta");
        assert_eq!(d2.segments, 0);
        assert_eq!(d2.active_sessions, 0);
        assert_eq!(d2.stall_sec, 0.0);
        // Startup landed in each session's first delivery window.
        let w0 = series.windows().first().expect("w0");
        assert_eq!(w0.startup_hist.count(), 2);
    }

    #[test]
    fn fold_order_is_the_determinism_contract() {
        // Folding the same sessions in the same order twice gives
        // bit-identical rows (the carry-forward loop is pure).
        let a = [cell(
            0,
            WindowCums {
                stall_sec: 0.1 + 0.2, // deliberately non-representable
                ..WindowCums::default()
            },
        )];
        let b = [cell(
            1,
            WindowCums {
                stall_sec: 0.3,
                ..WindowCums::default()
            },
        )];
        let run = || {
            let mut s = FleetSeries::new(1.0, 2);
            s.fold_session(&a, None);
            s.fold_session(&b, None);
            s
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn timeseries_partitions_counters_exactly() {
        let mut ts = TimeSeries::new(5.0);
        ts.inc_at(1.0, "session.stalls", 2);
        ts.inc_at(6.0, "session.stalls", 3);
        ts.inc_at(12.0, "session.stalls", 5);
        ts.observe_at(1.0, "session.stall_sec", 0.5);
        ts.observe_at(12.0, "session.stall_sec", 0.25);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.counter_total("session.stalls"), 10);
        assert_eq!(ts.hist_count_total("session.stall_sec"), 2);
        assert_eq!(ts.window(1).map(|r| r.counter("session.stalls")), Some(3));
    }

    #[test]
    fn timeseries_merge_accumulates_per_window() {
        let mut a = TimeSeries::new(5.0);
        a.inc_at(1.0, "x", 1);
        let mut b = TimeSeries::new(5.0);
        b.inc_at(1.0, "x", 2);
        b.inc_at(7.0, "x", 4);
        a.merge(&b);
        assert_eq!(a.counter_total("x"), 7);
        assert_eq!(a.window(0).map(|r| r.counter("x")), Some(3));
        assert_eq!(a.window(1).map(|r| r.counter("x")), Some(4));
    }

    #[test]
    fn json_export_carries_schema_surface() {
        let mut series = FleetSeries::new(5.0, 2);
        let cells = [cell(
            0,
            WindowCums {
                segments: 1,
                delivered: 1,
                ..WindowCums::default()
            },
        )];
        series.fold_session(&cells, Some(0.2));
        let json = series.to_json();
        let text = ee360_support::json::to_string(&json).expect("serialises");
        for key in [
            "window_sec",
            "n_windows",
            "windows",
            "stall_hist",
            "cum_stall_sec",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        ee360_support::json::parse(&text).expect("round-trips");
    }
}
