//! The recording API: the [`Record`] trait, the zero-cost
//! [`NoopRecorder`], and the live [`Recorder`] with its bounded event
//! ring buffer, span stack, and embedded metrics [`Registry`]. The
//! [`Record`] docs state the one rule for what a sink keeps.

use std::collections::VecDeque;

use ee360_support::json::{Json, ToJson};

use crate::event::{Event, Level};
use crate::metrics::Registry;
use crate::timeseries::TimeSeries;

/// Default bound on the in-memory event ring buffer.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// The sink instrumented code writes to.
///
/// The sink decides what it keeps; callers never check a level. They
/// make every call unconditionally, and an [`Event`] holds no heap
/// data, so building one a sink drops costs only its fields. A sink at
/// [`Level::Off`] keeps nothing: no event, span, counter, histogram
/// sample, gauge or window. All methods default to no-ops, so
/// [`NoopRecorder`] (and any partial implementation) costs a virtual
/// call per site and nothing more:
///
/// ```
/// use ee360_obs::{Event, Level, Record, Recorder};
/// for level in [Level::Off, Level::Summary] {
///     let mut rec = Recorder::new(level);
///     rec.record(Event::Stall { segment: 0, t_sec: 1.0, duration_sec: 0.2 });
///     rec.count("session.stalls", 1);
///     let kept = level > Level::Off;
///     assert_eq!(rec.events_len(), usize::from(kept));
///     assert_eq!(rec.registry().counter("session.stalls"), u64::from(kept));
/// }
/// ```
pub trait Record {
    /// Verbosity this sink keeps: events at or below it, and at
    /// [`Level::Off`] nothing at all.
    fn level(&self) -> Level {
        Level::Off
    }

    /// Captures a structured event, if the sink's level keeps it.
    fn record(&mut self, _event: Event) {}

    /// Opens a scoped span keyed on logical simulation time.
    fn span_open(&mut self, _name: &'static str, _t_sec: f64) {}

    /// Closes the innermost open span at simulation time `t_sec`.
    fn span_close(&mut self, _t_sec: f64) {}

    /// Adds `n` to a named counter.
    fn count(&mut self, _name: &str, _n: u64) {}

    /// Records a histogram sample.
    fn observe(&mut self, _name: &str, _v: f64) {}

    /// Adds `n` to a named counter at simulation time `t_sec`. Defaults
    /// to plain [`Record::count`]; window-aware sinks additionally
    /// bucket the same value into the window containing `t_sec`
    /// (mirror-don't-model: one statement, one value, two indexes).
    fn count_at(&mut self, name: &str, _t_sec: f64, n: u64) {
        self.count(name, n);
    }

    /// Records a histogram sample at simulation time `t_sec`; see
    /// [`Record::count_at`].
    fn observe_at(&mut self, name: &str, _t_sec: f64, v: f64) {
        self.observe(name, v);
    }

    /// Sets a named gauge.
    fn set_gauge(&mut self, _name: &str, _v: f64) {}

    /// True when wall-clock stage timers should run. Always false for
    /// replayable runs — enabling it is what makes a run non-replayable
    /// (see `crate::profile`).
    fn profiling(&self) -> bool {
        false
    }
}

/// A recorder that drops everything; the fast path for benign runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Record for NoopRecorder {}

/// One node of the span tree. Spans are keyed on the simulation clock;
/// `end_sec < start_sec` (the initial state) marks a span never closed.
#[derive(Debug, Clone, PartialEq)]
struct SpanNode {
    name: &'static str,
    start_sec: f64,
    end_sec: f64,
    parent: Option<usize>,
}

/// Aggregate of all spans sharing a name under one parent aggregate.
/// Children are keyed by span name in a `BTreeMap`, so the exported
/// tree is sorted and deterministic.
#[derive(Debug, Default, Clone)]
struct SpanAgg {
    count: u64,
    total_sec: f64,
    children: std::collections::BTreeMap<&'static str, SpanAgg>,
}

impl SpanAgg {
    fn to_json(&self) -> Json {
        let children = Json::Obj(
            self.children
                .iter()
                .map(|(n, a)| ((*n).to_owned(), a.to_json()))
                .collect(),
        );
        Json::Obj(vec![
            ("count".to_owned(), Json::Int(self.count as i64)),
            ("total_sec".to_owned(), Json::Num(self.total_sec)),
            ("children".to_owned(), children),
        ])
    }
}

/// The live recorder: level-filtered bounded event ring, span stack,
/// and an embedded metrics [`Registry`]. At [`Level::Off`] every write
/// and merge is dropped, so it stays as [`Recorder::new`] left it.
#[derive(Debug, Clone)]
pub struct Recorder {
    level: Level,
    capacity: usize,
    events: VecDeque<Event>,
    dropped: u64,
    spans: Vec<SpanNode>,
    open: Vec<usize>,
    registry: Registry,
    windows: Option<Box<TimeSeries>>,
    profiling: bool,
}

impl Recorder {
    /// A recorder keeping events at or below `level`, with the default
    /// ring capacity and profiling off.
    #[must_use]
    pub fn new(level: Level) -> Self {
        Recorder {
            level,
            capacity: DEFAULT_EVENT_CAPACITY,
            events: VecDeque::new(),
            dropped: 0,
            spans: Vec::new(),
            open: Vec::new(),
            registry: Registry::new(),
            windows: None,
            profiling: false,
        }
    }

    /// Overrides the ring-buffer capacity (minimum 1).
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Turns wall-clock stage timers on or off. Leave off (the
    /// default) for any run whose outputs must be byte-identical
    /// under replay.
    #[must_use]
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }

    /// Enables logical-time windowed metrics with `window_sec`-wide
    /// windows: every `count_at`/`observe_at` is additionally bucketed
    /// by its simulation time. `window_sec <= 0` leaves windowing off.
    #[must_use]
    pub fn with_windows(mut self, window_sec: f64) -> Self {
        self.windows = if window_sec > 0.0 {
            Some(Box::new(TimeSeries::new(window_sec)))
        } else {
            None
        };
        self
    }

    /// An empty recorder for one worker of a fan-out: this recorder's
    /// level, profiling flag and window width, the default ring
    /// capacity, and nothing recorded. The caller merges it back with
    /// [`Recorder::merge_registry`] and [`Recorder::merge_windows`].
    #[must_use]
    pub fn worker(&self) -> Self {
        Recorder::new(self.level)
            .with_profiling(self.profiling)
            .with_windows(self.windows.as_deref().map_or(0.0, TimeSeries::window_sec))
    }

    /// The windowed series, when enabled via [`Recorder::with_windows`].
    #[must_use]
    pub fn windows(&self) -> Option<&TimeSeries> {
        self.windows.as_deref()
    }

    /// Folds a per-worker windowed series into this recorder's (no-op
    /// when windowing is off here, or at [`Level::Off`]). Call in
    /// user-index order after fan-outs, exactly like
    /// [`Recorder::merge_registry`].
    pub fn merge_windows(&mut self, other: Option<&TimeSeries>) {
        if !self.keeps() {
            return;
        }
        if let (Some(mine), Some(theirs)) = (self.windows.as_deref_mut(), other) {
            mine.merge(theirs);
        }
    }

    /// Events currently held by the ring buffer, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of events currently held.
    #[must_use]
    pub fn events_len(&self) -> usize {
        self.events.len()
    }

    /// Events evicted because the ring buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The embedded metrics registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Folds a per-worker registry into this recorder's registry
    /// (no-op at [`Level::Off`]).
    pub fn merge_registry(&mut self, other: &Registry) {
        if self.keeps() {
            self.registry.merge(other);
        }
    }

    /// False at [`Level::Off`]: the one check every span, metric and
    /// merge goes through. Events need none, as every event's own level
    /// is above `Off`.
    fn keeps(&self) -> bool {
        self.level > Level::Off
    }

    /// Aggregated span tree: spans grouped by name along parent
    /// chains, each aggregate carrying call count and total simulated
    /// seconds. Unclosed spans contribute a count but zero duration.
    #[must_use]
    pub fn span_tree_json(&self) -> Json {
        let mut root = SpanAgg::default();
        // Paths from the root are rebuilt per span; span counts are
        // bounded by the caller's discipline (sessions open a handful
        // of spans per segment).
        for span in &self.spans {
            let mut path: Vec<&'static str> = vec![span.name];
            let mut p = span.parent;
            while let Some(pi) = p {
                match self.spans.get(pi) {
                    Some(ps) => {
                        path.push(ps.name);
                        p = ps.parent;
                    }
                    None => break,
                }
            }
            let mut agg = &mut root;
            for name in path.iter().rev() {
                agg = agg.children.entry(name).or_default();
            }
            agg.count += 1;
            if span.end_sec >= span.start_sec {
                agg.total_sec += span.end_sec - span.start_sec;
            }
        }
        Json::Obj(
            root.children
                .iter()
                .map(|(n, a)| ((*n).to_owned(), a.to_json()))
                .collect(),
        )
    }

    /// Serializes the buffered events as JSONL, one event per line.
    ///
    /// # Errors
    ///
    /// Propagates the serializer's [`ee360_support::json::JsonError`].
    pub fn trace_jsonl(&self) -> Result<String, ee360_support::json::JsonError> {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&ee360_support::json::to_string(&e.to_json())?);
            out.push('\n');
        }
        Ok(out)
    }
}

impl Record for Recorder {
    fn level(&self) -> Level {
        self.level
    }

    fn record(&mut self, event: Event) {
        if event.level() > self.level {
            return;
        }
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    fn span_open(&mut self, name: &'static str, t_sec: f64) {
        if !self.keeps() {
            return;
        }
        let parent = self.open.last().copied();
        self.spans.push(SpanNode {
            name,
            start_sec: t_sec,
            end_sec: f64::NEG_INFINITY,
            parent,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn span_close(&mut self, t_sec: f64) {
        if let Some(i) = self.open.pop() {
            if let Some(span) = self.spans.get_mut(i) {
                span.end_sec = t_sec;
            }
        }
    }

    fn count(&mut self, name: &str, n: u64) {
        if self.keeps() {
            self.registry.inc(name, n);
        }
    }

    fn observe(&mut self, name: &str, v: f64) {
        if self.keeps() {
            self.registry.observe(name, v);
        }
    }

    fn count_at(&mut self, name: &str, t_sec: f64, n: u64) {
        if !self.keeps() {
            return;
        }
        self.registry.inc(name, n);
        if let Some(w) = self.windows.as_deref_mut() {
            w.inc_at(t_sec, name, n);
        }
    }

    fn observe_at(&mut self, name: &str, t_sec: f64, v: f64) {
        if !self.keeps() {
            return;
        }
        self.registry.observe(name, v);
        if let Some(w) = self.windows.as_deref_mut() {
            w.observe_at(t_sec, name, v);
        }
    }

    fn set_gauge(&mut self, name: &str, v: f64) {
        if self.keeps() {
            self.registry.set_gauge(name, v);
        }
    }

    /// Off at [`Level::Off`] too: the timings would be dropped.
    fn profiling(&self) -> bool {
        self.profiling && self.keeps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stall(segment: usize) -> Event {
        Event::Stall {
            segment,
            t_sec: segment as f64,
            duration_sec: 0.1,
        }
    }

    #[test]
    fn noop_recorder_is_off_and_free() {
        let mut rec = NoopRecorder;
        assert_eq!(rec.level(), Level::Off);
        rec.record(stall(0));
        rec.count("x", 1);
        assert!(!rec.profiling());
    }

    /// Every `Record` call and both merges, once each.
    fn exercise(rec: &mut Recorder) {
        let mut worker = Recorder::new(Level::Summary).with_windows(5.0);
        worker.count_at("worker.x", 6.0, 2);
        rec.record(stall(0));
        rec.span_open("session", 0.0);
        rec.span_open("segment", 0.0);
        rec.span_close(0.5);
        rec.count("c", 1);
        rec.observe("h", 0.5);
        rec.count_at("c_at", 1.0, 3);
        rec.observe_at("h_at", 1.0, 0.25);
        rec.set_gauge("g", 4.0);
        rec.span_close(1.0);
        rec.merge_registry(worker.registry());
        rec.merge_windows(worker.windows());
    }

    #[test]
    fn worker_copies_the_settings_and_starts_empty() {
        for (level, profiling, window_sec) in
            [(Level::Detail, true, 5.0), (Level::Summary, false, 0.0)]
        {
            let fresh = Recorder::new(level).with_windows(window_sec);
            let mut parent = fresh.clone().with_profiling(profiling).with_capacity(1);
            exercise(&mut parent);
            let mut worker = parent.worker();
            assert_eq!((worker.level(), worker.profiling()), (level, profiling));
            assert_eq!(worker.windows(), fresh.windows());
            assert_eq!(
                crate::export::report_json(&worker),
                crate::export::report_json(&fresh)
            );
            // The default ring capacity, not the parent's.
            worker.record(stall(0));
            worker.record(stall(1));
            assert_eq!((worker.events_len(), worker.dropped()), (2, 0));
        }
    }

    #[test]
    fn off_keeps_nothing_that_summary_keeps() {
        let mut off = Recorder::new(Level::Off).with_windows(5.0);
        exercise(&mut off);
        let fresh = Recorder::new(Level::Off).with_windows(5.0);
        assert_eq!(off.events_len(), 0);
        assert_eq!(off.dropped(), 0);
        assert_eq!(off.registry(), &Registry::new());
        assert_eq!(off.windows(), fresh.windows());
        assert_eq!(off.span_tree_json(), Json::Obj(Vec::new()));
        assert_eq!(
            crate::export::report_json(&off),
            crate::export::report_json(&fresh)
        );

        let mut summary = Recorder::new(Level::Summary).with_windows(5.0);
        exercise(&mut summary);
        assert_eq!(summary.events_len(), 1);
        let reg = summary.registry();
        assert_eq!(reg.counter("c"), 1);
        assert_eq!(reg.counter("c_at"), 3);
        assert_eq!(reg.counter("worker.x"), 2);
        assert_eq!(reg.hist_sum("h"), 0.5);
        assert_eq!(reg.hist_sum("h_at"), 0.25);
        assert_eq!(reg.gauge("g"), Some(4.0));
        let windows = summary.windows().expect("windowing on");
        assert_eq!(windows.counter_total("c_at"), 3);
        assert_eq!(windows.counter_total("worker.x"), 2);
        let session = summary.span_tree_json();
        let session = session.get("session").expect("session span kept");
        assert_eq!(session.get("count").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn level_filtering_drops_detail_events_at_summary() {
        let mut rec = Recorder::new(Level::Summary);
        rec.record(stall(0));
        rec.record(Event::Retry {
            segment: 0,
            attempt: 1,
            t_sec: 0.5,
            backoff_sec: 0.25,
        });
        assert_eq!(rec.events_len(), 1);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn ring_buffer_is_bounded_and_counts_drops() {
        let mut rec = Recorder::new(Level::Detail).with_capacity(4);
        for i in 0..10 {
            rec.record(stall(i));
        }
        assert_eq!(rec.events_len(), 4);
        assert_eq!(rec.dropped(), 6);
        let first = rec.events().next().expect("events retained");
        assert_eq!(first.segment(), 6, "oldest events evicted first");
    }

    #[test]
    fn span_tree_aggregates_nested_spans_on_sim_time() {
        let mut rec = Recorder::new(Level::Summary);
        for k in 0..3 {
            rec.span_open("session", 0.0);
            rec.span_open("segment", k as f64);
            rec.span_close(k as f64 + 0.5);
            rec.span_close(10.0);
        }
        let tree = rec.span_tree_json();
        let session = tree.get("session").expect("session agg");
        let segment = session
            .get("children")
            .and_then(|c| c.get("segment"))
            .expect("nested agg");
        assert_eq!(segment.get("count").and_then(Json::as_i64), Some(3));
        let total = segment
            .get("total_sec")
            .and_then(Json::as_f64)
            .expect("total");
        assert!((total - 1.5).abs() < 1e-12);
    }

    #[test]
    fn windowed_emissions_partition_the_registry_exactly() {
        let mut rec = Recorder::new(Level::Summary).with_windows(5.0);
        rec.count_at("session.stalls", 1.0, 2);
        rec.count_at("session.stalls", 7.0, 3);
        rec.observe_at("session.stall_sec", 1.0, 0.5);
        rec.observe_at("session.stall_sec", 7.0, 0.25);
        assert_eq!(rec.registry().counter("session.stalls"), 5);
        let windows = rec.windows().expect("windowing on");
        assert_eq!(windows.counter_total("session.stalls"), 5);
        assert_eq!(windows.hist_count_total("session.stall_sec"), 2);
        assert_eq!(windows.len(), 2);
        // Without windowing, count_at degrades to count — same registry.
        let mut plain = Recorder::new(Level::Summary);
        plain.count_at("session.stalls", 1.0, 5);
        assert_eq!(plain.registry().counter("session.stalls"), 5);
        assert!(plain.windows().is_none());
    }

    #[test]
    fn merge_windows_folds_worker_series_in_order() {
        let mut main = Recorder::new(Level::Summary).with_windows(5.0);
        let mut w1 = Recorder::new(Level::Summary).with_windows(5.0);
        w1.count_at("x", 1.0, 1);
        let mut w2 = Recorder::new(Level::Summary).with_windows(5.0);
        w2.count_at("x", 6.0, 2);
        main.merge_windows(w1.windows());
        main.merge_windows(w2.windows());
        let ts = main.windows().expect("windowing on");
        assert_eq!(ts.counter_total("x"), 3);
        assert_eq!(ts.window(0).map(|r| r.counter("x")), Some(1));
        assert_eq!(ts.window(1).map(|r| r.counter("x")), Some(2));
        // Merging into a windows-off recorder is a no-op, not an error.
        let mut off = Recorder::new(Level::Summary);
        off.merge_windows(w1.windows());
        assert!(off.windows().is_none());
    }

    #[test]
    fn trace_jsonl_is_one_event_per_line() {
        let mut rec = Recorder::new(Level::Detail);
        rec.record(stall(0));
        rec.record(stall(1));
        let text = rec.trace_jsonl().expect("serialises");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            ee360_support::json::parse(line).expect("each line parses");
        }
    }
}
