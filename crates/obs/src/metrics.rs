//! Named counters, gauges, and log-bucketed histograms.
//!
//! The registry is the aggregate half of the observability layer: hot
//! paths bump counters and observe histogram samples, and per-session
//! registries are merged — in deterministic index order — across the
//! threaded fan-outs in `core::experiment` and `core::fleet`.
//!
//! Histograms use power-of-two buckets whose index is derived from the
//! IEEE-754 exponent bits of the sample, so bucketing is exact and
//! platform-independent (no `log2` rounding involved). Quantiles are
//! reported as the upper bound of the bucket containing the requested
//! rank — a conservative, deterministic estimate — clamped to the
//! exact observed `[min, max]`.

use std::collections::BTreeMap;

use ee360_support::json::{Json, ToJson};

/// Smallest tracked power-of-two exponent; samples below `2^MIN_EXP`
/// (and non-positive samples) land in the underflow bucket.
const MIN_EXP: i32 = -30;
/// Largest tracked exponent; samples at or above `2^(MAX_EXP + 1)`
/// clamp into the last bucket.
const MAX_EXP: i32 = 40;
/// Bucket 0 is the underflow/non-positive bucket; buckets `1..` cover
/// `[2^e, 2^(e+1))` for `e` in `MIN_EXP..=MAX_EXP`.
const N_BUCKETS: usize = (MAX_EXP - MIN_EXP + 2) as usize;

/// `floor(log2(v))` for positive finite `v`, read straight from the
/// exponent bits so the result is bit-exact on every platform.
fn floor_log2(v: f64) -> i32 {
    let biased = ((v.to_bits() >> 52) & 0x7ff) as i32;
    // Subnormals (biased == 0) are far below MIN_EXP; report a value
    // that clamps into the underflow bucket.
    if biased == 0 {
        MIN_EXP - 1
    } else {
        biased - 1023
    }
}

fn bucket_index(v: f64) -> usize {
    if v <= 0.0 || !v.is_finite() {
        if v.is_finite() {
            return 0;
        }
        // +inf clamps high, everything else (NaN, -inf) clamps low.
        return if v > 0.0 { N_BUCKETS - 1 } else { 0 };
    }
    let e = floor_log2(v).clamp(MIN_EXP - 1, MAX_EXP);
    ((e - (MIN_EXP - 1)) as usize).min(N_BUCKETS - 1)
}

/// Upper bound of bucket `i` (`2^(e+1)` for its exponent range).
fn bucket_upper(i: usize) -> f64 {
    if i == 0 {
        return (2.0f64).powi(MIN_EXP);
    }
    (2.0f64).powi(MIN_EXP + i as i32)
}

/// A log-bucketed histogram with exact count/sum/min/max sidecars.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            // lint:allow(hot-path-alloc, "one-time: buckets are allocated when a histogram is first registered, then reused")
            buckets: vec![0; N_BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if let Some(b) = self.buckets.get_mut(bucket_index(v)) {
            *b += 1;
        }
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact running sum of all samples (accumulated in observation
    /// order, so it reconciles bit-for-bit with a sequential `+=` over
    /// the same values).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observed sample, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observed sample, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Conservative quantile estimate: the upper bound of the bucket
    /// containing the `q`-th ranked sample, clamped to `[min, max]`.
    /// `q` is a fraction in `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the requested sample, 1-based, computed in u64 space
        // to stay exact for large counts.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max()
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        let nonzero: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| **b > 0)
            .map(|(i, b)| Json::Arr(vec![Json::Num(bucket_upper(i)), Json::Int(*b as i64)]))
            .collect();
        Json::Obj(vec![
            ("count".to_owned(), Json::Int(self.count as i64)),
            ("sum".to_owned(), Json::Num(self.sum)),
            ("min".to_owned(), Json::Num(self.min())),
            ("max".to_owned(), Json::Num(self.max())),
            ("p50".to_owned(), Json::Num(self.quantile(0.50))),
            ("p95".to_owned(), Json::Num(self.quantile(0.95))),
            ("p99".to_owned(), Json::Num(self.quantile(0.99))),
            ("buckets".to_owned(), Json::Arr(nonzero)),
        ])
    }
}

/// A named-metric registry: counters, gauges, and histograms.
///
/// Keys are sorted (`BTreeMap`) so the exported JSON is deterministic
/// regardless of the order metrics were first touched in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// Fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `n` to the named counter.
    pub fn inc(&mut self, name: &str, n: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += n;
        } else {
            // lint:allow(hot-path-alloc, "first registration only: the get_mut fast path above avoids the key copy thereafter")
            self.counters.insert(name.to_owned(), n);
        }
    }

    /// Sets the named gauge to its latest value.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = v;
        } else {
            // lint:allow(hot-path-alloc, "first registration only: the get_mut fast path above avoids the key copy thereafter")
            self.gauges.insert(name.to_owned(), v);
        }
    }

    /// Records a histogram sample under `name`.
    pub fn observe(&mut self, name: &str, v: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(v);
        } else {
            let mut h = Histogram::default();
            h.observe(v);
            // lint:allow(hot-path-alloc, "first registration only: the get_mut fast path above avoids the key copy thereafter")
            self.histograms.insert(name.to_owned(), h);
        }
    }

    /// Current value of a counter (0 when never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any sample was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Exact sum of the named histogram (0 when never touched).
    #[must_use]
    pub fn hist_sum(&self, name: &str) -> f64 {
        self.histograms.get(name).map_or(0.0, Histogram::sum)
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds another registry into this one. Counters and histograms
    /// accumulate; gauges take the other registry's value (last writer
    /// wins), which callers make deterministic by merging in index
    /// order after a fan-out.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            self.inc(k, *v);
        }
        for (k, v) in &other.gauges {
            self.set_gauge(k, *v);
        }
        for (k, h) in &other.histograms {
            if let Some(mine) = self.histograms.get_mut(k) {
                mine.merge(h);
            } else {
                self.histograms.insert(k.clone(), h.clone());
            }
        }
    }
}

impl ToJson for Registry {
    fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.to_json()))
                .collect(),
        );
        Json::Obj(vec![
            ("counters".to_owned(), counters),
            ("gauges".to_owned(), gauges),
            ("histograms".to_owned(), histograms),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_exact_for_powers_of_two() {
        // 1.0 == 2^0 sits in the bucket [2^0, 2^1).
        let i = bucket_index(1.0);
        assert!(bucket_upper(i) == 2.0, "upper {}", bucket_upper(i));
        // Just below 1.0 lands one bucket down.
        assert_eq!(bucket_index(0.999), i - 1);
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
    }

    #[test]
    fn histogram_sum_matches_sequential_accumulation() {
        let values = [0.1, 0.25, 3.75, 1e-9, 40.0, 0.0];
        let mut h = Histogram::default();
        let mut acc = 0.0f64;
        for v in values {
            h.observe(v);
            acc += v;
        }
        assert_eq!(h.sum().to_bits(), acc.to_bits());
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 40.0);
    }

    #[test]
    fn quantiles_are_bucket_conservative_and_clamped() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.observe(1.0);
        }
        h.observe(100.0);
        // p50 falls in the [1, 2) bucket; clamped to observed range.
        let p50 = h.quantile(0.50);
        assert!((1.0..=2.0).contains(&p50), "p50 {p50}");
        // p99 hits the 99th sample of 1.0 (rank 99 of 100).
        let p99 = h.quantile(0.99);
        assert!((1.0..=2.0).contains(&p99), "p99 {p99}");
        // p100 is exactly the max.
        assert_eq!(h.quantile(1.0), 100.0);
        // p0 is still bucket-conservative: the first bucket's upper
        // bound, clamped to the observed range.
        let p0 = h.quantile(0.0);
        assert!((1.0..=2.0).contains(&p0), "p0 {p0}");
    }

    #[test]
    fn registry_merge_accumulates_in_index_order() {
        let mut a = Registry::new();
        a.inc("x", 2);
        a.observe("h", 1.0);
        a.set_gauge("g", 1.0);
        let mut b = Registry::new();
        b.inc("x", 3);
        b.inc("y", 1);
        b.observe("h", 3.0);
        b.set_gauge("g", 2.0);
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.counter("y"), 1);
        assert_eq!(a.gauge("g"), Some(2.0));
        let h = a.histogram("h").expect("merged histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 4.0);
    }

    #[test]
    fn registry_json_is_sorted_and_parseable() {
        let mut r = Registry::new();
        r.inc("b", 1);
        r.inc("a", 1);
        r.observe("lat", 0.5);
        let s = ee360_support::json::to_string(&r.to_json()).expect("serialises");
        let a = s.find("\"a\"").expect("a present");
        let b = s.find("\"b\"").expect("b present");
        assert!(a < b, "counters sorted: {s}");
        let parsed = ee360_support::json::parse(&s).expect("round-trips");
        assert!(parsed.get("histograms").is_some());
    }
}
