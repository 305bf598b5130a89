//! One benchmark run: an untimed warm-up, timed passes until the time
//! is up, and the metrics the passes add up to.

// lint:allow-file(determinism, "benchmark harness: the run lasts a wall-clock budget")

use std::time::Instant;

use ee360_sim::fleet::EngineStats;
use ee360_sim::resilience::ResilienceCounters;
use ee360_support::json::Json;
use ee360_video::catalog::VideoCatalog;

use crate::checks::{cells_identical, pinned, Sim, DEFAULT_SEED};
use crate::layers::{Layer, LayerAcc};
use crate::probe::REFERENCE_S;
use crate::workload::{run_pass, run_traced_pass, Pass, Size, Workload};

/// How far the layers' self times may stray from the workers' wall time.
const SUM_VS_WALL_TOLERANCE: f64 = 0.05;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// First quartile, median and third quartile over passes, for the
    /// metrics that are medians over passes.
    pub quartiles: Option<[f64; 3]>,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            quartiles: None,
        }
    }

    /// The median over passes of `per_pass`.
    fn median(name: &str, unit: &'static str, per_pass: Vec<f64>) -> Self {
        let q = quartiles(per_pass);
        Self {
            name: name.to_owned(),
            unit,
            value: q[1],
            quartiles: Some(q),
        }
    }
}

/// The outcome of a run.
#[derive(Debug)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// Its base seed.
    pub seed: u64,
    /// Worker threads used.
    pub threads: usize,
    /// The untraced passes, in seed order.
    pub passes: Vec<Pass>,
    /// Sessions run (untraced and traced passes).
    pub attempted: usize,
    /// Of those, sessions that failed a check.
    pub failed: usize,
    /// Run-level check failures.
    pub problems: Vec<String>,
    /// The simulated outcome over the first passes.
    pub sim: Sim,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl Report {
    /// `true` when every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result object: `correct`, `attempted`, `failed` and every
    /// metric with its unit. `detail` adds the run's context and the
    /// quartiles over passes.
    pub fn to_json(&self, detail: bool) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_owned(), Json::Num(m.value)),
                    ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                ];
                if let (true, Some([q1, _, q3])) = (detail, m.quartiles) {
                    fields.push(("q1".to_owned(), Json::Num(q1)));
                    fields.push(("q3".to_owned(), Json::Num(q3)));
                }
                (m.name.clone(), Json::Obj(fields))
            })
            .collect();
        let count = |n: usize| Json::Int(i64::try_from(n).unwrap_or(i64::MAX));
        let mut fields = vec![
            ("correct".to_owned(), Json::Bool(self.correct())),
            ("attempted".to_owned(), count(self.attempted)),
            ("failed".to_owned(), count(self.failed)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ];
        if detail {
            let problems = self.problems.iter().cloned().map(Json::Str).collect();
            fields.extend([
                (
                    "workload".to_owned(),
                    Json::Str(self.workload.name().to_owned()),
                ),
                ("seed".to_owned(), Json::Str(self.seed.to_string())),
                ("threads".to_owned(), count(self.threads)),
                (
                    "available_parallelism".to_owned(),
                    count(ee360_support::parallel::hardware_threads()),
                ),
                ("passes".to_owned(), count(self.passes.len())),
                (
                    "failed_frac".to_owned(),
                    Json::Num(ratio(self.failed as f64, self.attempted as f64)),
                ),
                ("problems".to_owned(), Json::Arr(problems)),
            ]);
        }
        Json::Obj(fields)
    }
}

/// `a / b`, or 0 when `b` is not positive.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// First quartile, median and third quartile, by the exclusive method
/// of Python's `statistics.quantiles(n=4)`; all three equal the value
/// for a single one.
pub fn quartiles(mut v: Vec<f64>) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let at = |i: usize| {
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [at(1), at(2), at(3)]
}

/// Runs `workload` from `seed`: a warm-up, then timed passes with seeds
/// `seed`, `seed + 1`, … until `size.seconds` have passed and at least
/// `size.min_passes` are done. With `trace`, every pass is run a second
/// time through the span-recording mirrors.
pub fn run(workload: Workload, seed: u64, size: &Size, threads: usize, trace: bool) -> Report {
    let catalog = VideoCatalog::paper_default();
    let mut problems = Vec::new();
    if run_pass(workload, seed, &size.warmup(), &catalog, threads).failed > 0 {
        problems.push("the warm-up pass failed its checks".to_owned());
    }
    let clock = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    while plain.len() < size.min_passes || clock.elapsed().as_secs_f64() < size.seconds {
        let pass_seed = seed.wrapping_add(plain.len() as u64);
        plain.push(run_pass(workload, pass_seed, size, &catalog, threads));
        if trace {
            traced.push(run_traced_pass(
                workload, pass_seed, size, &catalog, threads,
            ));
        }
    }

    let first = size.min_passes.min(plain.len());
    let sim = Sim::of(plain[..first].iter().map(|p| p.cells.as_slice()));
    if seed == DEFAULT_SEED && *size == Size::full(size.seconds) {
        let want = pinned(workload);
        if !sim.identical(&want) {
            problems.push(format!(
                "simulated outcomes {sim:?} differ from the pinned {want:?}"
            ));
        }
    }
    for (i, (p, t)) in plain.iter().zip(&traced).enumerate() {
        if !cells_identical(&p.cells, &t.cells) {
            problems.push(format!(
                "pass {i}: traced outcomes differ from the untraced run"
            ));
        }
    }

    let all = plain.iter().chain(&traced);
    let attempted = all.clone().map(|p| p.sessions).sum();
    let failed = all.map(|p| p.failed).sum();
    let metrics = if trace {
        layer_metrics(&plain, traced, &mut problems)
    } else {
        end_to_end(&plain, &sim)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not finite", m.name));
        }
    }
    Report {
        workload,
        seed,
        threads,
        passes: plain,
        attempted,
        failed,
        problems,
        sim,
        metrics,
    }
}

/// `host_s`, a wall time measured during pass `p`, in reference seconds:
/// scaled by how much slower than the reference the probe ran.
pub fn reference_s(p: &Pass, host_s: f64) -> f64 {
    host_s * REFERENCE_S / p.probe_s
}

/// The end-to-end metrics of the untraced passes.
fn end_to_end(passes: &[Pass], sim: &Sim) -> Vec<Metric> {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    vec![
        Metric::median(
            "segments_per_ref_s",
            "1/s",
            per_pass(&|p| p.segments as f64 / reference_s(p, p.run_s)),
        ),
        Metric::median(
            "sessions_per_ref_s",
            "1/s",
            per_pass(&|p| p.sessions as f64 / reference_s(p, p.run_s)),
        ),
        Metric::median("setup_s", "s", per_pass(&|p| reference_s(p, p.setup_s))),
        Metric::median(
            "peak_heap_mb",
            "MB",
            per_pass(&|p| p.peak_heap_bytes as f64 * 1e-6),
        ),
        Metric::new("sim_qoe_mean", "QoE", sim.qoe_mean),
        Metric::new("sim_energy_mj_per_segment", "mJ", sim.energy_mj_per_segment),
    ]
}

/// The per-layer metrics of the traced passes: per-pass means of calls
/// and self time, shares, per-call percentiles and the layers' own
/// counters.
fn layer_metrics(plain: &[Pass], traced: Vec<Pass>, problems: &mut Vec<String>) -> Vec<Metric> {
    let n = traced.len().max(1) as f64;
    let plain_s: f64 = plain.iter().map(|p| p.run_s).sum();
    let traced_s: f64 = traced.iter().map(|p| p.run_s).sum();
    let segments = traced.iter().map(|p| p.segments).sum::<usize>() as f64;
    let mut acc = LayerAcc::default();
    let mut engine = EngineStats::default();
    let mut resilience = ResilienceCounters::default();
    let (mut ptile_segments, mut delivered_bits) = (0usize, 0.0);
    for t in traced.into_iter().filter_map(|p| p.trace) {
        acc.merge(t.acc);
        engine.accumulate(&t.engine);
        resilience.accumulate(&t.resilience);
        ptile_segments += t.ptile_segments;
        delivered_bits += t.delivered_bits;
    }

    let total_self = acc.total_self_s();
    let sum_vs_wall = ratio(total_self, acc.worker_s());
    if (sum_vs_wall - 1.0).abs() > SUM_VS_WALL_TOLERANCE {
        problems.push(format!(
            "layer self times add up to {sum_vs_wall:.4} of the workers' wall time"
        ));
    }

    let mut out = Vec::new();
    for layer in Layer::ALL {
        let name = layer.name();
        out.push(Metric::new(
            format!("{name}.calls"),
            "count",
            acc.calls(layer) as f64 / n,
        ));
        out.push(Metric::new(
            format!("{name}.self_s"),
            "s",
            acc.self_s(layer) / n,
        ));
        out.push(Metric::new(
            format!("{name}.frac"),
            "ratio",
            ratio(acc.self_s(layer), total_self),
        ));
    }
    for layer in Layer::SAMPLED {
        let name = layer.name();
        let p50 = acc.quantile_us(layer, 0.50);
        let p99 = acc.quantile_us(layer, 0.99);
        out.push(Metric::new(format!("{name}.us_p50"), "us", p50));
        out.push(Metric::new(format!("{name}.us_p99"), "us", p99));
    }
    let s = acc.solver;
    out.extend([
        Metric::new("abr.solver.plans", "count", s.plans as f64 / n),
        Metric::new(
            "abr.solver.memo_hit_ratio",
            "ratio",
            ratio(s.memo_hits as f64, (s.memo_hits + s.memo_misses) as f64),
        ),
        Metric::new(
            "abr.solver.states_expanded_per_plan",
            "count",
            ratio(s.states_expanded as f64, s.plans as f64),
        ),
        Metric::new(
            "abr.robust.widened_frac",
            "ratio",
            ratio(acc.widened_plans as f64, acc.robust_plans as f64),
        ),
        Metric::new(
            "core.client.ptile_segment_frac",
            "ratio",
            ratio(ptile_segments as f64, segments),
        ),
        Metric::new(
            "sim.resilience.attempts_per_segment",
            "count",
            ratio(resilience.attempts as f64, segments),
        ),
        Metric::new(
            "sim.resilience.retries",
            "count",
            resilience.retries as f64 / n,
        ),
        Metric::new(
            "sim.resilience.abandons",
            "count",
            resilience.abandons as f64 / n,
        ),
        Metric::new(
            "sim.resilience.skipped_segments",
            "count",
            resilience.skipped_segments as f64 / n,
        ),
        Metric::new(
            "sim.resilience.wasted_bits_frac",
            "ratio",
            ratio(
                resilience.wasted_bits,
                delivered_bits + resilience.wasted_bits,
            ),
        ),
        Metric::new(
            "sim.fleet.events_per_segment",
            "count",
            ratio(engine.events as f64, segments),
        ),
        Metric::new(
            "sim.fleet.fault_fires",
            "count",
            engine.fault_fires as f64 / n,
        ),
        Metric::new(
            "sim.fleet.peak_queue_len",
            "count",
            engine.peak_queue_len as f64,
        ),
        Metric::new(
            "trace.overhead_frac",
            "ratio",
            ratio(traced_s, plain_s) - 1.0,
        ),
        Metric::new("layers.sum_vs_wall", "ratio", sum_vs_wall),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let q = quartiles((1..=10).map(f64::from).collect());
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(vec![3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(vec![2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(vec![4.0]), [4.0, 4.0, 4.0]);
    }

    /// `(name, unit)` of every metric a `BENCHMARK.json` section declares.
    fn declared(section: &str) -> Vec<(String, String)> {
        let spec = ee360_support::json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap().to_owned();
        spec.get(section)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn reported(report: &Report) -> Vec<(String, String)> {
        report
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_owned()))
            .collect()
    }

    /// A smoke-size run of `workload`, untraced and traced: every check
    /// passes (traced outcomes equal untraced ones, the layers add up to
    /// the workers' wall time) and every declared metric is printed.
    fn smoke(workload: Workload) {
        let plain = run(workload, 7, &Size::smoke(), 2, false);
        assert!(plain.correct(), "{}: {:?}", workload.name(), plain.problems);
        assert!(plain.attempted > 0);
        assert_eq!(reported(&plain), declared("end_to_end"));
        assert!(plain.metrics.iter().all(|m| m.value.is_finite()));

        let traced = run(workload, 7, &Size::smoke(), 2, true);
        assert!(
            traced.correct(),
            "{}: {:?}",
            workload.name(),
            traced.problems
        );
        assert_eq!(reported(&traced), declared("per_layer"));
        assert!(traced.sim.identical(&plain.sim));
        let sum = traced
            .metrics
            .iter()
            .find(|m| m.name == "layers.sum_vs_wall");
        assert!(sum.is_some_and(|m| (m.value - 1.0).abs() <= SUM_VS_WALL_TOLERANCE));
    }

    #[test]
    fn paper_matrix_smoke() {
        smoke(Workload::PaperMatrix);
    }

    #[test]
    fn chaos_mpc_smoke() {
        smoke(Workload::ChaosMpc);
    }

    #[test]
    fn fleet_scale_smoke() {
        smoke(Workload::FleetScale);
    }

    #[test]
    fn declared_workloads_exist() {
        let spec = ee360_support::json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }
}
