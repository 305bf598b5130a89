//! Declarative service-level objectives evaluated over the windowed
//! fleet series, with burn-rate accounting.
//!
//! An objective is a threshold over a per-window statistic derived from
//! [`FleetSeries`] deltas (stall ratio, mean QoE, p99 startup). Each
//! window with activity gets a **burn rate** — how fast the window
//! consumes the objective's budget: `value / threshold` for ceiling
//! objectives, `threshold / value` for floor objectives, so `burn > 1`
//! always means "this window breached". The verdict is pass iff no
//! window breached; `max_burn`/`total_burn` rank how badly and how
//! persistently. Everything here is plain arithmetic over the
//! deterministic series, so verdicts are a pure function of the seed.

use ee360_support::json::{Json, ToJson};

use crate::timeseries::FleetSeries;

/// Burn rates are clamped here so a zero-valued floor window (e.g. mean
/// QoE of 0 against a positive floor) reports "catastrophic" without
/// producing infinities in the JSON artifact.
pub const BURN_CLAMP: f64 = 1000.0;

/// A per-window objective over the fleet series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Stall seconds per booked segment slot must stay ≤ the bound
    /// (slots are fixed-duration, so this is a rebuffer-ratio proxy).
    StallRatioMax(f64),
    /// Mean QoE over the window's booked slots must stay ≥ the floor.
    QoeFloorMin(f64),
    /// p99 startup latency (sessions whose first delivery landed in the
    /// window) must stay ≤ the bound, in seconds.
    StartupP99Max(f64),
}

impl Objective {
    /// The threshold value, regardless of direction.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        match self {
            Objective::StallRatioMax(x)
            | Objective::QoeFloorMin(x)
            | Objective::StartupP99Max(x) => *x,
        }
    }

    /// Stable machine name for reports.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Objective::StallRatioMax(_) => "stall_ratio_max",
            Objective::QoeFloorMin(_) => "qoe_floor_min",
            Objective::StartupP99Max(_) => "startup_p99_max",
        }
    }
}

/// A named objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Report name, e.g. `"stall-ratio"`.
    pub name: String,
    /// The objective and threshold.
    pub objective: Objective,
}

impl SloSpec {
    /// A named objective.
    #[must_use]
    pub fn new(name: &str, objective: Objective) -> Self {
        SloSpec {
            name: name.to_owned(),
            objective,
        }
    }
}

/// The standard report card: stall ratio ≤ 5%, QoE floor ≥ 1.0, p99
/// startup ≤ 4 s.
#[must_use]
pub fn default_slos() -> Vec<SloSpec> {
    vec![
        SloSpec::new("stall-ratio", Objective::StallRatioMax(0.05)),
        SloSpec::new("qoe-floor", Objective::QoeFloorMin(1.0)),
        SloSpec::new("startup-p99", Objective::StartupP99Max(4.0)),
    ]
}

/// One objective's evaluation over the whole series.
#[derive(Debug, Clone, PartialEq)]
pub struct SloResult {
    /// The spec's name.
    pub name: String,
    /// Objective kind (see [`Objective::kind`]).
    pub kind: &'static str,
    /// The threshold.
    pub threshold: f64,
    /// Windows where the statistic was defined (activity present).
    pub windows_evaluated: u64,
    /// Windows whose burn rate exceeded 1.
    pub windows_breached: u64,
    /// Largest per-window burn rate (0 when nothing was evaluated).
    pub max_burn: f64,
    /// Sum of per-window burn rates — the budget consumed.
    pub total_burn: f64,
    /// Index of the worst window, if any was evaluated.
    pub worst_window: Option<u32>,
    /// Pass iff no window breached.
    pub pass: bool,
}

impl ToJson for SloResult {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_owned(), Json::Str(self.name.clone())),
            ("kind".to_owned(), Json::Str(self.kind.to_owned())),
            ("threshold".to_owned(), Json::Num(self.threshold)),
            (
                "windows_evaluated".to_owned(),
                Json::Int(self.windows_evaluated as i64),
            ),
            (
                "windows_breached".to_owned(),
                Json::Int(self.windows_breached as i64),
            ),
            ("max_burn".to_owned(), Json::Num(self.max_burn)),
            ("total_burn".to_owned(), Json::Num(self.total_burn)),
            (
                "worst_window".to_owned(),
                match self.worst_window {
                    Some(w) => Json::Int(i64::from(w)),
                    None => Json::Null,
                },
            ),
            (
                "verdict".to_owned(),
                Json::Str(if self.pass { "pass" } else { "fail" }.to_owned()),
            ),
        ])
    }
}

/// Burn rate for a ceiling objective (`value` must stay ≤ `max`).
fn burn_ceiling(value: f64, max: f64) -> f64 {
    if max <= 0.0 {
        return if value > 0.0 { BURN_CLAMP } else { 0.0 };
    }
    (value / max).clamp(0.0, BURN_CLAMP)
}

/// Burn rate for a floor objective (`value` must stay ≥ `min`).
fn burn_floor(value: f64, min: f64) -> f64 {
    if min <= 0.0 {
        return 0.0;
    }
    if value <= 0.0 {
        return BURN_CLAMP;
    }
    (min / value).clamp(0.0, BURN_CLAMP)
}

/// Evaluates one objective over every window of the series.
#[must_use]
pub fn evaluate(spec: &SloSpec, series: &FleetSeries) -> SloResult {
    let mut out = SloResult {
        name: spec.name.clone(),
        kind: spec.objective.kind(),
        threshold: spec.objective.threshold(),
        windows_evaluated: 0,
        windows_breached: 0,
        max_burn: 0.0,
        total_burn: 0.0,
        worst_window: None,
        pass: true,
    };
    for w in 0..series.len() {
        let Some(delta) = series.delta(w) else {
            continue;
        };
        let burn = match spec.objective {
            Objective::StallRatioMax(max) => {
                if delta.segments == 0 {
                    continue;
                }
                burn_ceiling(delta.stall_sec / delta.segments as f64, max)
            }
            Objective::QoeFloorMin(min) => {
                if delta.segments == 0 {
                    continue;
                }
                burn_floor(delta.qoe_sum / delta.segments as f64, min)
            }
            Objective::StartupP99Max(max) => {
                let hist = match series.windows().get(w) {
                    Some(acc) if acc.startup_hist.count() > 0 => &acc.startup_hist,
                    _ => continue,
                };
                burn_ceiling(hist.quantile(0.99), max)
            }
        };
        out.windows_evaluated += 1;
        out.total_burn += burn;
        if out.worst_window.is_none() || burn > out.max_burn {
            out.max_burn = burn;
            out.worst_window = Some(w as u32);
        }
        if burn > 1.0 {
            out.windows_breached += 1;
            out.pass = false;
        }
    }
    out
}

/// Evaluates a report card of objectives.
#[must_use]
pub fn evaluate_all(specs: &[SloSpec], series: &FleetSeries) -> Vec<SloResult> {
    specs.iter().map(|s| evaluate(s, series)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::{WindowCell, WindowCums};

    fn series_with(stalls: &[f64], qoes: &[f64], segments_per_window: u32) -> FleetSeries {
        // One synthetic session whose cumulative stall/qoe tracks the
        // requested per-window deltas.
        let mut cums = WindowCums::default();
        let cells: Vec<WindowCell> = stalls
            .iter()
            .zip(qoes.iter())
            .enumerate()
            .map(|(w, (stall, qoe))| {
                cums.stall_sec += stall;
                cums.qoe_sum += qoe;
                cums.segments += segments_per_window;
                cums.delivered += segments_per_window;
                WindowCell {
                    window: w as u32,
                    session: 0,
                    cums,
                }
            })
            .collect();
        let mut series = FleetSeries::new(5.0, stalls.len().max(1));
        series.fold_session(&cells, Some(0.5));
        series
    }

    #[test]
    fn stall_ratio_breaches_only_on_bad_windows() {
        // 4 slots/window: ratios 0.025, 0.25, 0.0 — one breach at 5%.
        let series = series_with(&[0.1, 1.0, 0.0], &[8.0, 8.0, 8.0], 4);
        let res = evaluate(
            &SloSpec::new("stall-ratio", Objective::StallRatioMax(0.05)),
            &series,
        );
        assert_eq!(res.windows_evaluated, 3);
        assert_eq!(res.windows_breached, 1);
        assert_eq!(res.worst_window, Some(1));
        assert!(!res.pass);
        assert!(res.max_burn > 1.0);
    }

    #[test]
    fn qoe_floor_passes_when_every_window_clears() {
        let series = series_with(&[0.0, 0.0], &[8.0, 6.0], 4);
        let res = evaluate(&SloSpec::new("qoe", Objective::QoeFloorMin(1.0)), &series);
        assert_eq!(res.windows_evaluated, 2);
        assert_eq!(res.windows_breached, 0);
        assert!(res.pass);
        assert!(res.max_burn <= 1.0);
    }

    #[test]
    fn qoe_floor_clamps_zero_value_windows() {
        let series = series_with(&[0.0], &[0.0], 4);
        let res = evaluate(&SloSpec::new("qoe", Objective::QoeFloorMin(1.0)), &series);
        assert_eq!(res.windows_breached, 1);
        assert_eq!(res.max_burn, BURN_CLAMP);
        assert!(!res.pass);
    }

    #[test]
    fn startup_p99_skips_windows_without_startups() {
        let series = series_with(&[0.0, 0.0], &[4.0, 4.0], 2);
        // Only window 0 saw a first delivery (startup 0.5 s).
        let res = evaluate(
            &SloSpec::new("startup", Objective::StartupP99Max(4.0)),
            &series,
        );
        assert_eq!(res.windows_evaluated, 1);
        assert!(res.pass);
    }

    #[test]
    fn report_card_serialises_with_verdicts() {
        let series = series_with(&[0.1], &[4.0], 4);
        let results = evaluate_all(&default_slos(), &series);
        assert_eq!(results.len(), 3);
        let json = Json::Arr(results.iter().map(ToJson::to_json).collect());
        let text = ee360_support::json::to_string(&json).expect("serialises");
        for key in [
            "verdict",
            "max_burn",
            "total_burn",
            "windows_breached",
            "worst_window",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }
}
