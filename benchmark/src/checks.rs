//! Correctness checks on the program's outputs and the simulated
//! outcomes they add up to.
//!
//! Every check here runs outside the timed region. A session that fails
//! one counts towards `failed`; a cell-level check that fails counts
//! every session of the cell.

use ee360_core::experiment::SchemeOutcome;
use ee360_sim::metrics::SessionMetrics;

use crate::workload::Workload;

/// Relative tolerance for "E_t + E_d + E_r equals the total".
const ENERGY_SUM_RTOL: f64 = 1e-9;

/// The seed the paper's configuration uses; the pinned outcomes are for it.
pub const DEFAULT_SEED: u64 = 20220706;

/// One (video, scheme) cell's simulated outcome, averaged over its
/// sessions with the same arithmetic as `SchemeOutcome`, so a cell
/// computed from sessions is bit-identical to the program's own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSim {
    /// Sessions averaged over.
    pub users: usize,
    /// Mean per-segment QoE.
    pub qoe: f64,
    /// Mean energy per segment, mJ.
    pub energy_mj_per_segment: f64,
    /// Mean stall seconds per session.
    pub stall_s: f64,
}

impl CellSim {
    /// The simulated outcome of a cell the program aggregated itself.
    pub fn from_outcome(o: &SchemeOutcome) -> Self {
        Self {
            users: o.users,
            qoe: o.mean_qoe,
            energy_mj_per_segment: o.mean_energy_mj_per_segment,
            stall_s: o.mean_stall_sec,
        }
    }

    /// The same aggregate computed from the cell's sessions, in the
    /// fold order `SchemeOutcome::from_sessions` uses.
    pub fn from_sessions(sessions: &[SessionMetrics]) -> Self {
        let n = sessions.len() as f64;
        let mean = |f: &dyn Fn(&SessionMetrics) -> f64| sessions.iter().map(f).sum::<f64>() / n;
        Self {
            users: sessions.len(),
            qoe: mean(&|s| s.mean_qoe()),
            energy_mj_per_segment: mean(&|s| s.total_energy_mj() / s.len().max(1) as f64),
            stall_s: mean(&|s| s.total_stall_sec()),
        }
    }

    fn bits(&self) -> (usize, u64, u64, u64) {
        (
            self.users,
            self.qoe.to_bits(),
            self.energy_mj_per_segment.to_bits(),
            self.stall_s.to_bits(),
        )
    }
}

/// `true` when two cell lists agree bit for bit.
pub fn cells_identical(a: &[CellSim], b: &[CellSim]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bits() == y.bits())
}

/// Simulated outcomes averaged over all sessions of a set of passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    /// Mean per-segment QoE.
    pub qoe_mean: f64,
    /// Mean energy per segment, mJ.
    pub energy_mj_per_segment: f64,
    /// Mean stall seconds per session.
    pub stall_s_per_session: f64,
}

impl Sim {
    /// Session-weighted means over every cell of every pass, folded in
    /// pass order then cell order.
    pub fn of<'a>(passes: impl IntoIterator<Item = &'a [CellSim]>) -> Self {
        let (mut users, mut qoe, mut energy, mut stall) = (0usize, 0.0, 0.0, 0.0);
        for cells in passes {
            for c in cells {
                let w = c.users as f64;
                users += c.users;
                qoe += c.qoe * w;
                energy += c.energy_mj_per_segment * w;
                stall += c.stall_s * w;
            }
        }
        let n = users.max(1) as f64;
        Self {
            qoe_mean: qoe / n,
            energy_mj_per_segment: energy / n,
            stall_s_per_session: stall / n,
        }
    }

    /// `true` when both agree bit for bit.
    pub fn identical(&self, other: &Sim) -> bool {
        self.qoe_mean.to_bits() == other.qoe_mean.to_bits()
            && self.energy_mj_per_segment.to_bits() == other.energy_mj_per_segment.to_bits()
            && self.stall_s_per_session.to_bits() == other.stall_s_per_session.to_bits()
    }
}

/// The outcomes at [`DEFAULT_SEED`] over the first
/// [`crate::workload::SIM_PASSES`] passes at full size. They are
/// deterministic; a change meant only to speed up the simulator must
/// leave them bit-identical.
pub fn pinned(workload: Workload) -> Sim {
    match workload {
        Workload::PaperMatrix => Sim {
            qoe_mean: 77.25803937265593,
            energy_mj_per_segment: 1835.5932983571968,
            stall_s_per_session: 0.5141137323305656,
        },
        Workload::ChaosMpc => Sim {
            qoe_mean: 82.59877987124337,
            energy_mj_per_segment: 1386.6498161737347,
            stall_s_per_session: 21.22469446504736,
        },
        Workload::FleetScale => Sim {
            qoe_mean: 87.66535199557406,
            energy_mj_per_segment: 1473.9566411499145,
            stall_s_per_session: 0.47723095251672515,
        },
    }
}

/// `true` when `|a - b| <= rtol * max(|a|, |b|)`.
fn close(a: f64, b: f64, rtol: f64) -> bool {
    (a - b).abs() <= rtol * a.abs().max(b.abs())
}

/// Cell-level invariants on an aggregated outcome: the cell holds the
/// expected sessions of the expected length, every number is finite,
/// the energy components add up to the total, and stalls are not
/// negative.
pub fn outcome_ok(o: &SchemeOutcome, segments: usize, users: usize) -> bool {
    let numbers = [
        o.mean_energy_mj_per_segment,
        o.mean_transmission_mj,
        o.mean_decode_mj,
        o.mean_render_mj,
        o.mean_qoe,
        o.mean_quality,
        o.mean_variation,
        o.mean_rebuffering,
        o.mean_stall_sec,
        o.mean_quality_level,
        o.mean_fps,
    ];
    let parts = o.mean_transmission_mj + o.mean_decode_mj + o.mean_render_mj;
    o.users == users
        && o.segments == segments
        && numbers.iter().all(|x| x.is_finite())
        && close(parts, o.mean_energy_mj_per_segment, ENERGY_SUM_RTOL)
        && o.mean_stall_sec >= 0.0
}

/// Per-session invariants: one record per segment slot, every number
/// finite, E_t + E_d + E_r equal to the total, no negative stall.
pub fn session_ok(m: &SessionMetrics, segments: usize) -> bool {
    let energy = m.energy_breakdown_mj();
    let parts = energy.transmission_mj + energy.decode_mj + energy.render_mj;
    let total = m.total_energy_mj();
    let records_ok = m.records().iter().all(|r| {
        [
            r.fps,
            r.bits,
            r.energy.total_mj(),
            r.qoe.total,
            r.timing.download_sec,
            r.timing.stall_sec,
        ]
        .iter()
        .all(|x| x.is_finite())
            && r.timing.stall_sec >= 0.0
    });
    m.len() == segments
        && records_ok
        && total.is_finite()
        && m.mean_qoe().is_finite()
        && close(parts, total, ENERGY_SUM_RTOL)
        && m.total_stall_sec() >= 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(users: usize, qoe: f64) -> CellSim {
        CellSim {
            users,
            qoe,
            energy_mj_per_segment: 2.0 * qoe,
            stall_s: 0.5,
        }
    }

    #[test]
    fn sim_weights_cells_by_sessions() {
        let a = [cell(1, 10.0), cell(3, 20.0)];
        let sim = Sim::of([&a[..]]);
        assert!((sim.qoe_mean - 17.5).abs() < 1e-12);
        assert!((sim.energy_mj_per_segment - 35.0).abs() < 1e-12);
        assert!((sim.stall_s_per_session - 0.5).abs() < 1e-12);
    }

    #[test]
    fn identical_means_bit_for_bit() {
        let a = [cell(8, 1.0)];
        let b = [cell(8, 1.0 + f64::EPSILON)];
        assert!(cells_identical(&a, &a));
        assert!(!cells_identical(&a, &b));
        assert!(!cells_identical(&a, &[]));
    }

    #[test]
    fn an_empty_session_fails_the_segment_count() {
        assert!(!session_ok(&SessionMetrics::new(), 1));
        assert!(session_ok(&SessionMetrics::new(), 0));
    }
}
