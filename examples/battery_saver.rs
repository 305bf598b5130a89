//! The dual problem: maximise QoE under an energy budget — a
//! "battery-saver slider" built from the same MPC machinery.
//!
//! ```sh
//! cargo run --release --example battery_saver
//! ```
//!
//! Sweeps the per-segment energy budget and prints the QoE/energy frontier
//! next to the paper's Eq. 8 controller.

use ee360::abr::controller::Scheme;
use ee360::abr::dual::EnergyBudgetController;
use ee360::cluster::ptile::PtileConfig;
use ee360::core::client::{run_session_resilient, run_session_resilient_with, SessionSetup};
use ee360::core::report::TableWriter;
use ee360::core::server::VideoServer;
use ee360::geom::grid::TileGrid;
use ee360::power::model::Phone;
use ee360::sim::resilience::RetryPolicy;
use ee360::trace::dataset::VideoTraces;
use ee360::trace::fault::FaultPlan;
use ee360::trace::head::GazeConfig;
use ee360::trace::network::NetworkTrace;
use ee360::video::catalog::VideoCatalog;

fn main() {
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(4).expect("video 4 exists");
    let traces = VideoTraces::generate(spec, 48, 23, GazeConfig::default());
    let (train, eval) = traces.split(40, 23);
    let server = VideoServer::prepare(
        spec,
        &train,
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    let network = NetworkTrace::paper_trace1(400, 23);
    let setup = SessionSetup {
        server: &server,
        user: eval[0],
        network: &network,
        phone: Phone::Pixel3,
        max_segments: Some(150),
    };

    println!(
        "video {} ({}), trace 1, Pixel 3 — QoE under an energy budget\n",
        spec.id, spec.name
    );
    let mut table = TableWriter::new(vec![
        "controller",
        "budget [mJ/seg]",
        "energy [mJ/seg]",
        "QoE",
        "quality lvl",
    ]);

    for budget in [700.0, 900.0, 1200.0, 1600.0, 2400.0] {
        let mut controller = EnergyBudgetController::new(budget);
        let m = run_session_resilient_with(
            &mut controller,
            &setup,
            &FaultPlan::none(),
            &RetryPolicy::disabled(),
        );
        table.row(vec![
            "budget (dual)".into(),
            format!("{budget:.0}"),
            format!("{:.1}", m.total_energy_mj() / m.len() as f64),
            format!("{:.1}", m.mean_qoe()),
            format!("{:.2}", m.mean_quality_level()),
        ]);
    }

    // The paper's Eq. 8 controller for reference.
    let m = run_session_resilient(
        Scheme::Ours,
        &setup,
        &FaultPlan::none(),
        &RetryPolicy::disabled(),
    );
    table.row(vec![
        "Ours (Eq. 8)".into(),
        "-".into(),
        format!("{:.1}", m.total_energy_mj() / m.len() as f64),
        format!("{:.1}", m.mean_qoe()),
        format!("{:.2}", m.mean_quality_level()),
    ]);
    let p = run_session_resilient(
        Scheme::Ptile,
        &setup,
        &FaultPlan::none(),
        &RetryPolicy::disabled(),
    );
    table.row(vec![
        "Ptile (max quality)".into(),
        "-".into(),
        format!("{:.1}", p.total_energy_mj() / p.len() as f64),
        format!("{:.1}", p.mean_qoe()),
        format!("{:.2}", p.mean_quality_level()),
    ]);
    println!("{}", table.render());
    println!("tighter budgets trade quality levels for battery life along the same frontier");
}
