//! Quickstart: stream one video with the paper's energy-aware controller.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the synthetic dataset for one video, constructs Ptiles from the
//! training users, streams it for one evaluation user over the LTE trace
//! with the `Ours` controller, and prints the energy/QoE summary.

use ee360::abr::controller::Scheme;
use ee360::cluster::ptile::PtileConfig;
use ee360::core::client::{run_session_resilient, SessionSetup};
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
    // 1. Pick a video from the Table III catalog.
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(2).expect("video 2 exists");
    println!(
        "streaming video {}: {} ({} s)",
        spec.id, spec.name, spec.duration_sec
    );

    // 2. Generate the user population and split train/eval.
    let traces = VideoTraces::generate(spec, 48, 42, GazeConfig::default());
    let (train, eval) = traces.split(40, 42);

    // 3. Server side: construct the Ptiles from the training users.
    let server = VideoServer::prepare(
        spec,
        &train,
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    let multi = server.coverage_stats(&eval).mean_coverage();
    println!("Ptile coverage of evaluation users: {:.1}%", multi * 100.0);

    // 4. Client side: stream over the paper's LTE trace 2 on a Pixel 3.
    let network = NetworkTrace::paper_trace2(spec.duration_sec as usize + 60, 42);
    let metrics = run_session_resilient(
        Scheme::Ours,
        &SessionSetup {
            server: &server,
            user: eval[0],
            network: &network,
            phone: Phone::Pixel3,
            max_segments: None,
        },
        &FaultPlan::none(),
        &RetryPolicy::disabled(),
    );

    // 5. Report.
    let breakdown = metrics.energy_breakdown_mj();
    println!("\nsession over {} segments:", metrics.len());
    println!(
        "  energy      {:.1} J  (transmission {:.1} J, decode {:.1} J, render {:.1} J)",
        metrics.total_energy_mj() / 1000.0,
        breakdown.transmission_mj / 1000.0,
        breakdown.decode_mj / 1000.0,
        breakdown.render_mj / 1000.0,
    );
    println!(
        "  QoE         {:.1} (quality {:.1}, variation {:.2}, rebuffering {:.2})",
        metrics.mean_qoe(),
        metrics.mean_quality(),
        metrics.mean_variation(),
        metrics.mean_rebuffering(),
    );
    println!(
        "  stalls      {} events, {:.2} s total",
        metrics.stall_count(),
        metrics.total_stall_sec()
    );
    println!(
        "  decisions   mean quality level {:.2}, mean frame rate {:.1} fps",
        metrics.mean_quality_level(),
        metrics.mean_fps()
    );
}
