//! Watch the MPC controller make per-segment decisions — a narrated
//! streaming session.
//!
//! ```sh
//! cargo run --release --example live_session
//! ```
//!
//! Prints one line per segment: buffer state, bandwidth estimate, the
//! chosen (quality, frame-rate) tuple, whether a Ptile covered the
//! predicted viewport, and the resulting energy/QoE.

use ee360::abr::controller::Scheme;
use ee360::cluster::ptile::PtileConfig;
use ee360::core::client::{run_session_resilient, SessionSetup};
use ee360::core::server::VideoServer;
use ee360::geom::grid::TileGrid;
use ee360::power::model::{DecoderScheme, Phone};
use ee360::sim::resilience::RetryPolicy;
use ee360::trace::dataset::VideoTraces;
use ee360::trace::fault::FaultPlan;
use ee360::trace::head::GazeConfig;
use ee360::trace::network::NetworkTrace;
use ee360::video::catalog::VideoCatalog;

fn main() {
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(3).expect("video 3 exists");
    let traces = VideoTraces::generate(spec, 48, 11, GazeConfig::default());
    let (train, eval) = traces.split(40, 11);
    let server = VideoServer::prepare(
        spec,
        &train,
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    let network = NetworkTrace::paper_trace2(400, 11);
    let metrics = run_session_resilient(
        Scheme::Ours,
        &SessionSetup {
            server: &server,
            user: eval[0],
            network: &network,
            phone: Phone::Pixel3,
            max_segments: Some(40),
        },
        &FaultPlan::none(),
        &RetryPolicy::disabled(),
    );

    println!(
        "video {} ({}), user {}, Ours on Pixel 3 over trace 2\n",
        spec.id,
        spec.name,
        eval[0].user_id()
    );
    println!(
        "{:>3}  {:>6} {:>5} {:>9} {:>7} {:>7} {:>7} {:>8} {:>6}",
        "seg", "buffer", "q", "fps", "Ptile?", "dl [s]", "stall", "E [mJ]", "QoE"
    );
    for r in metrics.records() {
        println!(
            "{:>3}  {:>5.1}s {:>5} {:>8.0}fps {:>7} {:>7.2} {:>7.2} {:>8.0} {:>6.1}",
            r.index,
            r.timing.buffer_at_request_sec,
            r.quality_level,
            r.fps,
            if r.decode_scheme == DecoderScheme::Ptile {
                "yes"
            } else {
                "no"
            },
            r.timing.download_sec,
            r.timing.stall_sec,
            r.energy.total_mj(),
            r.qoe.total,
        );
    }
    println!(
        "\ntotals: {:.1} J, mean QoE {:.1}, {} stalls",
        metrics.total_energy_mj() / 1000.0,
        metrics.mean_qoe(),
        metrics.stall_count()
    );
}
