//! Bench: end-to-end session throughput.
//!
//! How fast the simulator chews through segments — this bounds the cost of
//! the full Figs. 9–11 sweeps (8 videos × 5 schemes × 2 traces × 8 users).

use std::hint::black_box;

use ee360_abr::controller::Scheme;
use ee360_bench::bench_harness;
use ee360_cluster::ptile::PtileConfig;
use ee360_core::client::{run_session_resilient, SessionSetup};
use ee360_core::server::VideoServer;
use ee360_geom::grid::TileGrid;
use ee360_power::model::Phone;
use ee360_sim::resilience::RetryPolicy;
use ee360_trace::dataset::VideoTraces;
use ee360_trace::fault::FaultPlan;
use ee360_trace::head::GazeConfig;
use ee360_trace::network::NetworkTrace;
use ee360_video::catalog::VideoCatalog;

fn main() {
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(6).unwrap(); // shortest video, 164 segments
    let traces = VideoTraces::generate(spec, 12, 7, GazeConfig::default());
    let refs: Vec<_> = traces.traces().iter().collect();
    let server = VideoServer::prepare(
        spec,
        &refs[..10],
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    let network = NetworkTrace::paper_trace2(400, 7);
    let user = traces.traces().last().unwrap();

    let mut bench = bench_harness();
    for scheme in Scheme::ALL {
        let setup = SessionSetup {
            server: &server,
            user,
            network: &network,
            phone: Phone::Pixel3,
            max_segments: Some(60),
        };
        bench.run(&format!("session_60seg/run/{}", scheme.label()), || {
            run_session_resilient(
                black_box(scheme),
                &setup,
                &FaultPlan::none(),
                &RetryPolicy::disabled(),
            )
        });
    }
    bench.print_table();
}
