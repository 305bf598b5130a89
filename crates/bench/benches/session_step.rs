//! Bench: end-to-end session throughput.
//!
//! How fast the simulator chews through segments — this bounds the cost of
//! the full Figs. 9–11 sweeps (8 videos × 5 schemes × 2 traces × 8 users) —
//! and what the per-segment Ptile lookup costs on its own.

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
    let network = NetworkTrace::paper_trace2(400, 7);

    let mut bench = bench_harness();

    // One server built from the paper's 40 training users (two Ptiles per
    // segment on average), watched by a 41st user. The per-segment Ptile
    // lookup is the first Ptile whose region holds the predicted
    // viewport's FoV block; looked up at that user's segment centres,
    // each finds one.
    let population = VideoTraces::generate(spec, 41, 7, GazeConfig::default());
    let members: Vec<_> = population.traces().iter().collect();
    let ptile_server = VideoServer::prepare(
        spec,
        &members[..40],
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    let centers: Vec<_> = (0..ptile_server.segment_count())
        .map_while(|k| members[40].segment_center(k))
        .collect();
    let mut k = 0usize;
    bench.run("server/covering_ptile", || {
        k = (k + 1) % centers.len();
        ptile_server
            .covering_ptile(black_box(k), centers[k])
            .map(|(_, area, bg)| (area, bg))
    });

    // Whole sessions of the 41st user on that server, so the Ptile and
    // Ours rows time Ptile sessions rather than the conventional-tile
    // fallback a server without Ptiles would leave them.
    for scheme in Scheme::ALL {
        let setup = SessionSetup {
            server: &ptile_server,
            user: members[40],
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
