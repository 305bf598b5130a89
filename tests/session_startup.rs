//! The startup metadata phase (Section IV-C) must show up in the session
//! metrics and stay a small share of session energy.

use ee360::abr::controller::Scheme;
use ee360::cluster::ptile::PtileConfig;
use ee360::core::client::{run_session_resilient, SessionSetup};
use ee360::core::server::VideoServer;
use ee360::geom::grid::TileGrid;
use ee360::power::model::Phone;
use ee360::sim::resilience::RetryPolicy;
use ee360::trace::dataset::VideoTraces;
use ee360::trace::fault::FaultPlan;
use ee360::trace::head::{GazeConfig, HeadTrace};
use ee360::trace::network::NetworkTrace;
use ee360::video::catalog::VideoCatalog;

#[test]
fn sessions_record_the_startup_phase() {
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(6).unwrap();
    let traces = VideoTraces::generate(spec, 10, 3, GazeConfig::default());
    let refs: Vec<&HeadTrace> = traces.traces().iter().collect();
    let server = VideoServer::prepare(
        spec,
        &refs[..8],
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    let network = NetworkTrace::paper_trace2(300, 3);
    let m = run_session_resilient(
        Scheme::Ours,
        &SessionSetup {
            server: &server,
            user: refs[9],
            network: &network,
            phone: Phone::Pixel3,
            max_segments: Some(20),
        },
        &FaultPlan::none(),
        &RetryPolicy::disabled(),
    );
    let startup = m.startup().expect("startup phase recorded");
    assert!(startup.duration_sec > 0.0);
    assert!(startup.energy_mj > 0.0);
    // Startup delay covers metadata plus the first download.
    assert!(m.startup_delay_sec() > startup.duration_sec);
    // The startup radio energy is part of the breakdown.
    let breakdown = m.energy_breakdown_mj();
    assert!((breakdown.total_mj() - m.total_energy_mj()).abs() < 1e-6);
}

#[test]
fn startup_metadata_is_cheap_relative_to_media() {
    // Sanity: the metadata fetch must be a tiny fraction of session energy
    // (otherwise the model would distort Figs. 9/10).
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(2).unwrap();
    let traces = VideoTraces::generate(spec, 10, 5, GazeConfig::default());
    let refs: Vec<&HeadTrace> = traces.traces().iter().collect();
    let server = VideoServer::prepare(
        spec,
        &refs[..8],
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    let network = NetworkTrace::paper_trace2(300, 5);
    let m = run_session_resilient(
        Scheme::Ctile,
        &SessionSetup {
            server: &server,
            user: refs[9],
            network: &network,
            phone: Phone::Pixel3,
            max_segments: Some(60),
        },
        &FaultPlan::none(),
        &RetryPolicy::disabled(),
    );
    let startup_energy = m.startup().unwrap().energy_mj;
    assert!(
        startup_energy < 0.01 * m.total_energy_mj(),
        "startup {} vs total {}",
        startup_energy,
        m.total_energy_mj()
    );
}
