//! Cross-crate consistency: the manifest the server advertises must agree
//! with the sizes the controllers plan against, and the startup metadata
//! phase must show up in the session metrics.

use ee360::abr::controller::Scheme;
use ee360::abr::sizer::SchemeSizer;
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
use ee360::video::ladder::{EncodingLadder, QualityLevel};
use ee360::video::manifest::{RepresentationKind, VideoManifest};
use ee360::video::segment::SegmentTimeline;
use ee360::video::size_model::SizeModel;

#[test]
fn manifest_ptile_sizes_match_the_sizer() {
    // The FoV part of the sizer's Ptile bits must equal the manifest's
    // Ptile representation for the same (area, quality, fps).
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(3).unwrap();
    let timeline = SegmentTimeline::for_video(spec);
    let area = 12.0 / 32.0;
    let areas = vec![vec![area]; timeline.len()];
    let model = SizeModel::paper_default();
    let ladder = EncodingLadder::paper_default();
    let manifest = VideoManifest::build(&timeline, &model, &ladder, &areas);
    let sizer = SchemeSizer::paper_default();

    for k in [0usize, 50, 200] {
        let seg = manifest.segment(k).unwrap();
        let content = timeline.segment(k).unwrap().si_ti;
        for q in QualityLevel::ALL {
            for fps in [21.0, 30.0] {
                let rep = seg
                    .find(q, fps, |kind| {
                        matches!(kind, RepresentationKind::Ptile { .. })
                    })
                    .expect("ptile representation exists");
                // Sizer total minus its background part = the Ptile alone.
                let with_bg = sizer.ptile_bits(q, fps, area, 3, content);
                let bg = model.region_bits(1.0 - area, 3, QualityLevel::Q1, 30.0, content);
                assert!(
                    (rep.bits - (with_bg - bg)).abs() < 1e-6,
                    "segment {k} {q:?}@{fps}: manifest {} vs sizer {}",
                    rep.bits,
                    with_bg - bg
                );
            }
        }
    }
}

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
