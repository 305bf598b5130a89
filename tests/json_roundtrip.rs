//! JSON round-trip coverage for the persisted/serializable types.
//!
//! Every type that used to derive `Serialize`/`Deserialize` now goes
//! through `ee360_support::json`; this file round-trips a representative
//! instance of each public type through text and back and demands exact
//! equality. The serializer uses shortest-round-trip float formatting, so
//! equality is exact — no tolerance needed — and non-finite floats must
//! be rejected rather than silently written as `null`.

use std::fmt::Debug;

use ee360::abr::controller::{Controller, Scheme};
use ee360::abr::mpc::{MpcConfig, MpcController};
use ee360::abr::plan::SegmentContext;
use ee360::abr::sizer::SchemeSizer;
use ee360::cluster::algorithm1::ClusteringParams;
use ee360::cluster::ftile::FtileLayout;
use ee360::cluster::ptile::{build_ptiles, PtileConfig};
use ee360::core::client::{run_session_resilient, SessionSetup};
use ee360::core::experiment::ExperimentConfig;
use ee360::core::server::VideoServer;
use ee360::geom::grid::{TileGrid, TileId};
use ee360::geom::region::TileRegion;
use ee360::geom::switching::SwitchingSample;
use ee360::geom::viewport::{ViewCenter, Viewport};
use ee360::power::battery::Battery;
use ee360::power::model::{DecoderScheme, LinearPower, Phone, PowerModel};
use ee360::predict::forecast::ArForecaster;
use ee360::predict::viewport::ViewportPredictor;
use ee360::qoe::fit::QoFitter;
use ee360::qoe::impairment::{QoeWeights, SegmentQoe};
use ee360::qoe::mos::Mos;
use ee360::qoe::quality::{QoModel, TABLE2_COEFFICIENTS};
use ee360::sim::buffer::PlaybackBuffer;
use ee360::sim::decoder::DecoderPipeline;
use ee360::sim::resilience::RetryPolicy;
use ee360::trace::dataset::{Dataset, VideoTraces};
use ee360::trace::fault::FaultPlan;
use ee360::trace::head::{GazeConfig, HeadTrace, HeadTraceGenerator};
use ee360::trace::network::{LteProfile, NetworkTrace};
use ee360::video::catalog::{BehaviorProfile, VideoCatalog};
use ee360::video::content::SiTi;
use ee360::video::ladder::{EncodingLadder, FrameRate, QualityLevel};
use ee360::video::size_model::SizeModel;
use ee360_support::json::{from_str, to_string, FromJson, JsonError, ToJson};

/// Round-trips a value through JSON text and demands exact equality.
fn rt<T: ToJson + FromJson + PartialEq + Debug>(value: &T) {
    let text = to_string(value).expect("serializes");
    let back: T = from_str(&text).expect("parses back");
    assert_eq!(&back, value, "round trip of {text}");
    // Serialization is deterministic: text → value → text is a fixed point.
    assert_eq!(to_string(&back).unwrap(), text);
}

#[test]
fn geom_types_roundtrip() {
    rt(&ViewCenter::new(123.456, -67.89));
    rt(&Viewport::paper_fov(ViewCenter::new(-179.5, 41.0)));
    rt(&TileId { row: 3, col: 7 });
    rt(&TileGrid::paper_default());
    rt(&TileRegion::new(&TileGrid::paper_default(), 1, 3, 6, 4));
    rt(&SwitchingSample::new(1.25, ViewCenter::new(0.1, 0.2)));
}

#[test]
fn video_types_roundtrip() {
    rt(&SiTi::new(55.5, 23.25));
    rt(&QualityLevel::Q3);
    rt(&FrameRate::new(24.0));
    rt(&EncodingLadder::paper_default());
    rt(&SizeModel::paper_default());
    rt(&BehaviorProfile::Exploratory);
    let catalog = VideoCatalog::paper_default();
    rt(&catalog);
    rt(catalog.video(2).unwrap());
}

#[test]
fn trace_types_roundtrip() {
    rt(&GazeConfig::default());
    rt(&LteProfile::paper_trace2());
    rt(&NetworkTrace::paper_trace1(100, 11));
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(3).unwrap();
    rt(&HeadTraceGenerator::new(GazeConfig::default()).generate(spec, 2, 5));
    rt(&Dataset::generate(&catalog, 3, 13));
}

#[test]
fn head_trace_with_filled_view_table_roundtrips() {
    // The per-segment view table is a cache: filling it changes neither
    // the JSON text nor equality, and the decoded trace (empty table)
    // refills to the same counts.
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(4).unwrap();
    let gen = HeadTraceGenerator::new(GazeConfig::default());
    let filled = gen.generate(spec, 1, 8);
    let grid = TileGrid::paper_default();
    let segments: Vec<usize> = (0..)
        .take_while(|&k| filled.segment_center(k).is_some())
        .collect();
    for &k in segments.iter().step_by(3) {
        assert!(filled.segment_view_counts(k, &grid).is_some());
    }
    rt(&filled);
    let text = to_string(&filled).unwrap();
    assert_eq!(text, to_string(&gen.generate(spec, 1, 8)).unwrap());
    let back: HeadTrace = from_str(&text).unwrap();
    assert_eq!(back, filled);
    for &k in &segments {
        assert_eq!(
            back.segment_view_counts(k, &grid),
            filled.segment_view_counts(k, &grid),
            "segment {k}"
        );
    }
}

#[test]
fn power_types_roundtrip() {
    rt(&Phone::GalaxyS20);
    rt(&DecoderScheme::Nontile);
    rt(&LinearPower::new(140.73, 5.96));
    for phone in Phone::ALL {
        rt(&PowerModel::for_phone(phone));
    }
    rt(&Battery::for_phone(Phone::Pixel3));
}

#[test]
fn qoe_types_roundtrip() {
    rt(&QoeWeights::paper_default());
    rt(&SegmentQoe::evaluate(
        QoeWeights::paper_default(),
        80.0,
        Some(70.0),
        2.0,
        1.0,
    ));
    rt(&Mos::new(3.5));
    rt(&TABLE2_COEFFICIENTS);
    rt(&QoModel::paper_default());
    let fitter = QoFitter::new(5);
    rt(&fitter.generate_samples());
    rt(&fitter.run().expect("fit converges"));
}

#[test]
fn predict_types_roundtrip() {
    let mut forecaster = ArForecaster::paper_default();
    for v in [3.0e6, 3.5e6, 2.75e6] {
        forecaster.observe(v);
    }
    rt(&forecaster);
    rt(&ViewportPredictor::paper_default());
}

#[test]
fn cluster_types_roundtrip() {
    rt(&ClusteringParams::paper_default());
    rt(&PtileConfig::paper_default());
    let centers: Vec<ViewCenter> = (0..20)
        .map(|i| ViewCenter::new(f64::from(i) * 15.0 - 150.0, f64::from(i % 5) * 8.0 - 16.0))
        .collect();
    rt(&build_ptiles(
        &centers,
        &TileGrid::paper_default(),
        &PtileConfig::paper_default(),
    ));
    rt(&FtileLayout::build(&centers));
}

#[test]
fn abr_types_roundtrip() {
    rt(&Scheme::Ours);
    rt(&MpcConfig::paper_default());
    rt(&SchemeSizer::paper_default());
    let ctx = SegmentContext {
        index: 4,
        upcoming: vec![SiTi::new(55.0, 20.0), SiTi::new(60.0, 25.0)],
        predicted_bandwidth_bps: 3.9e6,
        buffer_sec: 2.5,
        switching_speed_deg_s: 9.0,
        ptile_available: true,
        ptile_area_frac: 12.0 / 32.0,
        background_blocks: 3,
        ftile_fov_area: 0.0,
        ftile_fov_tiles: 0,
    };
    rt(&ctx);
    let mut cfg = MpcConfig::paper_default();
    cfg.horizon = 2;
    rt(&MpcController::new(cfg).plan(&ctx));
}

#[test]
fn sim_types_roundtrip() {
    rt(&PlaybackBuffer::paper_default());
    rt(&DecoderPipeline::paper_default());
}

/// A full session's metrics — covering `SessionMetrics`, `SegmentRecord`,
/// `StartupRecord`, `SegmentTiming`, `SegmentEnergy`, and `SegmentQoe` as
/// actually produced by the simulator.
#[test]
fn session_metrics_roundtrip() {
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(6).unwrap();
    let traces = VideoTraces::generate(spec, 8, 3, GazeConfig::default());
    let refs: Vec<_> = traces.traces().iter().collect();
    let server = VideoServer::prepare(
        spec,
        &refs[..6],
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    let network = NetworkTrace::paper_trace2(200, 3);
    let user = traces.traces().last().unwrap();
    let setup = SessionSetup {
        server: &server,
        user,
        network: &network,
        phone: Phone::Pixel3,
        max_segments: Some(25),
    };
    rt(&run_session_resilient(
        Scheme::Ours,
        &setup,
        &FaultPlan::none(),
        &RetryPolicy::disabled(),
    ));
}

#[test]
fn experiment_config_roundtrip() {
    rt(&ExperimentConfig::paper_trace1());
    rt(&ExperimentConfig::quick_test());
}

// ------------------------------------------------- non-finite rejection

/// NaN and the infinities have no JSON encoding; serialization must fail
/// loudly instead of writing `null`.
#[test]
fn non_finite_floats_are_rejected_on_serialize() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(
            matches!(to_string(&bad), Err(JsonError::NonFinite)),
            "{bad} must be rejected"
        );
        // Nested inside a struct too.
        let v = ViewCenter::new(bad, 0.0);
        assert!(matches!(to_string(&v), Err(JsonError::NonFinite)));
    }
}

/// `NaN`/`Infinity` literals and overflowing exponents are parse errors.
#[test]
fn non_finite_literals_are_rejected_on_parse() {
    assert!(from_str::<f64>("NaN").is_err());
    assert!(from_str::<f64>("Infinity").is_err());
    assert!(from_str::<f64>("-Infinity").is_err());
    assert!(from_str::<f64>("1e400").is_err());
}

// --------------------------------------------------- float fidelity

/// Shortest-round-trip formatting is exact for awkward values: decimal
/// fractions, subnormals, extremes of the exponent range, and negative
/// zero (whose sign must survive).
#[test]
fn float_round_trip_fidelity() {
    let awkward = [
        0.1,
        1.0 / 3.0,
        2f64.powi(-1074), // smallest subnormal
        f64::MIN_POSITIVE,
        f64::MAX,
        -f64::MAX,
        1e-308,
        123_456_789.123_456_78,
        1.0000000000000002, // 1 + ulp
    ];
    for v in awkward {
        let text = to_string(&v).unwrap();
        let back: f64 = from_str(&text).unwrap();
        assert_eq!(back.to_bits(), v.to_bits(), "{v:e} via {text}");
    }
    // −0.0 keeps its sign bit.
    let text = to_string(&(-0.0f64)).unwrap();
    let back: f64 = from_str(&text).unwrap();
    assert!(back.is_sign_negative(), "-0.0 round-tripped as {back}");
}
