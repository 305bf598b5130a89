//! Per-segment planning must not scale with the length of the gaze trace.
//!
//! The client predicts each segment's viewport from the last 2 s of gaze
//! (Section IV-B). Converting the user's whole trace on every segment
//! costs 24 B per sample of transient heap — tens of kilobytes on the
//! catalog's longest video — and turns session cost into
//! O(segments × trace). This gate drives a `SessionRunner` over that
//! video behind the counting-allocator shim and asserts that each warm
//! `plan_segment` call's transient peak (the high-water mark above what
//! is still live once the call returns) stays under a small fixed bound.
//!
//! The allocator's peak is process-global, so this measurement lives in
//! its own test binary with a single test.

use ee360::abr::controller::Scheme;
use ee360::cluster::ptile::PtileConfig;
use ee360::core::client::{make_controller, SessionRunner, SessionSetup};
use ee360::core::server::VideoServer;
use ee360::geom::grid::TileGrid;
use ee360::obs::NoopRecorder;
use ee360::power::model::Phone;
use ee360::sim::resilience::RetryPolicy;
use ee360::trace::dataset::VideoTraces;
use ee360::trace::fault::FaultPlan;
use ee360::trace::head::{GazeConfig, HeadTrace};
use ee360::trace::network::NetworkTrace;
use ee360::video::catalog::VideoCatalog;
use ee360_support::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Segments planned before measuring, so the runner's recycled buffers
/// and the controller's scratch have reached their steady capacity.
const WARM_SEGMENTS: usize = 4;

/// Transient heap one warm `plan_segment` may use. A 2 s window at the
/// catalog's 10 Hz gaze rate is ~21 samples (~500 B); a whole-trace
/// conversion is 24 B × thousands of samples.
const TRANSIENT_BUDGET_BYTES: usize = 4 * 1024;

#[test]
fn plan_segment_transient_heap_is_bounded_by_the_window() {
    let catalog = VideoCatalog::paper_default();
    let spec = catalog
        .videos()
        .iter()
        .max_by_key(|v| v.duration_sec)
        .expect("catalog has videos");
    let traces = VideoTraces::generate(spec, 4, 11, GazeConfig::default());
    let refs: Vec<&HeadTrace> = traces.traces().iter().collect();
    let server = VideoServer::prepare(
        spec,
        &refs[..3],
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    let network = NetworkTrace::paper_trace2(spec.segment_count() + 60, 5);
    let user = refs[3];
    let setup = SessionSetup {
        server: &server,
        user,
        network: &network,
        phone: Phone::Pixel3,
        max_segments: None,
    };
    let mut controller = make_controller(Scheme::Ptile, setup.phone);
    let mut runner = SessionRunner::new(
        Scheme::Ptile,
        &setup,
        &FaultPlan::none(),
        &RetryPolicy::disabled(),
    );
    let rec = &mut NoopRecorder;
    runner.start(rec);
    let mut worst = (0usize, 0usize);
    loop {
        let k = runner.segment_index();
        ALLOC.reset_peak();
        let planned = runner.plan_segment(controller.as_mut(), rec);
        let transient = ALLOC.peak_bytes().saturating_sub(ALLOC.live_bytes());
        if !planned {
            break;
        }
        if k >= WARM_SEGMENTS && transient > worst.1 {
            worst = (k, transient);
        }
        while runner.step_download(controller.as_mut(), rec).is_none() {}
    }
    let metrics = runner.finish(rec);
    assert_eq!(
        metrics.records().len(),
        spec.segment_count(),
        "every segment booked"
    );
    let (segment, peak) = worst;
    assert!(
        peak <= TRANSIENT_BUDGET_BYTES,
        "plan_segment for segment {segment} peaked {peak} B above its retained heap \
         (budget {TRANSIENT_BUDGET_BYTES} B; the user's trace holds {} samples)",
        user.len()
    );
}
