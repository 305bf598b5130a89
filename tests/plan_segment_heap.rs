//! Per-segment planning must not allocate, must not scale with the length
//! of the gaze trace, and must not grow with the number of segments
//! already planned.
//!
//! The client predicts each segment's viewport from the last 2 s of gaze
//! (Section IV-B). Converting the user's whole trace on every segment
//! costs 24 B per sample of transient heap — tens of kilobytes on the
//! catalog's longest video — and turns session cost into
//! O(segments × trace). This gate drives a `SessionRunner` over that
//! video behind the counting-allocator shim and asserts that each warm
//! `plan_segment` call's transient peak (the high-water mark above what
//! is still live once the call returns) is zero: the gaze window, the
//! predictor's series, the interval-speed percentile and the Ptile
//! lookup all run in storage the runner recycles or the server
//! precomputed, so a warm call allocates nothing it frees again. The
//! Ftile baseline's planning is held to the same budget: its tile
//! selection is a bit set over the segment's layout, not a list.
//!
//! The same session is then planned by the MPC controller ("Ours"),
//! whose solver must keep no per-segment state: the live heap that the
//! warm `plan_segment` calls leave behind, summed up to the last
//! segment, stays under a fixed bound, so a cache that grows every
//! segment fails here.
//!
//! Both again with a second session over the user planned in lockstep,
//! so every fit is stored into the trace's window-fit ring by one
//! session and read back by the other: neither path allocates.
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

/// Live heap all warm `plan_segment` calls of one session may retain
/// together. Recycled buffers settle during warm-up; a solver cache
/// that keeps even one 20-candidate set per segment retains ~200 KB
/// over the ~370 segments of this video.
const RETAINED_BUDGET_BYTES: usize = 4 * 1024;

/// What one session's warm `plan_segment` calls cost on the heap.
struct PlanHeap {
    /// The largest transient peak, with the segment that hit it.
    worst_transient: (usize, usize),
    /// Net live heap the calls left behind, summed over the session.
    retained: isize,
}

fn drive(scheme: Scheme, setup: &SessionSetup) -> PlanHeap {
    let mut controller = make_controller(scheme, setup.phone);
    let mut runner =
        SessionRunner::new(scheme, setup, &FaultPlan::none(), &RetryPolicy::disabled());
    let rec = &mut NoopRecorder;
    runner.start(rec);
    let mut heap = PlanHeap {
        worst_transient: (0, 0),
        retained: 0,
    };
    loop {
        let k = runner.segment_index();
        let live_before = ALLOC.live_bytes();
        ALLOC.reset_peak();
        let planned = runner.plan_segment(controller.as_mut(), rec);
        let live_after = ALLOC.live_bytes();
        let transient = ALLOC.peak_bytes().saturating_sub(live_after);
        if !planned {
            break;
        }
        if k >= WARM_SEGMENTS {
            if transient > heap.worst_transient.1 {
                heap.worst_transient = (k, transient);
            }
            heap.retained += live_after as isize - live_before as isize;
        }
        while runner.step_download(controller.as_mut(), rec).is_none() {}
    }
    let metrics = runner.finish(rec);
    assert_eq!(
        metrics.records().len(),
        setup.server.timeline().len(),
        "{scheme:?}: every segment booked"
    );
    if scheme == Scheme::Ours {
        let stats = controller.solver_stats().expect("mpc meters its solver");
        assert!(stats.plans > 0, "the session must exercise the MPC solver");
    }
    heap
}

/// Two sessions of `scheme` over one user, planned in lockstep: both are
/// live, so the trace has a window-fit ring, and the second plans each
/// segment from the same buffer and window as the first. The first's
/// plan fits the window and stores the fit (the miss path); the
/// second's reads it back (the hit path). Returns the largest warm
/// transient peak of each, with its segment.
fn drive_pair(scheme: Scheme, setup: &SessionSetup) -> [(usize, usize); 2] {
    let mut controllers = [
        make_controller(scheme, setup.phone),
        make_controller(scheme, setup.phone),
    ];
    let mut runners = [(); 2]
        .map(|_| SessionRunner::new(scheme, setup, &FaultPlan::none(), &RetryPolicy::disabled()));
    let rec = &mut NoopRecorder;
    for runner in &mut runners {
        runner.start(rec);
    }
    let mut worst = [(0, 0); 2];
    loop {
        let mut planned = false;
        for ((runner, controller), worst) in
            runners.iter_mut().zip(&mut controllers).zip(&mut worst)
        {
            let k = runner.segment_index();
            ALLOC.reset_peak();
            planned = runner.plan_segment(controller.as_mut(), rec);
            let transient = ALLOC.peak_bytes().saturating_sub(ALLOC.live_bytes());
            if planned && k >= WARM_SEGMENTS && transient > worst.1 {
                *worst = (k, transient);
            }
        }
        if !planned {
            return worst;
        }
        for (runner, controller) in runners.iter_mut().zip(&mut controllers) {
            while runner.step_download(controller.as_mut(), rec).is_none() {}
        }
    }
}

#[test]
fn plan_segment_transient_heap_is_bounded_by_the_window() {
    let catalog = VideoCatalog::paper_default();
    let spec = catalog
        .videos()
        .iter()
        .max_by_key(|v| v.duration_sec)
        .expect("catalog has videos");
    // Eleven training users give Ptile clusters of the paper's minimum
    // size, so the MPC session finds covering Ptiles and solves.
    let traces = VideoTraces::generate(spec, 12, 11, GazeConfig::default());
    let refs: Vec<&HeadTrace> = traces.traces().iter().collect();
    let server = VideoServer::prepare(
        spec,
        &refs[..11],
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    let network = NetworkTrace::paper_trace2(spec.segment_count() + 60, 5);
    let user = refs[11];
    let setup = SessionSetup {
        server: &server,
        user,
        network: &network,
        phone: Phone::Pixel3,
        max_segments: None,
    };

    for scheme in [Scheme::Ptile, Scheme::Ftile, Scheme::Ours] {
        let heap = drive(scheme, &setup);
        // Transient budget: none. A warm call allocates nothing it frees
        // again (a whole-trace conversion would be 24 B × thousands of
        // samples).
        let (segment, peak) = heap.worst_transient;
        assert_eq!(
            peak,
            0,
            "{scheme:?}: plan_segment for segment {segment} peaked {peak} B above its \
             retained heap (budget 0 B; the user's trace holds {} samples)",
            user.len()
        );
        assert!(
            heap.retained <= RETAINED_BUDGET_BYTES as isize,
            "{scheme:?}: warm plan_segment calls retained {} B of live heap over {} \
             segments (budget {RETAINED_BUDGET_BYTES} B)",
            heap.retained,
            spec.segment_count()
        );
        // The shared-fit paths: storing into the ring and reading from
        // it allocate nothing either.
        let [(miss_segment, miss), (hit_segment, hit)] = drive_pair(scheme, &setup);
        assert_eq!(
            (miss, hit),
            (0, 0),
            "{scheme:?}: with a window-fit ring, plan_segment peaked {miss} B (segment \
             {miss_segment}) when storing fits and {hit} B (segment {hit_segment}) when \
             reading them (budget 0 B)"
        );
    }
}
