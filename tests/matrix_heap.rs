//! The paper matrix's live heap must grow with its workers, not with its
//! sessions.
//!
//! Figs. 9–11 report one mean per (video, scheme) cell, averaged over the
//! cell's evaluation users (Section V-A), so `run_matrix` reduces each
//! session to the values its cell averages as soon as the session
//! finishes. A sweep that instead kept every session's per-segment
//! records until the join would hold users × schemes × segments records
//! at once. This gate measures, behind the counting-allocator shim, the
//! most one worker holds: a one-worker matrix of the same two videos
//! with one evaluation user each, which runs its tasks one after
//! another. It then runs a two-worker matrix of those videos with
//! sixteen evaluation users each and asserts that its transient peak
//! stays within two such workers plus a small allowance per session —
//! a cell keeps a few numbers per user, while one session's records
//! take tens of kilobytes. The bound depends neither on how the workers
//! happen to share the tasks nor on how many of them overlap.
//!
//! Each evaluation runs its matrix once before measuring, so the
//! per-trace tables that first use fills (and keeps) are in place and
//! the measured peak is what a sweep holds while it runs.
//!
//! The allocator's peak is process-global, so this measurement lives in
//! its own test binary with a single test.

use ee360::abr::controller::Scheme;
use ee360::core::experiment::{Evaluation, ExperimentConfig};
use ee360::core::parallel::run_matrix;
use ee360::video::catalog::VideoCatalog;
use ee360_support::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Workers the measured matrix runs on.
const THREADS: usize = 2;

/// Segments per session: enough that a session's records dominate what
/// a cell keeps per user. Both measured videos are longer.
const SEGMENTS: usize = 270;

/// Evaluation users per video of the measured matrix.
const USERS: usize = 16;

/// Heap the measured matrix may keep per session beyond its workers'
/// live sessions: room for the few numbers a cell averages and the
/// vectors that carry them, well under one segment record per segment.
const PER_SESSION_BYTES: usize = 512;

/// A prepared evaluation with `eval_users` evaluation users per video.
fn evaluation(videos: &[usize], eval_users: usize) -> Evaluation {
    let mut config = ExperimentConfig::quick_test();
    config.users_total = config.train_users + eval_users;
    config.max_segments = Some(SEGMENTS);
    Evaluation::prepare_videos_threaded(config, &VideoCatalog::paper_default(), Some(videos), 1)
}

/// The transient heap peak of one warm matrix over `videos` on
/// `threads` workers: the high-water mark above what was live when it
/// started.
fn warm_matrix_peak(eval: &Evaluation, videos: &[usize], threads: usize) -> usize {
    let warm = run_matrix(eval, videos, &Scheme::ALL, threads);
    let baseline = ALLOC.reset_peak();
    let measured = run_matrix(eval, videos, &Scheme::ALL, threads);
    let peak = ALLOC.peak_bytes().saturating_sub(baseline);
    assert_eq!(measured, warm, "a warm matrix must repeat the first");
    peak
}

#[test]
fn matrix_peak_does_not_grow_with_users_or_videos() {
    let videos = [4usize, 5];
    let worker_peak = warm_matrix_peak(&evaluation(&videos, 1), &videos, 1);
    let peak = warm_matrix_peak(&evaluation(&videos, USERS), &videos, THREADS);
    let sessions = videos.len() * USERS * Scheme::ALL.len();
    let bound = THREADS * worker_peak + sessions * PER_SESSION_BYTES;
    assert!(
        peak <= bound,
        "a {sessions}-session matrix on {THREADS} workers peaked at {peak} B, above \
         {THREADS} × the {worker_peak} B one worker holds plus {PER_SESSION_BYTES} B per \
         session ({bound} B): the sweep keeps per-session state until its join"
    );
}
