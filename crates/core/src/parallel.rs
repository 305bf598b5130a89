//! Parallel sweeps over (video, scheme) cells.
//!
//! The full Figs. 9–11 matrix is 8 videos × 5 schemes × 2 traces × 8
//! users; every *session* in it is independent, so the sweep is
//! flattened to (video, user) work items and load-balanced over a scoped
//! thread pool — a straggler cell (a long video or an expensive scheme)
//! no longer serialises its whole column behind one worker, which is
//! what kept the cell-granular sweep flat. A work item runs one user's
//! sessions under every scheme back to back, holding the trace's
//! interval-speed table ([`ee360_trace::derived::IntervalSpeeds`]) so
//! they share it: the one non-session user of a trace's derived state.
//! Each session is reduced to its cell's per-session values the moment
//! it finishes, so a worker holds one session's segment records at a
//! time and the sweep's live heap grows with its workers, not with
//! sessions × segments. The reductions are regrouped and folded in
//! deterministic (video, scheme) order regardless of the execution
//! schedule.

use ee360_abr::controller::Scheme;
use ee360_support::parallel::parallel_map_indexed;
use ee360_trace::derived::IntervalSpeeds;

use crate::experiment::{Evaluation, SchemeOutcome, SessionMeans};

/// Runs every (video, scheme) cell of the matrix across `threads` workers,
/// partitioning the work at (video, user) granularity.
///
/// Each task holds the user's interval-speed table while it runs that
/// user's session under every scheme in `schemes` order, so the Eq. 5
/// speeds are computed once per user rather than once per session. The
/// table is freed when the task ends. A task returns each scheme's
/// session already reduced to the values its cell averages; the segment
/// records are dropped on the worker, so at most one session's records
/// per worker are live at any time.
///
/// Returns outcomes sorted by `(video, scheme-order)`, identical to what a
/// sequential double loop would produce: each cell folds its sessions'
/// values in user order, as [`Evaluation::run`] does.
///
/// # Panics
///
/// Panics if `threads` is zero, any video was not prepared in the
/// [`Evaluation`], or a worker thread panics.
pub fn run_matrix(
    eval: &Evaluation,
    videos: &[usize],
    schemes: &[Scheme],
    threads: usize,
) -> Vec<SchemeOutcome> {
    assert!(threads > 0, "need at least one worker thread");
    // Flatten to user-granular tasks: (video, user), video-major.
    let tasks: Vec<(usize, usize)> = videos
        .iter()
        .flat_map(|&video| (0..eval.eval_users(video).len()).map(move |user| (video, user)))
        .collect();
    let sessions: Vec<Vec<SessionMeans>> = parallel_map_indexed(threads, tasks.len(), |idx| {
        let (video, user) = tasks[idx];
        let _table = IntervalSpeeds::new(&eval.eval_users(video)[user]);
        schemes
            .iter()
            .map(|&scheme| SessionMeans::of(&eval.run_user(video, scheme, user)))
            .collect()
    });
    // Regroup into cells: each video owns a contiguous run of `users`
    // tasks, and each task holds its sessions in scheme order.
    let mut outcomes = Vec::with_capacity(videos.len() * schemes.len());
    let mut tasks = sessions.into_iter();
    for &video in videos {
        let users = eval.eval_users(video).len();
        let mut cells: Vec<Vec<SessionMeans>> =
            schemes.iter().map(|_| Vec::with_capacity(users)).collect();
        for task in tasks.by_ref().take(users) {
            for (cell, session) in cells.iter_mut().zip(task) {
                cell.push(session);
            }
        }
        for (&scheme, cell) in schemes.iter().zip(&cells) {
            outcomes.push(SchemeOutcome::from_means(scheme, video, cell));
        }
    }
    outcomes
}

/// A reasonable worker count for the current machine (logical cores,
/// capped at the cell count typical for a full sweep).
pub fn default_threads() -> usize {
    ee360_support::parallel::default_threads()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use ee360_video::catalog::VideoCatalog;

    fn eval() -> Evaluation {
        let mut config = ExperimentConfig::quick_test();
        config.max_segments = Some(30);
        Evaluation::prepare_videos(config, &VideoCatalog::paper_default(), Some(&[2, 6]))
    }

    #[test]
    fn parallel_matches_sequential() {
        let eval = eval();
        let videos = [2usize, 6];
        let schemes = [Scheme::Ctile, Scheme::Ptile, Scheme::Ours];
        let parallel = run_matrix(&eval, &videos, &schemes, 4);
        let sequential: Vec<_> = videos
            .iter()
            .flat_map(|v| schemes.iter().map(|s| eval.run(*v, *s)))
            .collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn single_thread_works() {
        let eval = eval();
        let out = run_matrix(&eval, &[2], &[Scheme::Ftile], 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].scheme, Scheme::Ftile);
    }

    #[test]
    fn more_threads_than_cells_is_fine() {
        let eval = eval();
        let out = run_matrix(&eval, &[2], &[Scheme::Ctile, Scheme::Nontile], 16);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn ordering_is_video_major() {
        let eval = eval();
        let out = run_matrix(&eval, &[2, 6], &[Scheme::Ctile, Scheme::Ours], 3);
        let pairs: Vec<(usize, Scheme)> = out.iter().map(|o| (o.video_id, o.scheme)).collect();
        assert_eq!(
            pairs,
            vec![
                (2, Scheme::Ctile),
                (2, Scheme::Ours),
                (6, Scheme::Ctile),
                (6, Scheme::Ours)
            ]
        );
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "worker thread")]
    fn zero_threads_panics() {
        let eval = eval();
        let _ = run_matrix(&eval, &[2], &[Scheme::Ctile], 0);
    }
}
