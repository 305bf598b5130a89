//! Std-only scoped worker pool with one shared claim counter.
//!
//! Replaces the `crossbeam`/`parking_lot` pair with `std::thread::scope`
//! and one `AtomicUsize`. Each worker claims the next unclaimed index
//! with a `fetch_add` until the counter passes `n`, keeps its
//! `(index, value)` pairs, and the caller puts them back in index order
//! after the join — so output order never depends on the schedule and
//! the byte-identical replay guarantee holds at any worker count.
//!
//! Why not work stealing: every caller maps over tens of items (videos
//! to prepare, (video, user) matrix tasks, fleet shards), each costing
//! a millisecond or more. One claim per item is one uncontended atomic
//! add against that, and a worker that draws a long item simply claims
//! fewer, which is all the balancing such short maps need.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Computes `f(0), f(1), …, f(n - 1)` on `threads` workers and returns
/// the results in index order.
///
/// Workers claim indices one at a time from a shared counter, so a slow
/// item never holds up the others behind it. With `threads == 1` this
/// is a plain sequential loop (no thread spawn, no atomics).
///
/// # Panics
///
/// Panics if `threads` is zero or any invocation of `f` panics (the
/// panic is propagated once all workers have stopped).
// lint:allow(hot-path-alloc, "per-call setup: each worker's result vector and the merged output are amortised over the n-item map they carry")
pub fn parallel_map_indexed<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    if threads == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            // Relaxed suffices: the counter only hands out distinct
            // indices, and the join below orders every result write
            // before the caller reads it.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut pairs: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(n)).map(|_| scope.spawn(claim)).collect();
        let mut pairs = Vec::with_capacity(n);
        for worker in workers {
            match worker.join() {
                Ok(done) => pairs.extend(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        pairs
    });
    // Every index in `0..n` was claimed exactly once, so sorting by it
    // restores index order.
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, value)| value).collect()
}

/// A reasonable worker count for this machine: the logical core count,
/// clamped to `[1, 16]`.
pub fn default_threads() -> usize {
    hardware_threads().clamp(1, 16)
}

/// The unclamped logical core count (`available_parallelism`), for
/// reporting actual hardware alongside the clamped pool size.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map() {
        let parallel = parallel_map_indexed(4, 100, |i| i * i);
        let sequential: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn single_thread_and_empty_work() {
        assert_eq!(parallel_map_indexed(1, 5, |i| i), vec![0, 1, 2, 3, 4]);
        assert_eq!(parallel_map_indexed(8, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(parallel_map_indexed(16, 3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn uneven_work_still_completes() {
        let out = parallel_map_indexed(4, 32, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn stealing_balances_a_skewed_front_load() {
        // All the heavy work sits at the front of the index range; the
        // other workers claim past it. Correctness (the actual
        // assertion): results stay in index order regardless of who
        // computed what.
        let out = parallel_map_indexed(4, 64, |i| {
            if i < 16 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            i * 3
        });
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn stress_uneven_sizes_across_thread_counts() {
        // The satellite stress shape: pathologically uneven task sizes
        // (one task ~100x the median, long tail of trivial ones), run
        // at 1/4/16 workers. Result order must be deterministic and
        // identical across every thread count.
        let work = |i: usize| {
            let spin = match i % 37 {
                0 => 20_000,
                k if k % 5 == 0 => 1_000,
                _ => 10,
            };
            let mut acc = i as u64;
            for _ in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        };
        let reference: Vec<(usize, u64)> = (0..512).map(work).collect();
        for threads in [1, 4, 16] {
            let out = parallel_map_indexed(threads, 512, work);
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "worker thread")]
    fn zero_threads_panics() {
        let _ = parallel_map_indexed(0, 4, |i| i);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_indexed(4, 16, |i| {
                assert!(i != 9, "boom at {i}");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn default_threads_positive() {
        assert!((1..=16).contains(&default_threads()));
        assert!(hardware_threads() >= 1);
    }
}
