//! The per-segment view table against the uncached reference.
//!
//! Booking reads each segment's realised-viewport sample counts from
//! `HeadTrace::segment_view_counts` and sums them with
//! `coverage_from_counts`. These tests pin that path to
//! `projection::pixel_coverage` bit for bit, for the three region shapes
//! booking measures: a Ptile region, the robust controller's widened
//! union, and the conventional FoV block around the predicted centre.
//! They also pin the fallback cases (a segment past the last recorded
//! centre, a non-paper grid) and concurrent fills of one trace.

use std::sync::Barrier;

use ee360::geom::grid::TileGrid;
use ee360::geom::projection::{coverage_from_counts, pixel_coverage, tile_pixel_weights};
use ee360::geom::region::TileRegion;
use ee360::geom::viewport::{ViewCenter, Viewport};
use ee360::trace::head::{GazeConfig, HeadTrace, HeadTraceGenerator, VIEW_FOV_DEG, VIEW_SAMPLES};
use ee360::video::catalog::VideoCatalog;
use ee360_support::{prop_assert, prop_assert_eq, proptest};

fn trace(video: usize, user: usize, seed: u64) -> HeadTrace {
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(video).expect("catalog video");
    HeadTraceGenerator::new(GazeConfig::default()).generate(spec, user, seed)
}

/// Coverage as booking computes it: the table when it has the segment,
/// otherwise a fresh sampling pass over `actual`.
fn booked(
    user: &HeadTrace,
    k: usize,
    region: &TileRegion,
    grid: &TileGrid,
    actual: &Viewport,
) -> f64 {
    match user.segment_view_counts(k, grid) {
        Some(counts) => coverage_from_counts(counts, region, grid, VIEW_SAMPLES),
        None => pixel_coverage(actual, region, grid, VIEW_SAMPLES),
    }
}

proptest! {
    #[test]
    fn table_coverage_matches_pixel_coverage_bit_for_bit(
        (video, user, seed) in (1usize..9, 0usize..48, 0u64..1_000),
        k_past_end in 0usize..400,
        (row_min, rows, col_start, col_span) in (0usize..4, 1usize..5, 0usize..8, 1usize..9),
        (pred_yaw, pred_pitch, widen) in (-180.0f64..180.0, -85.0f64..85.0, 0.0f64..60.0),
    ) {
        let user = trace(video, user, seed);
        let grid = TileGrid::paper_default();
        let row_max = (row_min + rows - 1).min(grid.rows() - 1);
        let ptile = TileRegion::new(&grid, row_min, row_max, col_start, col_span);
        let predicted = ViewCenter::new(pred_yaw, pred_pitch);
        let widened = Viewport::new(
            predicted,
            (VIEW_FOV_DEG + 2.0 * widen).min(360.0),
            (VIEW_FOV_DEG + 2.0 * widen).min(180.0),
        );
        let union = TileRegion::from_tiles(&grid, ptile.tiles().chain(grid.fov_block_tiles(&widened)))
            .expect("non-empty union");
        let conventional = TileRegion::from_tiles(
            &grid,
            grid.fov_block_tiles(&Viewport::new(predicted, VIEW_FOV_DEG, VIEW_FOV_DEG)),
        )
        .expect("non-empty FoV block");
        let regions = [ptile, union, conventional];

        // Every segment with a recorded centre books from the table; the
        // last probe lies past the trace and takes the fallback.
        let segments = (0..).take_while(|&k| user.segment_center(k).is_some()).count();
        prop_assert!(segments > 0);
        let picks = [0, segments / 2, segments - 1, segments + k_past_end];
        for k in picks {
            let center = user.segment_center(k);
            prop_assert_eq!(user.segment_view_counts(k, &grid).is_some(), center.is_some());
            let actual = Viewport::new(center.unwrap_or(predicted), VIEW_FOV_DEG, VIEW_FOV_DEG);
            for region in &regions {
                let reference = pixel_coverage(&actual, region, &grid, VIEW_SAMPLES);
                // Twice: the first call may fill the slot, the second reads it.
                for _ in 0..2 {
                    let got = booked(&user, k, region, &grid, &actual);
                    prop_assert!(
                        got.to_bits() == reference.to_bits(),
                        "segment {k} {region:?}: {got} != {reference}"
                    );
                }
            }
        }

        // A grid other than the table's never reads the table.
        let fine = TileGrid::ftile_blocks();
        prop_assert!(user.segment_view_counts(0, &fine).is_none());
        let actual = Viewport::new(user.segment_center(0).expect("segment 0"), VIEW_FOV_DEG, VIEW_FOV_DEG);
        let fine_region = TileRegion::new(&fine, 3, 9, (col_start * 4) % fine.cols(), col_span * 3);
        prop_assert_eq!(
            booked(&user, 0, &fine_region, &fine, &actual).to_bits(),
            pixel_coverage(&actual, &fine_region, &fine, VIEW_SAMPLES).to_bits()
        );
    }
}

#[test]
fn table_counts_are_the_pixel_weights() {
    let user = trace(5, 3, 17);
    let grid = TileGrid::paper_default();
    let total = (VIEW_SAMPLES * VIEW_SAMPLES) as f64;
    for k in [0, 7, 60] {
        let center = user.segment_center(k).expect("segment in range");
        let counts = user.segment_view_counts(k, &grid).expect("table entry");
        let weights = tile_pixel_weights(
            &Viewport::new(center, VIEW_FOV_DEG, VIEW_FOV_DEG),
            &grid,
            VIEW_SAMPLES,
        );
        let from_table: Vec<_> = grid
            .iter()
            .zip(counts)
            .filter(|(_, &c)| c > 0)
            .map(|(t, &c)| (t, f64::from(c) / total))
            .collect();
        assert_eq!(from_table.len(), weights.len(), "segment {k}");
        for (a, b) in from_table.iter().zip(&weights) {
            assert_eq!(a.0, b.0, "segment {k}");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "segment {k}");
        }
    }
}

#[test]
fn racing_fills_of_one_trace_agree_bit_for_bit() {
    let user = trace(2, 11, 4);
    let grid = TileGrid::paper_default();
    let segments = (0..)
        .take_while(|&k| user.segment_center(k).is_some())
        .count();
    let barrier = Barrier::new(2);
    let fill = || {
        barrier.wait();
        (0..segments)
            .map(|k| user.segment_view_counts(k, &grid).expect("table entry"))
            .collect::<Vec<&[u8]>>()
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(fill);
        let b = s.spawn(fill);
        (a.join().expect("thread a"), b.join().expect("thread b"))
    });
    // Both threads read the one slot each segment was filled into...
    for (k, (x, y)) in a.iter().zip(&b).enumerate() {
        assert!(std::ptr::eq(*x, *y), "segment {k} filled twice");
    }
    // ...and its counts equal a fresh trace's, filled on one thread.
    let fresh = trace(2, 11, 4);
    for (k, x) in a.iter().enumerate() {
        assert_eq!(
            *x,
            fresh.segment_view_counts(k, &grid).expect("table entry")
        );
    }
}

#[test]
fn filled_table_is_invisible_to_equality_debug_and_clone() {
    let grid = TileGrid::paper_default();
    let filled = trace(1, 0, 9);
    let empty = trace(1, 0, 9);
    for k in 0..20 {
        filled.segment_view_counts(k, &grid).expect("table entry");
    }
    assert_eq!(filled, empty);
    assert_eq!(format!("{filled:?}"), format!("{empty:?}"));
    let copy = filled.clone();
    assert_eq!(copy, empty);
    assert_eq!(
        copy.segment_view_counts(3, &grid),
        empty.segment_view_counts(3, &grid)
    );
}
