//! The Ftile baseline's variable-size tiling (Section V-A).
//!
//! "Each segment is first divided into 450 small blocks (i.e., 15 rows and
//! 30 columns), which are then clustered into ten tiles based on users'
//! views" — the ClusTile/OpTile family. We implement it as a weighted
//! rectangular partition: starting from the whole frame, repeatedly split
//! the rectangle carrying the largest view-weighted cost at the weighted
//! median of its longer axis, until ten rectangles remain. Popular areas
//! end up finely tiled (so the FoV can be fetched tightly), the background
//! stays coarse.

use ee360_geom::grid::TileGrid;
use ee360_geom::region::TileRegion;
use ee360_geom::viewport::{ViewCenter, Viewport};

/// The paper's Ftile parameters: a 15×30 block grid clustered into 10
/// tiles.
pub const FTILE_BLOCK_ROWS: usize = 15;
/// Number of block columns.
pub const FTILE_BLOCK_COLS: usize = 30;
/// Number of variable-size tiles the blocks are clustered into.
pub const FTILE_TILE_COUNT: usize = 10;

/// One segment's variable-size tiling.
#[derive(Debug, Clone, PartialEq)]
pub struct FtileLayout {
    /// The fine block grid (15×30).
    block_grid: TileGrid,
    /// The ten tile rectangles, each a region of blocks.
    tiles: Vec<TileRegion>,
}

ee360_support::impl_json_struct!(FtileLayout { block_grid, tiles });

/// A rectangle of blocks under construction: `[row0, row1) × [col0, col1)`
/// (no wraparound — the Ftile literature splits the unwrapped frame).
#[derive(Debug, Clone, Copy)]
struct Rect {
    row0: usize,
    row1: usize,
    col0: usize,
    col1: usize,
}

impl Rect {
    fn block_count(&self) -> usize {
        (self.row1 - self.row0) * (self.col1 - self.col0)
    }

    fn weight(&self, w: &[Vec<f64>]) -> f64 {
        w[self.row0..self.row1]
            .iter()
            .map(|row| row[self.col0..self.col1].iter().sum::<f64>())
            .sum()
    }
}

impl FtileLayout {
    /// Builds the layout for one segment from the training users' viewing
    /// centers (100°×100° FoV, matching the device).
    ///
    /// Deterministic: ties in split selection break towards the earlier
    /// rectangle.
    pub fn build(centers: &[ViewCenter]) -> Self {
        let block_grid = TileGrid::new(FTILE_BLOCK_ROWS, FTILE_BLOCK_COLS);
        let weights = block_weights(&block_grid, centers);

        // Each rect carries its weight, computed once at creation — a
        // rect's weight never changes, so recomputing it for every
        // candidate on every split round is pure waste. The cached value
        // comes from the same `Rect::weight` accumulation, so split
        // choices (and the resulting layout) are unchanged.
        let whole = Rect {
            row0: 0,
            row1: FTILE_BLOCK_ROWS,
            col0: 0,
            col1: FTILE_BLOCK_COLS,
        };
        let whole_weight = whole.weight(&weights);
        let mut rects = vec![(whole, whole_weight)];
        while rects.len() < FTILE_TILE_COUNT {
            // Pick the costliest splittable rectangle.
            let (idx, _) = rects
                .iter()
                .enumerate()
                .filter(|(_, (r, _))| r.block_count() > 1)
                .map(|(i, (r, wt))| (i, wt * r.block_count() as f64))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
                .expect("450 blocks cannot run out before 10 tiles");
            let (rect, wt) = rects.swap_remove(idx);
            let (a, b) = split_rect(&rect, wt, &weights);
            let a_weight = a.weight(&weights);
            let b_weight = b.weight(&weights);
            rects.push((a, a_weight));
            rects.push((b, b_weight));
        }

        let tiles = rects
            .into_iter()
            .map(|(r, _)| TileRegion::new(&block_grid, r.row0, r.row1 - 1, r.col0, r.col1 - r.col0))
            .collect();
        Self { block_grid, tiles }
    }

    /// The fine block grid.
    pub fn block_grid(&self) -> &TileGrid {
        &self.block_grid
    }

    /// The tile rectangles.
    pub fn tiles(&self) -> &[TileRegion] {
        &self.tiles
    }

    /// Number of tiles (always 10).
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// The tiles a viewport needs: every tile whose rectangle intersects
    /// the viewport's block coverage. Returns `(tile indices, total area
    /// fraction)`.
    pub fn tiles_for_viewport(&self, vp: &Viewport) -> (Vec<usize>, f64) {
        // A tile intersects the viewport's block coverage iff some covered
        // block lies inside its rectangle — `TileRegion::contains` answers
        // that in O(1) arithmetic, so no block set needs materialising.
        let covered = self.block_grid.tiles_covering(vp);
        let mut chosen = Vec::new();
        let mut area = 0.0;
        for (i, tile) in self.tiles.iter().enumerate() {
            if covered.iter().any(|&b| tile.contains(b)) {
                chosen.push(i);
                area += tile.area_fraction(&self.block_grid);
            }
        }
        (chosen, area)
    }

    /// Fraction of a user's FoV blocks covered by a chosen tile set — the
    /// QoE blend input for prediction misses.
    pub fn coverage_fraction(&self, chosen: &[usize], actual: &Viewport) -> f64 {
        let blocks = self.block_grid.tiles_covering(actual);
        if blocks.is_empty() {
            return 0.0;
        }
        let covered = blocks
            .iter()
            .filter(|b| chosen.iter().any(|&i| self.tiles[i].contains(**b)))
            .count();
        covered as f64 / blocks.len() as f64
    }
}

/// Per-block view weight: how many users' 100°×100° viewports cover the
/// block, plus a small floor so empty regions still split sanely.
///
/// A viewport covers a block at most once, so the counts are summed as
/// integers over each viewport's column runs ([`TileGrid::covering_span`])
/// and a block seen k times gets `0.05 + 1.0 + … + 1.0` (k additions, in
/// that order): the same double a per-block `+= 1.0` fill produces.
fn block_weights(block_grid: &TileGrid, centers: &[ViewCenter]) -> Vec<Vec<f64>> {
    let mut counts = vec![vec![0usize; block_grid.cols()]; block_grid.rows()];
    for c in centers {
        let span = block_grid.covering_span(&Viewport::new(*c, 100.0, 100.0));
        for row in &mut counts[span.rows] {
            for cols in &span.cols {
                for count in &mut row[cols.clone()] {
                    *count += 1;
                }
            }
        }
    }
    let floor_plus: Vec<f64> = std::iter::successors(Some(0.05f64), |w| Some(w + 1.0))
        .take(centers.len() + 1)
        .collect();
    counts
        .iter()
        .map(|row| row.iter().map(|&k| floor_plus[k]).collect())
        .collect()
}

/// Splits a rectangle at the weighted median of its longer axis.
/// `rect_weight` is the caller's cached `rect.weight(w)`.
fn split_rect(rect: &Rect, rect_weight: f64, w: &[Vec<f64>]) -> (Rect, Rect) {
    let rows = rect.row1 - rect.row0;
    let cols = rect.col1 - rect.col0;
    let total = rect_weight.max(1e-12);
    if cols >= rows && cols > 1 {
        // Vertical split at the weighted median column.
        let mut acc = 0.0;
        let mut cut = rect.col0 + 1;
        for c in rect.col0..rect.col1 {
            acc += w[rect.row0..rect.row1]
                .iter()
                .map(|row| row[c])
                .sum::<f64>();
            if acc >= total / 2.0 {
                cut = (c + 1).clamp(rect.col0 + 1, rect.col1 - 1);
                break;
            }
        }
        (Rect { col1: cut, ..*rect }, Rect { col0: cut, ..*rect })
    } else {
        // Horizontal split at the weighted median row.
        let mut acc = 0.0;
        let mut cut = rect.row0 + 1;
        for (r, row) in w.iter().enumerate().take(rect.row1).skip(rect.row0) {
            acc += row[rect.col0..rect.col1].iter().sum::<f64>();
            if acc >= total / 2.0 {
                cut = (r + 1).clamp(rect.row0 + 1, rect.row1 - 1);
                break;
            }
        }
        (Rect { row1: cut, ..*rect }, Rect { row0: cut, ..*rect })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_support::prelude::*;

    fn cluster_at(yaw: f64, pitch: f64, n: usize) -> Vec<ViewCenter> {
        (0..n)
            .map(|i| ViewCenter::new(yaw + (i as f64) * 1.5, pitch + (i % 3) as f64))
            .collect()
    }

    #[test]
    fn always_ten_tiles() {
        for centers in [
            Vec::new(),
            cluster_at(0.0, 0.0, 20),
            cluster_at(170.0, -30.0, 7),
        ] {
            let layout = FtileLayout::build(&centers);
            assert_eq!(layout.tile_count(), FTILE_TILE_COUNT);
        }
    }

    #[test]
    fn tiles_partition_the_frame() {
        let layout = FtileLayout::build(&cluster_at(10.0, 5.0, 15));
        let grid = layout.block_grid();
        let mut counts = vec![0usize; grid.tile_count()];
        for tile in layout.tiles() {
            for b in tile.tiles() {
                counts[grid.flat_index(b)] += 1;
            }
        }
        assert!(
            counts.iter().all(|&c| c == 1),
            "every block in exactly one tile"
        );
    }

    #[test]
    fn popular_area_gets_finer_tiles() {
        // Tiles overlapping the hotspot should be smaller than background
        // tiles.
        let centers = cluster_at(0.0, 0.0, 30);
        let layout = FtileLayout::build(&centers);
        let vp = Viewport::paper_fov(ViewCenter::new(0.0, 0.0));
        let (chosen, _) = layout.tiles_for_viewport(&vp);
        let _grid = layout.block_grid();
        let chosen_mean = chosen
            .iter()
            .map(|&i| layout.tiles()[i].tile_count() as f64)
            .sum::<f64>()
            / chosen.len() as f64;
        let other: Vec<usize> = (0..layout.tile_count())
            .filter(|i| !chosen.contains(i))
            .collect();
        let other_mean = other
            .iter()
            .map(|&i| layout.tiles()[i].tile_count() as f64)
            .sum::<f64>()
            / other.len().max(1) as f64;
        assert!(
            chosen_mean < other_mean,
            "hotspot tiles {chosen_mean} blocks vs background {other_mean}"
        );
    }

    #[test]
    fn viewport_selection_covers_the_viewport() {
        let centers = cluster_at(-40.0, 10.0, 12);
        let layout = FtileLayout::build(&centers);
        let vp = Viewport::paper_fov(ViewCenter::new(-40.0, 10.0));
        let (chosen, area) = layout.tiles_for_viewport(&vp);
        assert!(!chosen.is_empty());
        // The chosen tiles fully cover the viewport by construction.
        assert!((layout.coverage_fraction(&chosen, &vp) - 1.0).abs() < 1e-12);
        // The FoV is ~26% of the frame; the cover should overshoot but not
        // grab the whole frame.
        assert!((0.2..0.95).contains(&area), "area {area}");
    }

    #[test]
    fn coverage_fraction_drops_for_missed_viewport() {
        // Two popular areas ⇒ fine tiles at both. Predicting one and
        // looking at the other leaves the actual FoV in unchosen tiles.
        let mut centers = cluster_at(0.0, 0.0, 12);
        centers.extend(cluster_at(150.0, -10.0, 12));
        let layout = FtileLayout::build(&centers);
        let predicted = Viewport::paper_fov(ViewCenter::new(0.0, 0.0));
        let (chosen, _) = layout.tiles_for_viewport(&predicted);
        let actual_far = Viewport::paper_fov(ViewCenter::new(150.0, -10.0));
        let frac = layout.coverage_fraction(&chosen, &actual_far);
        assert!(
            frac < 0.8,
            "far viewport should be partly uncovered: {frac}"
        );
    }

    #[test]
    fn deterministic() {
        let centers = cluster_at(33.0, -5.0, 9);
        assert_eq!(FtileLayout::build(&centers), FtileLayout::build(&centers));
    }

    #[test]
    fn empty_population_still_partitions() {
        let layout = FtileLayout::build(&[]);
        let total: usize = layout.tiles().iter().map(|t| t.tile_count()).sum();
        assert_eq!(total, FTILE_BLOCK_ROWS * FTILE_BLOCK_COLS);
    }

    #[test]
    fn serde_roundtrip() {
        let layout = FtileLayout::build(&cluster_at(0.0, 0.0, 5));
        let json = ee360_support::json::to_string(&layout).unwrap();
        let back: FtileLayout = ee360_support::json::from_str(&json).unwrap();
        assert_eq!(back, layout);
    }

    /// The block weights as `build` filled them before the run counts:
    /// `+= 1.0` per covered block per viewport, over `tiles_covering_into`.
    fn per_block_weights(centers: &[ViewCenter]) -> Vec<Vec<f64>> {
        let block_grid = TileGrid::new(FTILE_BLOCK_ROWS, FTILE_BLOCK_COLS);
        let mut weights = vec![vec![0.05f64; FTILE_BLOCK_COLS]; FTILE_BLOCK_ROWS];
        let mut covered = Vec::new();
        for c in centers {
            let vp = Viewport::new(*c, 100.0, 100.0);
            block_grid.tiles_covering_into(&vp, &mut covered);
            for b in &covered {
                weights[b.row][b.col] += 1.0;
            }
        }
        weights
    }

    fn bits(weights: &[Vec<f64>]) -> Vec<Vec<u64>> {
        weights
            .iter()
            .map(|row| row.iter().map(|w| w.to_bits()).collect())
            .collect()
    }

    #[test]
    fn run_counted_weights_of_no_centers_are_the_floor() {
        let grid = TileGrid::new(FTILE_BLOCK_ROWS, FTILE_BLOCK_COLS);
        assert_eq!(
            bits(&block_weights(&grid, &[])),
            bits(&per_block_weights(&[]))
        );
    }

    proptest! {
        #[test]
        fn run_counted_weights_match_per_block_fill(
            draws in ee360_support::prop::collection::vec(
                (-180.0f64..180.0, -90.0f64..=90.0, 0usize..4), 0..65
            ),
        ) {
            // One draw in four repeats the previous centre.
            let mut centers: Vec<ViewCenter> = Vec::new();
            for &(y, p, dup) in &draws {
                let c = match centers.last() {
                    Some(&last) if dup == 0 => last,
                    _ => ViewCenter::new(y, p),
                };
                centers.push(c);
            }
            let grid = TileGrid::new(FTILE_BLOCK_ROWS, FTILE_BLOCK_COLS);
            prop_assert_eq!(
                bits(&block_weights(&grid, &centers)),
                bits(&per_block_weights(&centers))
            );
        }
    }
}
