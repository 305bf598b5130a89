//! The conventional tile grid.
//!
//! Tile-based 360° streaming divides each equirectangular video segment into
//! a fixed grid of independently decodable tiles — 4 rows × 8 columns in the
//! paper (Fig. 1), 15 × 30 blocks for the Ftile baseline. [`TileGrid`] maps
//! between (yaw, pitch) coordinates and tile indices, and computes which
//! tiles a viewport needs.

use std::ops::{Range, RangeInclusive};

use crate::angles::wrap_yaw_deg;
use crate::region::TileRegion;
use crate::viewport::{ViewCenter, Viewport};

/// Identifies one tile in a [`TileGrid`]: row 0 is the top (north pole) row,
/// column 0 starts at yaw −180°.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileId {
    /// Row index, `0..rows`, top to bottom.
    pub row: usize,
    /// Column index, `0..cols`, west to east starting at yaw −180°.
    pub col: usize,
}

ee360_support::impl_json_struct!(TileId { row, col });

impl TileId {
    /// Creates a tile id.
    pub fn new(row: usize, col: usize) -> Self {
        Self { row, col }
    }
}

/// The tiles a viewport box intersects, from [`TileGrid::covering_span`]:
/// every row in `rows`, and in each of them the columns of `cols[0]`
/// followed by those of `cols[1]`. Columns go west to east from the
/// viewport's first column; `cols[1]` is the part that wraps past the
/// last column to column 0, empty unless the viewport crosses the
/// antimeridian.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileSpan {
    /// Covered rows, top to bottom.
    pub rows: RangeInclusive<usize>,
    /// Covered columns of each row, as at most two ascending ranges.
    pub cols: [Range<usize>; 2],
}

impl TileSpan {
    /// Number of tiles in the span.
    pub fn tile_count(&self) -> usize {
        (self.rows.end() + 1).saturating_sub(*self.rows.start())
            * self.cols.iter().map(ExactSizeIterator::len).sum::<usize>()
    }

    /// Number of the span's tiles that lie in `region` (a region of the
    /// same grid): the row overlap times the column overlap. The span's
    /// two column runs are disjoint, and so are the region's
    /// ([`TileRegion::col_runs`]), so the column overlap is the sum of
    /// the four pairwise run intersections.
    pub fn overlap(&self, region: &TileRegion) -> usize {
        let rows = (region.row_max().min(*self.rows.end()) + 1)
            .saturating_sub(region.row_min().max(*self.rows.start()));
        let cols: usize = region
            .col_runs()
            .iter()
            .flat_map(|r| {
                self.cols
                    .iter()
                    .map(move |s| r.end.min(s.end).saturating_sub(r.start.max(s.start)))
            })
            .sum();
        rows * cols
    }
}

/// A fixed equirectangular tile grid.
///
/// # Example
///
/// ```
/// use ee360_geom::grid::TileGrid;
/// let grid = TileGrid::paper_default(); // 4 rows × 8 columns
/// assert_eq!(grid.tile_count(), 32);
/// assert!((grid.tile_width_deg() - 45.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileGrid {
    rows: usize,
    cols: usize,
}

ee360_support::impl_json_struct!(TileGrid { rows, cols });

impl TileGrid {
    /// Creates a grid with the given number of rows and columns.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid must have at least one tile");
        Self { rows, cols }
    }

    /// The paper's conventional grid: 4 rows × 8 columns.
    pub fn paper_default() -> Self {
        Self::new(4, 8)
    }

    /// The fine grid used by the Ftile baseline: 15 rows × 30 columns.
    pub fn ftile_blocks() -> Self {
        Self::new(15, 30)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of tiles.
    pub fn tile_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Width of one tile in degrees of yaw.
    pub fn tile_width_deg(&self) -> f64 {
        360.0 / self.cols as f64
    }

    /// Height of one tile in degrees of pitch.
    pub fn tile_height_deg(&self) -> f64 {
        180.0 / self.rows as f64
    }

    /// Flattened index of a tile (row-major).
    ///
    /// # Panics
    ///
    /// Panics if the tile is outside the grid.
    pub fn flat_index(&self, t: TileId) -> usize {
        assert!(t.row < self.rows && t.col < self.cols, "tile out of range");
        t.row * self.cols + t.col
    }

    /// The tile containing a view center.
    pub fn tile_at(&self, p: &ViewCenter) -> TileId {
        let x = (wrap_yaw_deg(p.yaw_deg()) + 180.0) / self.tile_width_deg();
        let col = (x.floor() as isize).rem_euclid(self.cols as isize) as usize;
        // Row 0 is at the top (pitch +90); pitch +90 itself belongs to row 0.
        let y = (90.0 - p.pitch_deg()) / self.tile_height_deg();
        let row = (y.floor() as usize).min(self.rows - 1);
        TileId::new(row, col)
    }

    /// Pitch of the top edge of a row.
    pub fn row_top_deg(&self, row: usize) -> f64 {
        90.0 - row as f64 * self.tile_height_deg()
    }

    /// The center point of a tile.
    pub fn tile_center(&self, t: TileId) -> ViewCenter {
        ViewCenter::new(
            -180.0 + (t.col as f64 + 0.5) * self.tile_width_deg(),
            90.0 - (t.row as f64 + 0.5) * self.tile_height_deg(),
        )
    }

    /// All tiles whose area intersects the viewport box (exact coverage).
    ///
    /// Tiles are half-open in both axes, so a viewport edge exactly on a tile
    /// boundary does not drag in the neighbouring tile.
    ///
    /// The per-segment paths work on [`Self::covering_span`] instead; this
    /// list is its tiles, row by row.
    pub fn tiles_covering(&self, vp: &Viewport) -> Vec<TileId> {
        let span = self.covering_span(vp);
        let mut out = Vec::with_capacity(span.tile_count());
        for row in span.rows.clone() {
            for cols in &span.cols {
                out.extend(cols.clone().map(|col| TileId::new(row, col)));
            }
        }
        out
    }

    /// The tiles [`Self::tiles_covering`] lists, as runs: the same columns
    /// in every covered row, split where the run wraps past the last
    /// column. This is the one definition of a viewport's exact coverage.
    pub fn covering_span(&self, vp: &Viewport) -> TileSpan {
        let w = self.tile_width_deg();
        let h = self.tile_height_deg();
        // Column range (wrapping).
        let yaw_min = vp.center().yaw_deg() - vp.fov_h_deg() / 2.0;
        let span_cols = if vp.fov_h_deg() >= 360.0 {
            self.cols
        } else {
            let first = ((yaw_min + 180.0) / w).floor();
            let last = ((yaw_min + vp.fov_h_deg() + 180.0 - 1e-9) / w).floor();
            ((last - first) as usize + 1).min(self.cols)
        };
        let first_col =
            (((yaw_min + 180.0) / w).floor() as isize).rem_euclid(self.cols as isize) as usize;
        let end_col = first_col + span_cols;
        let cols = if end_col <= self.cols {
            [first_col..end_col, 0..0]
        } else {
            [first_col..self.cols, 0..end_col - self.cols]
        };
        // Row range (clamped).
        let row_top = (((90.0 - vp.pitch_max_deg()) / h).floor() as usize).min(self.rows - 1);
        let row_bot =
            (((90.0 - vp.pitch_min_deg() - 1e-9) / h).floor() as usize).min(self.rows - 1);
        TileSpan {
            rows: row_top..=row_bot,
            cols,
        }
    }

    /// The quantised FoV block: a fixed `⌈fov_v/tile_h⌉ × ⌈fov_h/tile_w⌉`
    /// block of tiles centered on the tile containing the view center.
    ///
    /// This is how the paper's client requests "the FoV tiles": a 100°×100°
    /// viewport on the 4×8 grid always maps to a 3×3 = 9-tile block
    /// (Section II, Fig. 2b). The block wraps horizontally and is shifted —
    /// never shrunk — to stay inside the grid vertically.
    ///
    /// # Example
    ///
    /// ```
    /// use ee360_geom::grid::TileGrid;
    /// use ee360_geom::viewport::{ViewCenter, Viewport};
    /// let grid = TileGrid::paper_default();
    /// let vp = Viewport::paper_fov(ViewCenter::new(0.0, 0.0));
    /// assert_eq!(grid.fov_block(&vp).len(), 9);
    /// ```
    pub fn fov_block(&self, vp: &Viewport) -> Vec<TileId> {
        self.fov_block_tiles(vp).collect()
    }

    /// [`Self::fov_block`] without the `Vec`: the same tiles in the same
    /// row-major order, generated on demand from
    /// [`Self::fov_block_region`].
    pub fn fov_block_tiles(&self, vp: &Viewport) -> impl Iterator<Item = TileId> {
        self.fov_block_region(vp).tiles()
    }

    /// The quantised FoV block of [`Self::fov_block`] as a region: rows
    /// `first_row..first_row + block_rows`, and `block_cols` columns
    /// eastwards from `first_col`, wrapping. This is the one definition
    /// of the block; its `tiles()` are [`Self::fov_block_tiles`].
    pub fn fov_block_region(&self, vp: &Viewport) -> TileRegion {
        let block_cols =
            ((vp.fov_h_deg() / self.tile_width_deg()).ceil() as usize).clamp(1, self.cols);
        let block_rows =
            ((vp.fov_v_deg() / self.tile_height_deg()).ceil() as usize).clamp(1, self.rows);
        let center = self.tile_at(&vp.center());

        let first_col = (center.col as isize - (block_cols as isize - 1) / 2)
            .rem_euclid(self.cols as isize) as usize;
        let mut first_row = center.row as isize - (block_rows as isize - 1) / 2;
        first_row = first_row.clamp(0, self.rows as isize - block_rows as isize);
        let first_row = first_row as usize;

        TileRegion::new(
            self,
            first_row,
            first_row + block_rows - 1,
            first_col,
            block_cols,
        )
    }

    /// Iterates over every tile in the grid, row-major.
    pub fn iter(&self) -> impl Iterator<Item = TileId> + '_ {
        let cols = self.cols;
        (0..self.tile_count()).map(move |i| TileId::new(i / cols, i % cols))
    }
}

impl Default for TileGrid {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_support::prelude::*;

    #[test]
    fn paper_grid_dimensions() {
        let g = TileGrid::paper_default();
        assert_eq!(g.rows(), 4);
        assert_eq!(g.cols(), 8);
        assert_eq!(g.tile_count(), 32);
        assert!((g.tile_width_deg() - 45.0).abs() < 1e-12);
        assert!((g.tile_height_deg() - 45.0).abs() < 1e-12);
    }

    #[test]
    fn tile_at_origin() {
        let g = TileGrid::paper_default();
        // yaw 0 is the start of column 4; pitch 0 is the start of row 2.
        assert_eq!(g.tile_at(&ViewCenter::new(0.0, 0.0)), TileId::new(2, 4));
        assert_eq!(g.tile_at(&ViewCenter::new(0.0, 1.0)), TileId::new(1, 4));
    }

    #[test]
    fn tile_at_extremes() {
        let g = TileGrid::paper_default();
        assert_eq!(g.tile_at(&ViewCenter::new(-180.0, 90.0)), TileId::new(0, 0));
        assert_eq!(g.tile_at(&ViewCenter::new(179.9, -89.9)), TileId::new(3, 7));
        // Pitch exactly -90 still maps into the last row.
        assert_eq!(g.tile_at(&ViewCenter::new(0.0, -90.0)).row, 3);
    }

    #[test]
    fn tile_center_roundtrip() {
        let g = TileGrid::paper_default();
        for t in g.iter() {
            assert_eq!(g.tile_at(&g.tile_center(t)), t);
        }
    }

    #[test]
    fn fov_block_is_nine_tiles() {
        let g = TileGrid::paper_default();
        for yaw in [-180.0, -90.0, 0.0, 33.0, 179.0] {
            for pitch in [-80.0, -30.0, 0.0, 30.0, 80.0] {
                let vp = Viewport::paper_fov(ViewCenter::new(yaw, pitch));
                let block = g.fov_block(&vp);
                assert_eq!(block.len(), 9, "at yaw={yaw} pitch={pitch}");
            }
        }
    }

    #[test]
    fn fov_block_wraps_columns() {
        let g = TileGrid::paper_default();
        let vp = Viewport::paper_fov(ViewCenter::new(-180.0, 0.0));
        let block = g.fov_block(&vp);
        let cols: std::collections::HashSet<_> = block.iter().map(|t| t.col).collect();
        assert!(cols.contains(&7) && cols.contains(&0) && cols.contains(&1));
    }

    #[test]
    fn fov_block_clamped_at_pole() {
        let g = TileGrid::paper_default();
        let vp = Viewport::paper_fov(ViewCenter::new(0.0, 89.0));
        let block = g.fov_block(&vp);
        assert_eq!(block.len(), 9);
        assert!(block.iter().all(|t| t.row <= 2));
        assert!(block.iter().any(|t| t.row == 0));
    }

    #[test]
    fn tiles_covering_contains_center_tile() {
        let g = TileGrid::paper_default();
        let c = ViewCenter::new(12.0, -34.0);
        let vp = Viewport::paper_fov(c);
        let tiles = g.tiles_covering(&vp);
        assert!(tiles.contains(&g.tile_at(&c)));
    }

    #[test]
    fn tiles_covering_full_wrap() {
        let g = TileGrid::paper_default();
        let vp = Viewport::new(ViewCenter::new(0.0, 0.0), 360.0, 180.0);
        assert_eq!(g.tiles_covering(&vp).len(), 32);
    }

    #[test]
    fn tiles_covering_aligned_box_is_exact() {
        let g = TileGrid::paper_default();
        // A 90°×90° box exactly aligned with tile boundaries covers 2×2 tiles.
        let vp = Viewport::new(ViewCenter::new(-135.0, 45.0), 90.0, 90.0);
        assert_eq!(g.tiles_covering(&vp).len(), 4);
    }

    #[test]
    fn flat_index_bijective() {
        let g = TileGrid::new(3, 5);
        let mut seen = std::collections::HashSet::new();
        for t in g.iter() {
            assert!(seen.insert(g.flat_index(t)));
        }
        assert_eq!(seen.len(), 15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flat_index_rejects_out_of_range() {
        let g = TileGrid::new(2, 2);
        let _ = g.flat_index(TileId::new(2, 0));
    }

    #[test]
    #[should_panic(expected = "at least one tile")]
    fn zero_grid_panics() {
        let _ = TileGrid::new(0, 8);
    }

    /// `tiles_covering` as it read before the span helper: the
    /// reference the span runs must reproduce, tile for tile and in order.
    fn old_tiles_covering(g: &TileGrid, vp: &Viewport) -> Vec<TileId> {
        let mut out = Vec::new();
        let w = g.tile_width_deg();
        let h = g.tile_height_deg();
        let yaw_min = vp.center().yaw_deg() - vp.fov_h_deg() / 2.0;
        let span_cols = if vp.fov_h_deg() >= 360.0 {
            g.cols()
        } else {
            let first = ((yaw_min + 180.0) / w).floor();
            let last = ((yaw_min + vp.fov_h_deg() + 180.0 - 1e-9) / w).floor();
            ((last - first) as usize + 1).min(g.cols())
        };
        let first_col =
            (((yaw_min + 180.0) / w).floor() as isize).rem_euclid(g.cols() as isize) as usize;
        let row_top = (((90.0 - vp.pitch_max_deg()) / h).floor() as usize).min(g.rows() - 1);
        let row_bot = (((90.0 - vp.pitch_min_deg() - 1e-9) / h).floor() as usize).min(g.rows() - 1);
        for row in row_top..=row_bot {
            for dc in 0..span_cols {
                out.push(TileId::new(row, (first_col + dc) % g.cols()));
            }
        }
        out
    }

    /// `fov_block_tiles` as it read before the block became a region.
    fn old_fov_block_tiles(g: &TileGrid, vp: &Viewport) -> Vec<TileId> {
        let block_cols = ((vp.fov_h_deg() / g.tile_width_deg()).ceil() as usize).clamp(1, g.cols());
        let block_rows =
            ((vp.fov_v_deg() / g.tile_height_deg()).ceil() as usize).clamp(1, g.rows());
        let center = g.tile_at(&vp.center());
        let first_col = (center.col as isize - (block_cols as isize - 1) / 2)
            .rem_euclid(g.cols() as isize) as usize;
        let first_row = (center.row as isize - (block_rows as isize - 1) / 2)
            .clamp(0, g.rows() as isize - block_rows as isize) as usize;
        (0..block_rows * block_cols)
            .map(|i| {
                TileId::new(
                    first_row + i / block_cols,
                    (first_col + i % block_cols) % g.cols(),
                )
            })
            .collect()
    }

    /// A viewport from draws: two in five sit on or next to a pole, one
    /// in five next to the antimeridian, and a few span the full yaw or
    /// pitch range.
    fn drawn_viewport(
        y: f64,
        p: f64,
        place: usize,
        fov_h: f64,
        fov_v: f64,
        full: usize,
    ) -> Viewport {
        let pitch = match place {
            0 => 90.0 - (p + 90.0) / 180.0,
            1 => {
                if p < 0.0 {
                    -90.0
                } else {
                    90.0
                }
            }
            _ => p,
        };
        let yaw = if place == 2 {
            180.0 - y.abs() / 180.0
        } else {
            y
        };
        let fov_h = if full == 0 { 360.0 } else { fov_h };
        let fov_v = if full == 1 { 180.0 } else { fov_v };
        Viewport::new(ViewCenter::new(yaw, pitch), fov_h, fov_v)
    }

    #[test]
    fn fov_block_region_at_the_antimeridian_and_full_width() {
        let g = TileGrid::paper_default();
        let r = g.fov_block_region(&Viewport::paper_fov(ViewCenter::new(-180.0, 0.0)));
        assert_eq!(
            (r.row_min(), r.row_max(), r.col_start(), r.col_span()),
            (1, 3, 7, 3)
        );
        // A full-width block starts at its first column, not at column 0,
        // so its tiles come in the old order.
        let full = Viewport::new(ViewCenter::new(10.0, 0.0), 360.0, 100.0);
        let r = g.fov_block_region(&full);
        assert_eq!((r.col_start(), r.col_span()), (1, 8));
        assert_eq!(g.fov_block(&full), old_fov_block_tiles(&g, &full));
    }

    #[test]
    fn covering_span_wraps_at_the_antimeridian() {
        let g = TileGrid::paper_default();
        let span = g.covering_span(&Viewport::paper_fov(ViewCenter::new(179.0, 0.0)));
        assert_eq!(span.rows, 0..=3);
        assert_eq!(span.cols, [6..8, 0..2]);
        assert_eq!(span.tile_count(), 16);
        let inside = g.covering_span(&Viewport::paper_fov(ViewCenter::new(0.0, 0.0)));
        assert_eq!(inside.cols[1], 0..0);
    }

    proptest! {
        #[test]
        fn tile_at_in_range(
            y in -1000.0f64..1000.0, p in -90.0f64..=90.0,
            rows in 1usize..20, cols in 1usize..40,
        ) {
            let g = TileGrid::new(rows, cols);
            let t = g.tile_at(&ViewCenter::new(y, p));
            prop_assert!(t.row < rows && t.col < cols);
        }

        #[test]
        fn fov_block_size_fixed(
            y in -180.0f64..180.0, p in -90.0f64..=90.0,
        ) {
            let g = TileGrid::paper_default();
            let vp = Viewport::paper_fov(ViewCenter::new(y, p));
            prop_assert_eq!(g.fov_block(&vp).len(), 9);
        }

        #[test]
        fn covering_superset_of_block_center(
            y in -180.0f64..180.0, p in -88.0f64..88.0,
        ) {
            let g = TileGrid::paper_default();
            let vp = Viewport::paper_fov(ViewCenter::new(y, p));
            let covering = g.tiles_covering(&vp);
            // Exact covering has between 9 and 16 tiles for a 100° FoV on 45° tiles.
            prop_assert!(covering.len() >= 6 && covering.len() <= 16);
        }

        #[test]
        fn fov_block_region_matches_old_block_tiles(
            (grid_pick, place, full) in (0usize..3, 0usize..5, 0usize..6),
            y in -180.0f64..180.0,
            p in -90.0f64..=90.0,
            fov_h in 1.0f64..=360.0,
            fov_v in 1.0f64..=180.0,
        ) {
            let g = [TileGrid::new(4, 8), TileGrid::new(6, 12), TileGrid::new(15, 30)][grid_pick];
            let vp = drawn_viewport(y, p, place, fov_h, fov_v, full);
            let old = old_fov_block_tiles(&g, &vp);
            // Same tiles in the same order ...
            prop_assert_eq!(g.fov_block_tiles(&vp).collect::<Vec<_>>(), old.clone());
            // ... and, as tile sets, the same region `from_tiles` bounds.
            let region = g.fov_block_region(&vp);
            let bounded = TileRegion::from_tiles(&g, old.iter().copied()).unwrap();
            prop_assert_eq!(region.tile_count(), bounded.tile_count());
            for t in g.iter() {
                prop_assert_eq!(region.contains(t), bounded.contains(t));
                prop_assert_eq!(region.contains(t), old.contains(&t));
            }
        }

        #[test]
        fn span_overlap_counts_covered_tiles_in_the_region(
            (grid_pick, place, full) in (0usize..3, 0usize..5, 0usize..6),
            y in -180.0f64..180.0,
            p in -90.0f64..=90.0,
            fov_h in 1.0f64..=360.0,
            fov_v in 1.0f64..=180.0,
            (r0, r1, c0, w) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..=1.0),
        ) {
            let g = [TileGrid::new(4, 8), TileGrid::new(6, 12), TileGrid::new(15, 30)][grid_pick];
            let vp = drawn_viewport(y, p, place, fov_h, fov_v, full);
            let (a, b) = ((r0 * g.rows() as f64) as usize, (r1 * g.rows() as f64) as usize);
            let col_span = 1 + (w * (g.cols() - 1) as f64).round() as usize;
            let region = TileRegion::new(
                &g,
                a.min(b),
                a.max(b),
                (c0 * g.cols() as f64) as usize,
                col_span,
            );
            let covered = g.tiles_covering(&vp);
            let inside = covered.iter().filter(|&&t| region.contains(t)).count();
            prop_assert_eq!(g.covering_span(&vp).overlap(&region), inside);
        }

        #[test]
        fn covering_span_matches_old_covering(
            (grid_pick, pole, full) in (0usize..3, 0usize..4, 0usize..6),
            y in -180.0f64..180.0,
            p in -90.0f64..=90.0,
            fov_h in 1.0f64..=360.0,
            fov_v in 1.0f64..=180.0,
        ) {
            let g = [TileGrid::new(4, 8), TileGrid::new(15, 30), TileGrid::new(6, 12)][grid_pick];
            // A quarter of the viewports sit on or next to a pole, and a
            // few span the full yaw or pitch range.
            let pitch = match pole {
                0 => 90.0 - (p + 90.0) / 180.0,
                1 => if p < 0.0 { -90.0 } else { 90.0 },
                _ => p,
            };
            let fov_h = if full == 0 { 360.0 } else { fov_h };
            let fov_v = if full == 1 { 180.0 } else { fov_v };
            let vp = Viewport::new(ViewCenter::new(y, pitch), fov_h, fov_v);
            let old = old_tiles_covering(&g, &vp);
            prop_assert_eq!(g.covering_span(&vp).tile_count(), old.len());
            prop_assert_eq!(g.tiles_covering(&vp), old);
        }
    }
}
