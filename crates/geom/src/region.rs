//! Rectangular tile regions with longitude wraparound.
//!
//! A Ptile is a rectangular block of conventional tiles encoded as one large
//! tile (Section IV-A). [`TileRegion`] represents such a block: a contiguous
//! range of rows and a contiguous, possibly wrapping, range of columns.

use std::ops::Range;

use crate::grid::{TileGrid, TileId};

/// A rectangular block of tiles on a [`TileGrid`].
///
/// Rows are a plain inclusive range (`row_min..=row_max`); columns start at
/// `col_start` and span `col_span` columns eastwards, wrapping past the
/// antimeridian if needed.
///
/// # Example
///
/// ```
/// use ee360_geom::grid::{TileGrid, TileId};
/// use ee360_geom::region::TileRegion;
///
/// let grid = TileGrid::paper_default();
/// let region = TileRegion::from_tiles(
///     &grid,
///     [TileId::new(1, 7), TileId::new(1, 0), TileId::new(2, 0)],
/// ).unwrap();
/// assert_eq!(region.tile_count(), 4); // 2 rows × 2 cols (wrapping 7→0)
/// assert!(region.contains(TileId::new(2, 7)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileRegion {
    row_min: usize,
    row_max: usize,
    col_start: usize,
    col_span: usize,
    grid_cols: usize,
}

ee360_support::impl_json_struct!(TileRegion {
    row_min,
    row_max,
    col_start,
    col_span,
    grid_cols
});

impl TileRegion {
    /// Creates a region explicitly.
    ///
    /// # Panics
    ///
    /// Panics if `row_min > row_max`, `col_span` is zero or exceeds the
    /// grid's column count, or `col_start` is out of range.
    pub fn new(
        grid: &TileGrid,
        row_min: usize,
        row_max: usize,
        col_start: usize,
        col_span: usize,
    ) -> Self {
        assert!(row_min <= row_max, "row_min must not exceed row_max");
        assert!(row_max < grid.rows(), "row_max out of range");
        assert!(col_start < grid.cols(), "col_start out of range");
        assert!(
            col_span >= 1 && col_span <= grid.cols(),
            "col_span must be in 1..=cols"
        );
        Self {
            row_min,
            row_max,
            col_start,
            col_span,
            grid_cols: grid.cols(),
        }
    }

    /// The minimal region covering all given tiles.
    ///
    /// Columns are treated circularly: the bounding arc is the shortest
    /// contiguous column range containing every tile's column. Returns
    /// `None` for an empty tile set.
    ///
    /// # Panics
    ///
    /// Panics if a tile's column lies outside `grid`.
    pub fn from_tiles<I>(grid: &TileGrid, tiles: I) -> Option<Self>
    where
        I: IntoIterator<Item = TileId>,
    {
        // One pass: the row bounds, and which columns hold a tile.
        let n = grid.cols();
        let mut occupied = vec![false; n];
        let mut rows = None;
        for t in tiles {
            assert!(
                t.col < n,
                "tile column {} outside the {n}-column grid",
                t.col
            );
            if let Some(seen) = occupied.get_mut(t.col) {
                *seen = true;
            }
            rows = Some(rows.map_or((t.row, t.row), |(lo, hi): (usize, usize)| {
                (lo.min(t.row), hi.max(t.row))
            }));
        }
        let (row_min, row_max) = rows?;
        let cols = occupied
            .iter()
            .enumerate()
            .filter_map(|(c, &seen)| seen.then_some(c));
        let (col_start, col_span) = shortest_arc(n, cols)?;
        Some(Self::new(grid, row_min, row_max, col_start, col_span))
    }

    /// The minimal region covering every tile of `self` and of `other`:
    /// the region [`Self::from_tiles`] builds from both regions' tiles,
    /// found from the bounds without visiting a tile. The rows are the
    /// hull of both row ranges; the columns are the shortest arc over the
    /// columns either region holds, chosen by the same largest-gap rule
    /// as `from_tiles`. Both regions must lie on the same grid.
    pub fn union(&self, other: &TileRegion) -> TileRegion {
        let n = self.grid_cols;
        let cols = (0..n).filter(|&c| self.contains_col(c) || other.contains_col(c));
        // Both regions hold a column, so the arc exists; the full width
        // would cover them regardless.
        let (col_start, col_span) = shortest_arc(n, cols).unwrap_or((0, n));
        Self {
            row_min: self.row_min.min(other.row_min),
            row_max: self.row_max.max(other.row_max),
            col_start,
            col_span,
            grid_cols: n,
        }
    }

    /// First (top) row of the region.
    pub fn row_min(&self) -> usize {
        self.row_min
    }

    /// Last (bottom) row of the region, inclusive.
    pub fn row_max(&self) -> usize {
        self.row_max
    }

    /// Westernmost column of the region.
    pub fn col_start(&self) -> usize {
        self.col_start
    }

    /// Number of columns the region spans.
    pub fn col_span(&self) -> usize {
        self.col_span
    }

    /// Number of rows the region spans.
    pub fn row_span(&self) -> usize {
        self.row_max - self.row_min + 1
    }

    /// Total number of tiles in the region.
    pub fn tile_count(&self) -> usize {
        self.row_span() * self.col_span
    }

    /// Returns `true` if the tile lies inside the region.
    pub fn contains(&self, t: TileId) -> bool {
        if t.row < self.row_min || t.row > self.row_max {
            return false;
        }
        self.contains_col(t.col)
    }

    /// Returns `true` if column `col` lies in the region's column span.
    fn contains_col(&self, col: usize) -> bool {
        (col + self.grid_cols - self.col_start) % self.grid_cols < self.col_span
    }

    /// Returns `true` if every tile of `other` lies inside `self`. Both
    /// regions must lie on the same grid.
    ///
    /// Decided from the bounds, without visiting tiles: the rows must
    /// nest, and `other`'s columns, counted eastwards from `self`'s first
    /// column, must end within `self`'s span. A column run that leaves
    /// the span cannot wrap back into it, because a span short of the
    /// full width leaves at least one column outside before column
    /// `col_start` comes round again.
    pub fn contains_region(&self, other: &TileRegion) -> bool {
        let rows = self.row_min <= other.row_min && other.row_max <= self.row_max;
        let offset = (other.col_start + self.grid_cols - self.col_start) % self.grid_cols;
        rows && (self.col_span == self.grid_cols || offset + other.col_span <= self.col_span)
    }

    /// Iterates over the tiles of the region, row-major, west to east
    /// from `col_start`: in each row the run from `col_start`, then the
    /// part that wraps to column 0.
    pub fn tiles(&self) -> impl Iterator<Item = TileId> {
        let [wrapped, east] = self.col_runs();
        (self.row_min..=self.row_max).flat_map(move |row| {
            east.clone()
                .chain(wrapped.clone())
                .map(move |col| TileId::new(row, col))
        })
    }

    /// The region's columns as at most two ascending runs, in flat-index
    /// order: the part that wraps past the last column (`0..end`, empty
    /// unless the region crosses the antimeridian) comes first, then
    /// `col_start..`. Together they hold exactly the columns of
    /// [`Self::contains`].
    pub fn col_runs(&self) -> [Range<usize>; 2] {
        let end = self.col_start + self.col_span;
        if end <= self.grid_cols {
            [0..0, self.col_start..end]
        } else {
            [0..end - self.grid_cols, self.col_start..self.grid_cols]
        }
    }

    /// Width of the region in degrees of yaw on the given grid.
    pub fn width_deg(&self, grid: &TileGrid) -> f64 {
        self.col_span as f64 * grid.tile_width_deg()
    }

    /// Fraction of the whole frame the region covers, in planar degrees.
    pub fn area_fraction(&self, grid: &TileGrid) -> f64 {
        self.tile_count() as f64 / grid.tile_count() as f64
    }
}

/// The shortest circular run of columns on an `n`-column grid that holds
/// every column of `occupied` (ascending and distinct), as `(col_start,
/// col_span)`: everything but the largest gap between consecutive
/// occupied columns. On a tie the first gap in ascending order wins, and
/// the gap that wraps from the last occupied column round to the first
/// counts last. Every column occupied gives `(0, n)`; none gives `None`.
fn shortest_arc(n: usize, occupied: impl IntoIterator<Item = usize>) -> Option<(usize, usize)> {
    let mut occupied = occupied.into_iter();
    let first = occupied.next()?;
    let (mut prev, mut count) = (first, 1usize);
    // (gap, first column after it, last column before it)
    let mut best = (0usize, first, first);
    for col in occupied {
        let gap = col - prev - 1;
        if gap > best.0 {
            best = (gap, col, prev);
        }
        prev = col;
        count += 1;
    }
    if count == n {
        return Some((0, n));
    }
    let wrap = first + n - prev - 1;
    if wrap > best.0 {
        best = (wrap, first, prev);
    }
    let (_, start, end) = best;
    Some((start, (end + n - start) % n + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_support::prelude::*;

    fn grid() -> TileGrid {
        TileGrid::paper_default()
    }

    #[test]
    fn from_single_tile() {
        let r = TileRegion::from_tiles(&grid(), [TileId::new(2, 3)]).unwrap();
        assert_eq!(r.tile_count(), 1);
        assert!(r.contains(TileId::new(2, 3)));
        assert!(!r.contains(TileId::new(2, 4)));
    }

    #[test]
    fn from_empty_is_none() {
        assert!(TileRegion::from_tiles(&grid(), []).is_none());
    }

    #[test]
    fn bounding_simple_block() {
        let tiles = [TileId::new(1, 2), TileId::new(2, 4), TileId::new(1, 3)];
        let r = TileRegion::from_tiles(&grid(), tiles).unwrap();
        assert_eq!(r.row_min(), 1);
        assert_eq!(r.row_max(), 2);
        assert_eq!(r.col_start(), 2);
        assert_eq!(r.col_span(), 3);
        assert_eq!(r.tile_count(), 6);
    }

    #[test]
    fn bounding_wraps_shortest_arc() {
        // Columns 7 and 0 should give a 2-wide wrapped region, not 8-wide.
        let tiles = [TileId::new(0, 7), TileId::new(0, 0)];
        let r = TileRegion::from_tiles(&grid(), tiles).unwrap();
        assert_eq!(r.col_span(), 2);
        assert_eq!(r.col_start(), 7);
        assert!(r.contains(TileId::new(0, 0)));
        assert!(!r.contains(TileId::new(0, 4)));
    }

    #[test]
    fn all_columns_occupied() {
        let tiles: Vec<_> = (0..8).map(|c| TileId::new(1, c)).collect();
        let r = TileRegion::from_tiles(&grid(), tiles).unwrap();
        assert_eq!(r.col_span(), 8);
        assert_eq!(r.tile_count(), 8);
    }

    #[test]
    fn tiles_iterator_matches_contains() {
        let r = TileRegion::new(&grid(), 1, 2, 6, 3);
        let listed: std::collections::HashSet<_> = r.tiles().collect();
        assert_eq!(listed.len(), r.tile_count());
        for t in grid().iter() {
            assert_eq!(listed.contains(&t), r.contains(t), "{t:?}");
        }
    }

    #[test]
    fn geometry_in_degrees() {
        let g = grid();
        let r = TileRegion::new(&g, 1, 2, 0, 3);
        assert!((r.width_deg(&g) - 135.0).abs() < 1e-12);
        assert!((r.area_fraction(&g) - 6.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn contains_region_subset() {
        let g = grid();
        let big = TileRegion::new(&g, 0, 3, 0, 8);
        let small = TileRegion::new(&g, 1, 2, 6, 3);
        assert!(big.contains_region(&small));
        assert!(!small.contains_region(&big));
    }

    #[test]
    fn contains_region_across_the_antimeridian() {
        let g = grid();
        let wrapped = TileRegion::new(&g, 0, 3, 6, 4); // columns 6, 7, 0, 1
        assert!(wrapped.contains_region(&TileRegion::new(&g, 1, 2, 7, 2)));
        assert!(wrapped.contains_region(&TileRegion::new(&g, 1, 2, 0, 2)));
        assert!(!wrapped.contains_region(&TileRegion::new(&g, 1, 2, 1, 2)));
        assert!(!wrapped.contains_region(&TileRegion::new(&g, 1, 2, 5, 2)));
        // A full-width region contains every region of its rows.
        let full = TileRegion::new(&g, 1, 2, 3, 8);
        assert!(full.contains_region(&TileRegion::new(&g, 1, 2, 5, 8)));
        assert!(!full.contains_region(&TileRegion::new(&g, 0, 2, 5, 1)));
        assert_eq!(wrapped.col_runs(), [0..2, 6..8]);
        assert_eq!(full.col_runs(), [0..3, 3..8]);
    }

    #[test]
    fn union_matches_from_tiles_on_every_pair_of_small_regions() {
        // Every pair of regions on grids up to 2 × 8, which includes the
        // ties between the inner and the wrapping gap (columns {0, 1} and
        // {4, 5} of eight: the arc must start after the inner gap).
        for cols in 1..=8 {
            let g = TileGrid::new(2, cols);
            let regions: Vec<TileRegion> = [(0, 0), (0, 1), (1, 1)]
                .into_iter()
                .flat_map(|(r0, r1)| {
                    (0..cols).flat_map(move |c| {
                        (1..=cols).map(move |w| TileRegion::new(&g, r0, r1, c, w))
                    })
                })
                .collect();
            for a in &regions {
                for b in &regions {
                    assert_eq!(
                        Some(a.union(b)),
                        TileRegion::from_tiles(&g, a.tiles().chain(b.tiles())),
                        "{a:?} ∪ {b:?}"
                    );
                }
            }
        }
        let g = grid();
        let tie = TileRegion::new(&g, 0, 0, 0, 2).union(&TileRegion::new(&g, 0, 0, 4, 2));
        assert_eq!((tie.col_start(), tie.col_span()), (4, 6));
    }

    #[test]
    #[should_panic(expected = "col_span")]
    fn zero_span_panics() {
        let _ = TileRegion::new(&grid(), 0, 0, 0, 0);
    }

    /// `from_tiles` as it read before the occupancy scan: rows by fold,
    /// columns sorted and deduplicated.
    fn sorted_columns_region(grid: &TileGrid, tiles: &[TileId]) -> Option<TileRegion> {
        if tiles.is_empty() {
            return None;
        }
        let (row_min, row_max) = tiles.iter().fold((usize::MAX, 0), |(lo, hi), t| {
            (lo.min(t.row), hi.max(t.row))
        });
        let mut cols: Vec<usize> = tiles.iter().map(|t| t.col).collect();
        cols.sort_unstable();
        cols.dedup();
        let n = grid.cols();
        if cols.len() == n {
            return Some(TileRegion::new(grid, row_min, row_max, 0, n));
        }
        let mut best_gap = 0usize;
        let mut best_after = 0usize;
        for i in 0..cols.len() {
            let next = cols[(i + 1) % cols.len()];
            let gap = (next + n - cols[i] - 1) % n;
            if gap > best_gap {
                best_gap = gap;
                best_after = (i + 1) % cols.len();
            }
        }
        let col_start = cols[best_after];
        let col_end = cols[(best_after + cols.len() - 1) % cols.len()];
        let col_span = (col_end + n - col_start) % n + 1;
        Some(TileRegion::new(grid, row_min, row_max, col_start, col_span))
    }

    proptest! {
        #[test]
        fn bounding_region_contains_inputs(
            tiles in ee360_support::prop::collection::vec((0usize..4, 0usize..8), 1..12)
        ) {
            let g = grid();
            let ids: Vec<TileId> = tiles.iter().map(|&(r, c)| TileId::new(r, c)).collect();
            let region = TileRegion::from_tiles(&g, ids.clone()).unwrap();
            for t in &ids {
                prop_assert!(region.contains(*t), "{:?} not in {:?}", t, region);
            }
        }

        #[test]
        fn bounding_region_is_minimal_rows(
            tiles in ee360_support::prop::collection::vec((0usize..4, 0usize..8), 1..12)
        ) {
            let g = grid();
            let ids: Vec<TileId> = tiles.iter().map(|&(r, c)| TileId::new(r, c)).collect();
            let region = TileRegion::from_tiles(&g, ids.clone()).unwrap();
            let rmin = ids.iter().map(|t| t.row).min().unwrap();
            let rmax = ids.iter().map(|t| t.row).max().unwrap();
            prop_assert_eq!(region.row_min(), rmin);
            prop_assert_eq!(region.row_max(), rmax);
        }

        #[test]
        fn iterator_count_matches(
            row_min in 0usize..4, extra in 0usize..4,
            col_start in 0usize..8, span in 1usize..=8,
        ) {
            let g = grid();
            let row_max = (row_min + extra).min(3);
            let r = TileRegion::new(&g, row_min, row_max, col_start, span);
            prop_assert_eq!(r.tiles().count(), r.tile_count());
        }

        #[test]
        fn bounds_containment_matches_tile_by_tile(
            dims in (1usize..8, 1usize..40),
            outer in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..=1.0),
            inner in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..=1.0),
        ) {
            let g = TileGrid::new(dims.0, dims.1);
            let region = |(r0, r1, c0, w): (f64, f64, f64, f64)| {
                let (a, b) = ((r0 * dims.0 as f64) as usize, (r1 * dims.0 as f64) as usize);
                // Spans cover single columns, wrapping runs and the full width.
                let span = 1 + (w * (dims.1 - 1) as f64).round() as usize;
                TileRegion::new(&g, a.min(b), a.max(b), (c0 * dims.1 as f64) as usize, span)
            };
            let (outer, inner) = (region(outer), region(inner));
            for (a, b) in [(outer, inner), (inner, outer), (outer, outer)] {
                prop_assert_eq!(a.contains_region(&b), b.tiles().all(|t| a.contains(t)));
            }
        }

        #[test]
        fn col_runs_are_the_contained_columns_ascending(
            cols in 1usize..40, c0 in 0.0f64..1.0, w in 0.0f64..=1.0,
        ) {
            let g = TileGrid::new(1, cols);
            let span = 1 + (w * (cols - 1) as f64).round() as usize;
            let r = TileRegion::new(&g, 0, 0, (c0 * cols as f64) as usize, span);
            let listed: Vec<usize> = r.col_runs().into_iter().flatten().collect();
            let expected: Vec<usize> = (0..cols).filter(|&c| r.contains(TileId::new(0, c))).collect();
            prop_assert_eq!(listed, expected);
        }

        #[test]
        fn tiles_run_west_to_east_from_col_start(
            dims in (1usize..8, 1usize..40),
            (r0, r1, c0, w) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..=1.0),
        ) {
            let (rows, cols) = dims;
            let g = TileGrid::new(rows, cols);
            let (a, b) = ((r0 * rows as f64) as usize, (r1 * rows as f64) as usize);
            let span = 1 + (w * (cols - 1) as f64).round() as usize;
            let r = TileRegion::new(&g, a.min(b), a.max(b), (c0 * cols as f64) as usize, span);
            // The modular walk `tiles` used before it iterated the runs.
            let modular: Vec<TileId> = (r.row_min()..=r.row_max())
                .flat_map(|row| {
                    (0..r.col_span()).map(move |dc| TileId::new(row, (r.col_start() + dc) % cols))
                })
                .collect();
            prop_assert_eq!(r.tiles().collect::<Vec<_>>(), modular);
        }

        #[test]
        fn union_matches_from_tiles_of_both_regions(
            dims in (1usize..8, 1usize..40),
            first in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..=1.0),
            second in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..=1.0),
        ) {
            let g = TileGrid::new(dims.0, dims.1);
            let region = |(r0, r1, c0, w): (f64, f64, f64, f64)| {
                let (a, b) = ((r0 * dims.0 as f64) as usize, (r1 * dims.0 as f64) as usize);
                // Spans cover single columns, wrapping runs and the full width.
                let span = 1 + (w * (dims.1 - 1) as f64).round() as usize;
                TileRegion::new(&g, a.min(b), a.max(b), (c0 * dims.1 as f64) as usize, span)
            };
            let (a, b) = (region(first), region(second));
            for (x, y) in [(a, b), (b, a), (a, a)] {
                prop_assert_eq!(
                    Some(x.union(&y)),
                    TileRegion::from_tiles(&g, x.tiles().chain(y.tiles()))
                );
            }
        }

        #[test]
        fn occupancy_scan_matches_sorted_columns(
            dims in (1usize..8, 1usize..40),
            cells in ee360_support::prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..60),
        ) {
            let g = TileGrid::new(dims.0, dims.1);
            let ids: Vec<TileId> = cells
                .iter()
                .map(|&(r, c)| {
                    TileId::new((r * dims.0 as f64) as usize, (c * dims.1 as f64) as usize)
                })
                .collect();
            prop_assert_eq!(
                TileRegion::from_tiles(&g, ids.iter().copied()),
                sorted_columns_region(&g, &ids)
            );
        }
    }
}
