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
use ee360_support::json::{field, FromJson, Json, JsonError, ToJson};

/// The paper's Ftile parameters: a 15×30 block grid clustered into 10
/// tiles.
pub const FTILE_BLOCK_ROWS: usize = 15;
/// Number of block columns.
pub const FTILE_BLOCK_COLS: usize = 30;
/// Number of variable-size tiles the blocks are clustered into.
pub const FTILE_TILE_COUNT: usize = 10;

/// One segment's variable-size tiling.
///
/// Every layout [`Self::build`] returns partitions the block grid: its
/// tiles are disjoint rectangles that never wrap past the last column,
/// and together they hold every block exactly once. Tile selection and
/// coverage count blocks as sums of per-tile overlaps, which relies on
/// this.
#[derive(Debug, Clone, PartialEq)]
pub struct FtileLayout {
    /// The fine block grid (15×30).
    block_grid: TileGrid,
    /// The ten tile rectangles, each a region of blocks.
    tiles: Vec<TileRegion>,
}

impl ToJson for FtileLayout {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("block_grid".to_owned(), self.block_grid.to_json()),
            ("tiles".to_owned(), self.tiles.to_json()),
        ])
    }
}

impl FromJson for FtileLayout {
    /// Reads a layout back, rejecting one whose tiles do not partition
    /// its block grid or do not fit an [`FtileSet`]: selection and
    /// coverage count blocks as sums of per-tile overlaps, which would
    /// count a block twice in overlapping tiles.
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if v.as_object().is_none() {
            return Err(JsonError::Type {
                expected: "object",
                found: "non-object",
            });
        }
        let layout = Self {
            block_grid: field(v, "block_grid")?,
            tiles: field(v, "tiles")?,
        };
        if layout.tiles.len() <= FtileSet::CAPACITY && layout.is_partition() {
            Ok(layout)
        } else {
            Err(JsonError::Invalid(
                "Ftile layout tiles must partition the block grid".to_owned(),
            ))
        }
    }
}

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

    /// Whether the tiles hold every block of the grid exactly once. A
    /// tile reaching outside the grid fails at its first such block, so
    /// the walk is bounded by the grid's size.
    fn is_partition(&self) -> bool {
        let (rows, cols) = (self.block_grid.rows(), self.block_grid.cols());
        let mut owners = vec![0u8; rows * cols];
        let inside = self.tiles.iter().flat_map(TileRegion::tiles).all(|t| {
            let owner = (t.row < rows && t.col < cols)
                .then(|| owners.get_mut(t.row * cols + t.col))
                .flatten();
            owner.map(|n| *n = n.saturating_add(1)).is_some()
        });
        inside && owners.iter().all(|&n| n == 1)
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
    /// the viewport's block coverage ([`TileGrid::covering_span`]).
    /// Returns `(tile set, total area fraction)`, the area summed in tile
    /// order.
    ///
    /// A tile intersects the coverage iff its overlap with the span, row
    /// overlap × column-run overlap
    /// ([`TileSpan::overlap`](ee360_geom::grid::TileSpan::overlap)), is positive,
    /// so no block list is built. Only the first [`FtileSet::CAPACITY`]
    /// tiles are considered; [`Self::build`] makes [`FTILE_TILE_COUNT`].
    pub fn tiles_for_viewport(&self, vp: &Viewport) -> (FtileSet, f64) {
        let span = self.block_grid.covering_span(vp);
        let mut chosen = FtileSet::default();
        let mut area = 0.0;
        for (i, tile) in self.tiles.iter().take(FtileSet::CAPACITY).enumerate() {
            if span.overlap(tile) > 0 {
                chosen.insert(i);
                area += tile.area_fraction(&self.block_grid);
            }
        }
        (chosen, area)
    }

    /// Fraction of a user's FoV blocks covered by a chosen tile set — the
    /// QoE blend input for prediction misses.
    ///
    /// The covered blocks are counted as the sum of the chosen tiles'
    /// overlaps with the viewport's span. That is exact because the
    /// tiles partition the block grid (see [`FtileLayout`]): a covered
    /// block lies in exactly one tile, so no block is counted twice.
    pub fn coverage_fraction(&self, chosen: FtileSet, actual: &Viewport) -> f64 {
        let span = self.block_grid.covering_span(actual);
        let blocks = span.tile_count();
        if blocks == 0 {
            return 0.0;
        }
        let covered: usize = chosen
            .iter()
            .filter_map(|i| self.tiles.get(i))
            .map(|tile| span.overlap(tile))
            .sum();
        covered as f64 / blocks as f64
    }
}

/// A set of a layout's tile indices, one bit per tile: what
/// [`FtileLayout::tiles_for_viewport`] selects. It is `Copy`, so a
/// session carries its selection from planning to booking without a
/// heap allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtileSet(u64);

impl FtileSet {
    /// Tile indices `0..CAPACITY` fit in the set.
    pub const CAPACITY: usize = u64::BITS as usize;

    /// The bit of tile `i`; none for an index past [`Self::CAPACITY`].
    fn bit(i: usize) -> u64 {
        u32::try_from(i)
            .ok()
            .and_then(|i| 1u64.checked_shl(i))
            .unwrap_or(0)
    }

    /// Adds tile `i`; an index past [`Self::CAPACITY`] is ignored.
    fn insert(&mut self, i: usize) {
        self.0 |= Self::bit(i);
    }

    /// Whether tile `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        self.0 & Self::bit(i) != 0
    }

    /// Number of tiles in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set holds no tile.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// The tile indices, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            let i = rest.trailing_zeros();
            (rest != 0).then(|| {
                rest &= rest - 1;
                i as usize
            })
        })
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
        let span = block_grid.covering_span(&Viewport::paper_fov(*c));
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
            .map(|i| layout.tiles()[i].tile_count() as f64)
            .sum::<f64>()
            / chosen.len() as f64;
        let other: Vec<usize> = (0..layout.tile_count())
            .filter(|&i| !chosen.contains(i))
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
        assert!((layout.coverage_fraction(chosen, &vp) - 1.0).abs() < 1e-12);
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
        let frac = layout.coverage_fraction(chosen, &actual_far);
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
    /// `+= 1.0` per covered block per viewport, over `tiles_covering`.
    fn per_block_weights(centers: &[ViewCenter]) -> Vec<Vec<f64>> {
        let block_grid = TileGrid::new(FTILE_BLOCK_ROWS, FTILE_BLOCK_COLS);
        let mut weights = vec![vec![0.05f64; FTILE_BLOCK_COLS]; FTILE_BLOCK_ROWS];
        for c in centers {
            let vp = Viewport::paper_fov(*c);
            for b in &block_grid.tiles_covering(&vp) {
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

    /// `tiles_for_viewport` as it read before the span overlaps: the
    /// viewport's block list, each tile tested against every block.
    fn listed_tiles_for_viewport(layout: &FtileLayout, vp: &Viewport) -> (Vec<usize>, f64) {
        let covered = layout.block_grid.tiles_covering(vp);
        let mut chosen = Vec::new();
        let mut area = 0.0;
        for (i, tile) in layout.tiles.iter().enumerate() {
            if covered.iter().any(|&b| tile.contains(b)) {
                chosen.push(i);
                area += tile.area_fraction(&layout.block_grid);
            }
        }
        (chosen, area)
    }

    /// `coverage_fraction` as it read before the span overlaps.
    fn listed_coverage_fraction(layout: &FtileLayout, chosen: &[usize], actual: &Viewport) -> f64 {
        let blocks = layout.block_grid.tiles_covering(actual);
        if blocks.is_empty() {
            return 0.0;
        }
        let covered = blocks
            .iter()
            .filter(|b| chosen.iter().any(|&i| layout.tiles[i].contains(**b)))
            .count();
        covered as f64 / blocks.len() as f64
    }

    /// Training centres from `(yaw, pitch, dup)` draws; one draw in four
    /// repeats the previous centre.
    fn centers_from(draws: &[(f64, f64, usize)]) -> Vec<ViewCenter> {
        let mut centers: Vec<ViewCenter> = Vec::new();
        for &(y, p, dup) in draws {
            let c = match centers.last() {
                Some(&last) if dup == 0 => last,
                _ => ViewCenter::new(y, p),
            };
            centers.push(c);
        }
        centers
    }

    /// A viewport from unit draws: a third sit on or next to a pole, a
    /// third next to the antimeridian, and a few span the full yaw or
    /// pitch range.
    fn viewport_from(
        (y, p, place): (f64, f64, usize),
        (h, v, full): (f64, f64, usize),
    ) -> Viewport {
        let (yaw, pitch) = match place {
            0 => (y * 360.0 - 180.0, if p < 0.5 { -90.0 } else { 90.0 - p }),
            1 => (
                if p < 0.5 { 180.0 - y } else { -180.0 + y },
                p * 180.0 - 90.0,
            ),
            _ => (y * 360.0 - 180.0, p * 180.0 - 90.0),
        };
        let fov_h = if full == 0 { 360.0 } else { 1.0 + h * 359.0 };
        let fov_v = if full == 1 { 180.0 } else { 1.0 + v * 179.0 };
        Viewport::new(ViewCenter::new(yaw, pitch), fov_h, fov_v)
    }

    #[test]
    fn span_selection_matches_block_lists_on_a_fixed_layout() {
        let layout = FtileLayout::build(&cluster_at(175.0, 60.0, 20));
        for (yaw, pitch, fov) in [
            (179.9, 89.0, 100.0),
            (-180.0, -90.0, 100.0),
            (0.0, 0.0, 360.0),
            (90.0, 45.0, 1.0),
        ] {
            let vp = Viewport::new(ViewCenter::new(yaw, pitch), fov, fov.min(180.0));
            let (chosen, area) = layout.tiles_for_viewport(&vp);
            let (listed, listed_area) = listed_tiles_for_viewport(&layout, &vp);
            assert_eq!(chosen.iter().collect::<Vec<_>>(), listed);
            assert_eq!(area.to_bits(), listed_area.to_bits());
            assert_eq!(
                layout.coverage_fraction(chosen, &vp).to_bits(),
                listed_coverage_fraction(&layout, &listed, &vp).to_bits()
            );
        }
    }

    #[test]
    fn layouts_that_do_not_partition_the_grid_are_rejected() {
        let layout = FtileLayout::build(&cluster_at(0.0, 0.0, 5));
        let grid = layout.block_grid;
        let whole = TileRegion::new(&grid, 0, FTILE_BLOCK_ROWS - 1, 0, FTILE_BLOCK_COLS);
        let mut overlapping = layout.clone();
        overlapping.tiles[0] = whole;
        let mut short = layout.clone();
        short.tiles.pop();
        // One tile per block partitions the grid but does not fit a set.
        let mut too_many = layout.clone();
        too_many.tiles = grid
            .iter()
            .map(|b| TileRegion::new(&grid, b.row, b.row, b.col, 1))
            .collect();
        for bad in [overlapping, short, too_many] {
            let json = ee360_support::json::to_string(&bad).unwrap();
            assert!(ee360_support::json::from_str::<FtileLayout>(&json).is_err());
        }
        // One tile covering the whole grid is a partition.
        let single = FtileLayout {
            block_grid: grid,
            tiles: vec![whole],
        };
        let json = ee360_support::json::to_string(&single).unwrap();
        assert_eq!(
            ee360_support::json::from_str::<FtileLayout>(&json).unwrap(),
            single
        );
    }

    #[test]
    fn ftile_set_iterates_its_members_ascending() {
        let mut set = FtileSet::default();
        assert!(set.is_empty());
        for i in [9, 0, 63, 4, 4] {
            set.insert(i);
        }
        set.insert(FtileSet::CAPACITY);
        set.insert(usize::MAX);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 4, 9, 63]);
        assert_eq!(set.len(), 4);
        assert!(set.contains(63) && !set.contains(5) && !set.contains(64));
    }

    proptest! {
        #[test]
        fn built_layouts_partition_the_block_grid(
            draws in ee360_support::prop::collection::vec(
                (-180.0f64..180.0, -90.0f64..=90.0, 0usize..4), 0..65
            ),
        ) {
            let layout = FtileLayout::build(&centers_from(&draws));
            let grid = layout.block_grid();
            prop_assert_eq!(layout.tile_count(), FTILE_TILE_COUNT);
            let mut owners = vec![0usize; grid.tile_count()];
            for tile in layout.tiles() {
                // Non-wrapping: the column run ends by the last column.
                prop_assert!(tile.col_start() + tile.col_span() <= grid.cols());
                for b in tile.tiles() {
                    owners[grid.flat_index(b)] += 1;
                }
            }
            prop_assert!(owners.iter().all(|&n| n == 1), "every block in exactly one tile");
        }

        #[test]
        fn span_selection_matches_block_lists_bit_for_bit(
            draws in ee360_support::prop::collection::vec(
                (-180.0f64..180.0, -90.0f64..=90.0, 0usize..4), 0..41
            ),
            predicted in ((0.0f64..1.0, 0.0f64..1.0, 0usize..3), (0.0f64..=1.0, 0.0f64..=1.0, 0usize..8)),
            actual in ((0.0f64..1.0, 0.0f64..1.0, 0usize..3), (0.0f64..=1.0, 0.0f64..=1.0, 0usize..8)),
        ) {
            let layout = FtileLayout::build(&centers_from(&draws));
            let predicted = viewport_from(predicted.0, predicted.1);
            let actual = viewport_from(actual.0, actual.1);
            let (chosen, area) = layout.tiles_for_viewport(&predicted);
            let (listed, listed_area) = listed_tiles_for_viewport(&layout, &predicted);
            prop_assert_eq!(chosen.iter().collect::<Vec<_>>(), listed.clone());
            prop_assert_eq!(chosen.len(), listed.len());
            prop_assert_eq!(area.to_bits(), listed_area.to_bits());
            for vp in [&predicted, &actual] {
                prop_assert_eq!(
                    layout.coverage_fraction(chosen, vp).to_bits(),
                    listed_coverage_fraction(&layout, &listed, vp).to_bits()
                );
            }
        }

        #[test]
        fn run_counted_weights_match_per_block_fill(
            draws in ee360_support::prop::collection::vec(
                (-180.0f64..180.0, -90.0f64..=90.0, 0usize..4), 0..65
            ),
        ) {
            let centers = centers_from(&draws);
            let grid = TileGrid::new(FTILE_BLOCK_ROWS, FTILE_BLOCK_COLS);
            prop_assert_eq!(
                bits(&block_weights(&grid, &centers)),
                bits(&per_block_weights(&centers))
            );
        }
    }
}
