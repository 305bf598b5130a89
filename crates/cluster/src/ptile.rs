//! From clusters to Ptiles and background blocks (Section IV-A).
//!
//! For each sufficiently popular cluster, the Ptile is the rectangular
//! block of conventional tiles covering the viewing areas of the cluster's
//! users. The remaining frame area is partitioned into a few large
//! background blocks "along the Ptile's upper and lower horizontal lines",
//! encoded at the lowest quality and shipped alongside the Ptile so a
//! surprise view switch degrades quality instead of stalling.

use ee360_geom::grid::TileGrid;
use ee360_geom::region::TileRegion;
use ee360_geom::viewport::{ViewCenter, Viewport, PAPER_FOV_DEG};

use crate::algorithm1::{cluster_viewing_centers, ClusteringParams};

/// Configuration of the Ptile builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PtileConfig {
    /// Clustering parameters (δ, σ).
    pub clustering: ClusteringParams,
    /// Minimum cluster size for which a Ptile is constructed (the paper
    /// uses 5 users = 10% of the training population).
    pub min_users: usize,
    /// Horizontal field of view, degrees.
    pub fov_h_deg: f64,
    /// Vertical field of view, degrees.
    pub fov_v_deg: f64,
}

ee360_support::impl_json_struct!(PtileConfig {
    clustering,
    min_users,
    fov_h_deg,
    fov_v_deg
});

impl PtileConfig {
    /// Section V-B settings: paper clustering parameters, ≥5 users,
    /// 100°×100° FoV.
    pub fn paper_default() -> Self {
        Self {
            clustering: ClusteringParams::paper_default(),
            min_users: 5,
            fov_h_deg: PAPER_FOV_DEG,
            fov_v_deg: PAPER_FOV_DEG,
        }
    }
}

impl Default for PtileConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// One constructed Ptile.
#[derive(Debug, Clone, PartialEq)]
pub struct Ptile {
    /// The tile block the Ptile encodes.
    pub region: TileRegion,
    /// Indices (into the builder's input) of the users whose viewing areas
    /// the Ptile covers.
    pub members: Vec<usize>,
}

ee360_support::impl_json_struct!(Ptile { region, members });

impl Ptile {
    /// Number of users in the Ptile's cluster.
    pub fn user_count(&self) -> usize {
        self.members.len()
    }

    /// The Ptile's area as a fraction of the whole frame.
    pub fn area_fraction(&self, grid: &TileGrid) -> f64 {
        self.region.area_fraction(grid)
    }
}

/// Builds the Ptiles for one video segment from the training users'
/// viewing centers.
///
/// Clusters the centers with Algorithm 1, drops clusters smaller than
/// `min_users`, and bounds each surviving cluster's members' FoV tile
/// blocks into one [`TileRegion`].
///
/// # Example
///
/// ```
/// use ee360_cluster::ptile::{build_ptiles, PtileConfig};
/// use ee360_geom::grid::TileGrid;
/// use ee360_geom::viewport::ViewCenter;
///
/// let grid = TileGrid::paper_default();
/// let centers: Vec<ViewCenter> =
///     (0..8).map(|i| ViewCenter::new(i as f64 * 3.0, 0.0)).collect();
/// let ptiles = build_ptiles(&centers, &grid, &PtileConfig::paper_default());
/// assert_eq!(ptiles.len(), 1);
/// assert_eq!(ptiles[0].user_count(), 8);
/// ```
pub fn build_ptiles(centers: &[ViewCenter], grid: &TileGrid, config: &PtileConfig) -> Vec<Ptile> {
    assert!(config.min_users >= 1, "min_users must be at least 1");
    let clusters = cluster_viewing_centers(centers, &config.clustering);
    let mut ptiles = Vec::new();
    for members in clusters {
        if members.len() < config.min_users {
            continue;
        }
        let tiles = members.iter().flat_map(|&m| {
            grid.fov_block_tiles(&Viewport::new(
                centers[m],
                config.fov_h_deg,
                config.fov_v_deg,
            ))
        });
        let region = TileRegion::from_tiles(grid, tiles).expect("members is non-empty");
        ptiles.push(Ptile { region, members });
    }
    // Most popular first, deterministic order.
    ptiles.sort_by_key(|p| std::cmp::Reverse(p.members.len()));
    ptiles
}

/// Partitions the frame area left of a Ptile into large background blocks
/// along the Ptile's upper and lower horizontal lines, as the paper
/// describes: one block above the Ptile's rows, one below, and one filling
/// the remaining columns of the Ptile's own rows.
///
/// Returns the non-empty blocks.
pub fn background_blocks(ptile: &TileRegion, grid: &TileGrid) -> Vec<TileRegion> {
    let mut blocks = Vec::new();
    // Above the Ptile: full-width band.
    if ptile.row_min() > 0 {
        blocks.push(TileRegion::new(
            grid,
            0,
            ptile.row_min() - 1,
            0,
            grid.cols(),
        ));
    }
    // Below the Ptile: full-width band.
    if ptile.row_max() + 1 < grid.rows() {
        blocks.push(TileRegion::new(
            grid,
            ptile.row_max() + 1,
            grid.rows() - 1,
            0,
            grid.cols(),
        ));
    }
    // The Ptile's own rows, remaining columns.
    if ptile.col_span() < grid.cols() {
        let start = (ptile.col_start() + ptile.col_span()) % grid.cols();
        blocks.push(TileRegion::new(
            grid,
            ptile.row_min(),
            ptile.row_max(),
            start,
            grid.cols() - ptile.col_span(),
        ));
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> TileGrid {
        TileGrid::paper_default()
    }

    fn tight_cluster(yaw: f64, pitch: f64, n: usize) -> Vec<ViewCenter> {
        (0..n)
            .map(|i| ViewCenter::new(yaw + i as f64 * 1.5, pitch + (i % 3) as f64))
            .collect()
    }

    #[test]
    fn single_cluster_single_ptile() {
        let centers = tight_cluster(0.0, 0.0, 10);
        let ptiles = build_ptiles(&centers, &grid(), &PtileConfig::paper_default());
        assert_eq!(ptiles.len(), 1);
        assert_eq!(ptiles[0].user_count(), 10);
        // A tight cluster's Ptile is close to the 3×3 FoV block.
        assert!(ptiles[0].region.tile_count() <= 16);
        assert!(ptiles[0].region.tile_count() >= 9);
    }

    #[test]
    fn small_clusters_are_dropped() {
        let mut centers = tight_cluster(0.0, 0.0, 6);
        centers.extend(tight_cluster(150.0, 10.0, 3)); // below min_users = 5
        let ptiles = build_ptiles(&centers, &grid(), &PtileConfig::paper_default());
        assert_eq!(ptiles.len(), 1);
        assert_eq!(ptiles[0].user_count(), 6);
    }

    #[test]
    fn two_popular_clusters_two_ptiles() {
        let mut centers = tight_cluster(-90.0, 0.0, 8);
        centers.extend(tight_cluster(90.0, 0.0, 6));
        let ptiles = build_ptiles(&centers, &grid(), &PtileConfig::paper_default());
        assert_eq!(ptiles.len(), 2);
        // Sorted most-popular first.
        assert!(ptiles[0].user_count() >= ptiles[1].user_count());
    }

    #[test]
    fn ptile_covers_member_fov_blocks() {
        let centers = tight_cluster(30.0, -10.0, 7);
        let g = grid();
        let cfg = PtileConfig::paper_default();
        let ptiles = build_ptiles(&centers, &g, &cfg);
        let ptile = &ptiles[0];
        for &m in &ptile.members {
            let vp = Viewport::new(centers[m], cfg.fov_h_deg, cfg.fov_v_deg);
            for t in g.fov_block(&vp) {
                assert!(ptile.region.contains(t), "tile {t:?} of member {m}");
            }
        }
    }

    #[test]
    fn ptile_across_antimeridian() {
        let centers = tight_cluster(178.0, 0.0, 6);
        let ptiles = build_ptiles(&centers, &grid(), &PtileConfig::paper_default());
        assert_eq!(ptiles.len(), 1);
        // The region must wrap (its column window crosses column 0).
        let cols: Vec<usize> = ptiles[0].region.tiles().map(|t| t.col).collect();
        assert!(cols.contains(&7) && cols.contains(&0));
    }

    #[test]
    fn empty_input_no_ptiles() {
        let ptiles = build_ptiles(&[], &grid(), &PtileConfig::paper_default());
        assert!(ptiles.is_empty());
    }

    #[test]
    fn background_partitions_frame() {
        let g = grid();
        let ptile = TileRegion::new(&g, 1, 2, 3, 3); // 2×3 block mid-frame
        let blocks = background_blocks(&ptile, &g);
        // Blocks plus the Ptile must tile the frame exactly once.
        let mut counts = vec![0usize; g.tile_count()];
        for t in ptile.tiles() {
            counts[g.flat_index(t)] += 1;
        }
        for b in &blocks {
            for t in b.tiles() {
                counts[g.flat_index(t)] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 1), "{counts:?}");
        // Above-band, below-band and side-band → 3 blocks.
        assert_eq!(blocks.len(), 3);
    }

    #[test]
    fn background_of_full_height_ptile() {
        let g = grid();
        let ptile = TileRegion::new(&g, 0, 3, 0, 4);
        let blocks = background_blocks(&ptile, &g);
        assert_eq!(blocks.len(), 1); // only the side band remains
        assert_eq!(blocks[0].tile_count(), 16);
    }

    #[test]
    fn background_of_full_frame_ptile_is_empty() {
        let g = grid();
        let ptile = TileRegion::new(&g, 0, 3, 0, 8);
        assert!(background_blocks(&ptile, &g).is_empty());
    }

    #[test]
    fn background_blocks_are_large() {
        // The point of the partition: a handful of large blocks, not 23
        // small tiles.
        let g = grid();
        let ptile = TileRegion::new(&g, 1, 2, 0, 3);
        let blocks = background_blocks(&ptile, &g);
        assert!(blocks.len() <= 3);
        assert!(blocks.iter().all(|b| b.tile_count() >= 2));
    }

    #[test]
    #[should_panic(expected = "min_users")]
    fn zero_min_users_panics() {
        let mut cfg = PtileConfig::paper_default();
        cfg.min_users = 0;
        let _ = build_ptiles(&[], &grid(), &cfg);
    }
}
