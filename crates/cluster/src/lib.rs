//! Ptile construction (Section IV-A, Algorithm 1).
//!
//! Users with similar viewing interests have nearby viewing centers; by
//! clustering the centers of the 40 training users per segment, the server
//! decides which tile blocks to encode as large **Ptiles**. The paper's
//! Algorithm 1 is a density-style BFS growth with a size guard:
//!
//! 1. precompute each node's δ-neighbourhood,
//! 2. seed a cluster at the node with the most neighbours and grow it
//!    breadth-first through δ-close nodes,
//! 3. if the grown cluster's diameter exceeds σ, split it with
//!    k-means (k = 2),
//! 4. repeat until every node is clustered.
//!
//! Parameters (Section V-B): σ = one conventional tile width (45° on the
//! 4×8 grid), δ = σ/4, and a Ptile is only constructed for clusters of at
//! least 5 users (10% of the training population).
//!
//! Modules: [`algorithm1`] (the clustering), [`kmeans`] (the splitter),
//! [`ptile`] (cluster → tile region + background blocks), [`coverage`]
//! (Fig. 7 statistics).
//!
//! # Example
//!
//! ```
//! use ee360_cluster::algorithm1::{cluster_viewing_centers, ClusteringParams};
//! use ee360_geom::viewport::ViewCenter;
//!
//! let mut centers = vec![];
//! for i in 0..6 {
//!     centers.push(ViewCenter::new(i as f64 * 2.0, 0.0)); // one tight group
//!     centers.push(ViewCenter::new(120.0 + i as f64 * 2.0, 5.0)); // another
//! }
//! let clusters = cluster_viewing_centers(&centers, &ClusteringParams::paper_default());
//! assert_eq!(clusters.len(), 2);
//! ```

pub mod algorithm1;
pub mod coverage;
pub mod ftile;
pub mod kmeans;
pub mod ptile;

pub use algorithm1::{cluster_viewing_centers, ClusteringParams};
pub use coverage::{CoverageStats, SegmentCoverage};
pub use ftile::{FtileLayout, FTILE_TILE_COUNT};
pub use kmeans::kmeans_two;
pub use ptile::{background_blocks, build_ptiles, Ptile, PtileConfig};
