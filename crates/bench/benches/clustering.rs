//! Bench: Algorithm 1 viewing-center clustering.
//!
//! The server runs this once per segment over the training population
//! (40 users in the paper), so the 40-point case is the production load;
//! larger populations show the quadratic neighbourhood build. The Ftile
//! rows time the client's per-segment lookups on one built layout.

use std::hint::black_box;

use ee360_bench::bench_harness;
use ee360_cluster::algorithm1::{cluster_viewing_centers, ClusteringParams};
use ee360_cluster::ptile::{build_ptiles, PtileConfig};
use ee360_geom::grid::TileGrid;
use ee360_geom::viewport::ViewCenter;

/// Deterministic synthetic population: three clusters plus scattered
/// outliers, the shape Algorithm 1 sees in production.
fn population(n: usize) -> Vec<ViewCenter> {
    (0..n)
        .map(|i| {
            let h = i % 3;
            let base_yaw = [-80.0, 0.0, 80.0][h];
            let wob = ((i * 2654435761) % 97) as f64 / 97.0; // hash in [0,1)
            if i % 11 == 0 {
                ViewCenter::new(wob * 360.0 - 180.0, wob * 80.0 - 40.0)
            } else {
                ViewCenter::new(base_yaw + wob * 16.0 - 8.0, wob * 20.0 - 10.0)
            }
        })
        .collect()
}

fn main() {
    let mut bench = bench_harness();
    let params = ClusteringParams::paper_default();
    for n in [10usize, 40, 100, 400] {
        let centers = population(n);
        bench.run(&format!("algorithm1/cluster/{n}"), || {
            cluster_viewing_centers(black_box(&centers), &params)
        });
    }

    let grid = TileGrid::paper_default();
    let config = PtileConfig::paper_default();
    let centers = population(40);
    bench.run("build_ptiles/40users", || {
        build_ptiles(black_box(&centers), &grid, &config)
    });

    bench.run("ftile_layout/40users", || {
        ee360_cluster::ftile::FtileLayout::build(black_box(&centers))
    });

    // The Ftile baseline's two per-segment lookups on that layout: the
    // tiles a predicted 100°×100° viewport needs (planning), and the share
    // of an actual viewport those tiles cover (booking). The viewports are
    // the population's own centres, so both hits and misses occur.
    {
        use ee360_geom::viewport::Viewport;
        let layout = ee360_cluster::ftile::FtileLayout::build(&centers);
        let views: Vec<Viewport> = population(97)
            .into_iter()
            .map(Viewport::paper_fov)
            .collect();
        let mut k = 0usize;
        bench.run("ftile/tiles_for_viewport", || {
            k = (k + 1) % views.len();
            layout.tiles_for_viewport(black_box(&views[k]))
        });
        let (chosen, _) = layout.tiles_for_viewport(&views[0]);
        bench.run("ftile/coverage_fraction", || {
            k = (k + 1) % views.len();
            layout.coverage_fraction(chosen, black_box(&views[k]))
        });
    }

    bench.print_table();
}
