//! View generation: the equirectangular → viewport coordinate mapping.
//!
//! "The view is generated by drawing the pixel values onto the display"
//! based on a coordinate mapping (Section II). This module implements that
//! mapping: a rectilinear (gnomonic) virtual camera samples the viewport's
//! pixel grid, each pixel ray is converted back to (yaw, pitch) on the
//! sphere, and from there to the equirectangular tile that stores it.
//!
//! Besides powering a faithful render model, the per-tile **pixel weights**
//! give an exact answer to "how much of what the user sees does this
//! region cover?" — better than counting whole tiles, because a missed
//! tile at the FoV edge contributes only its (distorted, small) pixel
//! share.
//!
//! [`tile_pixel_weights`] and [`pixel_coverage`] run the sampling pass
//! afresh on every call. A caller that samples many viewports of one
//! FoV builds a [`PixelSampler`] once: it keeps everything the pass
//! repeats that depends only on the grid, the FoV and the sample count.
//! A caller that measures one viewport against many regions counts its
//! samples once ([`PixelSampler::for_each_tile`]) and sums them per
//! region with [`coverage_from_counts`]; the session client does both
//! through the head trace's per-segment view table.

use crate::angles::{deg_to_rad, rad_to_deg};
use crate::grid::{TileGrid, TileId};
use crate::region::TileRegion;
use crate::viewport::{ViewCenter, Viewport};

/// A rectilinear camera with the viewport-dependent terms precomputed: the
/// tangent-plane half-extents and the world-space basis depend only on the
/// viewport, not on the sampled pixel, so hoisting them out of the
/// per-pixel loop saves two `tan`s and two `sin_cos`es per sample while
/// producing bit-identical directions (the hoisted values are pure
/// functions of the same inputs).
#[derive(Debug, Clone, Copy)]
pub struct PixelCamera {
    half_w: f64,
    half_h: f64,
    fwd: (f64, f64, f64),
    right: (f64, f64, f64),
    up: (f64, f64, f64),
}

impl PixelCamera {
    /// Precomputes the camera for a viewport.
    pub fn new(vp: &Viewport) -> Self {
        let (half_w, half_h) = half_extents(vp.fov_h_deg(), vp.fov_v_deg());
        Self::with_half_extents(vp.center(), half_w, half_h)
    }

    /// The camera looking at `center` with precomputed half extents.
    fn with_half_extents(center: ViewCenter, half_w: f64, half_h: f64) -> Self {
        // Camera basis: forward along the view center.
        let yaw = deg_to_rad(center.yaw_deg());
        let pitch = deg_to_rad(center.pitch_deg());
        let (sy, cy) = yaw.sin_cos();
        let (sp, cp) = pitch.sin_cos();
        // forward, right, up in world coordinates (x front, y east, z up).
        Self {
            half_w,
            half_h,
            fwd: (cp * cy, cp * sy, sp),
            right: (-sy, cy, 0.0),
            up: (-sp * cy, -sp * sy, cp),
        }
    }

    /// The unit world-space ray `(x front, y east, z up)` through the
    /// pixel at `(u, v)`: the float operations [`Self::direction`] runs
    /// before converting to angles, so both see the same bits.
    fn unit_ray(&self, u: f64, v: f64) -> (f64, f64, f64) {
        let x = (2.0 * u - 1.0) * self.half_w; // right
        let y = (1.0 - 2.0 * v) * self.half_h; // up
        let dir = self.ray(x, y);
        let norm = (dir.0 * dir.0 + dir.1 * dir.1 + dir.2 * dir.2).sqrt();
        (dir.0 / norm, dir.1 / norm, dir.2 / norm)
    }

    /// The unnormalised ray `fwd + x·right + y·up` through the
    /// camera-plane point `(x, y)`.
    #[inline]
    fn ray(&self, x: f64, y: f64) -> (f64, f64, f64) {
        (
            self.fwd.0 + x * self.right.0 + y * self.up.0,
            self.fwd.1 + x * self.right.1 + y * self.up.1,
            self.fwd.2 + x * self.right.2 + y * self.up.2,
        )
    }

    /// The gaze direction of the pixel at normalised coordinates `(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is outside `[0, 1]`.
    pub fn direction(&self, u: f64, v: f64) -> ViewCenter {
        assert!((0.0..=1.0).contains(&u), "u must be in [0, 1]");
        assert!((0.0..=1.0).contains(&v), "v must be in [0, 1]");
        let (dx, dy, dz) = self.unit_ray(u, v);
        let out_pitch = rad_to_deg(dz.clamp(-1.0, 1.0).asin());
        let out_yaw = rad_to_deg(dy.atan2(dx));
        ViewCenter::new(out_yaw, out_pitch)
    }
}

/// Tangent-plane half extents `(tan(fov_h/2), tan(fov_v/2))` of a
/// rectilinear camera.
fn half_extents(fov_h_deg: f64, fov_v_deg: f64) -> (f64, f64) {
    (
        deg_to_rad(fov_h_deg / 2.0).tan(),
        deg_to_rad(fov_v_deg / 2.0).tan(),
    )
}

/// The gaze direction of one viewport pixel.
///
/// `u`, `v` are normalised pixel coordinates in `[0, 1]` (left→right,
/// top→bottom). The mapping is rectilinear: straight lines in the world
/// stay straight on the display, as a real HMD eye buffer renders.
/// One-shot form of [`PixelCamera::direction`]; batch callers should build
/// the camera once.
///
/// # Panics
///
/// Panics if `u` or `v` is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use ee360_geom::projection::pixel_direction;
/// use ee360_geom::viewport::{ViewCenter, Viewport};
///
/// let vp = Viewport::paper_fov(ViewCenter::new(0.0, 0.0));
/// let center = pixel_direction(&vp, 0.5, 0.5);
/// assert!(center.yaw_deg().abs() < 1e-9);
/// let left = pixel_direction(&vp, 0.0, 0.5);
/// assert!((left.yaw_deg() + 50.0).abs() < 1e-9); // half the 100° FoV
/// ```
pub fn pixel_direction(vp: &Viewport, u: f64, v: f64) -> ViewCenter {
    PixelCamera::new(vp).direction(u, v)
}

/// How far, in units of the unit ray's length, a sign test must clear
/// zero before [`TileClassifier`] trusts it: 1e-9 rad ≈ 5.7e-8°.
const CLASSIFY_MARGIN: f64 = 1e-9;

/// Squared horizontal length below which a ray counts as polar.
const POLE_RHO_SQ: f64 = 1e-12;

/// Tile lookup for unit rays by sign tests, bit-identical to
/// `grid.tile_at(&camera.direction(u, v))` without its `asin`, `atan2`
/// and two `fmod`-based yaw wraps.
///
/// - **Row.** A ray lies below the parallel at pitch `p` exactly when
///   `dz < sin p`; the row is the number of interior parallels above it.
/// - **Column.** The sign of `dy` picks the eastern (yaw in (0, 180)) or
///   western (yaw in (−180, 0)) half. For a meridian `b` in that half,
///   `cos b·dy − sin b·dx = ρ·sin(yaw − b)` with `ρ = √(dx² + dy²)`, and
///   within one half `yaw − b` lies in (−180°, 180°), so its sign says
///   whether the ray is east of `b`. The column is the number of
///   meridians it is east of.
///
/// **Why this is exact.** The exact path's yaw and pitch carry less than
/// 1e-11° of rounding error: libm's `asin` and `atan2` are within 1 ulp,
/// and `rad_to_deg`, the wraps, the `+ 180` and the division by the tile
/// size each add at most ½ ulp on values no larger than 720. The sines
/// and cosines of the grid lines here, and the tests built from them,
/// are off by less than 1e-14. A test that clears [`CLASSIFY_MARGIN`]
/// therefore puts the true angle more than about 5.7e-8° from that grid
/// line (both test forms change no faster than the angle itself), so
/// the exact path's angle lies on the same side of it and floors to the
/// same tile. A test inside the margin, a ray within 1e-6 of a pole
/// (every column meets there, and `atan2`'s signed-zero conventions
/// decide), or a NaN ray returns `None`, and the caller runs the exact path
/// itself.
///
/// **Normalising by table.** [`PixelSampler`] hands in
/// `(fwd + x·right + y·up)·r` with `r = 1/√(1 + x² + y²)` from a
/// per-ray table, not the ray divided by its computed `sqrt` norm. The
/// camera basis is orthonormal, so `1 + x² + y²` is the ray's squared
/// length in real arithmetic; the basis's own rounding and the two
/// normalisations' roundings leave the components less than 1e-15 from
/// the `sqrt`-normalised ray's (at most 6.7e-16 in a float64 scan of
/// about 4M rays over random centres, FoVs in (0, 360] × (0, 180] and
/// 1–24 samples). That moves a test by less than 2e-15 (each is a sum
/// of at most two components weighted by a sine and a cosine), so the
/// error budget above stays far inside the margin and no test that
/// clears it changes sides.
#[derive(Debug, Clone)]
struct TileClassifier {
    /// `sin` of each interior parallel, top to bottom (rows `1..rows`).
    parallel_sins: Vec<f64>,
    /// `(cos b, sin b)` of the meridians `b` in (0, 180), west to east.
    east: Vec<(f64, f64)>,
    /// `(cos b, sin b)` of the meridians `b` in (−180, 0), west to east.
    west: Vec<(f64, f64)>,
    /// Column of a ray just east of yaw 0: the meridians at or west of 0.
    east_base: usize,
}

impl TileClassifier {
    fn new(grid: &TileGrid) -> Self {
        let parallel_sins = (1..grid.rows())
            .map(|r| deg_to_rad(grid.row_top_deg(r)).sin())
            .collect();
        let meridians = (1..grid.cols()).map(|c| -180.0 + c as f64 * grid.tile_width_deg());
        let cos_sin = |b: f64| {
            let (s, c) = deg_to_rad(b).sin_cos();
            (c, s)
        };
        Self {
            parallel_sins,
            east: meridians
                .clone()
                .filter(|&b| b > 0.0)
                .map(cos_sin)
                .collect(),
            west: meridians
                .clone()
                .filter(|&b| b < 0.0)
                .map(cos_sin)
                .collect(),
            east_base: meridians.filter(|&b| b <= 0.0).count(),
        }
    }

    /// The tile of the unit ray `(dx, dy, dz)`, or `None` when a test is
    /// too close to call.
    #[inline]
    fn classify(&self, (dx, dy, dz): (f64, f64, f64)) -> Option<TileId> {
        if dx * dx + dy * dy < POLE_RHO_SQ {
            return None;
        }
        // Each test has three outcomes; a NaN fails both comparisons and
        // takes the third, like a test inside the margin.
        let mut row = 0;
        for &s in &self.parallel_sins {
            let t = s - dz;
            if t > CLASSIFY_MARGIN {
                row += 1;
            } else if t < -CLASSIFY_MARGIN {
                break;
            } else {
                return None;
            }
        }
        let (meridians, mut col) = if dy > CLASSIFY_MARGIN {
            (&self.east, self.east_base)
        } else if dy < -CLASSIFY_MARGIN {
            (&self.west, 0)
        } else {
            return None;
        };
        for &(c, s) in meridians {
            let t = c * dy - s * dx;
            if t > CLASSIFY_MARGIN {
                col += 1;
            } else if t < -CLASSIFY_MARGIN {
                break;
            } else {
                return None;
            }
        }
        Some(TileId::new(row, col))
    }
}

/// The sampling pass behind every pixel-weight query, set up once for
/// one grid, FoV and sample count and reusable for any view centre.
///
/// It holds the pass's centre-independent work: the `TileClassifier`,
/// the half extents, each sample column's and row's camera-plane offset
/// (computed with `PixelCamera::unit_ray`'s operations) and a per-ray
/// table of `1/√(1 + x² + y²)`. A ray is then `fwd + x·right + y·up`
/// times its table entry, three multiplies in place of a `sqrt` and
/// three divisions; the `TileClassifier` docs say why its tiles are
/// still exact. Rays the classifier cannot call take the exact
/// `grid.tile_at(&camera.direction(u, v))` path.
#[derive(Debug, Clone)]
pub struct PixelSampler {
    grid: TileGrid,
    classifier: TileClassifier,
    half_w: f64,
    half_h: f64,
    /// `(u, x)` per sample column, left to right: the pixel centre and
    /// its offset `(2u − 1)·half_w`.
    cols: Vec<(f64, f64)>,
    /// `(v, y)` per sample row, top to bottom: the pixel centre and its
    /// offset `(1 − 2v)·half_h`.
    rows: Vec<(f64, f64)>,
    /// `1/√(1 + x² + y²)` per ray, row by row.
    inv_norms: Vec<f64>,
}

impl PixelSampler {
    /// The sampler of `samples × samples` pixel centres for viewports
    /// of `fov_h_deg × fov_v_deg` degrees on `grid`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    pub fn new(grid: &TileGrid, fov_h_deg: f64, fov_v_deg: f64, samples: usize) -> Self {
        assert!(samples > 0, "need at least one sample per axis");
        let (half_w, half_h) = half_extents(fov_h_deg, fov_v_deg);
        // Sample pixel centers.
        let centres = (0..samples).map(|i| (i as f64 + 0.5) / samples as f64);
        let cols: Vec<(f64, f64)> = centres
            .clone()
            .map(|u| (u, (2.0 * u - 1.0) * half_w))
            .collect();
        let rows: Vec<(f64, f64)> = centres.map(|v| (v, (1.0 - 2.0 * v) * half_h)).collect();
        let inv_norms = rows
            .iter()
            .flat_map(|&(_, y)| {
                cols.iter()
                    .map(move |&(_, x)| 1.0 / (1.0 + x * x + y * y).sqrt())
            })
            .collect();
        Self {
            grid: *grid,
            classifier: TileClassifier::new(grid),
            half_w,
            half_h,
            cols,
            rows,
            inv_norms,
        }
    }

    /// Casts the rays of the viewport centred on `center` and calls
    /// `visit` with each ray's tile, row by row. Counting the visits per
    /// tile gives the viewport's pixel weights; see
    /// [`coverage_from_counts`].
    pub fn for_each_tile(&self, center: ViewCenter, mut visit: impl FnMut(TileId)) {
        let camera = PixelCamera::with_half_extents(center, self.half_w, self.half_h);
        let norm_rows = self.inv_norms.chunks_exact(self.cols.len());
        for (&(v, y), inv_norms) in self.rows.iter().zip(norm_rows) {
            for (&(u, x), &r) in self.cols.iter().zip(inv_norms) {
                let (dx, dy, dz) = camera.ray(x, y);
                visit(
                    self.classifier
                        .classify((dx * r, dy * r, dz * r))
                        .unwrap_or_else(|| self.grid.tile_at(&camera.direction(u, v))),
                );
            }
        }
    }
}

/// One-shot form of [`PixelSampler::for_each_tile`]: casts the rays of
/// a `samples × samples` grid of pixel centres through the viewport and
/// calls `visit` with each ray's tile, row by row. Callers that sample
/// many viewports of one FoV should build the sampler once.
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn for_each_pixel_tile(
    vp: &Viewport,
    grid: &TileGrid,
    samples: usize,
    visit: impl FnMut(TileId),
) {
    PixelSampler::new(grid, vp.fov_h_deg(), vp.fov_v_deg(), samples)
        .for_each_tile(vp.center(), visit);
}

/// Per-tile sample counts of the viewport, in flat-index order.
fn tile_sample_counts(vp: &Viewport, grid: &TileGrid, samples: usize) -> Vec<u32> {
    let mut counts = vec![0u32; grid.tile_count()];
    for_each_pixel_tile(vp, grid, samples, |t| counts[grid.flat_index(t)] += 1);
    counts
}

/// The fraction of the viewport's pixels that land in each equirect tile.
///
/// Samples a `samples × samples` pixel grid through one [`PixelCamera`]
/// and bins the hits per tile. Tiles come in grid order and only tiles
/// with at least one sample appear; fractions sum to 1. Every call runs
/// the sampling pass afresh.
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn tile_pixel_weights(vp: &Viewport, grid: &TileGrid, samples: usize) -> Vec<(TileId, f64)> {
    let counts = tile_sample_counts(vp, grid, samples);
    let total = (samples * samples) as f64;
    grid.iter()
        .zip(counts)
        .filter(|&(_, c)| c > 0)
        .map(|(t, c)| (t, f64::from(c) / total))
        .collect()
}

/// Pixel-weighted coverage of a viewport by a tile region: the fraction of
/// what the user actually sees that the region stores. The uncached
/// reference: every call runs the sampling pass afresh. Callers that ask
/// about one viewport repeatedly keep its counts and use
/// [`coverage_from_counts`], which returns the same bits.
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn pixel_coverage(vp: &Viewport, region: &TileRegion, grid: &TileGrid, samples: usize) -> f64 {
    coverage_from_counts(
        &tile_sample_counts(vp, grid, samples),
        region,
        grid,
        samples,
    )
}

/// [`pixel_coverage`] from the viewport's per-tile sample counts
/// (flat-index order, as counted over [`for_each_pixel_tile`] with the
/// same `samples`): the region's [`tile_pixel_weights`] summed in grid
/// order, skipping tiles no sample hit. The float operations and their
/// order match [`pixel_coverage`], so the result is bit-identical.
///
/// Only the region's tiles are visited: each of its rows, and in each
/// row its at most two column runs ([`TileRegion::col_runs`]), which
/// come in ascending flat-index order. These are the summands a
/// grid-order pass filtered by [`TileRegion::contains`] keeps, in the
/// same order.
pub fn coverage_from_counts<C: Copy + Into<u32>>(
    counts: &[C],
    region: &TileRegion,
    grid: &TileGrid,
    samples: usize,
) -> f64 {
    let total = (samples * samples) as f64;
    let runs = region.col_runs();
    // Clamped to the slice like the zip of a grid-order pass: a short
    // `counts` ends the sum where it ends.
    let run_counts = |lo: usize, hi: usize| {
        counts
            .get(lo.min(counts.len())..hi.min(counts.len()))
            .unwrap_or_default()
    };
    (region.row_min()..=region.row_max())
        .flat_map(|row| {
            let base = row * grid.cols();
            runs.iter()
                .flat_map(move |run| run_counts(base + run.start, base + run.end))
        })
        .filter_map(|&c| {
            let c: u32 = c.into();
            (c > 0).then(|| f64::from(c) / total)
        })
        .sum()
}

/// The name the equivalence sweeps below know the sampling pass by.
#[cfg(test)]
use tile_pixel_weights as compute_tile_pixel_weights;

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_support::prelude::*;

    fn grid() -> TileGrid {
        TileGrid::paper_default()
    }

    #[test]
    fn center_pixel_is_the_view_center() {
        for (yaw, pitch) in [(0.0, 0.0), (45.0, 20.0), (-130.0, -40.0)] {
            let vp = Viewport::paper_fov(ViewCenter::new(yaw, pitch));
            let c = pixel_direction(&vp, 0.5, 0.5);
            assert!(c.distance_deg(&ViewCenter::new(yaw, pitch)) < 1e-9);
        }
    }

    #[test]
    fn horizontal_edges_at_half_fov_on_equator() {
        let vp = Viewport::paper_fov(ViewCenter::new(10.0, 0.0));
        let left = pixel_direction(&vp, 0.0, 0.5);
        let right = pixel_direction(&vp, 1.0, 0.5);
        assert!((left.yaw_deg() - (10.0 - 50.0)).abs() < 1e-9);
        assert!((right.yaw_deg() - (10.0 + 50.0)).abs() < 1e-9);
    }

    #[test]
    fn vertical_edges_at_half_fov() {
        let vp = Viewport::paper_fov(ViewCenter::new(0.0, 0.0));
        let top = pixel_direction(&vp, 0.5, 0.0);
        let bottom = pixel_direction(&vp, 0.5, 1.0);
        assert!((top.pitch_deg() - 50.0).abs() < 1e-9);
        assert!((bottom.pitch_deg() + 50.0).abs() < 1e-9);
    }

    #[test]
    fn weights_sum_to_one() {
        let vp = Viewport::paper_fov(ViewCenter::new(33.0, 15.0));
        let w = tile_pixel_weights(&vp, &grid(), 24);
        let sum: f64 = w.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn central_tile_carries_substantial_pixels() {
        // Rectilinear rendering puts MORE pixels per degree at the FoV
        // edges (density ∝ sec²θ), so the central tile need not strictly
        // dominate — but it must still carry a substantial share.
        let g = grid();
        let center = g.tile_center(TileId::new(2, 4));
        let vp = Viewport::paper_fov(center);
        let w = tile_pixel_weights(&vp, &g, 32);
        let central = g.tile_at(&center);
        let central_weight = w
            .iter()
            .find(|(t, _)| *t == central)
            .map(|(_, f)| *f)
            .unwrap_or(0.0);
        assert!(central_weight > 0.08, "central weight {central_weight}");
        let rank = w.iter().filter(|(_, f)| *f > central_weight).count();
        assert!(rank <= 4, "central tile ranked {rank}");
    }

    #[test]
    fn full_fov_block_covers_most_pixels() {
        // The quantised 3×3 block should hold the bulk of the viewport's
        // pixels (the rectilinear corners spill slightly outside).
        let center = ViewCenter::new(0.0, 0.0);
        let vp = Viewport::paper_fov(center);
        let g = grid();
        let block = g.fov_block(&vp);
        let region = TileRegion::from_tiles(&g, block).unwrap();
        let cov = pixel_coverage(&vp, &region, &g, 32);
        assert!(cov > 0.75, "block holds {cov} of the pixels");
    }

    #[test]
    fn coverage_of_disjoint_region_is_zero() {
        let vp = Viewport::paper_fov(ViewCenter::new(0.0, 0.0));
        let g = grid();
        // A region on the far side of the sphere.
        let region = TileRegion::new(&g, 1, 2, 0, 1); // columns at yaw −180..−135
        let cov = pixel_coverage(&vp, &region, &g, 24);
        assert!(cov < 0.01, "far region coverage {cov}");
    }

    #[test]
    fn rectilinear_distortion_spreads_pixels_near_poles() {
        // Looking up at 60°: the viewport spills over the pole, touching
        // many columns — weights must still sum to 1 and hit row 0.
        let vp = Viewport::paper_fov(ViewCenter::new(0.0, 60.0));
        let g = grid();
        let w = tile_pixel_weights(&vp, &g, 32);
        let sum: f64 = w.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(w.iter().any(|(t, _)| t.row == 0));
    }

    #[test]
    #[should_panic(expected = "u must be in")]
    fn out_of_range_pixel_panics() {
        let vp = Viewport::paper_fov(ViewCenter::new(0.0, 0.0));
        let _ = pixel_direction(&vp, 1.5, 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        let vp = Viewport::paper_fov(ViewCenter::new(0.0, 0.0));
        let _ = tile_pixel_weights(&vp, &grid(), 0);
    }

    /// The pre-optimisation formulation: everything recomputed per pixel.
    /// Retained as the reference the hoisted/cached path must match bit
    /// for bit.
    fn reference_pixel_direction(vp: &Viewport, u: f64, v: f64) -> ViewCenter {
        let half_w = deg_to_rad(vp.fov_h_deg() / 2.0).tan();
        let half_h = deg_to_rad(vp.fov_v_deg() / 2.0).tan();
        let x = (2.0 * u - 1.0) * half_w;
        let y = (1.0 - 2.0 * v) * half_h;
        let yaw = deg_to_rad(vp.center().yaw_deg());
        let pitch = deg_to_rad(vp.center().pitch_deg());
        let (sy, cy) = yaw.sin_cos();
        let (sp, cp) = pitch.sin_cos();
        let fwd = (cp * cy, cp * sy, sp);
        let right = (-sy, cy, 0.0);
        let up = (-sp * cy, -sp * sy, cp);
        let dir = (
            fwd.0 + x * right.0 + y * up.0,
            fwd.1 + x * right.1 + y * up.1,
            fwd.2 + x * right.2 + y * up.2,
        );
        let norm = (dir.0 * dir.0 + dir.1 * dir.1 + dir.2 * dir.2).sqrt();
        let (dx, dy, dz) = (dir.0 / norm, dir.1 / norm, dir.2 / norm);
        let out_pitch = rad_to_deg(dz.clamp(-1.0, 1.0).asin());
        let out_yaw = rad_to_deg(dy.atan2(dx));
        ViewCenter::new(out_yaw, out_pitch)
    }

    fn reference_weights(vp: &Viewport, grid: &TileGrid, samples: usize) -> Vec<(TileId, f64)> {
        let mut counts = vec![0usize; grid.tile_count()];
        let total = samples * samples;
        for iv in 0..samples {
            for iu in 0..samples {
                let u = (iu as f64 + 0.5) / samples as f64;
                let v = (iv as f64 + 0.5) / samples as f64;
                let p = reference_pixel_direction(vp, u, v);
                counts[grid.flat_index(grid.tile_at(&p))] += 1;
            }
        }
        grid.iter()
            .filter_map(|t| {
                let c = counts[grid.flat_index(t)];
                (c > 0).then(|| (t, c as f64 / total as f64))
            })
            .collect()
    }

    proptest! {
        #[test]
        fn camera_matches_reference_direction_bit_for_bit(
            yaw in -180.0f64..180.0, pitch in -85.0f64..85.0,
            u in 0.0f64..1.0, v in 0.0f64..1.0,
        ) {
            let vp = Viewport::paper_fov(ViewCenter::new(yaw, pitch));
            let a = PixelCamera::new(&vp).direction(u, v);
            let b = reference_pixel_direction(&vp, u, v);
            prop_assert_eq!(a.yaw_deg().to_bits(), b.yaw_deg().to_bits());
            prop_assert_eq!(a.pitch_deg().to_bits(), b.pitch_deg().to_bits());
        }

        #[test]
        fn cached_weights_match_reference_bit_for_bit(
            yaw in -180.0f64..180.0, pitch in -85.0f64..85.0,
        ) {
            let vp = Viewport::paper_fov(ViewCenter::new(yaw, pitch));
            let g = grid();
            let reference = reference_weights(&vp, &g, 16);
            // Twice: the second call takes the cache-hit path.
            for _ in 0..2 {
                let w = tile_pixel_weights(&vp, &g, 16);
                prop_assert_eq!(w.len(), reference.len());
                for (a, b) in w.iter().zip(reference.iter()) {
                    prop_assert_eq!(a.0, b.0);
                    prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
            }
        }
    }

    /// Every `stride`-th index of `0..=n`, plus `n` itself. An odd stride
    /// walks through all sixteen sub-tile offsets, so tile-aligned centres
    /// (index ≡ 0 mod 16) recur every sixteen picks.
    fn strided(n: usize, picks: usize) -> impl Iterator<Item = usize> {
        let stride = (n / picks).max(1) | 1;
        (0..=n).step_by(stride).chain(std::iter::once(n))
    }

    /// Sign-test weights against the retained exact path, bit for bit, for
    /// view centres on multiples of a sixteenth of a tile: yaw from −180
    /// to +180 and pitch from pole to pole, where rays graze grid lines
    /// most often. `picks` bounds the centres per axis.
    fn assert_aligned_sweep_matches_reference(
        g: TileGrid,
        picks: usize,
        fovs: &[(f64, f64)],
        samples: &[usize],
    ) {
        let yaw_step = g.tile_width_deg() / 16.0;
        let pitch_step = g.tile_height_deg() / 16.0;
        for k in strided(16 * g.cols(), picks) {
            for j in strided(16 * g.rows(), picks) {
                let center =
                    ViewCenter::new(-180.0 + k as f64 * yaw_step, 90.0 - j as f64 * pitch_step);
                for &(fov_h, fov_v) in fovs {
                    let vp = Viewport::new(center, fov_h, fov_v);
                    for &n in samples {
                        let fast = compute_tile_pixel_weights(&vp, &g, n);
                        let exact = reference_weights(&vp, &g, n);
                        assert_eq!(fast.len(), exact.len(), "{g:?} {vp:?} {n}");
                        for (a, b) in fast.iter().zip(&exact) {
                            assert_eq!(a.0, b.0, "{g:?} {vp:?} {n}");
                            assert_eq!(a.1.to_bits(), b.1.to_bits(), "{g:?} {vp:?} {n}");
                        }
                    }
                }
            }
        }
    }

    const SWEEP_GRIDS: [(usize, usize); 6] = [(4, 8), (15, 30), (3, 6), (5, 7), (2, 3), (1, 1)];

    #[test]
    fn aligned_sweep_matches_reference_bit_for_bit() {
        for (rows, cols) in SWEEP_GRIDS {
            assert_aligned_sweep_matches_reference(
                TileGrid::new(rows, cols),
                8,
                &[(100.0, 100.0), (120.0, 90.0), (45.0, 30.0)],
                &[7, 16],
            );
        }
    }

    /// The full sweep: every sixteenth-of-a-tile centre on the small
    /// grids (a strided subset on 15 × 30), five FoVs and three sample
    /// counts. Run in release with `--include-ignored`.
    #[test]
    #[ignore = "full aligned sweep; run in release with --include-ignored"]
    fn full_aligned_sweep_matches_reference_bit_for_bit() {
        let fovs = [
            (100.0, 100.0),
            (90.0, 90.0),
            (120.0, 90.0),
            (45.0, 30.0),
            (200.0, 150.0),
        ];
        for (rows, cols) in SWEEP_GRIDS {
            assert_aligned_sweep_matches_reference(
                TileGrid::new(rows, cols),
                96,
                &fovs,
                &[7, 16, 24],
            );
        }
    }

    #[test]
    fn sign_tests_defer_to_the_exact_path_on_grid_lines() {
        // With an odd sample count the middle ray is the view centre
        // itself, (yaw 0, pitch 0): on a meridian and on a parallel of
        // the 4 × 8 grid, where no sign test can decide.
        let g = grid();
        let vp = Viewport::paper_fov(ViewCenter::new(0.0, 0.0));
        let camera = PixelCamera::new(&vp);
        let classifier = TileClassifier::new(&g);
        assert_eq!(camera.unit_ray(0.5, 0.5), (1.0, 0.0, 0.0));
        assert_eq!(classifier.classify(camera.unit_ray(0.5, 0.5)), None);
        // The weights still match the exact path, because it decided.
        let fast = compute_tile_pixel_weights(&vp, &g, 7);
        let exact = reference_weights(&vp, &g, 7);
        assert_eq!(fast.len(), exact.len());
        for (a, b) in fast.iter().zip(&exact) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    proptest! {
        #[test]
        fn pixel_directions_inside_a_bounded_cone(
            yaw in -180.0f64..180.0, pitch in -30.0f64..30.0,
            u in 0.0f64..1.0, v in 0.0f64..1.0,
        ) {
            use crate::sphere::Orientation;
            let vp = Viewport::paper_fov(ViewCenter::new(yaw, pitch));
            let p = pixel_direction(&vp, u, v);
            let a = Orientation::from_view_center(vp.center());
            let b = Orientation::from_view_center(p);
            // The rectilinear corner of a 100°×100° FoV is at
            // atan(sqrt(2)·tan(50°)) ≈ 59.3° from the center.
            prop_assert!(a.angle_to_deg(&b) <= 59.4);
        }

        #[test]
        fn weights_always_normalised(
            yaw in -180.0f64..180.0, pitch in -80.0f64..80.0,
        ) {
            let vp = Viewport::paper_fov(ViewCenter::new(yaw, pitch));
            let w = tile_pixel_weights(&vp, &grid(), 16);
            let sum: f64 = w.iter().map(|(_, f)| f).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    /// `sampler`'s weights for the viewport centred on `center`, formed
    /// as [`tile_pixel_weights`] forms them.
    fn sampler_weights(
        sampler: &PixelSampler,
        center: ViewCenter,
        g: &TileGrid,
        samples: usize,
    ) -> Vec<(TileId, f64)> {
        let mut counts = vec![0u32; g.tile_count()];
        sampler.for_each_tile(center, |t| counts[g.flat_index(t)] += 1);
        let total = (samples * samples) as f64;
        g.iter()
            .zip(counts)
            .filter(|&(_, c)| c > 0)
            .map(|(t, c)| (t, f64::from(c) / total))
            .collect()
    }

    proptest! {
        /// One sampler per (grid, FoV, samples), reused across up to 16
        /// random centres, against the retained exact path bit for bit.
        /// The FoV spans (0, 360] × (0, 180]; `edge` pins the horizontal,
        /// the vertical or both to their endpoints 360 and 180.
        #[test]
        fn reused_sampler_matches_reference_bit_for_bit(
            grid_pick in 0usize..SWEEP_GRIDS.len(),
            fov in (0.0f64..1.0, 0.0f64..1.0),
            edge in 0usize..4,
            samples in 1usize..25,
            centres in prop::collection::vec((-180.0f64..180.0, -90.0f64..=90.0), 1..17),
        ) {
            let (rows, cols) = SWEEP_GRIDS[grid_pick];
            let g = TileGrid::new(rows, cols);
            let fov_h = if edge & 1 == 1 { 360.0 } else { 360.0 * (1.0 - fov.0) };
            let fov_v = if edge & 2 == 2 { 180.0 } else { 180.0 * (1.0 - fov.1) };
            let sampler = PixelSampler::new(&g, fov_h, fov_v, samples);
            for (yaw, pitch) in centres {
                let vp = Viewport::new(ViewCenter::new(yaw, pitch), fov_h, fov_v);
                let fast = sampler_weights(&sampler, vp.center(), &g, samples);
                let exact = reference_weights(&vp, &g, samples);
                prop_assert_eq!(fast.len(), exact.len());
                for (a, b) in fast.iter().zip(&exact) {
                    prop_assert_eq!(a.0, b.0);
                    prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
            }
        }
    }

    /// `coverage_from_counts` as it read before the run-ordered walk:
    /// every grid tile in flat-index order, filtered by `contains`.
    fn grid_order_coverage(
        counts: &[u16],
        region: &TileRegion,
        g: &TileGrid,
        samples: usize,
    ) -> f64 {
        let total = (samples * samples) as f64;
        g.iter()
            .zip(counts)
            .filter_map(|(t, &c)| {
                let c: u32 = c.into();
                (c > 0 && region.contains(t)).then(|| f64::from(c) / total)
            })
            .sum()
    }

    #[test]
    fn run_ordered_coverage_of_wrapping_full_width_and_single_tile_regions() {
        let g = grid();
        let vp = Viewport::paper_fov(ViewCenter::new(179.0, 10.0));
        let counts: Vec<u16> = tile_sample_counts(&vp, &g, 16)
            .into_iter()
            .map(|c| c as u16)
            .collect();
        for region in [
            TileRegion::new(&g, 0, 3, 6, 4),
            TileRegion::new(&g, 1, 2, 5, 8),
            TileRegion::new(&g, 0, 3, 0, 8),
            TileRegion::new(&g, 2, 2, 7, 1),
        ] {
            let fast = coverage_from_counts(&counts, &region, &g, 16);
            assert_eq!(
                fast.to_bits(),
                grid_order_coverage(&counts, &region, &g, 16).to_bits()
            );
            assert_eq!(
                fast.to_bits(),
                pixel_coverage(&vp, &region, &g, 16).to_bits()
            );
        }
        // A region no sample hit sums nothing, as before.
        let empty = TileRegion::new(&g, 0, 0, 0, 1);
        assert_eq!(
            coverage_from_counts(&[0u16; 32], &empty, &g, 16).to_bits(),
            grid_order_coverage(&[0u16; 32], &empty, &g, 16).to_bits()
        );
    }

    proptest! {
        /// The run-ordered sum against the grid-order loop, bit for bit,
        /// over random counts (a third of them zero) and regions that
        /// wrap, span the full width or hold a single tile.
        #[test]
        fn run_ordered_coverage_matches_grid_order_bit_for_bit(
            grid_pick in 0usize..SWEEP_GRIDS.len(),
            counts in prop::collection::vec((0u32..3, 1u32..300), 1..1000),
            bounds in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            (shape, w) in (0usize..4, 0.0f64..=1.0),
            samples in 1usize..25,
        ) {
            let (rows, cols) = SWEEP_GRIDS[grid_pick];
            let g = TileGrid::new(rows, cols);
            let counts: Vec<u16> = counts
                .iter()
                .cycle()
                .take(g.tile_count())
                .map(|&(zero, c)| if zero == 0 { 0 } else { c as u16 })
                .collect();
            let (a, b) = ((bounds.0 * rows as f64) as usize, (bounds.1 * rows as f64) as usize);
            let col_start = (bounds.2 * cols as f64) as usize;
            let region = match shape {
                0 => TileRegion::new(&g, a, a, col_start, 1),
                1 => TileRegion::new(&g, a.min(b), a.max(b), col_start, cols),
                _ => {
                    let span = 1 + (w * (cols - 1) as f64).round() as usize;
                    TileRegion::new(&g, a.min(b), a.max(b), col_start, span)
                }
            };
            prop_assert_eq!(
                coverage_from_counts(&counts, &region, &g, samples).to_bits(),
                grid_order_coverage(&counts, &region, &g, samples).to_bits()
            );
        }
    }
}
