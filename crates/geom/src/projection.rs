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

use std::cell::RefCell;
use std::collections::BTreeMap;

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
        // Tangent-plane offsets for a rectilinear camera.
        let half_w = deg_to_rad(vp.fov_h_deg() / 2.0).tan();
        let half_h = deg_to_rad(vp.fov_v_deg() / 2.0).tan();
        // Camera basis: forward along the view center.
        let yaw = deg_to_rad(vp.center().yaw_deg());
        let pitch = deg_to_rad(vp.center().pitch_deg());
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
        let dir = (
            self.fwd.0 + x * self.right.0 + y * self.up.0,
            self.fwd.1 + x * self.right.1 + y * self.up.1,
            self.fwd.2 + x * self.right.2 + y * self.up.2,
        );
        let norm = (dir.0 * dir.0 + dir.1 * dir.1 + dir.2 * dir.2).sqrt();
        (dir.0 / norm, dir.1 / norm, dir.2 / norm)
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

/// Cache key for a weights computation: the exact bit patterns of every
/// input `tile_pixel_weights` depends on. Two keys collide only when the
/// inputs match to the last ulp, so a cache hit returns exactly what a
/// fresh computation would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct WeightsKey {
    yaw_bits: u64,
    pitch_bits: u64,
    fov_h_bits: u64,
    fov_v_bits: u64,
    samples: usize,
    rows: usize,
    cols: usize,
}

impl WeightsKey {
    fn new(vp: &Viewport, grid: &TileGrid, samples: usize) -> Self {
        Self {
            yaw_bits: vp.center().yaw_deg().to_bits(),
            pitch_bits: vp.center().pitch_deg().to_bits(),
            fov_h_bits: vp.fov_h_deg().to_bits(),
            fov_v_bits: vp.fov_v_deg().to_bits(),
            samples,
            rows: grid.rows(),
            cols: grid.cols(),
        }
    }
}

/// Bound on the per-thread weights cache; on overflow the cache is cleared
/// wholesale (simple, deterministic — no recency bookkeeping). The cap is
/// smaller than real working sets: one pass of the paper matrix (8 videos
/// × 5 schemes × 8 users) misses about 25k times, so the cache fills and
/// is cleared several times per pass, and hits come only from schemes
/// re-asking for the same realised viewport. Fleet cells run on scoped
/// pool threads that exit with their cell, so a chaos cell starts with an
/// empty cache and gets no hits at all. A miss therefore has to be cheap
/// on its own; see [`TileClassifier`].
const WEIGHTS_CACHE_CAP: usize = 4096;

thread_local! {
    // Per-thread (so the parallel pipeline never contends or interleaves)
    // and ordered (BTreeMap keeps the replay-determinism gate honest: the
    // cache is a pure memo, never iterated).
    static WEIGHTS_CACHE: RefCell<BTreeMap<WeightsKey, Vec<(TileId, f64)>>> =
        const { RefCell::new(BTreeMap::new()) };
}

/// Runs `f` over the (possibly cached) weights for this viewport.
fn with_tile_pixel_weights<R>(
    vp: &Viewport,
    grid: &TileGrid,
    samples: usize,
    f: impl FnOnce(&[(TileId, f64)]) -> R,
) -> R {
    let key = WeightsKey::new(vp, grid, samples);
    WEIGHTS_CACHE.with(|cache| {
        let mut map = cache.borrow_mut();
        if let Some(w) = map.get(&key) {
            return f(w);
        }
        if map.len() >= WEIGHTS_CACHE_CAP {
            map.clear();
        }
        let w = compute_tile_pixel_weights(vp, grid, samples);
        let r = f(&w);
        map.insert(key, w);
        r
    })
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

/// The actual sampling pass behind [`tile_pixel_weights`].
fn compute_tile_pixel_weights(
    vp: &Viewport,
    grid: &TileGrid,
    samples: usize,
) -> Vec<(TileId, f64)> {
    let camera = PixelCamera::new(vp);
    let classifier = TileClassifier::new(grid);
    let mut counts = vec![0usize; grid.tile_count()];
    let total = samples * samples;
    for iv in 0..samples {
        for iu in 0..samples {
            // Sample pixel centers.
            let u = (iu as f64 + 0.5) / samples as f64;
            let v = (iv as f64 + 0.5) / samples as f64;
            let tile = classifier
                .classify(camera.unit_ray(u, v))
                .unwrap_or_else(|| grid.tile_at(&camera.direction(u, v)));
            counts[grid.flat_index(tile)] += 1;
        }
    }
    grid.iter()
        .filter_map(|t| {
            let c = counts[grid.flat_index(t)];
            (c > 0).then(|| (t, c as f64 / total as f64))
        })
        .collect()
}

/// The fraction of the viewport's pixels that land in each equirect tile.
///
/// Samples a `samples × samples` pixel grid through one [`PixelCamera`]
/// and bins the hits per tile. Fractions sum to 1. Results are memoised
/// per thread on the exact bit patterns of the inputs, so repeated queries
/// for the same viewport (the evaluation sweep asks once per scheme) cost
/// a lookup.
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn tile_pixel_weights(vp: &Viewport, grid: &TileGrid, samples: usize) -> Vec<(TileId, f64)> {
    assert!(samples > 0, "need at least one sample per axis");
    with_tile_pixel_weights(vp, grid, samples, <[(TileId, f64)]>::to_vec)
}

/// Pixel-weighted coverage of a viewport by a tile region: the fraction of
/// what the user actually sees that the region stores. Shares the
/// per-thread weights memo with [`tile_pixel_weights`].
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn pixel_coverage(vp: &Viewport, region: &TileRegion, grid: &TileGrid, samples: usize) -> f64 {
    assert!(samples > 0, "need at least one sample per axis");
    with_tile_pixel_weights(vp, grid, samples, |weights| {
        weights
            .iter()
            .filter(|(t, _)| region.contains(*t))
            .map(|(_, w)| w)
            .sum()
    })
}

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

    #[test]
    fn coverage_identical_on_cold_and_warm_cache() {
        let vp = Viewport::paper_fov(ViewCenter::new(17.0, -23.0));
        let g = grid();
        let region = TileRegion::new(&g, 1, 2, 3, 5);
        let cold = pixel_coverage(&vp, &region, &g, 16);
        let warm = pixel_coverage(&vp, &region, &g, 16);
        assert_eq!(cold.to_bits(), warm.to_bits());
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
}
