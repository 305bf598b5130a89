//! Algorithm 1: clustering users' viewing centers.
//!
//! Faithful implementation of the paper's pseudocode, with two noted
//! repairs:
//!
//! * the seed node is removed from `U` when it enters a cluster (the
//!   pseudocode only removes neighbours, which would loop forever on an
//!   isolated node);
//! * the σ split is applied recursively — a single k-means(2) pass can
//!   still leave a child whose diameter exceeds σ, and the paper's goal is
//!   "the distance between any two viewing centers in the cluster should
//!   not be farther than σ".

use ee360_geom::viewport::ViewCenter;

use crate::kmeans::kmeans_two;

/// Algorithm 1's two distance parameters, in degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteringParams {
    /// Neighbourhood radius δ: two centers within δ belong together.
    pub delta_deg: f64,
    /// Diameter cap σ: no two members of a final cluster are farther apart.
    pub sigma_deg: f64,
}

ee360_support::impl_json_struct!(ClusteringParams {
    delta_deg,
    sigma_deg
});

impl ClusteringParams {
    /// Section V-B: σ = one conventional tile width (45° on the 4×8 grid),
    /// δ = σ/4.
    pub fn paper_default() -> Self {
        Self {
            delta_deg: 45.0 / 4.0,
            sigma_deg: 45.0,
        }
    }

    /// Custom parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < delta <= sigma`.
    pub fn new(delta_deg: f64, sigma_deg: f64) -> Self {
        assert!(
            delta_deg > 0.0 && sigma_deg >= delta_deg,
            "parameters must satisfy 0 < delta <= sigma"
        );
        Self {
            delta_deg,
            sigma_deg,
        }
    }
}

impl Default for ClusteringParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Maximum pairwise distance within a set of centers (0 for singletons).
pub fn diameter_deg(centers: &[ViewCenter], members: &[usize]) -> f64 {
    let mut best = 0.0f64;
    for (a_pos, &i) in members.iter().enumerate() {
        for &j in &members[a_pos + 1..] {
            best = best.max(centers[i].distance_deg(&centers[j]));
        }
    }
    best
}

/// Runs Algorithm 1 over a set of viewing centers.
///
/// Returns clusters as lists of indices into `centers`; every index appears
/// in exactly one cluster. The empty input yields no clusters.
///
/// The δ-neighbourhoods are bit rows of `⌈n/64⌉` words, so the seed's
/// degree in U is a popcount of `N(i) & U` and BFS growth walks the set
/// bits of `N(u) & U` in ascending order. That is the order the paper's
/// neighbour lists hold, so clusters, their member order and every seed
/// choice match the list form exactly.
///
/// # Example
///
/// ```
/// use ee360_cluster::algorithm1::{cluster_viewing_centers, ClusteringParams};
/// use ee360_geom::viewport::ViewCenter;
///
/// // A chain of δ-close points is one cluster until σ forces a split.
/// let centers: Vec<ViewCenter> =
///     (0..8).map(|i| ViewCenter::new(i as f64 * 10.0, 0.0)).collect();
/// let clusters = cluster_viewing_centers(&centers, &ClusteringParams::paper_default());
/// assert!(clusters.len() >= 2); // 70° chain exceeds σ = 45°
/// ```
pub fn cluster_viewing_centers(
    centers: &[ViewCenter],
    params: &ClusteringParams,
) -> Vec<Vec<usize>> {
    if centers.is_empty() {
        return Vec::new();
    }
    // Line 1: precompute δ-neighbourhoods on the full node set, as bit
    // rows of `words` words each: bit j of row i is set when j ∈ N(i).
    let n = centers.len();
    let words = n.div_ceil(64);
    let mut neighbors = vec![0u64; n * words];
    for i in 0..n {
        for j in (i + 1)..n {
            if centers[i].distance_deg(&centers[j]) <= params.delta_deg {
                neighbors[i * words + j / 64] |= 1 << (j % 64);
                neighbors[j * words + i / 64] |= 1 << (i % 64);
            }
        }
    }
    let row = |i: usize| &neighbors[i * words..(i + 1) * words];
    let degree_in = |i: usize, u: &[u64]| -> u32 {
        row(i)
            .iter()
            .zip(u)
            .map(|(a, b)| (a & b).count_ones())
            .sum()
    };

    // Membership in the remaining set U, one bit per node.
    let mut in_u = vec![0u64; words];
    for i in 0..n {
        in_u[i / 64] |= 1 << (i % 64);
    }
    let mut clusters = Vec::new();

    loop {
        // Line 14: seed at the remaining node with the most neighbours in
        // U (ties broken towards the lower index for determinism).
        let mut best: Option<(usize, u32)> = None;
        for i in in_u
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| set_bits(w, word))
        {
            let degree = degree_in(i, &in_u);
            if best.is_none_or(|(_, most)| degree > most) {
                best = Some((i, degree));
            }
        }
        let Some((seed, _)) = best else {
            break;
        };

        // Lines 15–28: BFS growth through δ-close remaining nodes. The
        // cluster doubles as the BFS queue: nodes are appended in the
        // order they are dequeued.
        in_u[seed / 64] &= !(1 << (seed % 64));
        let mut cluster = vec![seed];
        let mut head = 0;
        while let Some(&u) = cluster.get(head) {
            head += 1;
            for (w, (nbr, u_word)) in row(u).iter().zip(in_u.iter_mut()).enumerate() {
                let fresh = nbr & *u_word;
                *u_word &= !fresh;
                cluster.extend(set_bits(w, fresh));
            }
        }

        // Lines 4–9: recursive σ split.
        split_by_sigma(centers, cluster, params.sigma_deg, &mut clusters);
    }
    clusters
}

/// Indices of the set bits of `word`, the `w`-th word of a bitset,
/// ascending.
fn set_bits(w: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            w * 64 + bit
        })
    })
}

/// The list form of [`cluster_viewing_centers`], as the paper's
/// pseudocode reads: `Vec` neighbour lists, a seed scan that recounts
/// each node's neighbours still in U, and a `VecDeque` BFS. The bitset
/// version must reproduce it exactly, member order included.
#[cfg(test)]
fn cluster_viewing_centers_reference(
    centers: &[ViewCenter],
    params: &ClusteringParams,
) -> Vec<Vec<usize>> {
    use std::collections::VecDeque;

    if centers.is_empty() {
        return Vec::new();
    }
    let n = centers.len();
    let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if centers[i].distance_deg(&centers[j]) <= params.delta_deg {
                neighbors[i].push(j);
                neighbors[j].push(i);
            }
        }
    }

    let mut in_u = vec![true; n];
    let mut remaining = n;
    let mut clusters = Vec::new();

    while remaining > 0 {
        let seed = (0..n)
            .filter(|&i| in_u[i])
            .max_by_key(|&i| {
                (
                    neighbors[i].iter().filter(|&&j| in_u[j]).count(),
                    usize::MAX - i,
                )
            })
            .expect("remaining > 0 guarantees a seed");

        let mut cluster = vec![seed];
        in_u[seed] = false;
        remaining -= 1;
        let mut queue = VecDeque::from([seed]);
        while let Some(u) = queue.pop_front() {
            for &v in &neighbors[u] {
                if in_u[v] {
                    in_u[v] = false;
                    remaining -= 1;
                    cluster.push(v);
                    queue.push_back(v);
                }
            }
        }

        split_by_sigma(centers, cluster, params.sigma_deg, &mut clusters);
    }
    clusters
}

/// Recursively splits `members` with k-means(2) until the diameter cap
/// holds, pushing final clusters into `out`.
fn split_by_sigma(
    centers: &[ViewCenter],
    members: Vec<usize>,
    sigma_deg: f64,
    out: &mut Vec<Vec<usize>>,
) {
    if members.len() <= 1 || diameter_deg(centers, &members) <= sigma_deg {
        out.push(members);
        return;
    }
    let points: Vec<ViewCenter> = members.iter().map(|&i| centers[i]).collect();
    let (a, b) = kmeans_two(&points);
    debug_assert!(!a.is_empty() && !b.is_empty());
    let map = |side: Vec<usize>| side.into_iter().map(|k| members[k]).collect::<Vec<_>>();
    split_by_sigma(centers, map(a), sigma_deg, out);
    split_by_sigma(centers, map(b), sigma_deg, out);
}

/// The variant *without* the σ guard (pure density growth) — the Fig. 6(a)
/// failure mode used as an ablation baseline.
pub fn cluster_without_sigma(centers: &[ViewCenter], delta_deg: f64) -> Vec<Vec<usize>> {
    let params = ClusteringParams::new(delta_deg, f64::INFINITY);
    cluster_viewing_centers(centers, &params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_support::prelude::*;

    fn params() -> ClusteringParams {
        ClusteringParams::paper_default()
    }

    fn centers(pts: &[(f64, f64)]) -> Vec<ViewCenter> {
        pts.iter().map(|&(y, p)| ViewCenter::new(y, p)).collect()
    }

    #[test]
    fn paper_parameters() {
        let p = params();
        assert_eq!(p.sigma_deg, 45.0);
        assert_eq!(p.delta_deg, 11.25);
    }

    #[test]
    fn empty_input_no_clusters() {
        assert!(cluster_viewing_centers(&[], &params()).is_empty());
    }

    #[test]
    fn single_point_single_cluster() {
        let cs = centers(&[(0.0, 0.0)]);
        let clusters = cluster_viewing_centers(&cs, &params());
        assert_eq!(clusters, vec![vec![0]]);
    }

    #[test]
    fn two_far_groups_two_clusters() {
        let cs = centers(&[
            (0.0, 0.0),
            (5.0, 2.0),
            (-4.0, -1.0),
            (120.0, 0.0),
            (125.0, 3.0),
        ]);
        let mut clusters = cluster_viewing_centers(&cs, &params());
        clusters.sort_by_key(|c| c.len());
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].len(), 2);
        assert_eq!(clusters[1].len(), 3);
    }

    #[test]
    fn isolated_nodes_become_singletons() {
        let cs = centers(&[(0.0, 0.0), (90.0, 0.0), (-90.0, 40.0)]);
        let clusters = cluster_viewing_centers(&cs, &params());
        assert_eq!(clusters.len(), 3);
        assert!(clusters.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn chain_is_split_by_sigma() {
        // δ-close chain spanning 70°: grown as one cluster, then split.
        let cs: Vec<ViewCenter> = (0..8)
            .map(|i| ViewCenter::new(i as f64 * 10.0, 0.0))
            .collect();
        let clusters = cluster_viewing_centers(&cs, &params());
        assert!(clusters.len() >= 2);
        for c in &clusters {
            assert!(diameter_deg(&cs, c) <= 45.0 + 1e-9, "{c:?}");
        }
    }

    #[test]
    fn without_sigma_chain_stays_whole() {
        let cs: Vec<ViewCenter> = (0..8)
            .map(|i| ViewCenter::new(i as f64 * 10.0, 0.0))
            .collect();
        let clusters = cluster_without_sigma(&cs, 11.25);
        assert_eq!(clusters.len(), 1);
        assert!(diameter_deg(&cs, &clusters[0]) > 45.0);
    }

    #[test]
    fn clusters_across_antimeridian() {
        let cs = centers(&[(176.0, 0.0), (-178.0, 1.0), (-174.0, -1.0)]);
        let clusters = cluster_viewing_centers(&cs, &params());
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 3);
    }

    #[test]
    fn seed_prefers_densest_node() {
        // A 3-point clique and a 2-point pair: the first grown cluster
        // should be the clique (seeded at its max-degree node).
        let cs = centers(&[
            (100.0, 0.0),
            (104.0, 0.0),
            (0.0, 0.0),
            (4.0, 0.0),
            (8.0, 0.0),
        ]);
        let clusters = cluster_viewing_centers(&cs, &params());
        assert_eq!(clusters[0].len(), 3);
    }

    #[test]
    fn duplicate_points_cluster_together() {
        let cs = centers(&[(10.0, 10.0); 7]);
        let clusters = cluster_viewing_centers(&cs, &params());
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 7);
    }

    #[test]
    #[should_panic(expected = "delta <= sigma")]
    fn bad_params_panic() {
        let _ = ClusteringParams::new(50.0, 45.0);
    }

    proptest! {
        #[test]
        fn clustering_is_a_partition(
            pts in ee360_support::prop::collection::vec(
                (-180.0f64..180.0, -70.0f64..70.0), 0..40
            )
        ) {
            let cs = centers(&pts);
            let clusters = cluster_viewing_centers(&cs, &params());
            let mut seen: Vec<usize> = clusters.iter().flatten().copied().collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..cs.len()).collect::<Vec<_>>());
        }

        #[test]
        fn all_clusters_respect_sigma(
            pts in ee360_support::prop::collection::vec(
                (-180.0f64..180.0, -70.0f64..70.0), 1..40
            )
        ) {
            let cs = centers(&pts);
            let clusters = cluster_viewing_centers(&cs, &params());
            for c in &clusters {
                prop_assert!(diameter_deg(&cs, c) <= 45.0 + 1e-9);
            }
        }

        #[test]
        fn delta_close_pairs_not_needlessly_separated(
            y in -170.0f64..170.0, p in -60.0f64..60.0,
        ) {
            // Two points within δ and far from everything else must share
            // a cluster.
            let cs = centers(&[(y, p), (y + 5.0, p + 2.0), (y + 150.0, -p)]);
            let clusters = cluster_viewing_centers(&cs, &params());
            let find = |i: usize| clusters.iter().position(|c| c.contains(&i)).unwrap();
            prop_assert_eq!(find(0), find(1));
        }
    }

    /// Points of five kinds, picked by `kind` from two unit draws: spread
    /// over the sphere, near the antimeridian, near a pole, a duplicate of
    /// an earlier point, or packed around one hotspot.
    fn mixed_population(draws: &[(usize, f64, f64)]) -> Vec<ViewCenter> {
        let mut out: Vec<ViewCenter> = Vec::with_capacity(draws.len());
        for &(kind, a, b) in draws {
            let c = match kind {
                0 => ViewCenter::new(-180.0 + 360.0 * a, -90.0 + 180.0 * b),
                1 => ViewCenter::new(170.0 + 20.0 * a, -20.0 + 40.0 * b),
                2 => ViewCenter::new(
                    -180.0 + 360.0 * a,
                    if b < 0.5 {
                        80.0 + 20.0 * b
                    } else {
                        -70.0 - 20.0 * b
                    },
                ),
                3 if !out.is_empty() => out[((a * out.len() as f64) as usize).min(out.len() - 1)],
                _ => ViewCenter::new(30.0 + 25.0 * a, 10.0 + 15.0 * b),
            };
            out.push(c);
        }
        out
    }

    fn assert_matches_reference(cs: &[ViewCenter], params: &ClusteringParams) {
        assert_eq!(
            cluster_viewing_centers(cs, params),
            cluster_viewing_centers_reference(cs, params),
            "{} centers, {params:?}",
            cs.len()
        );
    }

    #[test]
    fn bitset_matches_reference_at_word_edges() {
        for n in [63, 64, 65, 127, 128, 129] {
            // A δ-close chain (one BFS tree spanning every word) ...
            let chain: Vec<ViewCenter> = (0..n)
                .map(|i| ViewCenter::new(-179.0 + i as f64 * 2.7, (i % 5) as f64))
                .collect();
            assert_matches_reference(&chain, &params());
            // ... and a dense pack whose seeds tie on degree.
            let pack: Vec<ViewCenter> = (0..n)
                .map(|i| ViewCenter::new((i % 8) as f64 * 4.0, (i / 8) as f64 * 4.0))
                .collect();
            assert_matches_reference(&pack, &params());
            assert_matches_reference(&pack, &ClusteringParams::new(6.0, 20.0));
        }
    }

    #[test]
    fn bitset_matches_reference_on_generated_segments() {
        use ee360_trace::dataset::{VideoTraces, PAPER_TRAIN_USERS};
        use ee360_trace::head::GazeConfig;
        use ee360_video::catalog::VideoCatalog;

        let catalog = VideoCatalog::paper_default();
        for (id, seed) in [(2, 3), (7, 5)] {
            let spec = catalog.video(id).unwrap();
            let traces =
                VideoTraces::generate(spec, PAPER_TRAIN_USERS, seed, GazeConfig::default());
            for k in 0..spec.segment_count() {
                let cs: Vec<ViewCenter> = traces
                    .traces()
                    .iter()
                    .filter_map(|t| t.segment_center(k))
                    .collect();
                assert_matches_reference(&cs, &params());
            }
        }
    }

    proptest! {
        #[test]
        fn bitset_matches_list_reference(
            draws in ee360_support::prop::collection::vec(
                (0usize..5, 0.0f64..1.0, 0.0f64..1.0), 0..130
            ),
            delta in 1.0f64..40.0,
            sigma_factor in 1.0f64..6.0,
        ) {
            let cs = mixed_population(&draws);
            for p in [params(), ClusteringParams::new(delta, delta * sigma_factor)] {
                prop_assert_eq!(
                    cluster_viewing_centers(&cs, &p),
                    cluster_viewing_centers_reference(&cs, &p)
                );
            }
        }
    }
}
