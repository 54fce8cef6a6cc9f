//! Golden (reference) implementations of every mapping operation.
//!
//! These are straightforward CPU algorithms — hash tables, brute-force
//! distance scans — matching the state-of-the-art CPU/GPU implementations
//! the paper profiles (§2.1). They are the workspace's **test oracle**:
//! the PointAcc mapping unit in the `pointacc` crate and the grid-hash
//! [`crate::index::Indexed`] backend must both produce bit-identical
//! results to these functions, and the test suites enforce that
//! equivalence (`tests/mpu_equivalence.rs`, `tests/mapping_backends.rs`).
//!
//! Hot paths should not call this module directly: the executor, the
//! [`crate::KernelMap`] constructors and the bench harness go through
//! [`crate::index::MappingBackend`], which defaults to the indexed
//! backend and keeps `golden` as the slow, auditable reference.

use std::collections::HashMap;

use crate::{Coord, MapEntry, MapTable, Point3, PointSet, VoxelCloud};

/// Enumerates kernel offsets for a cubic kernel of size `k` in the order
/// the weight tensor is laid out (x-major, matching the weight index
/// convention `w_{δx,δy,δz}`).
///
/// Odd kernels are centered (`δ ∈ [-(k-1)/2, (k-1)/2]`), even kernels are
/// forward (`δ ∈ [0, k-1]`), matching the MinkowskiEngine convention used
/// by the networks the paper evaluates (kernel 3 / stride 1 convs, kernel
/// 2 / stride 2 downsamples).
///
/// # Examples
///
/// ```
/// use pointacc_geom::golden::kernel_offsets;
/// assert_eq!(kernel_offsets(3).len(), 27);
/// assert_eq!(kernel_offsets(2).len(), 8);
/// ```
pub fn kernel_offsets(k: usize) -> Vec<Coord> {
    assert!(k >= 1, "kernel size must be at least 1");
    let range: Vec<i32> = if k % 2 == 1 {
        let h = (k as i32 - 1) / 2;
        (-h..=h).collect()
    } else {
        (0..k as i32).collect()
    };
    let mut out = Vec::with_capacity(k * k * k);
    for &dx in &range {
        for &dy in &range {
            for &dz in &range {
                out.push(Coord::new(dx, dy, dz));
            }
        }
    }
    out
}

/// Hash-table based kernel mapping (the state-of-the-art CPU/GPU algorithm,
/// paper §4.1.1): builds a hash table of input coordinates, then for every
/// output point and every kernel offset queries `q + δ·stride_in`; a hit
/// yields the map `(p, q, w_δ)`.
///
/// `input.stride()` is the dilation of the kernel (offsets step by the
/// input tensor stride).
pub fn kernel_map_hash(input: &VoxelCloud, output: &VoxelCloud, kernel_size: usize) -> MapTable {
    let offsets = kernel_offsets(kernel_size);
    let table: HashMap<Coord, u32> =
        input.coords().iter().enumerate().map(|(i, &c)| (c, i as u32)).collect();
    let s = input.stride();
    let mut entries = Vec::new();
    for (w, &d) in offsets.iter().enumerate() {
        let dd = d.scale(s);
        for (qi, &q) in output.coords().iter().enumerate() {
            if let Some(&pi) = table.get(&q.offset(dd)) {
                entries.push(MapEntry::new(pi, qi as u32, w as u16));
            }
        }
    }
    MapTable::from_entries(entries, offsets.len())
}

/// Farthest point sampling (paper §2.1.1): iteratively selects `m` points,
/// each the input point with the maximum distance to the already-selected
/// set. Selection starts from index 0 and ties resolve to the lowest
/// index, which is the deterministic policy the hardware model also uses.
///
/// Returns the indices of the sampled points in selection order.
///
/// # Panics
///
/// Panics if `m > points.len()`.
pub fn farthest_point_sampling(points: &PointSet, m: usize) -> Vec<usize> {
    assert!(m <= points.len(), "cannot sample {m} from {} points", points.len());
    if m == 0 {
        return Vec::new();
    }
    let n = points.len();
    let mut selected = Vec::with_capacity(m);
    let mut dist = vec![f32::INFINITY; n];
    let mut current = 0usize;
    selected.push(current);
    for _ in 1..m {
        let q = points.point(current);
        let mut best = 0usize;
        let mut best_d = f32::NEG_INFINITY;
        for (i, d) in dist.iter_mut().enumerate() {
            let nd = points.point(i).dist2(q);
            if nd < *d {
                *d = nd;
            }
            if *d > best_d {
                best_d = *d;
                best = i;
            }
        }
        selected.push(best);
        current = best;
    }
    selected
}

/// Brute-force k-nearest-neighbors: for every query, the `k` input points
/// with the smallest squared distance, ties broken by index (the ranking
/// key is `(dist², index)`, exactly the comparator key of the mapping
/// unit's top-k). Returns `queries.len()` vectors of ≤ `k` indices in
/// ascending `(dist², index)` order.
pub fn k_nearest_neighbors(input: &PointSet, queries: &PointSet, k: usize) -> Vec<Vec<usize>> {
    queries.points().iter().map(|&q| knn_one(input, q, k, None)).collect()
}

/// Ball query (paper §2.1.2): like kNN but only points within squared
/// radius `radius2` qualify. PointNet++ pads short neighborhoods by
/// repeating the first (nearest) neighbor; this function returns the
/// unpadded result and [`ball_query_padded`] applies the padding.
pub fn ball_query(input: &PointSet, queries: &PointSet, radius2: f32, k: usize) -> Vec<Vec<usize>> {
    queries.points().iter().map(|&q| knn_one(input, q, k, Some(radius2))).collect()
}

/// Ball query with PointNet++-style padding: neighborhoods shorter than
/// `k` repeat their nearest member so every output has exactly `k`
/// entries. Queries with an empty ball fall back to the single nearest
/// neighbor repeated `k` times (matches the reference implementation's
/// behaviour of always grouping something).
pub fn ball_query_padded(
    input: &PointSet,
    queries: &PointSet,
    radius2: f32,
    k: usize,
) -> Vec<Vec<usize>> {
    let mut out = ball_query(input, queries, radius2, k);
    for (qi, nbrs) in out.iter_mut().enumerate() {
        if nbrs.is_empty() {
            let fallback = knn_one(input, queries.point(qi), 1, None);
            nbrs.extend_from_slice(&fallback);
        }
        let first = nbrs[0];
        while nbrs.len() < k {
            nbrs.push(first);
        }
    }
    out
}

fn knn_one(input: &PointSet, q: Point3, k: usize, radius2: Option<f32>) -> Vec<usize> {
    let mut cands: Vec<(f32, usize)> = input
        .points()
        .iter()
        .enumerate()
        .map(|(i, &p)| (p.dist2(q), i))
        .filter(|&(d, _)| radius2.is_none_or(|r2| d <= r2))
        .collect();
    cands.sort_by(|a, b| a.partial_cmp(b).expect("distances are finite"));
    cands.truncate(k);
    cands.into_iter().map(|(_, i)| i).collect()
}

/// Converts per-query neighbor lists into a shared-weight [`MapTable`]
/// (weight index 0 for every map), the form PointNet++-style aggregation
/// consumes.
pub fn neighbors_to_maps(neighbors: &[Vec<usize>]) -> MapTable {
    let entries = neighbors
        .iter()
        .enumerate()
        .flat_map(|(q, ns)| ns.iter().map(move |&p| MapEntry::new(p as u32, q as u32, 0)))
        .collect();
    MapTable::from_entries(entries, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PointSet;

    fn grid_cloud() -> VoxelCloud {
        // 2-D-ish cross of points on z=0.
        let cs = [(1, 1, 0), (2, 2, 0), (2, 4, 0), (3, 2, 0), (4, 3, 0)];
        VoxelCloud::from_unsorted(cs.iter().map(|&c| Coord::from(c)).collect(), 1)
    }

    #[test]
    fn kernel_offsets_order_and_count() {
        let o3 = kernel_offsets(3);
        assert_eq!(o3.len(), 27);
        assert_eq!(o3[0], Coord::new(-1, -1, -1));
        assert_eq!(o3[26], Coord::new(1, 1, 1));
        let o2 = kernel_offsets(2);
        assert_eq!(o2[0], Coord::ZERO);
        assert_eq!(o2[7], Coord::new(1, 1, 1));
    }

    #[test]
    fn kernel_map_stride1_center_offset_is_identity() {
        let c = grid_cloud();
        let maps = kernel_map_hash(&c, &c, 3);
        // Center weight (offset (0,0,0)) index for k=3 is 13.
        let center = maps.group(13);
        assert_eq!(center.len(), c.len());
        assert_eq!(center.inputs(), center.outputs());
    }

    #[test]
    fn kernel_map_finds_paper_fig9_pairs() {
        // Paper Fig. 9: inputs {(1,1),(2,2),(2,4),(3,2),(4,3)}, stride-1
        // outputs identical; offset w_{-1,-1} (shift input by (1,1))
        // produces maps (p0 -> q1) and (p3 -> q4).
        let c = grid_cloud();
        let maps = kernel_map_hash(&c, &c, 3);
        // In our 3-D offset enumeration, δ = (-1,-1,0) means p = q + δ, so
        // maps pair input (1,1,0) with output (2,2,0).
        let w = kernel_offsets(3).iter().position(|&d| d == Coord::new(-1, -1, 0)).unwrap();
        let g = maps.group(w);
        assert_eq!(g.len(), 2);
        let p0 = c.index_of(Coord::new(1, 1, 0)).unwrap() as u32;
        let q1 = c.index_of(Coord::new(2, 2, 0)).unwrap() as u32;
        let p3 = c.index_of(Coord::new(3, 2, 0)).unwrap() as u32;
        let q4 = c.index_of(Coord::new(4, 3, 0)).unwrap() as u32;
        assert!(g.iter().any(|e| e == MapEntry::new(p0, q1, w as u16)));
        assert!(g.iter().any(|e| e == MapEntry::new(p3, q4, w as u16)));
    }

    #[test]
    fn kernel_map_downsample_covers_every_input() {
        let c = grid_cloud();
        let (ds, _) = c.downsample(2);
        let maps = kernel_map_hash(&c, &ds, 2);
        // A kernel-2/stride-2 downsampling conv touches every input point
        // exactly once (each input falls in exactly one output cell at
        // exactly one offset).
        assert_eq!(maps.len(), c.len());
        let mut seen: Vec<u32> = maps.inputs().to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), c.len());
    }

    #[test]
    fn fps_selects_extremes_first() {
        // Paper Fig. 3c: q0 selected first, then the farthest point q4.
        let ps = PointSet::from_points(vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(2.0, 0.0, 0.0),
            Point3::new(10.0, 0.0, 0.0),
        ]);
        let sel = farthest_point_sampling(&ps, 3);
        assert_eq!(sel[0], 0);
        assert_eq!(sel[1], 3); // farthest from point 0
        assert_eq!(sel[2], 2); // midpoint-ish maximizes min-distance
    }

    #[test]
    fn fps_full_sample_is_permutation() {
        let ps = PointSet::from_points(vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(5.0, 1.0, 0.0),
            Point3::new(-3.0, 2.0, 1.0),
            Point3::new(0.5, -2.0, 4.0),
        ]);
        let mut sel = farthest_point_sampling(&ps, 4);
        sel.sort_unstable();
        assert_eq!(sel, vec![0, 1, 2, 3]);
    }

    #[test]
    fn knn_orders_by_distance_then_index() {
        let ps = PointSet::from_points(vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(-1.0, 0.0, 0.0), // tie with index 1
            Point3::new(5.0, 0.0, 0.0),
        ]);
        let q = PointSet::from_points(vec![Point3::ORIGIN]);
        let nn = k_nearest_neighbors(&ps, &q, 3);
        assert_eq!(nn[0], vec![0, 1, 2]);
    }

    #[test]
    fn ball_query_respects_radius() {
        let ps = PointSet::from_points(vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(0.5, 0.0, 0.0),
            Point3::new(3.0, 0.0, 0.0),
        ]);
        let q = PointSet::from_points(vec![Point3::ORIGIN]);
        let b = ball_query(&ps, &q, 1.0, 8);
        assert_eq!(b[0], vec![0, 1]);
        let padded = ball_query_padded(&ps, &q, 1.0, 4);
        assert_eq!(padded[0], vec![0, 1, 0, 0]);
    }

    #[test]
    fn ball_query_empty_falls_back_to_nearest() {
        let ps = PointSet::from_points(vec![Point3::new(10.0, 0.0, 0.0)]);
        let q = PointSet::from_points(vec![Point3::ORIGIN]);
        let padded = ball_query_padded(&ps, &q, 0.01, 2);
        assert_eq!(padded[0], vec![0, 0]);
    }

    #[test]
    fn neighbor_map_conversions() {
        let nbrs = vec![vec![1, 2], vec![0]];
        let shared = neighbors_to_maps(&nbrs);
        assert_eq!(shared.n_weights(), 1);
        assert_eq!(shared.len(), 3);
    }
}
