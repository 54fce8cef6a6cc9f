//! The four mapping operations executed on the MPU's ranking engine
//! (paper §4.1, Fig. 8): farthest point sampling, k-nearest-neighbors /
//! ball query, kernel mapping, and coordinate quantization.
//!
//! Every function returns both the functional result — tested to be
//! bit-identical to the golden algorithms in `pointacc_geom::golden` —
//! and the cycle statistics of the hardware execution.

use pointacc_geom::index::dist_key;
use pointacc_geom::{golden, Coord, MapEntry, MapTable, PointSet, VoxelCloud};
use pointacc_nn::MappingOp;
use pointacc_sim::SortItem;

use super::rank::{RankEngine, RankStats};
use super::stream::StreamMerger;

/// Payload bit marking an element of the *output* cloud in a merged
/// stream (vs. shifted input cloud).
const OUTPUT_TAG: u64 = 1 << 63;

/// Cycle statistics of a mapping operation.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MappingStats {
    /// Total MPU cycles.
    pub cycles: u64,
    /// Comparator evaluations (sorting networks + detector).
    pub comparator_evals: u64,
    /// Distance-calculation ALU operations (stage CD).
    pub distance_ops: u64,
}

impl MappingStats {
    fn absorb_rank(&mut self, s: RankStats) {
        self.cycles += s.cycles;
        self.comparator_evals += s.comparator_evals;
    }
}

/// The Mapping Unit: a ranking engine plus the streaming merger and
/// intersection detector, configured at merger width N.
#[derive(Copy, Clone, Debug)]
pub struct Mpu {
    width: usize,
    engine: RankEngine,
    merger: StreamMerger,
}

impl Mpu {
    /// Creates a mapping unit with merger width `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two ≥ 2.
    pub fn new(n: usize) -> Self {
        Mpu { width: n, engine: RankEngine::new(n), merger: StreamMerger::new(n) }
    }

    /// Merger width N.
    pub fn width(&self) -> usize {
        self.width
    }

    // ------------------------------------------------------------------
    // Farthest point sampling (Fig. 8b): iterative Max on distances.
    // ------------------------------------------------------------------

    /// Samples `m` points by farthest point sampling. Functionally
    /// identical to [`golden::farthest_point_sampling`] (start index 0,
    /// ties to the lowest index).
    ///
    /// # Panics
    ///
    /// Panics if `m > points.len()`.
    pub fn farthest_point_sampling(
        &self,
        points: &PointSet,
        m: usize,
    ) -> (Vec<usize>, MappingStats) {
        assert!(m <= points.len(), "cannot sample {m} from {}", points.len());
        let mut stats = MappingStats::default();
        if m == 0 {
            return (Vec::new(), stats);
        }
        let n = points.len();
        // The running min-distance array lives in the sorter buffer; each
        // iteration streams all points through FS → CD → ST, updating
        // distances and reducing the arg-max (paper §4.1.2, blue path).
        let mut dist = vec![f32::INFINITY; n];
        let mut selected = Vec::with_capacity(m);
        let mut current = 0usize;
        selected.push(current);
        let passes_per_iter = (n as u64).div_ceil(self.width as u64);
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
            stats.cycles += passes_per_iter + 2; // stream + forward bubble
            stats.distance_ops += n as u64;
            stats.comparator_evals += n as u64; // max-reduction tree
        }
        (selected, stats)
    }

    /// Closed-form FPS cycle estimate for the dense sweep (every
    /// iteration streams all `n` points). This is the modeled cost the
    /// golden speedup/energy snapshots are locked to.
    pub fn fps_cycles_estimate(&self, n: usize, m: usize) -> u64 {
        (m.saturating_sub(1) as u64) * ((n as u64).div_ceil(self.width as u64) + 2)
    }

    // ------------------------------------------------------------------
    // k-nearest-neighbors / ball query (Fig. 8c): TopK on distances.
    // ------------------------------------------------------------------

    /// k-nearest-neighbors of every query point. Functionally identical
    /// to [`golden::k_nearest_neighbors`] (ranking key `(dist², index)`).
    pub fn k_nearest_neighbors(
        &self,
        input: &PointSet,
        queries: &PointSet,
        k: usize,
    ) -> (Vec<Vec<usize>>, MappingStats) {
        self.knn_inner(input, queries, k, None)
    }

    /// Ball query: k nearest within squared radius `radius2`, padded the
    /// PointNet++ way (repeat the nearest member; empty balls fall back
    /// to the global nearest neighbor). Matches
    /// [`golden::ball_query_padded`].
    pub fn ball_query_padded(
        &self,
        input: &PointSet,
        queries: &PointSet,
        radius2: f32,
        k: usize,
    ) -> (Vec<Vec<usize>>, MappingStats) {
        let (mut out, stats) = self.knn_inner(input, queries, k, Some(radius2));
        for (qi, nbrs) in out.iter_mut().enumerate() {
            if nbrs.is_empty() {
                let (fallback, _) =
                    self.knn_inner(input, &PointSet::from_points(vec![queries.point(qi)]), 1, None);
                nbrs.extend_from_slice(&fallback[0]);
            }
            let first = nbrs[0];
            while nbrs.len() < k {
                nbrs.push(first);
            }
        }
        (out, stats)
    }

    fn knn_inner(
        &self,
        input: &PointSet,
        queries: &PointSet,
        k: usize,
        radius2: Option<f32>,
    ) -> (Vec<Vec<usize>>, MappingStats) {
        let mut stats = MappingStats::default();
        let mut out = Vec::with_capacity(queries.len());
        for &q in queries.points() {
            // Stage CD computes distances at N lanes/cycle; the ranking
            // engine consumes them at the same rate, so the top-k pass
            // dominates.
            let items: Vec<SortItem> = input
                .points()
                .iter()
                .enumerate()
                .filter_map(|(i, &p)| {
                    let d = p.dist2(q);
                    if radius2.is_some_and(|r2| d > r2) {
                        // Ball query: thresholding happens in the same
                        // comparator pass (distance > r² lanes are
                        // invalidated), so filtered items cost nothing
                        // extra downstream.
                        None
                    } else {
                        Some(SortItem::new(dist_key(d, i as u32), i as u64))
                    }
                })
                .collect();
            stats.distance_ops += input.len() as u64;
            let (top, s) = if items.is_empty() {
                (Vec::new(), RankStats::default())
            } else {
                self.engine.topk(&items, k)
            };
            stats.absorb_rank(s);
            stats.cycles += (input.len() as u64).div_ceil(self.width as u64).max(1);
            out.push(top.into_iter().map(|i| i.payload as usize).collect());
        }
        (out, stats)
    }

    /// Closed-form kNN/ball-query cycle estimate.
    pub fn knn_cycles_estimate(&self, n: usize, n_queries: usize, k: usize) -> u64 {
        let per_query =
            self.engine.topk_cycles_estimate(n, k) + (n as u64).div_ceil(self.width as u64).max(1);
        per_query * n_queries as u64
    }

    // ------------------------------------------------------------------
    // Kernel mapping (Fig. 9): MergeSort + intersection detection.
    // ------------------------------------------------------------------

    /// Kernel mapping by merge-sort + intersection detection. The input
    /// cloud is shifted by `−δ` per kernel offset (a uniform shift keeps
    /// it sorted), merge-sorted with the output cloud, and adjacent
    /// equal-coordinate pairs become maps. Bit-identical to
    /// [`golden::kernel_map_hash`].
    pub fn kernel_map(
        &self,
        input: &VoxelCloud,
        output: &VoxelCloud,
        kernel_size: usize,
    ) -> (MapTable, MappingStats) {
        let offsets = golden::kernel_offsets(kernel_size);
        let s = input.stride();
        let mut stats = MappingStats::default();
        let mut entries = Vec::new();
        // Output cloud keys are reused across all offsets.
        let out_items: Vec<SortItem> = output
            .coords()
            .iter()
            .enumerate()
            .map(|(i, c)| SortItem::new(c.key(), i as u64 | OUTPUT_TAG))
            .collect();
        for (w, &d) in offsets.iter().enumerate() {
            // Shift the input cloud by −δ·s: map condition p = q + δ·s
            // becomes (p − δ·s) = q. Adding a constant offset preserves
            // the sorted order, so no re-sort is needed (stage CD does
            // the adds inline).
            let dd = d.scale(s);
            let shifted: Vec<SortItem> = input
                .coords()
                .iter()
                .enumerate()
                .map(|(i, c)| SortItem::new(c.sub(dd).key(), i as u64))
                .collect();
            stats.distance_ops += input.len() as u64;
            let (merged, ms) = self.merger.merge(&shifted, &out_items);
            stats.cycles += ms.iterations + self.merger.depth();
            stats.comparator_evals += ms.comparator_evals;
            // Stage DI: adjacent equal keys from different sources form a
            // map (coordinates are unique within each cloud, so equal
            // runs have length ≤ 2).
            for pair in merged.windows(2) {
                if pair[0].key == pair[1].key {
                    let (inp, outp) = if pair[0].payload & OUTPUT_TAG == 0 {
                        (pair[0].payload, pair[1].payload)
                    } else {
                        (pair[1].payload, pair[0].payload)
                    };
                    debug_assert!(outp & OUTPUT_TAG != 0, "duplicate key within one cloud");
                    entries.push(MapEntry::new(inp as u32, (outp & !OUTPUT_TAG) as u32, w as u16));
                }
            }
            stats.comparator_evals += merged.len().saturating_sub(1) as u64;
        }
        (MapTable::from_entries(entries, offsets.len()), stats)
    }

    /// Closed-form kernel-mapping cycle estimate.
    pub fn kernel_map_cycles_estimate(
        &self,
        n_in: usize,
        n_out: usize,
        kernel_volume: usize,
    ) -> u64 {
        let h = (self.width / 2).max(1) as u64;
        let per_offset =
            (n_in as u64).div_ceil(h) + (n_out as u64).div_ceil(h) + self.merger.depth();
        per_offset * kernel_volume as u64
    }

    // ------------------------------------------------------------------
    // Output cloud construction: coordinate quantization.
    // ------------------------------------------------------------------

    /// Downsamples a cloud by coordinate quantization: clears the low
    /// bits (stage CD), re-sorts the quantized stream (the quantized
    /// sequence is *not* lexicographically sorted), and removes adjacent
    /// duplicates in the detector. Matches [`VoxelCloud::downsample`].
    pub fn quantize(&self, input: &VoxelCloud, factor: i32) -> (VoxelCloud, MappingStats) {
        let mut stats = MappingStats::default();
        let new_stride = input.stride() * factor;
        let items: Vec<SortItem> =
            input.coords().iter().map(|c| SortItem::new(c.quantize(new_stride).key(), 0)).collect();
        stats.distance_ops += input.len() as u64;
        let (sorted, rs) = self.engine.sort(&items);
        stats.absorb_rank(rs);
        // Detector pass removes duplicates.
        let mut coords = Vec::with_capacity(sorted.len());
        let mut last: Option<u128> = None;
        for item in &sorted {
            if last != Some(item.key) {
                coords.push(Coord::from_key(item.key));
                last = Some(item.key);
            }
        }
        stats.comparator_evals += sorted.len() as u64;
        (VoxelCloud::from_sorted(coords, new_stride), stats)
    }

    /// Closed-form quantization cycle estimate.
    pub fn quantize_cycles_estimate(&self, n_in: usize) -> u64 {
        self.engine.sort_cycles_estimate(n_in) + (n_in as u64).div_ceil(self.width as u64)
    }

    // ------------------------------------------------------------------
    // Descriptor-driven costing.
    // ------------------------------------------------------------------

    /// Cycle estimate for one trace-level [`MappingOp`] descriptor — the
    /// **same** descriptor the executor records while building the maps,
    /// so the modeled cycles and the executed mapping work can never
    /// diverge. This is the single entry point the accelerator's
    /// per-layer costing uses.
    pub fn op_cycles(&self, op: &MappingOp) -> u64 {
        match *op {
            MappingOp::Quantize { n_in, .. } => self.quantize_cycles_estimate(n_in),
            MappingOp::KernelMap { n_in, n_out, kernel_volume, .. } => {
                self.kernel_map_cycles_estimate(n_in, n_out, kernel_volume)
            }
            MappingOp::Fps { n_in, n_out } => self.fps_cycles_estimate(n_in, n_out),
            MappingOp::Knn { n_in, n_queries, k } | MappingOp::BallQuery { n_in, n_queries, k } => {
                self.knn_cycles_estimate(n_in, n_queries, k)
            }
            MappingOp::KnnFeature { n_in, n_queries, k, dim } => {
                // High-dimensional distances lengthen stage CD: the
                // reduction over `dim` components shares the N lanes.
                let extra =
                    (n_queries as u64) * (n_in as u64 * dim as u64).div_ceil(4 * self.width as u64);
                self.knn_cycles_estimate(n_in, n_queries, k) + extra
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pointacc_geom::Point3;

    fn pseudo_points(n: usize, seed: u64) -> PointSet {
        let mut x = seed | 1;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1000) as f32 / 100.0 - 5.0
        };
        (0..n).map(|_| Point3::new(step(), step(), step())).collect()
    }

    fn pseudo_cloud(n: usize, seed: u64, stride: i32) -> VoxelCloud {
        let mut x = seed | 1;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x % 32) as i32 - 16) * stride
        };
        VoxelCloud::from_unsorted(
            (0..n).map(|_| Coord::new(step(), step(), step())).collect(),
            stride,
        )
    }

    #[test]
    fn fps_matches_golden() {
        let mpu = Mpu::new(16);
        for (n, m) in [(50usize, 10usize), (200, 64), (31, 31)] {
            let pts = pseudo_points(n, n as u64);
            let (got, stats) = mpu.farthest_point_sampling(&pts, m);
            let want = golden::farthest_point_sampling(&pts, m);
            assert_eq!(got, want, "n={n} m={m}");
            assert_eq!(stats.cycles, mpu.fps_cycles_estimate(n, m));
        }
    }

    #[test]
    fn knn_matches_golden() {
        let mpu = Mpu::new(16);
        let input = pseudo_points(120, 5);
        let queries = pseudo_points(15, 9);
        let (got, _) = mpu.k_nearest_neighbors(&input, &queries, 8);
        let want = golden::k_nearest_neighbors(&input, &queries, 8);
        assert_eq!(got, want);
    }

    #[test]
    fn ball_query_matches_golden() {
        let mpu = Mpu::new(16);
        let input = pseudo_points(100, 1);
        let queries = pseudo_points(10, 2);
        for r2 in [0.5f32, 2.0, 50.0] {
            let (got, _) = mpu.ball_query_padded(&input, &queries, r2, 16);
            let want = golden::ball_query_padded(&input, &queries, r2, 16);
            assert_eq!(got, want, "r2={r2}");
        }
    }

    #[test]
    fn kernel_map_matches_golden_hash() {
        let mpu = Mpu::new(16);
        for seed in 1..5u64 {
            let input = pseudo_cloud(80, seed, 1);
            let maps_golden = golden::kernel_map_hash(&input, &input, 3);
            let (maps_mpu, stats) = mpu.kernel_map(&input, &input, 3);
            assert_eq!(maps_mpu.canonicalized(), maps_golden.canonicalized(), "seed={seed}");
            assert!(stats.cycles > 0);
        }
    }

    #[test]
    fn kernel_map_downsampling_matches_golden() {
        let mpu = Mpu::new(8);
        let input = pseudo_cloud(100, 3, 1);
        let (output, qstats) = mpu.quantize(&input, 2);
        let (want_out, _) = input.downsample(2);
        assert_eq!(output, want_out);
        assert!(qstats.cycles > 0);
        let maps_golden = golden::kernel_map_hash(&input, &output, 2);
        let (maps_mpu, _) = mpu.kernel_map(&input, &output, 2);
        assert_eq!(maps_mpu.canonicalized(), maps_golden.canonicalized());
    }

    #[test]
    fn kernel_map_estimate_tracks_measured() {
        let mpu = Mpu::new(16);
        let input = pseudo_cloud(300, 9, 1);
        let (_, stats) = mpu.kernel_map(&input, &input, 3);
        let est = mpu.kernel_map_cycles_estimate(input.len(), input.len(), 27);
        let ratio = est as f64 / stats.cycles as f64;
        assert!((0.5..2.0).contains(&ratio), "estimate {est} vs measured {}", stats.cycles);
    }

    #[test]
    fn dist_key_orders_like_floats() {
        let a = dist_key(0.5, 9);
        let b = dist_key(0.5, 10);
        let c = dist_key(1.5, 0);
        assert!(a < b && b < c);
        assert!(dist_key(0.0, 0) < dist_key(f32::MIN_POSITIVE, 0));
    }

    #[test]
    fn knn_on_empty_ball_is_empty() {
        let mpu = Mpu::new(8);
        let input = PointSet::from_points(vec![Point3::new(100.0, 0.0, 0.0)]);
        let queries = PointSet::from_points(vec![Point3::ORIGIN]);
        let (got, _) = mpu.knn_inner(&input, &queries, 4, Some(0.1));
        assert!(got[0].is_empty());
    }
}
