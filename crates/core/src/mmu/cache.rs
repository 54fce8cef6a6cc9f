//! Input-buffer cache for sparse computation (paper §4.2.3, Fig. 18).
//!
//! In Fetch-on-Demand flow the MMU configures the input feature buffers
//! as a direct-mapped cache with a *software-controllable block size*:
//! one block holds the features of `block_points` consecutive input
//! points for one input-channel tile. The MIR container serves as the
//! shared tag array.

use pointacc_geom::MapTable;

use super::mir::{MirContainer, MirMode};

/// Cache geometry for one sparse layer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cache capacity, bytes (the input feature buffer).
    pub capacity_bytes: usize,
    /// Points per cache block (software-chosen, paper Fig. 18 sweeps
    /// 1–128).
    pub block_points: usize,
    /// Bytes of one point-row within one channel tile
    /// (`ic_tile × elem_bytes`).
    pub row_bytes: usize,
}

impl CacheConfig {
    /// Bytes per cache block.
    pub fn block_bytes(&self) -> usize {
        self.block_points * self.row_bytes
    }

    /// Number of blocks (direct-mapped sets).
    pub fn n_blocks(&self) -> usize {
        (self.capacity_bytes / self.block_bytes()).max(1)
    }
}

/// Access-level results of a cache simulation.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FeatureCacheStats {
    /// Total feature-row accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses (each loading one block from DRAM).
    pub misses: u64,
    /// DRAM bytes fetched (`misses × block_bytes`).
    pub dram_bytes: u64,
}

impl FeatureCacheStats {
    /// Miss rate in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// The statistics accrued since the snapshot `earlier`.
    fn since(self, earlier: FeatureCacheStats) -> FeatureCacheStats {
        FeatureCacheStats {
            accesses: self.accesses - earlier.accesses,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            dram_bytes: self.dram_bytes - earlier.dram_bytes,
        }
    }

    /// Adds `n` repetitions of one pass's statistics.
    fn add_passes(&mut self, pass: FeatureCacheStats, n: u64) {
        self.accesses += n * pass.accesses;
        self.hits += n * pass.hits;
        self.misses += n * pass.misses;
        self.dram_bytes += n * pass.dram_bytes;
    }
}

/// A direct-mapped feature cache built on the MIR container.
#[derive(Clone, Debug)]
pub struct FeatureCache {
    cfg: CacheConfig,
    tags: MirContainer,
    stats: FeatureCacheStats,
}

impl FeatureCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero blocks or zero-sized
    /// blocks.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.block_points > 0 && cfg.row_bytes > 0, "cache block must be nonzero");
        FeatureCache {
            cfg,
            tags: MirContainer::new(MirMode::TagArray, cfg.n_blocks(), cfg.capacity_bytes),
            stats: FeatureCacheStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accesses the features of input point `point` in channel-tile
    /// `ic_tile`; returns `true` on hit.
    pub fn access(&mut self, point: u32, ic_tile: u32) -> bool {
        let block = point as u64 / self.cfg.block_points as u64;
        // Tag = (point block, channel tile); mixing the tile into the id
        // spreads tiles across sets.
        let id = block.wrapping_mul(0x9E37_79B9).wrapping_add((ic_tile as u64) << 1) | 1;
        let hit = self.tags.probe(id, self.cfg.block_bytes());
        self.stats.accesses += 1;
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            self.stats.dram_bytes += self.cfg.block_bytes() as u64;
        }
        hit
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> FeatureCacheStats {
        self.stats
    }

    /// Walks one output-channel pass — every input-channel tile over the
    /// resident map slices — and returns `false` once the access count
    /// reaches `limit`.
    fn walk_pass(&mut self, resident: &[&[u32]], ic_tiles: usize, limit: u64) -> bool {
        for ic in 0..ic_tiles {
            for inputs in resident {
                for &input in *inputs {
                    self.access(input, ic as u32);
                    if self.stats.accesses >= limit {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Loop-nest description of one sparse layer's input accesses.
#[derive(Copy, Clone, Debug)]
pub struct SparseAccessPlan {
    /// Input-channel tiles (`ceil(in_ch / pe_rows)`).
    pub ic_tiles: usize,
    /// Output-channel tiles (`ceil(out_ch / pe_cols)`).
    pub oc_tiles: usize,
    /// Output points resident per output tile (bounded by the output
    /// buffer; the weight-stationary inner loop streams all maps whose
    /// output lies in the resident tile).
    pub out_tile_points: usize,
}

/// Simulates the Fetch-on-Demand access stream of one sparse layer
/// through the cache and returns the statistics.
///
/// Loop nest (paper §4.2.2): output-stationary outer over output tiles
/// and output-channel tiles; weight-stationary inner over kernel offsets
/// and the maps of the resident outputs; input channels tiled innermost.
///
/// Every output-channel pass of one output tile walks the same access
/// sequence. In a direct-mapped cache each set that sequence touches
/// ends a pass holding the sequence's last tag for that set, so the tag
/// state after the first pass is a fixpoint: the second pass's
/// statistics repeat for every later pass. The simulation walks two
/// passes per tile and adds the rest in bulk — exactly the statistics
/// of walking all `oc_tiles` passes.
///
/// If `sample_limit` is `Some(n)`, simulation stops after `n` accesses
/// (used by the compiler's block-size search).
pub fn simulate_sparse_accesses(
    cfg: CacheConfig,
    maps: &MapTable,
    plan: SparseAccessPlan,
    sample_limit: Option<u64>,
) -> FeatureCacheStats {
    let mut cache = FeatureCache::new(cfg);
    if plan.oc_tiles == 0 {
        return cache.stats();
    }
    // The walk stops once the access count reaches the limit, and it
    // always makes at least one access before checking.
    let limit = sample_limit.map_or(u64::MAX, |n| n.max(1));
    let n_out = maps.outputs().iter().max().map_or(0, |&m| m as usize + 1);
    let tile_pts = plan.out_tile_points.max(1);
    let n_tiles = n_out.div_ceil(tile_pts).max(1);
    let mut resident: Vec<&[u32]> = Vec::with_capacity(maps.n_weights());
    for t in 0..n_tiles {
        let lo = (t * tile_pts) as u32;
        let hi = ((t + 1) * tile_pts) as u32;
        resident.clear();
        resident.extend((0..maps.n_weights()).map(|w| {
            let group = maps.group(w);
            // Maps are emitted in ascending output order, so the
            // resident range is a contiguous slice.
            let start = group.outputs().partition_point(|&o| o < lo);
            let end = group.outputs().partition_point(|&o| o < hi);
            &group.inputs()[start..end]
        }));
        if !cache.walk_pass(&resident, plan.ic_tiles, limit) {
            break;
        }
        if plan.oc_tiles == 1 {
            continue;
        }
        let before = cache.stats;
        if !cache.walk_pass(&resident, plan.ic_tiles, limit) {
            break;
        }
        let pass = cache.stats.since(before);
        if pass.accesses == 0 {
            continue;
        }
        let rest = plan.oc_tiles as u64 - 2;
        let whole = rest.min((limit - cache.stats.accesses) / pass.accesses);
        cache.stats.add_passes(pass, whole);
        if cache.stats.accesses >= limit {
            // The limit landed exactly on a pass boundary.
            break;
        }
        if whole < rest {
            // The limit falls inside a later pass: walk it from the
            // fixpoint state.
            cache.walk_pass(&resident, plan.ic_tiles, limit);
            break;
        }
    }
    cache.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pointacc_geom::MapEntry;
    use proptest::prelude::*;

    /// The uncollapsed loop nest: every output-channel pass walked in
    /// full. The oracle for [`simulate_sparse_accesses`].
    fn simulate_reference(
        cfg: CacheConfig,
        maps: &MapTable,
        plan: SparseAccessPlan,
        sample_limit: Option<u64>,
    ) -> FeatureCacheStats {
        let mut cache = FeatureCache::new(cfg);
        let n_out = maps.outputs().iter().max().map_or(0, |&m| m as usize + 1);
        let tile_pts = plan.out_tile_points.max(1);
        let n_tiles = n_out.div_ceil(tile_pts).max(1);
        'outer: for t in 0..n_tiles {
            let lo = (t * tile_pts) as u32;
            let hi = ((t + 1) * tile_pts) as u32;
            for _oc in 0..plan.oc_tiles {
                for ic in 0..plan.ic_tiles {
                    for w in 0..maps.n_weights() {
                        let group = maps.group(w);
                        // Maps are emitted in ascending output order, so the
                        // resident range is a contiguous slice.
                        let start = group.outputs().partition_point(|&o| o < lo);
                        let end = group.outputs().partition_point(|&o| o < hi);
                        for &input in &group.inputs()[start..end] {
                            cache.access(input, ic as u32);
                            if let Some(limit) = sample_limit {
                                if cache.stats().accesses >= limit {
                                    break 'outer;
                                }
                            }
                        }
                    }
                }
            }
        }
        cache.stats()
    }

    fn seq_maps(n: usize, k: usize) -> MapTable {
        // Each output q reads inputs q, q+1, …, q+k−1 under k weights —
        // a 1-D convolution pattern.
        let mut entries = Vec::new();
        for q in 0..n {
            for w in 0..k {
                let p = (q + w) % n;
                entries.push(MapEntry::new(p as u32, q as u32, w as u16));
            }
        }
        MapTable::from_entries(entries, k)
    }

    fn plan() -> SparseAccessPlan {
        SparseAccessPlan { ic_tiles: 1, oc_tiles: 1, out_tile_points: 64 }
    }

    #[test]
    fn bigger_blocks_reduce_miss_rate() {
        // Paper Fig. 18: miss rate decreases with block size.
        let maps = seq_maps(4096, 3);
        let mut last = f64::INFINITY;
        for bp in [1usize, 4, 16, 64] {
            let cfg = CacheConfig { capacity_bytes: 64 * 1024, block_points: bp, row_bytes: 128 };
            let s = simulate_sparse_accesses(cfg, &maps, plan(), None);
            assert!(
                s.miss_rate() <= last + 1e-9,
                "block {bp}: rate {} should not exceed {last}",
                s.miss_rate()
            );
            last = s.miss_rate();
        }
    }

    #[test]
    fn more_neighbors_reduce_miss_rate() {
        // Paper Fig. 18: higher kernel size (more neighbors) → more reuse.
        let cfg = CacheConfig { capacity_bytes: 32 * 1024, block_points: 8, row_bytes: 128 };
        let s2 = simulate_sparse_accesses(cfg, &seq_maps(4096, 2), plan(), None);
        let s3 = simulate_sparse_accesses(cfg, &seq_maps(4096, 8), plan(), None);
        assert!(
            s3.miss_rate() < s2.miss_rate(),
            "k=8 rate {} should be below k=2 rate {}",
            s3.miss_rate(),
            s2.miss_rate()
        );
    }

    #[test]
    fn dram_bytes_equal_misses_times_block() {
        let cfg = CacheConfig { capacity_bytes: 4 * 1024, block_points: 4, row_bytes: 64 };
        let s = simulate_sparse_accesses(cfg, &seq_maps(512, 3), plan(), None);
        assert_eq!(s.dram_bytes, s.misses * cfg.block_bytes() as u64);
        assert_eq!(s.accesses, s.hits + s.misses);
    }

    #[test]
    fn sampling_stops_early() {
        let cfg = CacheConfig { capacity_bytes: 4 * 1024, block_points: 4, row_bytes: 64 };
        let s = simulate_sparse_accesses(cfg, &seq_maps(512, 3), plan(), Some(100));
        assert_eq!(s.accesses, 100);
    }

    #[test]
    fn perfect_reuse_when_everything_fits() {
        // Working set fits: only cold misses remain.
        let maps = seq_maps(64, 4);
        let cfg = CacheConfig { capacity_bytes: 1024 * 1024, block_points: 1, row_bytes: 128 };
        let s = simulate_sparse_accesses(cfg, &maps, plan(), None);
        assert_eq!(s.misses, 64, "one cold miss per distinct input point");
    }

    /// Random map table: `n_maps` entries over `n_in` inputs, `n_out`
    /// outputs and `n_weights` kernel offsets, drawn from `seed` and
    /// emitted in ascending output order like the mapping unit's.
    fn random_maps(seed: u64, n_in: u32, n_out: u32, n_weights: usize, n_maps: usize) -> MapTable {
        let mut x = seed | 1;
        let mut next = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        let mut entries: Vec<MapEntry> = (0..n_maps)
            .map(|_| {
                let input = next(u64::from(n_in)) as u32;
                let output = next(u64::from(n_out)) as u32;
                let weight = next(n_weights as u64) as u16;
                MapEntry::new(input, output, weight)
            })
            .collect();
        entries.sort_by_key(|e| e.output);
        MapTable::from_entries(entries, n_weights)
    }

    proptest! {
        #[test]
        fn collapsed_passes_match_the_full_loop_nest(
            seed in 0u64..u64::MAX,
            shape in (1u32..600, 1u32..300, 1usize..9, 0usize..1500),
            plan in (1usize..5, 1usize..9, 1usize..130),
            cache in (prop::sample::select(vec![512usize, 2048, 16 * 1024]), 1usize..17),
            cut in (1u64..9, 0u64..1000),
        ) {
            let (n_in, n_out, n_weights, n_maps) = shape;
            let maps = random_maps(seed, n_in, n_out, n_weights, n_maps);
            let (ic_tiles, oc_tiles, out_tile_points) = plan;
            let plan = SparseAccessPlan { ic_tiles, oc_tiles, out_tile_points };
            let cfg = CacheConfig { capacity_bytes: cache.0, block_points: cache.1, row_bytes: 64 };
            let full = simulate_reference(cfg, &maps, plan, None);
            prop_assert_eq!(simulate_sparse_accesses(cfg, &maps, plan, None), full);
            // Accesses in one output-channel pass of the first output
            // tile: limits below one pass, on the k-th pass boundary and
            // inside pass k + 1.
            let resident = maps.outputs().iter().filter(|&&o| (o as usize) < out_tile_points);
            let pass = (ic_tiles * resident.count()) as u64;
            let (k, offset) = cut;
            let limits = [
                0,
                1,
                pass / 2,
                k * pass,
                k * pass + offset % pass.max(1),
                offset * full.accesses / 999,
                full.accesses + 1,
            ];
            for limit in limits {
                prop_assert_eq!(
                    simulate_sparse_accesses(cfg, &maps, plan, Some(limit)),
                    simulate_reference(cfg, &maps, plan, Some(limit)),
                    "limit {}",
                    limit
                );
            }
        }
    }
}
