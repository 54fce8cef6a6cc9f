//! Computation-flow DRAM traffic models (paper §4.2.3, Fig. 11c,
//! Fig. 17 right, Fig. 19).
//!
//! Two flows for sparse layers:
//!
//! - **Gather-MatMul-Scatter** (the GPU flow): gather all input rows into
//!   a contiguous matrix in DRAM, run the matmul, scatter-accumulate the
//!   partial sums — every stage round-trips through memory.
//! - **Fetch-on-Demand** (PointAcc): matrix-vector products issue as the
//!   features arrive; with the input buffer configured as a cache, each
//!   feature is fetched from DRAM close to once.

use pointacc_nn::{ComputeKind, LayerTrace};

use super::cache::{simulate_sparse_accesses, CacheConfig, FeatureCacheStats, SparseAccessPlan};

/// DRAM traffic of one layer, split by stream.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LayerTraffic {
    /// Input-feature bytes read.
    pub input_read: u64,
    /// Weight bytes read.
    pub weight_read: u64,
    /// Output bytes written.
    pub output_write: u64,
    /// Intermediate bytes (gathered matrices, spilled partial sums) read
    /// + written — zero in Fetch-on-Demand flow.
    pub intermediate: u64,
}

impl LayerTraffic {
    /// Total bytes moved.
    pub fn total(&self) -> u64 {
        self.input_read + self.weight_read + self.output_write + self.intermediate
    }
}

/// Computation flow selector.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Flow {
    /// PointAcc's streaming flow; `cache` enables the configurable input
    /// cache (None = pure streaming, every map fetches its row).
    FetchOnDemand {
        /// Optional input-cache configuration.
        cache: Option<CacheConfig>,
    },
    /// The GPU-style flow with explicit gather and scatter in DRAM.
    GatherMatMulScatter,
}

/// Computes the DRAM traffic of one sparse / grouped / interpolate layer
/// under `flow`. Returns the traffic plus cache statistics when a cache
/// was simulated.
///
/// # Panics
///
/// Panics if the layer carries no map table.
pub fn sparse_layer_traffic(
    flow: Flow,
    layer: &LayerTrace,
    plan: SparseAccessPlan,
    elem_bytes: usize,
) -> (LayerTraffic, Option<FeatureCacheStats>) {
    let maps = layer.maps.as_ref().expect("sparse layer traffic requires a map table");
    let n_maps = maps.len() as u64;
    let e = elem_bytes as u64;
    let ic = layer.in_ch as u64;
    let oc = layer.out_ch as u64;
    let weight_read = layer.weight_bytes(elem_bytes);
    let out_rows = layer.pool_group.map_or(layer.n_out, |g| layer.n_out / g.max(1)) as u64;
    let output_write = out_rows * oc * e;
    match flow {
        Flow::FetchOnDemand { cache } => match cache {
            Some(cfg) => {
                let stats = simulate_sparse_accesses(cfg, maps, plan, None);
                // The simulated stream covers row-granular accesses per
                // ic-tile; dram bytes already account for block loads.
                let traffic = LayerTraffic {
                    input_read: stats.dram_bytes,
                    weight_read,
                    output_write,
                    intermediate: 0,
                };
                (traffic, Some(stats))
            }
            None => {
                let traffic = LayerTraffic {
                    input_read: n_maps * ic * e,
                    weight_read,
                    output_write,
                    intermediate: 0,
                };
                (traffic, None)
            }
        },
        Flow::GatherMatMulScatter => {
            // gather: read rows + write contiguous matrix; matmul: read
            // matrix, write psums; scatter: read psums, accumulate into
            // outputs.
            let gather = n_maps * ic * e * 2;
            let matmul = n_maps * ic * e + n_maps * oc * e;
            let scatter = n_maps * oc * e;
            let traffic = LayerTraffic {
                input_read: n_maps * ic * e,
                weight_read,
                output_write,
                intermediate: gather + matmul + scatter - n_maps * ic * e,
            };
            (traffic, None)
        }
    }
}

/// DRAM traffic of a dense layer executed standalone (no fusion): read
/// inputs, read weights, write outputs.
pub fn dense_layer_traffic(layer: &LayerTrace, elem_bytes: usize) -> LayerTraffic {
    let e = elem_bytes as u64;
    debug_assert!(matches!(layer.compute, ComputeKind::Dense | ComputeKind::Pool));
    let out_rows = layer.pool_group.map_or(layer.n_out, |g| layer.n_out / g.max(1)) as u64;
    LayerTraffic {
        input_read: layer.n_in as u64 * layer.in_ch as u64 * e,
        weight_read: layer.weight_bytes(elem_bytes),
        output_write: out_rows * layer.out_ch as u64 * e,
        intermediate: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pointacc_geom::{MapEntry, MapTable};
    use pointacc_nn::{Aggregation, ComputeKind};

    fn layer(n: usize, k: usize, c: usize) -> LayerTrace {
        let mut entries = Vec::new();
        for q in 0..n {
            for w in 0..k {
                entries.push(MapEntry::new(((q + w) % n) as u32, q as u32, w as u16));
            }
        }
        LayerTrace {
            name: "conv".into(),
            compute: ComputeKind::SparseConv,
            n_in: n,
            n_out: n,
            in_ch: c,
            out_ch: c,
            maps: Some(MapTable::from_entries(entries, k)),
            mapping: vec![],
            aggregation: Aggregation::Sum,
            pool_group: None,
            fusable: false,
        }
    }

    fn plan() -> SparseAccessPlan {
        SparseAccessPlan { ic_tiles: 1, oc_tiles: 1, out_tile_points: 128 }
    }

    #[test]
    fn fetch_on_demand_beats_gather_scatter() {
        // Paper §4.2.3: FoD saves input-feature DRAM access by ≥ 3×.
        let l = layer(2048, 8, 64);
        let (fod, _) = sparse_layer_traffic(Flow::FetchOnDemand { cache: None }, &l, plan(), 2);
        let (gms, _) = sparse_layer_traffic(Flow::GatherMatMulScatter, &l, plan(), 2);
        assert!(
            gms.total() as f64 / fod.total() as f64 >= 2.5,
            "GMS {} should dwarf FoD {}",
            gms.total(),
            fod.total()
        );
        assert_eq!(fod.intermediate, 0);
        assert!(gms.intermediate > 0);
    }

    #[test]
    fn cache_cuts_fetch_on_demand_traffic_further() {
        // Paper Fig. 19: the configurable cache reduces per-layer DRAM
        // access 3.5–6.3×.
        let l = layer(2048, 8, 64);
        let (nocache, _) = sparse_layer_traffic(Flow::FetchOnDemand { cache: None }, &l, plan(), 2);
        let cfg = CacheConfig { capacity_bytes: 256 * 1024, block_points: 16, row_bytes: 128 };
        let (cached, stats) =
            sparse_layer_traffic(Flow::FetchOnDemand { cache: Some(cfg) }, &l, plan(), 2);
        let ratio = nocache.input_read as f64 / cached.input_read as f64;
        assert!(ratio > 2.0, "cache should cut input reads, got {ratio}×");
        assert!(stats.unwrap().miss_rate() < 0.5);
    }

    #[test]
    fn dense_traffic_counts_all_streams() {
        let l = LayerTrace {
            name: "fc".into(),
            compute: ComputeKind::Dense,
            n_in: 100,
            n_out: 100,
            in_ch: 16,
            out_ch: 32,
            maps: None,
            mapping: vec![],
            aggregation: Aggregation::None,
            pool_group: None,
            fusable: true,
        };
        let t = dense_layer_traffic(&l, 2);
        assert_eq!(t.input_read, 100 * 16 * 2);
        assert_eq!(t.output_write, 100 * 32 * 2);
        assert_eq!(t.weight_read, 16 * 32 * 2);
    }
}
