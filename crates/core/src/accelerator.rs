//! The top-level PointAcc model: compiles a network trace (fusion groups,
//! cache block sizes) and replays it through the MPU / MMU / MXU models,
//! producing a [`RunReport`].

use pointacc_nn::{ComputeKind, LayerTrace, NetworkTrace};
use pointacc_sim::{Cycles, DramChannel, EnergyTable, PicoJoules, SramSpec};

use crate::mmu::{
    dense_layer_traffic, fused_activation_bytes, plan_fusion, sparse_layer_traffic, CacheConfig,
    Flow, FusionPlan, SparseAccessPlan,
};
use crate::mpu::Mpu;
use crate::mxu::Mxu;
use crate::perf::{LayerPerf, RunReport};
use crate::PointAccConfig;

/// Input-cache policy for sparse layers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CachePolicy {
    /// No cache: pure streaming Fetch-on-Demand (ablation).
    Off,
    /// Fixed block size in points.
    Fixed(usize),
    /// Per-layer block-size search on a sampled access stream (the
    /// compiler's behaviour, paper §4.2.3).
    Search,
}

/// Execution options (ablation switches).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RunOptions {
    /// Computation flow for sparse layers.
    pub gather_scatter_flow: bool,
    /// Input-cache policy.
    pub cache: CachePolicy,
    /// Temporal layer fusion of dense chains.
    pub fusion: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { gather_scatter_flow: false, cache: CachePolicy::Search, fusion: true }
    }
}

/// Block sizes the compiler considers (paper Fig. 18 sweeps 1–128).
const BLOCK_CANDIDATES: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Accesses sampled per candidate during block-size search.
const SEARCH_SAMPLE: u64 = 50_000;

/// The accelerator model.
///
/// # Examples
///
/// ```
/// use pointacc::{Accelerator, PointAccConfig};
/// use pointacc_nn::{zoo, ExecMode, Executor};
/// use pointacc_geom::{Point3, PointSet};
///
/// let pts: PointSet = (0..256)
///     .map(|i| Point3::new((i as f32).sin(), (i as f32).cos(), 0.0))
///     .collect();
/// let out = Executor::new(ExecMode::TraceOnly, 0).run(&zoo::pointnet(), &pts);
/// let report = Accelerator::new(PointAccConfig::edge()).run(&out.trace);
/// assert!(report.latency_ms() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct Accelerator {
    cfg: PointAccConfig,
    mpu: Mpu,
    mxu: Mxu,
    energy: EnergyTable,
}

impl Accelerator {
    /// Builds an accelerator from a configuration.
    pub fn new(cfg: PointAccConfig) -> Self {
        let mpu = Mpu::new(cfg.merger_width);
        let mxu = Mxu::new(cfg.pe_rows, cfg.pe_cols);
        Accelerator { cfg, mpu, mxu, energy: EnergyTable::tsmc40() }
    }

    /// The configuration.
    pub fn config(&self) -> &PointAccConfig {
        &self.cfg
    }

    /// The mapping unit.
    pub fn mpu(&self) -> &Mpu {
        &self.mpu
    }

    /// The matrix unit.
    pub fn mxu(&self) -> &Mxu {
        &self.mxu
    }

    /// Runs a trace with default options.
    pub fn run(&self, trace: &NetworkTrace) -> RunReport {
        self.run_with(trace, RunOptions::default())
    }

    /// Runs a trace with explicit options (ablations).
    pub fn run_with(&self, trace: &NetworkTrace, opts: RunOptions) -> RunReport {
        let fusion = if opts.fusion {
            plan_fusion(
                &trace.layers,
                self.cfg.input_buf_bytes + self.cfg.output_buf_bytes,
                self.cfg.elem_bytes,
            )
        } else {
            FusionPlan::default()
        };
        let layers = trace
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| self.run_layer(i, l, trace, &fusion, opts))
            .collect();
        RunReport {
            config: self.cfg.name.clone(),
            network: trace.network.clone(),
            layers,
            freq_hz: self.cfg.freq_hz,
        }
    }

    fn run_layer(
        &self,
        index: usize,
        layer: &LayerTrace,
        trace: &NetworkTrace,
        fusion: &FusionPlan,
        opts: RunOptions,
    ) -> LayerPerf {
        let mpu_cycles = self.mapping_cycles(layer);
        let mxu_cycles = self.mxu.layer_cycles(layer);
        let (dram_bytes, cache_stats, cache_block, fused) =
            self.layer_dram(index, layer, trace, fusion, opts);

        let mut channel = DramChannel::new(self.cfg.dram);
        channel.read(dram_bytes);
        let dram_cycles = channel.transfer_cycles(self.cfg.freq_hz);
        let latency = mxu_cycles.max(dram_cycles) + mpu_cycles;

        // --- Energy ---
        let macs = layer.macs();
        // Comparator activity estimate: the MPU datapath is fully busy
        // during mapping cycles.
        let evals_per_cycle = (self.cfg.merger_width as u64 / 2)
            * (self.cfg.merger_width.trailing_zeros() as u64 + 2);
        let mut compute_energy =
            self.energy.macs(macs) + self.energy.compares(mpu_cycles.get() * evals_per_cycle);
        // Banked-access and control overhead beyond the raw CACTI
        // per-access figure (calibration constant).
        let mut sram_energy = self.sram_energy(layer, dram_bytes) * 3.0;
        let mut dram_energy =
            PicoJoules::new(dram_bytes as f64 * self.cfg.dram.energy_pj_per_byte());
        // Uncounted system power (clock tree, control, DRAM background)
        // accrues with latency and is distributed proportionally so the
        // component breakdown is preserved.
        let static_pj = latency.to_seconds(self.cfg.freq_hz) * self.cfg.system_power_w * 1e12;
        let dynamic = (compute_energy.get() + sram_energy.get() + dram_energy.get()).max(1e-12);
        let scale = 1.0 + static_pj / dynamic;
        compute_energy = compute_energy * scale;
        sram_energy = sram_energy * scale;
        dram_energy = dram_energy * scale;

        LayerPerf {
            name: layer.name.clone(),
            mpu_cycles,
            mxu_cycles,
            dram_cycles,
            latency,
            dram_bytes,
            macs,
            compute_energy,
            sram_energy,
            dram_energy,
            cache_miss_rate: cache_stats.map(|s| s.miss_rate()),
            cache_block_points: cache_block,
            fused,
        }
    }

    /// Mapping-operation cycles from the MPU's closed-form estimates
    /// (verified against the functional unit in `mpu::ops` tests).
    ///
    /// Each [`pointacc_nn::MappingOp`] descriptor recorded by the
    /// executor is costed
    /// through [`Mpu::op_cycles`] — the executed mapping work and the
    /// modeled cycles come from the same descriptors by construction.
    pub fn mapping_cycles(&self, layer: &LayerTrace) -> Cycles {
        Cycles::new(layer.mapping.iter().map(|m| self.mpu.op_cycles(m)).sum())
    }

    /// DRAM bytes of a layer under the chosen options, plus cache stats /
    /// chosen block size / fusion membership.
    fn layer_dram(
        &self,
        index: usize,
        layer: &LayerTrace,
        trace: &NetworkTrace,
        fusion: &FusionPlan,
        opts: RunOptions,
    ) -> (u64, Option<crate::mmu::FeatureCacheStats>, Option<usize>, bool) {
        // Fusion-group members (dense FCs, grouped shared-MLP layers and
        // inline pools) keep their activations on the MIR stack; only the
        // group head touches DRAM for activations.
        if let Some(group) = fusion.group_of(index) {
            let weights = layer.weight_bytes(self.cfg.elem_bytes);
            let act = if fusion.is_group_head(index) {
                let chain: Vec<LayerTrace> =
                    group.layers.iter().map(|&j| trace.layers[j].clone()).collect();
                fused_activation_bytes(&chain, self.cfg.elem_bytes)
            } else {
                0
            };
            return (weights + act, None, None, true);
        }
        match layer.compute {
            // Map-less "sparse" layers (e.g. the broadcast interpolation
            // after a global set abstraction) stream like dense layers.
            ComputeKind::SparseConv | ComputeKind::Grouped | ComputeKind::Interpolate
                if layer.maps.is_none() =>
            {
                let e = self.cfg.elem_bytes as u64;
                let bytes = layer.n_in as u64 * layer.in_ch as u64 * e
                    + layer.n_out as u64 * layer.out_ch as u64 * e;
                (bytes, None, None, false)
            }
            ComputeKind::SparseConv | ComputeKind::Grouped | ComputeKind::Interpolate => {
                let plan = self.access_plan(layer);
                if opts.gather_scatter_flow {
                    let (t, _) = sparse_layer_traffic(
                        Flow::GatherMatMulScatter,
                        layer,
                        plan,
                        self.cfg.elem_bytes,
                    );
                    return (t.total(), None, None, false);
                }
                let cache_cfg = match opts.cache {
                    CachePolicy::Off => None,
                    CachePolicy::Fixed(bp) => Some(self.cache_config(layer, bp)),
                    CachePolicy::Search => Some(self.search_block_size(layer, plan)),
                };
                let block = cache_cfg.map(|c| c.block_points);
                let (t, stats) = sparse_layer_traffic(
                    Flow::FetchOnDemand { cache: cache_cfg },
                    layer,
                    plan,
                    self.cfg.elem_bytes,
                );
                (t.total(), stats, block, false)
            }
            ComputeKind::Dense => {
                let t = dense_layer_traffic(layer, self.cfg.elem_bytes);
                (t.total(), None, None, false)
            }
            // Pooling reduces in the output datapath; its inputs are the
            // previous layer's outputs, already on chip (output
            // stationary).
            ComputeKind::Pool => (0, None, None, false),
        }
    }

    fn access_plan(&self, layer: &LayerTrace) -> SparseAccessPlan {
        let oc_rows = layer.out_ch.max(1) * self.cfg.elem_bytes;
        SparseAccessPlan {
            ic_tiles: layer.in_ch.div_ceil(self.cfg.pe_rows).max(1),
            oc_tiles: layer.out_ch.div_ceil(self.cfg.pe_cols).max(1),
            out_tile_points: (self.cfg.output_buf_bytes / oc_rows).max(1),
        }
    }

    fn cache_config(&self, layer: &LayerTrace, block_points: usize) -> CacheConfig {
        let ic_tile = layer.in_ch.min(self.cfg.pe_rows).max(1);
        CacheConfig {
            capacity_bytes: self.cfg.input_buf_bytes,
            block_points: block_points.max(1),
            row_bytes: ic_tile * self.cfg.elem_bytes,
        }
    }

    /// Compiler block-size search: simulate a sample of the access stream
    /// per candidate and keep the one moving the fewest DRAM bytes.
    fn search_block_size(&self, layer: &LayerTrace, plan: SparseAccessPlan) -> CacheConfig {
        let maps = match &layer.maps {
            Some(m) if !m.is_empty() => m,
            _ => return self.cache_config(layer, 32),
        };
        let mut best = self.cache_config(layer, BLOCK_CANDIDATES[0]);
        let mut best_bytes = u64::MAX;
        for &bp in &BLOCK_CANDIDATES {
            let cfg = self.cache_config(layer, bp);
            let stats = crate::mmu::simulate_sparse_accesses(cfg, maps, plan, Some(SEARCH_SAMPLE));
            // Normalize per access so truncated samples compare fairly.
            let bytes = stats.dram_bytes * 1_000 / stats.accesses.max(1);
            if bytes < best_bytes {
                best_bytes = bytes;
                best = cfg;
            }
        }
        best
    }

    /// SRAM energy of one layer (input, weight and output buffer
    /// activity).
    fn sram_energy(&self, layer: &LayerTrace, dram_bytes: u64) -> PicoJoules {
        let e = self.cfg.elem_bytes as u64;
        let maps = layer.maps.as_ref().map_or(layer.n_out as u64, |m| m.len() as u64);
        let word = 16usize;
        let input = SramSpec::new(self.cfg.input_buf_bytes, word);
        let output = SramSpec::new(self.cfg.output_buf_bytes, word);
        let weight = SramSpec::new(self.cfg.weight_buf_bytes, word);
        let input_reads = maps * layer.in_ch as u64 * e / word as u64;
        let input_writes = dram_bytes / word as u64;
        let out_words = maps * layer.out_ch as u64 * e / word as u64;
        let weight_words = layer.weight_bytes(self.cfg.elem_bytes) / word as u64;
        input.read_energy() * input_reads as f64
            + input.write_energy() * input_writes as f64
            + output.write_energy() * out_words as f64
            + output.read_energy() * out_words as f64
            + weight.read_energy() * weight_words as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pointacc_geom::{Point3, PointSet};
    use pointacc_nn::{zoo, ExecMode, Executor};

    fn trace(n: usize) -> NetworkTrace {
        let pts: PointSet = (0..n)
            .map(|i| {
                let t = i as f32;
                Point3::new((t * 0.3).sin() * 3.0, (t * 0.7).cos() * 3.0, (t * 0.11).sin())
            })
            .collect();
        Executor::new(ExecMode::TraceOnly, 1).run(&zoo::mini_minkunet(), &pts).trace
    }

    #[test]
    fn report_has_one_record_per_layer() {
        let t = trace(400);
        let report = Accelerator::new(PointAccConfig::edge()).run(&t);
        assert_eq!(report.layers.len(), t.layers.len());
        assert!(report.latency_ms() > 0.0);
        assert!(report.energy().get() > 0.0);
    }

    #[test]
    fn full_config_is_faster_than_edge() {
        let t = trace(600);
        let full = Accelerator::new(PointAccConfig::full()).run(&t);
        let edge = Accelerator::new(PointAccConfig::edge()).run(&t);
        assert!(
            full.latency_ms() < edge.latency_ms(),
            "full {} ms should beat edge {} ms",
            full.latency_ms(),
            edge.latency_ms()
        );
    }

    #[test]
    fn gather_scatter_ablation_moves_more_dram() {
        let t = trace(500);
        let acc = Accelerator::new(PointAccConfig::edge());
        let fod = acc.run(&t);
        let gms =
            acc.run_with(&t, RunOptions { gather_scatter_flow: true, ..RunOptions::default() });
        assert!(
            gms.dram_bytes() > 2 * fod.dram_bytes(),
            "GMS {} should far exceed FoD {}",
            gms.dram_bytes(),
            fod.dram_bytes()
        );
    }

    #[test]
    fn cache_ablation_increases_traffic() {
        let t = trace(500);
        let acc = Accelerator::new(PointAccConfig::edge());
        let cached = acc.run(&t);
        let uncached =
            acc.run_with(&t, RunOptions { cache: CachePolicy::Off, ..RunOptions::default() });
        assert!(uncached.dram_bytes() > cached.dram_bytes());
    }

    #[test]
    fn fusion_ablation_increases_dense_traffic() {
        let pts: PointSet =
            (0..512).map(|i| Point3::new((i as f32).sin(), (i as f32).cos(), 0.0)).collect();
        let t = Executor::new(ExecMode::TraceOnly, 1).run(&zoo::pointnet(), &pts).trace;
        let acc = Accelerator::new(PointAccConfig::edge());
        let fused = acc.run(&t);
        let unfused = acc.run_with(&t, RunOptions { fusion: false, ..RunOptions::default() });
        assert!(
            unfused.dram_bytes() > fused.dram_bytes(),
            "unfused {} should exceed fused {}",
            unfused.dram_bytes(),
            fused.dram_bytes()
        );
        assert!(fused.layers.iter().any(|l| l.fused));
    }

    #[test]
    fn breakdown_fractions_are_sane() {
        let t = trace(400);
        let report = Accelerator::new(PointAccConfig::full()).run(&t);
        let (m, x, d) = report.latency_breakdown();
        assert!(m >= 0.0 && x > 0.0 && d >= 0.0);
        assert!((m + x + d - 1.0).abs() < 1e-9);
    }
}
