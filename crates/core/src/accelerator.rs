//! The top-level PointAcc model: compiles a network trace (fusion groups,
//! cache block sizes) and replays it through the MPU / MMU / MXU models,
//! producing a [`RunReport`].

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
    /// compiler's behaviour, paper §4.2.3). Like the offline compiler,
    /// an [`Accelerator`] searches once per (trace, config): it keeps
    /// the chosen block sizes of the traces it replayed, keyed by
    /// [`NetworkTrace::fingerprint`], and later runs of the same trace
    /// reuse them. A fresh `Accelerator` always searches.
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

/// Traces whose block choices one [`Accelerator`] remembers; storing
/// one more evicts the oldest.
const BLOCK_MEMO_TRACES: usize = 256;

/// Block sizes [`CachePolicy::Search`] chose, per layer of each trace an
/// accelerator replayed. The search depends only on the layer and the
/// configuration, and an accelerator has one configuration, so the
/// trace fingerprint is the whole key.
#[derive(Debug, Default)]
struct BlockMemo {
    traces: HashMap<u64, Vec<Option<usize>>>,
    /// Insertion order, oldest first.
    order: VecDeque<u64>,
}

impl BlockMemo {
    /// The remembered choices for a trace of `n_layers` layers, `None`
    /// where no run has searched that layer yet.
    fn get(&self, fingerprint: u64, n_layers: usize) -> Vec<Option<usize>> {
        match self.traces.get(&fingerprint) {
            Some(blocks) if blocks.len() == n_layers => blocks.clone(),
            _ => vec![None; n_layers],
        }
    }

    /// Stores a run's choices, keeping any a concurrent run of the same
    /// trace stored meanwhile.
    fn store(&mut self, fingerprint: u64, blocks: Vec<Option<usize>>) {
        match self.traces.get_mut(&fingerprint) {
            Some(known) if known.len() == blocks.len() => {
                for (k, b) in known.iter_mut().zip(blocks) {
                    *k = k.or(b);
                }
            }
            Some(known) => *known = blocks,
            None => {
                if self.order.len() == BLOCK_MEMO_TRACES {
                    if let Some(oldest) = self.order.pop_front() {
                        self.traces.remove(&oldest);
                    }
                }
                self.order.push_back(fingerprint);
                self.traces.insert(fingerprint, blocks);
            }
        }
    }
}

/// One run's block choices: read from the memo at the first searched
/// layer, so runs that never search never hash the trace.
struct RunBlocks<'t> {
    trace: &'t NetworkTrace,
    /// Fingerprint and per-layer choices, once loaded.
    loaded: Option<(u64, Vec<Option<usize>>)>,
    /// Whether this run searched a layer the memo lacked.
    searched: bool,
}

impl<'t> RunBlocks<'t> {
    fn new(trace: &'t NetworkTrace) -> Self {
        RunBlocks { trace, loaded: None, searched: false }
    }

    /// The block size of layer `index`: remembered, or found by `search`.
    fn block(
        &mut self,
        memo: &Mutex<BlockMemo>,
        index: usize,
        search: impl FnOnce() -> usize,
    ) -> usize {
        let (_, blocks) = self.loaded.get_or_insert_with(|| {
            let fingerprint = self.trace.fingerprint();
            let blocks = lock(memo).get(fingerprint, self.trace.layers.len());
            (fingerprint, blocks)
        });
        *blocks[index].get_or_insert_with(|| {
            self.searched = true;
            search()
        })
    }

    /// Hands this run's new choices to the memo.
    fn store(self, memo: &Mutex<BlockMemo>) {
        if let (true, Some((fingerprint, blocks))) = (self.searched, self.loaded) {
            lock(memo).store(fingerprint, blocks);
        }
    }
}

fn lock(memo: &Mutex<BlockMemo>) -> MutexGuard<'_, BlockMemo> {
    memo.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The accelerator model.
///
/// Clones share the memo of [`CachePolicy::Search`] block choices.
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
    blocks: Arc<Mutex<BlockMemo>>,
}

impl Accelerator {
    /// Builds an accelerator from a configuration.
    pub fn new(cfg: PointAccConfig) -> Self {
        let mpu = Mpu::new(cfg.merger_width);
        let mxu = Mxu::new(cfg.pe_rows, cfg.pe_cols);
        Accelerator { cfg, mpu, mxu, energy: EnergyTable::tsmc40(), blocks: Arc::default() }
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
        let mut blocks = RunBlocks::new(trace);
        let layers = trace
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| self.run_layer(i, l, trace, &fusion, opts, &mut blocks))
            .collect();
        blocks.store(&self.blocks);
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
        blocks: &mut RunBlocks<'_>,
    ) -> LayerPerf {
        let mpu_cycles = self.mapping_cycles(layer);
        let mxu_cycles = self.mxu.layer_cycles(layer);
        let (dram_bytes, cache_stats, cache_block, fused) =
            self.layer_dram(index, layer, trace, fusion, opts, blocks);

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
        blocks: &mut RunBlocks<'_>,
    ) -> (u64, Option<crate::mmu::FeatureCacheStats>, Option<usize>, bool) {
        // Fusion-group members (dense FCs, grouped shared-MLP layers and
        // inline pools) keep their activations on the MIR stack; only the
        // group head touches DRAM for activations.
        if let Some(group) = fusion.group_of(index) {
            let weights = layer.weight_bytes(self.cfg.elem_bytes);
            let act = match group.layers.last() {
                // Groups are runs of consecutive layers, so the chain is
                // a slice of the trace.
                Some(&last) if fusion.is_group_head(index) => {
                    fused_activation_bytes(&trace.layers[index..=last], self.cfg.elem_bytes)
                }
                _ => 0,
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
                    CachePolicy::Search => {
                        let bp = blocks
                            .block(&self.blocks, index, || self.search_block_size(layer, plan));
                        Some(self.cache_config(layer, bp))
                    }
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
    /// per candidate and return the block size (points) moving the fewest
    /// DRAM bytes.
    fn search_block_size(&self, layer: &LayerTrace, plan: SparseAccessPlan) -> usize {
        let maps = match &layer.maps {
            Some(m) if !m.is_empty() => m,
            _ => return 32,
        };
        let mut best = BLOCK_CANDIDATES[0];
        let mut best_bytes = u64::MAX;
        for &bp in &BLOCK_CANDIDATES {
            let cfg = self.cache_config(layer, bp);
            let stats = crate::mmu::simulate_sparse_accesses(cfg, maps, plan, Some(SEARCH_SAMPLE));
            // Normalize per access so truncated samples compare fairly.
            let bytes = stats.dram_bytes * 1_000 / stats.accesses.max(1);
            if bytes < best_bytes {
                best_bytes = bytes;
                best = bp;
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
    use pointacc_geom::{MapEntry, MapTable, Point3, PointSet};
    use pointacc_nn::{zoo, Aggregation, ExecMode, Executor};

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

    /// A one-layer sparse trace whose fingerprint varies with `i`.
    fn sparse_trace(i: u32) -> NetworkTrace {
        let entries = (0..64).map(|q| MapEntry::new(q * 7 + i, q, (q % 3) as u16)).collect();
        let layer = LayerTrace {
            name: "conv".into(),
            compute: ComputeKind::SparseConv,
            n_in: 1024,
            n_out: 64,
            in_ch: 16,
            out_ch: 32,
            maps: Some(MapTable::from_entries(entries, 3)),
            mapping: Vec::new(),
            aggregation: Aggregation::Sum,
            pool_group: None,
            fusable: false,
        };
        NetworkTrace { network: "sparse".into(), input_desc: String::new(), layers: vec![layer] }
    }

    fn memo_len(acc: &Accelerator) -> usize {
        lock(&acc.blocks).traces.len()
    }

    #[test]
    fn repeated_runs_reuse_the_search_bit_identically() {
        let t = trace(500);
        let unfused = RunOptions { fusion: false, ..RunOptions::default() };
        for cfg in [PointAccConfig::full(), PointAccConfig::edge()] {
            let acc = Accelerator::new(cfg.clone());
            let first = format!("{:?}", acc.run(&t));
            assert_eq!(memo_len(&acc), 1);
            let again = format!("{:?}", acc.run(&t));
            let fresh = format!("{:?}", Accelerator::new(cfg.clone()).run(&t));
            assert_eq!(first, again);
            assert_eq!(first, fresh);
            // Unfused runs search layers a fused run skips; the memo
            // keeps both sets of choices under the one trace.
            let unfused_first = format!("{:?}", acc.run_with(&t, unfused));
            let unfused_fresh = format!("{:?}", Accelerator::new(cfg).run_with(&t, unfused));
            assert_eq!(unfused_first, unfused_fresh);
            assert_eq!(format!("{:?}", acc.clone().run(&t)), first);
            assert_eq!(memo_len(&acc), 1);
        }
    }

    #[test]
    fn memo_keeps_at_most_its_capacity_evicting_the_oldest() {
        let acc = Accelerator::new(PointAccConfig::edge());
        let n = BLOCK_MEMO_TRACES as u32 + 8;
        for i in 0..n {
            acc.run(&sparse_trace(i));
            assert!(memo_len(&acc) <= BLOCK_MEMO_TRACES);
        }
        assert_eq!(memo_len(&acc), BLOCK_MEMO_TRACES);
        let memo = lock(&acc.blocks);
        assert!(!memo.traces.contains_key(&sparse_trace(0).fingerprint()));
        assert!(memo.traces.contains_key(&sparse_trace(n - 1).fingerprint()));
    }

    #[test]
    fn only_the_search_policy_reads_or_fills_the_memo() {
        let t = trace(400);
        let others = [
            RunOptions { cache: CachePolicy::Fixed(16), ..RunOptions::default() },
            RunOptions { cache: CachePolicy::Off, ..RunOptions::default() },
            RunOptions { gather_scatter_flow: true, ..RunOptions::default() },
        ];
        let acc = Accelerator::new(PointAccConfig::edge());
        for opts in others {
            acc.run_with(&t, opts);
        }
        assert_eq!(memo_len(&acc), 0, "non-search runs must not fill the memo");
        // Plant a block choice the search would not make: runs that must
        // not read the memo stay equal to a fresh accelerator's.
        let planted = vec![Some(BLOCK_CANDIDATES[0]); t.layers.len()];
        lock(&acc.blocks).store(t.fingerprint(), planted);
        let fresh = Accelerator::new(PointAccConfig::edge());
        for opts in others {
            let (a, b) = (acc.run_with(&t, opts), fresh.run_with(&t, opts));
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        // …while a search run takes the planted choice.
        let searched = acc.run(&t);
        let blocks: Vec<_> = searched.layers.iter().filter_map(|l| l.cache_block_points).collect();
        assert!(!blocks.is_empty());
        assert!(blocks.iter().all(|&bp| bp == BLOCK_CANDIDATES[0]));
        assert_ne!(format!("{searched:?}"), format!("{:?}", fresh.run(&t)));
    }
}
