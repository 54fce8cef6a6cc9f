//! Helpers shared by the workloads: the seeded generator, order
//! statistics, set-up repetitions, process memory, the verify and
//! artifact stage timings, bitwise report comparison and the metric
//! record a run hands back to `main`.

use std::path::Path;
use std::time::{Duration, Instant};

use pointacc::EngineReport;
use pointacc_nn::{artifact, verify_trace, NetworkTrace, TraceKey};

/// SplitMix64 — the benchmark's only source of randomness, so a
/// workload's inputs are a pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// How many times a run sets up: at least [`SetupReps::MIN`], and more
/// while the set-ups so far took under [`SetupReps::BUDGET`], up to
/// [`SetupReps::MAX`]. `setup_s` is the median, so a cheap set-up is
/// sampled often enough to be steady and an expensive one stays cheap.
#[derive(Default)]
pub struct SetupReps {
    count: usize,
    spent: Duration,
}

impl SetupReps {
    const MIN: usize = 5;
    const MAX: usize = 25;
    const BUDGET: Duration = Duration::from_secs(1);

    /// Records one set-up's duration; true once enough have run.
    pub fn record(&mut self, took: Duration) -> bool {
        self.count += 1;
        self.spent += took;
        self.count >= Self::MAX || (self.count >= Self::MIN && self.spent >= Self::BUDGET)
    }
}

/// Starts the process-wide worker pool (a no-op once it runs), so its
/// threads are spawned during set-up rather than in a timed region.
pub fn start_pool() {
    pointacc_geom::par::parallel_map(&[(), ()], |_| ());
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100); 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of a sample that still has at least ten
/// samples beyond it (the maximum when there are too few samples).
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub beyond: usize,
    pub samples: usize,
}

pub fn tail(xs: &[f64]) -> Tail {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return Tail { value: 0.0, percentile: 100.0, beyond: 0, samples: 0 };
    }
    let i = if n > 10 { n - 11 } else { n - 1 };
    Tail {
        value: v[i],
        percentile: 100.0 * (i + 1) as f64 / n as f64,
        beyond: n - 1 - i,
        samples: n,
    }
}

/// Peak resident memory of this process (Linux `VmHWM`), in MB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times the verifier and the artifact layer on one trace, in ms:
/// `verify_trace`, `artifact::encode`, `decode`, `save` into `dir` and
/// `load` back.
pub struct ArtifactStages {
    pub verify: f64,
    pub encode: f64,
    pub decode: f64,
    pub save: f64,
    pub load: f64,
    pub bytes: f64,
    /// Whether every step succeeded.
    pub ok: bool,
}

pub fn artifact_stages(key: &TraceKey, trace: &NetworkTrace, dir: &Path) -> ArtifactStages {
    let t = Instant::now();
    let verified = verify_trace(key, trace).is_ok();
    let verify = ms(t.elapsed());
    let t = Instant::now();
    let encoded = artifact::encode(key, trace);
    let encode = ms(t.elapsed());
    let t = Instant::now();
    let decoded = artifact::decode(&encoded).is_ok();
    let decode = ms(t.elapsed());
    let t = Instant::now();
    let saved = artifact::save(dir, key, trace).is_ok();
    let save = ms(t.elapsed());
    let t = Instant::now();
    let loaded = matches!(artifact::load(dir, key), Ok(Some(_)));
    let load = ms(t.elapsed());
    ArtifactStages {
        verify,
        encode,
        decode,
        save,
        load,
        bytes: encoded.len() as f64,
        ok: verified && decoded && saved && loaded,
    }
}

/// Whether two reports agree bit for bit (floats compared by their bit
/// patterns, so no tolerance can hide a drift).
pub fn same_report(a: &EngineReport, b: &EngineReport) -> bool {
    a.engine == b.engine
        && a.network == b.network
        && a.mapping.0.to_bits() == b.mapping.0.to_bits()
        && a.matmul.0.to_bits() == b.matmul.0.to_bits()
        && a.datamove.0.to_bits() == b.datamove.0.to_bits()
        && a.total.0.to_bits() == b.total.0.to_bits()
        && a.energy.get().to_bits() == b.energy.get().to_bits()
        && a.dram_bytes == b.dram_bytes
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run hands back: its metrics (end-to-end or
/// per-layer, by mode), the request/frame accounting, the correctness
/// findings, and run metadata.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per correctness finding; empty on a clean run.
    pub errors: Vec<String>,
    pub meta: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 32 {
            self.errors.push(msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.beyond, t.samples), (90.0, 10, 100));
        assert!((t.percentile - 90.0).abs() < 1e-9);
        let few = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((few.value, few.beyond), (3.0, 0));
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 50.0), 3.0);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 99.0), 5.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..20).collect::<Vec<_>>());
    }
}
