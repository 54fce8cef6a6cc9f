//! The zoo workloads: waves of Table 2 requests served by the admission
//! front-end (`Frontend::run_on_cache`, admit-all) on two shards —
//! PointAcc full and PointAcc edge, one worker each.
//!
//! A run sets up repeatedly ([`SetupReps`]: engines, capacity
//! calibration, and for `zoo-warm` the compiled and persisted key
//! pool), then serves waves until `--seconds` have passed, through a
//! `TraceCache` on the run's artifact directory. The shards' engines
//! are wrapped in [`Probe`], a timing `Engine` adapter owned by the
//! benchmark, which records every replay from the outside.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use pointacc::{Accelerator, Engine, EngineReport, PointAccConfig};
use pointacc_bench::cache::{self, CacheStats, FailurePolicy, TraceCache};
use pointacc_bench::frontend::{Frontend, FrontendOptions, WallClock};
use pointacc_bench::serve::Request;
use pointacc_bench::{
    benchmark_trace_key, dataset_by_name, modeled_points, try_benchmark_trace_at, TraceBuildError,
    UnknownDataset,
};
use pointacc_geom::par;
use pointacc_nn::stream::StreamingTracer;
use pointacc_nn::zoo::{self, Benchmark};
use pointacc_nn::{ExecMode, Executor, NetworkTrace};

use crate::util::{
    artifact_stages, median, ms, same_report, start_pool, tail, Outcome, Rng, SetupReps,
};
use crate::Config;

/// Distinct inputs per network the traced run's stage pass times.
const STAGE_INPUTS_PER_NETWORK: usize = 4;
/// Shard order of the front-end, used in metric names.
const SHARDS: [&str; 2] = ["full", "edge"];

/// One zoo workload.
pub struct ZooSpec {
    /// Table 2 notations served.
    pub networks: &'static [&'static str],
    /// Point-count scale of every request.
    pub scale: f64,
    /// Seeds per network in the key pool compiled during set-up; 0 gives
    /// every request a fresh seed, so every request misses the cache.
    pub pool_seeds: usize,
    /// Requests per network (fresh seeds) or per pool key in one wave.
    pub copies: usize,
}

/// Fresh seeds over the point-based networks at Table 2 sizes: every
/// request compiles a new trace (and writes its artifact), so compile,
/// mapping and the cache write side carry the run.
pub const COLD: ZooSpec = ZooSpec {
    networks: &["PointNet++(c)", "DGCNN", "PointNet++(ps)", "F-PointNet++"],
    scale: 1.0,
    pool_seeds: 0,
    copies: 8,
};

/// A twelve-key pool of the voxel networks plus PointNet++(s) at
/// 4k-point scans: each wave reads every key once from disk, then hits memory,
/// so accelerator replay carries the run.
pub const WARM: ZooSpec = ZooSpec {
    networks: &["MinkNet(i)", "MinkNet(o)", "PointNet++(s)"],
    scale: 0.05,
    pool_seeds: 4,
    copies: 2,
};

fn engine_configs() -> [PointAccConfig; 2] {
    [PointAccConfig::full(), PointAccConfig::edge()]
}

/// One replay seen by a [`Probe`].
struct Call {
    /// Address of the replayed trace; the wave's cache still holds the
    /// trace afterwards, which maps the address back to its key.
    trace: usize,
    start: Option<Instant>,
    end: Instant,
    report: EngineReport,
}

/// The benchmark-owned timing `Engine` adapter around one shard's
/// accelerator. Untraced runs record when each replay ended; traced
/// runs also record when it started.
struct Probe {
    inner: Accelerator,
    traced: AtomicBool,
    calls: Mutex<Vec<Call>>,
}

impl Probe {
    fn new(config: PointAccConfig) -> Self {
        Probe {
            inner: Accelerator::new(config),
            traced: AtomicBool::new(false),
            calls: Mutex::new(Vec::new()),
        }
    }

    fn take(&self) -> Vec<Call> {
        std::mem::take(&mut *self.calls.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Engine for Probe {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn supports(&self, trace: &NetworkTrace) -> bool {
        self.inner.supports(trace)
    }

    fn evaluate(&self, trace: &NetworkTrace) -> EngineReport {
        let start = self.traced.load(Ordering::Relaxed).then(Instant::now);
        let report = self.inner.evaluate(trace);
        let end = Instant::now();
        let call = Call {
            trace: trace as *const NetworkTrace as usize,
            start,
            end,
            report: report.clone(),
        };
        self.calls.lock().unwrap_or_else(PoisonError::into_inner).push(call);
        report
    }

    /// Calibration goes straight to the accelerator, so set-up replays
    /// never show up as served calls.
    fn capacity_points_per_s(&self, trace: &NetworkTrace) -> f64 {
        self.inner.capacity_points_per_s(trace)
    }
}

/// `(benchmark index, seed)`: the identity of one input.
type Key = (usize, u64);

/// The requests of a run, generated from `--seed` alone.
struct Inputs {
    rng: Rng,
    fresh: u64,
    /// Pool keys in a seeded order; wave `w` serves them rotated by `w`,
    /// so over the run every key takes every position in a wave.
    pool: Vec<Key>,
    waves: usize,
    networks: usize,
    copies: usize,
}

impl Inputs {
    fn new(spec: &ZooSpec, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let fresh = rng.next_u64();
        let mut pool: Vec<Key> = (0..spec.networks.len())
            .flat_map(|b| (0..spec.pool_seeds).map(move |s| (b, s)))
            .map(|(b, _)| (b, rng.next_u64()))
            .collect();
        rng.shuffle(&mut pool);
        Inputs { rng, fresh, pool, waves: 0, networks: spec.networks.len(), copies: spec.copies }
    }

    /// One wave: every network `copies` times with fresh seeds, or every
    /// pool key `copies` times, in a seeded order.
    fn wave(&mut self) -> Vec<Request> {
        let mut requests = Vec::new();
        if self.pool.is_empty() {
            // Rounds of one request per network, each round in a seeded
            // order: every stretch of the wave carries the same mix, so
            // when half the wave has completed does not hinge on where
            // the order happened to bunch the expensive networks.
            for _ in 0..self.copies {
                let mut round: Vec<usize> = (0..self.networks).collect();
                self.rng.shuffle(&mut round);
                for b in round {
                    requests.push(Request::new(b, self.fresh));
                    self.fresh = self.fresh.wrapping_add(1);
                }
            }
        } else {
            // A key's copies arrive back to back, and the admit-all router
            // balances modeled points, so each shard gets one copy: both
            // engines replay every pool key in every wave.
            let n = self.pool.len();
            for i in 0..n {
                let (b, seed) = self.pool[(i + self.waves) % n];
                requests.extend((0..self.copies).map(|_| Request::new(b, seed)));
            }
        }
        self.waves += 1;
        requests
    }
}

/// What one served (key, shard) pair produced; every replay of the key
/// on that shard must agree.
struct Served {
    fingerprint: u64,
    report: EngineReport,
    requests: u64,
}

/// Host-side measurements of one wave.
struct Wave {
    requests: Vec<Request>,
    elapsed: Duration,
    queue_p50: Duration,
    queue_p99: Duration,
    cache: CacheStats,
    /// Per request: wave start (the batch is handed to the front-end)
    /// to the request's completion, in ms.
    latency: Vec<f64>,
    /// Per shard: worker time per request (previous completion, or the
    /// wave start, to this completion), in ms.
    service: [Vec<f64>; 2],
    /// Per shard: replay time per request in ms (traced waves only).
    replay: [Vec<f64>; 2],
    /// Per shard: wave start to the shard's last completion.
    busy: [Duration; 2],
}

/// The served waves of one mode plus the gate's bookkeeping.
struct Serving<'a> {
    frontend: &'a Frontend<'a>,
    probes: &'a [Probe; 2],
    benches: &'a [Benchmark],
    scale: f64,
    dir: &'a Path,
    /// Whether every request has a fresh key: each wave then gets its
    /// own cache, and the artifacts it writes, never read again, are
    /// removed after it.
    fresh: bool,
    served: BTreeMap<(Key, usize), Served>,
}

impl Serving<'_> {
    fn serve_for(
        &mut self,
        inputs: &mut Inputs,
        seconds: f64,
        traced: bool,
        out: &mut Outcome,
    ) -> Vec<Wave> {
        for probe in self.probes {
            probe.traced.store(traced, Ordering::Relaxed);
        }
        // A pool workload opens one cache per measured run on the pool's
        // directory: a key's first touch reads its artifact, every later
        // touch hits memory. Fresh keys get a cache per wave, so the
        // run's memory stays bounded.
        let mut cache = self.open_cache();
        let began = Instant::now();
        let mut waves = Vec::new();
        while waves.is_empty() || began.elapsed().as_secs_f64() < seconds {
            if self.fresh && !waves.is_empty() {
                cache = self.open_cache();
            }
            cache.reset_stats();
            waves.push(self.wave(inputs.wave(), &cache, out));
        }
        waves
    }

    fn open_cache(&self) -> TraceCache {
        TraceCache::new()
            .with_artifact_dir(self.dir)
            .with_failure_policy(FailurePolicy::RetryOnRequest)
    }

    fn wave(&mut self, requests: Vec<Request>, cache: &TraceCache, out: &mut Outcome) -> Wave {
        for probe in self.probes {
            probe.take();
        }
        let start = Instant::now();
        let report = self.frontend.run_on_cache(&WallClock::new(), cache, requests.iter().copied());
        let elapsed = start.elapsed();
        let calls = [self.probes[0].take(), self.probes[1].take()];

        out.attempted += requests.len() as u64;
        let unserved = report.submitted.saturating_sub(report.completed) as u64;
        if unserved > 0 || !report.accounting_balances() || report.submitted != requests.len() {
            out.failed += unserved;
            out.error(format!(
                "wave served {}/{} requests (failed {}, unsupported {}, rejected {}, expired {}, balanced {}): {:?}",
                report.completed,
                requests.len(),
                report.failed,
                report.unsupported,
                report.rejected,
                report.expired,
                report.accounting_balances(),
                report.failures
            ));
        }
        if report.cache.verify_rejects > 0 {
            out.failed += report.cache.verify_rejects;
            out.error(format!("{} trace(s) rejected by the verifier", report.cache.verify_rejects));
        }
        self.record_served(&requests, cache, &calls, out);
        if self.fresh {
            let _ = std::fs::remove_dir_all(self.dir);
        }

        let mut wave = Wave {
            requests,
            elapsed,
            queue_p50: report.queue_p50,
            queue_p99: report.queue_p99,
            cache: report.cache,
            latency: Vec::new(),
            service: [Vec::new(), Vec::new()],
            replay: [Vec::new(), Vec::new()],
            busy: [Duration::ZERO; 2],
        };
        for (shard, calls) in calls.iter().enumerate() {
            let mut prev = start;
            for call in calls {
                wave.latency.push(ms(call.end.duration_since(start)));
                wave.service[shard].push(ms(call.end.duration_since(prev)));
                if let Some(s) = call.start {
                    wave.replay[shard].push(ms(call.end.duration_since(s)));
                }
                prev = call.end;
            }
            wave.busy[shard] = prev.duration_since(start);
        }
        wave
    }

    /// Maps every replay back to its key through the wave's cache and
    /// keeps the first report of each (key, shard) pair; later replays
    /// of the pair must repeat it bit for bit.
    fn record_served(
        &mut self,
        requests: &[Request],
        cache: &TraceCache,
        calls: &[Vec<Call>; 2],
        out: &mut Outcome,
    ) {
        let mut keys: Vec<Key> = requests.iter().map(|r| (r.benchmark, r.seed)).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut by_address: HashMap<usize, (Key, u64)> = HashMap::new();
        for key in keys {
            let cache_key = benchmark_trace_key(&self.benches[key.0], key.1, self.scale);
            let missing = || {
                Err(TraceBuildError::UnknownDataset(UnknownDataset {
                    name: "served key missing from the wave's cache".into(),
                }))
            };
            // The wave's cache is unbounded and still alive, so each
            // served trace is still at the address its replay saw.
            if let Ok(trace) = cache.try_get_or_build(&cache_key, missing) {
                by_address.insert(Arc::as_ptr(&trace) as usize, (key, trace.fingerprint()));
            }
        }
        for (shard, calls) in calls.iter().enumerate() {
            for call in calls {
                let Some((key, fingerprint)) = by_address.get(&call.trace) else {
                    out.failed += 1;
                    out.error(format!(
                        "shard {} replayed a trace no served key maps to",
                        SHARDS[shard]
                    ));
                    continue;
                };
                let entry = self.served.entry((*key, shard)).or_insert_with(|| Served {
                    fingerprint: *fingerprint,
                    report: call.report.clone(),
                    requests: 0,
                });
                entry.requests += 1;
                if entry.fingerprint != *fingerprint || !same_report(&entry.report, &call.report) {
                    out.failed += 1;
                    out.error(format!(
                        "key {key:?} on {} replayed to a different result",
                        SHARDS[shard]
                    ));
                }
            }
        }
    }
}

/// Cold reference of one key: the fingerprint of a fresh
/// `try_benchmark_trace_at` and `Accelerator::run` on each shard that
/// served it.
struct Reference {
    fingerprint: u64,
    reports: Vec<(usize, EngineReport)>,
}

fn cold_references(
    served: &BTreeMap<(Key, usize), Served>,
    benches: &[Benchmark],
    scale: f64,
) -> BTreeMap<Key, Result<Reference, String>> {
    let mut shards_of: BTreeMap<Key, Vec<usize>> = BTreeMap::new();
    for &(key, shard) in served.keys() {
        shards_of.entry(key).or_default().push(shard);
    }
    let work: Vec<(Key, Vec<usize>)> = shards_of.into_iter().collect();
    let configs = engine_configs();
    let cold = |((b, seed), shards): &(Key, Vec<usize>)| {
        let trace =
            try_benchmark_trace_at(&benches[*b], *seed, scale).map_err(|e| e.to_string())?;
        let reports = shards
            .iter()
            .map(|&s| (s, Accelerator::new(configs[s].clone()).run(&trace).to_engine_report()))
            .collect();
        Ok(Reference { fingerprint: trace.fingerprint(), reports })
    };
    // The gate runs after the timed region, one thread per core: the
    // worker pool is sized for the two serving shards, not for this.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let mut refs: Vec<(usize, Result<Reference, String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = work.get(i) else { break };
                        done.push((i, cold(item)));
                    }
                    done
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("a cold reference panicked")).collect()
    });
    refs.sort_by_key(|(i, _)| *i);
    work.into_iter().map(|(key, _)| key).zip(refs.into_iter().map(|(_, r)| r)).collect()
}

/// The correctness gate: every served (key, shard) pair must match its
/// cold reference bit for bit. A mismatch fails every request of the
/// pair.
fn gate(
    served: &BTreeMap<(Key, usize), Served>,
    refs: &BTreeMap<Key, Result<Reference, String>>,
    out: &mut Outcome,
) {
    for (&(key, shard), s) in served {
        let verdict = match refs.get(&key) {
            None => Err("no cold reference".to_string()),
            Some(Err(e)) => Err(format!("cold build failed: {e}")),
            Some(Ok(r)) if r.fingerprint != s.fingerprint => {
                Err(format!("trace fingerprint {:#x} != cold {:#x}", s.fingerprint, r.fingerprint))
            }
            Some(Ok(r)) => match r.reports.iter().find(|(rs, _)| *rs == shard) {
                Some((_, cold)) if same_report(cold, &s.report) => Ok(()),
                Some((_, cold)) => Err(format!("report {:?} != cold {cold:?}", s.report)),
                None => Err("no cold report for the shard".to_string()),
            },
        };
        if let Err(why) = verdict {
            out.failed += s.requests;
            out.error(format!("key {key:?} on {}: {why}", SHARDS[shard]));
        }
    }
}

/// Per-network stage costs from the traced run's stage pass, in ms.
#[derive(Default)]
struct Stages {
    gen: Vec<f64>,
    compile: Vec<f64>,
    verify: Vec<f64>,
    encode: Vec<f64>,
    decode: Vec<f64>,
    save: Vec<f64>,
    load: Vec<f64>,
    bytes: Vec<f64>,
    stream_compiled: Vec<f64>,
    stream_reused: Vec<f64>,
}

/// Times each public stage function once per distinct input (up to
/// [`STAGE_INPUTS_PER_NETWORK`] per network), serially and outside the
/// served runs.
fn stage_pass(
    waves: &[Wave],
    benches: &[Benchmark],
    scale: f64,
    dir: &Path,
    out: &mut Outcome,
) -> Vec<Stages> {
    let mut stages: Vec<Stages> = benches.iter().map(|_| Stages::default()).collect();
    let mut seen: Vec<Vec<u64>> = vec![Vec::new(); benches.len()];
    for r in waves.iter().flat_map(|w| &w.requests) {
        let seeds = &mut seen[r.benchmark];
        if seeds.len() >= STAGE_INPUTS_PER_NETWORK || seeds.contains(&r.seed) {
            continue;
        }
        seeds.push(r.seed);
        let bench = &benches[r.benchmark];
        let st = &mut stages[r.benchmark];
        let Ok(dataset) = dataset_by_name(bench.dataset) else { continue };
        let t = Instant::now();
        let points = dataset.generate(r.seed, modeled_points(bench, scale));
        st.gen.push(ms(t.elapsed()));
        let t = Instant::now();
        let compiled = Executor::new(ExecMode::TraceOnly, r.seed).try_run(&bench.network, &points);
        st.compile.push(ms(t.elapsed()));
        let Ok(output) = compiled else {
            out.error(format!("stage pass: {} seed {} failed to compile", bench.notation, r.seed));
            continue;
        };
        let key = benchmark_trace_key(bench, r.seed, scale);
        let a = artifact_stages(&key, &output.trace, dir);
        st.verify.push(a.verify);
        st.encode.push(a.encode);
        st.decode.push(a.decode);
        st.save.push(a.save);
        st.load.push(a.load);
        st.bytes.push(a.bytes);
        if !a.ok {
            out.error(format!(
                "stage pass: {} seed {} failed verify or the artifact round trip",
                bench.notation, r.seed
            ));
        }
        if st.stream_compiled.is_empty() {
            let mut tracer = StreamingTracer::new(ExecMode::TraceOnly, r.seed);
            for _ in 0..2 {
                let t = Instant::now();
                let _ = tracer.run_frame(&bench.network, &points);
                let elapsed = ms(t.elapsed());
                let into = if st.stream_compiled.is_empty() {
                    &mut st.stream_compiled
                } else {
                    &mut st.stream_reused
                };
                into.push(elapsed);
            }
        }
    }
    stages
}

fn all(stages: &[Stages], f: impl Fn(&Stages) -> &Vec<f64>) -> Vec<f64> {
    stages.iter().flat_map(|s| f(s).iter().copied()).collect()
}

fn latency_ms(waves: &[Wave]) -> Vec<f64> {
    waves.iter().flat_map(|w| w.latency.iter().copied()).collect()
}

fn throughput(waves: &[Wave]) -> f64 {
    let per_wave: Vec<f64> = waves
        .iter()
        .map(|w| w.requests.len() as f64 / w.elapsed.as_secs_f64().max(f64::MIN_POSITIVE))
        .collect();
    median(&per_wave)
}

/// Runs one zoo workload.
pub fn run(spec: &ZooSpec, cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let all_benches = zoo::benchmarks();
    let benches: Vec<Benchmark> = spec
        .networks
        .iter()
        .filter_map(|n| all_benches.iter().find(|b| b.notation == *n).cloned())
        .collect();
    let scale = spec.scale * cfg.size;
    let mut inputs = Inputs::new(spec, cfg.seed);
    out.meta("scale", scale);
    out.meta("networks", spec.networks.join(","));

    let mut setup_s = Vec::new();
    let mut reps = SetupReps::default();
    for rep in 0.. {
        let dir = cfg.scratch.join(format!("artifacts-{rep}"));
        let t0 = Instant::now();
        start_pool();
        let probes = engine_configs().map(Probe::new);
        let engines: [&dyn Engine; 2] = [&probes[0], &probes[1]];
        // Every repetition calibrates from scratch: calibration compiles
        // through the process-wide cache.
        cache::global().clear();
        let options = FrontendOptions {
            scale,
            artifact_dir: Some(dir.clone()),
            ..FrontendOptions::default()
        };
        let frontend = Frontend::new(&engines, &benches, options);
        let pool = TraceCache::new().with_artifact_dir(&dir);
        for &(b, seed) in &inputs.pool {
            let key = benchmark_trace_key(&benches[b], seed, scale);
            if let Err(e) =
                pool.try_get_or_build(&key, || try_benchmark_trace_at(&benches[b], seed, scale))
            {
                out.error(format!("pool key {key:?} failed to build: {e}"));
            }
        }
        drop(pool);
        setup_s.push(t0.elapsed().as_secs_f64());
        if !reps.record(t0.elapsed()) {
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }

        let spawned_before = par::threads_spawned();
        let mut serving = Serving {
            frontend: &frontend,
            probes: &probes,
            benches: &benches,
            scale,
            dir: &dir,
            fresh: spec.pool_seeds == 0,
            served: BTreeMap::new(),
        };
        let seconds = if cfg.traced { cfg.seconds / 2.0 } else { cfg.seconds };
        let plain = serving.serve_for(&mut inputs, seconds, false, &mut out);
        let traced = if cfg.traced {
            serving.serve_for(&mut inputs, seconds, true, &mut out)
        } else {
            Vec::new()
        };
        let spawned = par::threads_spawned() - spawned_before;
        let peak_rss = crate::util::peak_rss_mb();

        let mut refs = cold_references(&serving.served, &benches, scale);
        if cfg.corrupt_reference {
            if let Some(Ok(r)) = refs.values_mut().next() {
                r.reports[0].1.dram_bytes += 1;
            }
        }
        gate(&serving.served, &refs, &mut out);

        let latency = latency_ms(&plain);
        let lat_tail = tail(&latency);
        out.meta("waves", plain.len());
        out.meta("requests", plain.iter().map(|w| w.requests.len()).sum::<usize>());
        out.meta("latency_tail_percentile", lat_tail.percentile);
        out.meta("latency_samples", lat_tail.samples);
        out.meta("latency_samples_beyond_tail", lat_tail.beyond);
        if !cfg.traced {
            out.metric("throughput_rps", throughput(&plain), "1/s");
            out.metric("latency_p50_ms", median(&latency), "ms");
            out.metric("latency_tail_ms", lat_tail.value, "ms");
            out.metric("setup_s", median(&setup_s), "s");
        } else {
            let stages = stage_pass(&traced, &benches, scale, &cfg.scratch.join("stage"), &mut out);
            layer_metrics(&mut out, spec, &benches, &plain, &traced, &stages, spawned);
            out.metric("process.peak_rss_mb", peak_rss, "MB");
        }
        break;
    }
    out
}

fn layer_metrics(
    out: &mut Outcome,
    spec: &ZooSpec,
    benches: &[Benchmark],
    plain: &[Wave],
    traced: &[Wave],
    stages: &[Stages],
    spawned: usize,
) {
    let mut worker = 0.0;
    let mut replay_total = 0.0;
    for (shard, name) in SHARDS.iter().enumerate() {
        let replay: Vec<f64> =
            traced.iter().flat_map(|w| w.replay[shard].iter().copied()).collect();
        let sum: f64 = replay.iter().sum();
        let busy: f64 = traced.iter().map(|w| ms(w.busy[shard])).sum();
        let wall: f64 = traced.iter().map(|w| ms(w.elapsed)).sum();
        out.metric(&format!("core.replay_ms.{name}"), median(&replay), "ms");
        out.metric(&format!("core.replay_busy_s.{name}"), sum / 1e3, "s");
        out.metric(
            &format!("bench.frontend.shard_busy.{name}"),
            busy / wall.max(f64::MIN_POSITIVE),
            "share",
        );
        worker += busy;
        replay_total += sum;
    }
    let p50: Vec<f64> = traced.iter().map(|w| ms(w.queue_p50)).collect();
    let p99: Vec<f64> = traced.iter().map(|w| ms(w.queue_p99)).collect();
    out.metric("bench.frontend.queue_wait_p50_ms", median(&p50), "ms");
    out.metric("bench.frontend.queue_wait_p99_ms", median(&p99), "ms");
    let gaps: Vec<f64> = traced
        .iter()
        .flat_map(|w| {
            (0..2).flat_map(move |s| w.service[s].iter().zip(&w.replay[s]).map(|(a, b)| a - b))
        })
        .collect();
    out.metric("bench.worker.gap_ms", median(&gaps), "ms");

    let mut cache = CacheStats::default();
    for w in traced {
        cache.hits += w.cache.hits;
        cache.misses += w.cache.misses;
        cache.disk_hits += w.cache.disk_hits;
        cache.compiles += w.cache.compiles;
        cache.verify_rejects += w.cache.verify_rejects;
    }
    out.metric("bench.cache.hit_ratio", cache.hit_rate(), "share");
    out.metric("bench.cache.disk_hits", cache.disk_hits as f64, "count");
    out.metric("bench.cache.compiles", cache.compiles as f64, "count");
    out.metric("bench.cache.verify_rejects", cache.verify_rejects as f64, "count");

    out.metric("nn.exec.compile_ms", median(&all(stages, |s| &s.compile)), "ms");
    out.metric("nn.stream.reuse_ratio", 0.0, "share");
    out.metric(
        "nn.stream.frame_trace_ms.compiled",
        median(&all(stages, |s| &s.stream_compiled)),
        "ms",
    );
    out.metric("nn.stream.frame_trace_ms.reused", median(&all(stages, |s| &s.stream_reused)), "ms");
    out.metric("nn.verify_ms", median(&all(stages, |s| &s.verify)), "ms");
    out.metric("nn.artifact.encode_ms", median(&all(stages, |s| &s.encode)), "ms");
    out.metric("nn.artifact.decode_ms", median(&all(stages, |s| &s.decode)), "ms");
    out.metric("nn.artifact.save_ms", median(&all(stages, |s| &s.save)), "ms");
    out.metric("nn.artifact.load_ms", median(&all(stages, |s| &s.load)), "ms");
    out.metric("nn.artifact.bytes", median(&all(stages, |s| &s.bytes)), "bytes");
    out.metric("data.gen_ms", median(&all(stages, |s| &s.gen)), "ms");
    out.metric("geom.par.threads_spawned", spawned as f64, "count");
    for (b, st) in benches.iter().zip(stages) {
        out.meta(&format!("nn.exec.compile_ms[{}]", b.notation), median(&st.compile));
    }

    // Share of the shards' worker time the traced layers account for:
    // measured replays, plus the stage pass's per-network medians for
    // the path each request's trace took (generate, compile, verify and
    // save for fresh keys; artifact load for a pool key's first touch in
    // the measured run, which opened one cache for all its waves).
    let med = |b: usize, f: fn(&Stages) -> &Vec<f64>| median(f(&stages[b]));
    let mut compile_total = 0.0;
    let mut path_total = 0.0;
    let mut touched: Vec<Key> = Vec::new();
    for w in traced {
        for r in &w.requests {
            let b = r.benchmark;
            if spec.pool_seeds == 0 {
                compile_total += med(b, |s| &s.compile);
                path_total += med(b, |s| &s.gen)
                    + med(b, |s| &s.compile)
                    + med(b, |s| &s.verify)
                    + med(b, |s| &s.save);
            } else if !touched.contains(&(b, r.seed)) {
                touched.push((b, r.seed));
                path_total += med(b, |s| &s.load);
            }
        }
    }
    let worker = worker.max(f64::MIN_POSITIVE);
    out.metric("trace.replay_share", replay_total / worker, "share");
    out.metric("trace.compile_share", compile_total / worker, "share");
    out.metric("trace.coverage", (replay_total + path_total) / worker, "share");

    let (base_rps, traced_rps) = (throughput(plain), throughput(traced));
    let (base_p50, traced_p50) = (median(&latency_ms(plain)), median(&latency_ms(traced)));
    out.metric(
        "trace.overhead_pct.throughput",
        100.0 * (base_rps - traced_rps) / base_rps.max(f64::MIN_POSITIVE),
        "%",
    );
    out.metric(
        "trace.overhead_pct.latency_p50",
        100.0 * (traced_p50 - base_p50) / base_p50.max(f64::MIN_POSITIVE),
        "%",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_alone_fixes_the_requests() {
        for spec in [&COLD, &WARM] {
            let waves = |seed| {
                let mut inputs = Inputs::new(spec, seed);
                (0..3).map(|_| inputs.wave()).collect::<Vec<_>>()
            };
            assert_eq!(waves(1), waves(1));
            assert_ne!(waves(1), waves(2));
        }
    }

    #[test]
    fn cold_requests_never_repeat_and_warm_pairs_cover_the_pool() {
        let mut cold = Inputs::new(&COLD, 4);
        let mut seen: Vec<Key> = Vec::new();
        for _ in 0..3 {
            for r in cold.wave() {
                assert!(!seen.contains(&(r.benchmark, r.seed)), "a cold key repeated");
                seen.push((r.benchmark, r.seed));
            }
        }
        let mut warm = Inputs::new(&WARM, 4);
        let wave = warm.wave();
        assert_eq!(wave.len(), warm.pool.len() * WARM.copies);
        for pair in wave.chunks(WARM.copies) {
            assert!(pair.iter().all(|r| *r == pair[0]), "copies must arrive back to back");
        }
    }
}
