//! Serving-layer benchmarks with a stable, non-wall-clock metric.
//!
//! Two kinds of rows:
//!
//! - `modeled_throughput/*` — each engine's **simulated** points/s on
//!   each benchmark, straight from `EngineReport::points_per_s`. These
//!   numbers depend only on the hardware model and the trace, never on
//!   the host machine: a perf PR that changes them changed the model,
//!   a perf PR that doesn't can't hide a modeling regression behind a
//!   faster laptop.
//! - `admission/*` — wall-clock timings of the front-end's hot
//!   admission path (capacity modeling + routing for a full burst),
//!   with wall-clock requests/s via `Throughput::Elements`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pointacc::{Accelerator, Engine, PointAccConfig};
use pointacc_baselines::Platform;
use pointacc_bench::frontend::{AdmissionPolicy, Frontend, FrontendOptions, SimClock};
use pointacc_bench::serve::Request;
use pointacc_nn::zoo;

/// Keeps trace generation cheap; the modeled metric is scale-dependent
/// but host-independent at any fixed scale.
const SCALE: f64 = 0.05;

fn bench_modeled_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("modeled_throughput");
    let full = Accelerator::new(PointAccConfig::full());
    let edge = Accelerator::new(PointAccConfig::edge());
    let gpu = Platform::rtx_2080ti();
    let engines: [&dyn Engine; 3] = [&full, &edge, &gpu];
    for bench in zoo::benchmarks().iter().take(4) {
        let trace = pointacc_bench::cached_benchmark_trace(bench, 42, SCALE);
        for engine in engines {
            let report = engine.evaluate(&trace);
            g.report_metric(
                BenchmarkId::new(engine.name(), bench.notation),
                report.points_per_s(trace.input_points()),
                "points/s (modeled)",
            );
        }
    }
    g.finish();
}

fn bench_admission_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("admission");
    g.sample_size(10);
    let full = Accelerator::new(PointAccConfig::full());
    let edge = Accelerator::new(PointAccConfig::edge());
    let engines: [&dyn Engine; 2] = [&full, &edge];
    let benchmarks = zoo::benchmarks();
    let frontend = Frontend::new(
        &engines,
        &benchmarks,
        FrontendOptions {
            queue_capacity: 64,
            workers_per_engine: 1,
            scale: SCALE,
            policy: AdmissionPolicy::shed_after(Duration::from_millis(10)),
            capacities: Some(vec![1e6, 5e5]),
            ..FrontendOptions::default()
        },
    );
    let n = 256u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("burst_256", |b| {
        b.iter(|| {
            let clock = SimClock::new();
            // A 1 ns budget can never cover a request's own modeled
            // service time, so every request runs the whole admission
            // pipeline — backlog drain, completion-time routing, shed
            // bound, deadline check — and is then refused before any
            // engine executes: the loop times the capacity bookkeeping
            // and nothing else.
            let requests = (0..n).map(|i| {
                Request::new(i as usize % benchmarks.len(), i % 3)
                    .with_deadline(Duration::from_nanos(1))
            });
            frontend.run_with_clock(&clock, requests)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_modeled_throughput, bench_admission_path);
criterion_main!(benches);
