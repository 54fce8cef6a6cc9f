//! Criterion end-to-end benchmarks: full trace generation + accelerator
//! replay + baseline platform models.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pointacc::{Accelerator, Engine, PointAccConfig};
use pointacc_baselines::Platform;
use pointacc_data::Dataset;
use pointacc_nn::{zoo, ExecMode, Executor};

fn bench_trace_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_generation");
    g.sample_size(10);
    let pts = Dataset::ModelNet40.generate(1, 1024);
    let net = zoo::pointnet_pp_classification();
    g.bench_function("pointnet_pp_1024", |b| {
        b.iter(|| Executor::new(ExecMode::TraceOnly, 1).run(&net, &pts));
    });
    g.finish();
}

fn bench_accelerator_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("accelerator_replay");
    g.sample_size(10);
    let pts = Dataset::S3dis.generate(1, 8000);
    let trace = Executor::new(ExecMode::TraceOnly, 1).run(&zoo::mini_minkunet(), &pts).trace;
    let full = Accelerator::new(PointAccConfig::full());
    let edge = Accelerator::new(PointAccConfig::edge());
    // Wall-clock replay rate (host-dependent)…
    g.throughput(Throughput::Elements(trace.input_points() as u64));
    // …of a repeated trace: after the warm-up call each accelerator
    // reuses its remembered block-size choices (memo-hit replay)…
    g.bench_function("mini_minkunet_full", |b| b.iter(|| full.run(&trace)));
    g.bench_function("mini_minkunet_edge", |b| b.iter(|| edge.run(&trace)));
    // …and of a first touch: a fresh accelerator per iteration runs the
    // per-layer block-size search as well.
    g.bench_function("mini_minkunet_full_first_touch", |b| {
        b.iter(|| Accelerator::new(PointAccConfig::full()).run(&trace))
    });
    g.bench_function("mini_minkunet_edge_first_touch", |b| {
        b.iter(|| Accelerator::new(PointAccConfig::edge()).run(&trace))
    });
    // Next to them, the simulated throughput the replay models
    // (host-independent: the stable metric for perf PRs).
    for engine in [&full as &dyn Engine, &edge] {
        let report = engine.evaluate(&trace);
        g.report_metric(
            BenchmarkId::new("modeled", engine.name()),
            report.points_per_s(trace.input_points()),
            "points/s (modeled)",
        );
    }
    g.finish();
}

fn bench_baseline_models(c: &mut Criterion) {
    let mut g = c.benchmark_group("baseline_models");
    g.sample_size(20);
    let pts = Dataset::ModelNet40.generate(1, 1024);
    let trace =
        Executor::new(ExecMode::TraceOnly, 1).run(&zoo::pointnet_pp_classification(), &pts).trace;
    let gpu = Platform::rtx_2080ti();
    g.bench_function("gpu_model_pointnet_pp", |b| b.iter(|| gpu.run(&trace)));
    g.finish();
}

criterion_group!(benches, bench_trace_generation, bench_accelerator_replay, bench_baseline_models);
criterion_main!(benches);
