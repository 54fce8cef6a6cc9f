//! Serving-harness demo: drains a batched request stream (all eight
//! Table 2 benchmarks × several seeds × repeated rounds — repeats are
//! where the trace cache earns its keep) through per-shard bounded
//! queues over three engine shards, then prints the throughput, queue
//! latency, utilization and cache statistics a capacity planner needs.
//!
//! It runs the serving front-end (`pointacc_bench::frontend`) with its
//! default admit-everything policy: nothing is shed, nothing expires.
//! Run `frontend_demo` for the admission-controlled counterpart.
//!
//! Scale the workload with `POINTACC_SCALE` (e.g. 0.02 for CI smoke).

use pointacc::{Accelerator, Engine, PointAccConfig};
use pointacc_baselines::Platform;
use pointacc_bench::frontend::{Frontend, FrontendOptions};
use pointacc_bench::serve::Request;
use pointacc_nn::zoo;

fn main() {
    let full = Accelerator::new(PointAccConfig::full());
    let edge = Accelerator::new(PointAccConfig::edge());
    let gpu = Platform::rtx_2080ti();
    let engines: Vec<&dyn Engine> = vec![&full, &edge, &gpu];
    let benchmarks = zoo::benchmarks();

    // 5 rounds × 8 benchmarks × 3 seeds = 120 requests over 24 unique
    // traces: rounds 2..5 are pure cache hits.
    let seeds = [42u64, 43, 44];
    let rounds = 5;
    let requests: Vec<Request> = (0..rounds)
        .flat_map(|_| {
            (0..benchmarks.len())
                .flat_map(|b| seeds.map(|seed| Request::new(b, seed)))
                .collect::<Vec<_>>()
        })
        .collect();
    let n_requests = requests.len();

    let options = FrontendOptions {
        queue_capacity: 16,
        workers_per_engine: 2,
        scale: pointacc_bench::scale(),
        ..FrontendOptions::default()
    };
    println!(
        "== Serving demo: {n_requests} requests over {} engine shards (queue cap {}, {} workers, scale {}) ==\n",
        engines.len(),
        options.queue_capacity,
        engines.len() * options.workers_per_engine,
        options.scale,
    );
    let report = Frontend::new(&engines, &benchmarks, options).run(requests);

    println!(
        "drained     {} requests ({} unsupported, {} failed, {} rejected, {} expired) in {:.3} s",
        report.submitted,
        report.unsupported,
        report.failed,
        report.rejected,
        report.expired,
        report.wall.as_secs_f64()
    );
    for msg in &report.failures {
        println!("  failure: {msg}");
    }
    println!(
        "throughput  {:.1} requests/s | {:.3} Mpoints/s",
        report.requests_per_s(),
        report.points_per_s() / 1e6
    );
    println!(
        "queue wait  p50 {:.3} ms | p99 {:.3} ms",
        report.queue_p50.as_secs_f64() * 1e3,
        report.queue_p99.as_secs_f64() * 1e3
    );
    println!(
        "trace cache {} ({:.0}% hit rate)",
        report.cache.accounting(),
        report.cache.hit_rate() * 100.0
    );
    println!("\nPer-shard completions (modeled utilization):");
    for ((name, n), (_, util)) in report.per_engine.iter().zip(&report.utilization_per_shard) {
        println!("  {name:<16} {n:>4}  ({:.2}x capacity)", util);
    }
    assert!(report.accounting_balances(), "every submitted request must be accounted for");
    assert_eq!(report.rejected, 0, "admit-all admits everything");
    assert!(report.completed >= 100, "demo must drain at least 100 requests");
    assert!(report.cache.hit_rate() > 0.0, "repeated rounds must hit the cache");
}
