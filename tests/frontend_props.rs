//! Property tests for the admission-controlled serving front-end.
//!
//! Two invariants that must survive *any* request stream:
//!
//! 1. **Accounting** — every submitted request lands in exactly one
//!    outcome bucket: `completed + unsupported + failed + rejected +
//!    expired == submitted`, whatever the mix of valid, invalid and
//!    deadline-carrying requests, capacities, policies and worker
//!    counts.
//! 2. **Reorder invariance** — admission decisions within one tick
//!    (requests arriving at the same simulated instant, with equal
//!    modeled load and equal budgets) depend only on the backlog, not
//!    on which request carries which seed: permuting the stream leaves
//!    the outcome counts unchanged.
//!
//! Everything runs on a frozen `SimClock` with fixed-latency fake
//! engines, so each generated case is deterministic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pointacc::{Engine, EngineReport, Seconds};
use pointacc_bench::frontend::{AdmissionPolicy, Frontend, FrontendOptions, SimClock};
use pointacc_bench::serve::Request;
use pointacc_nn::zoo::{self, Benchmark};
use pointacc_nn::NetworkTrace;
use pointacc_sim::PicoJoules;

/// Scale at which every benchmark trace is its 64-point floor.
const SCALE: f64 = 0.02;

struct ConstEngine {
    name: &'static str,
    evals: AtomicUsize,
}

impl ConstEngine {
    fn new(name: &'static str) -> Self {
        ConstEngine { name, evals: AtomicUsize::new(0) }
    }
}

impl Engine for ConstEngine {
    fn name(&self) -> String {
        self.name.into()
    }

    fn evaluate(&self, trace: &NetworkTrace) -> EngineReport {
        self.evals.fetch_add(1, Ordering::SeqCst);
        EngineReport {
            engine: self.name(),
            network: trace.network.clone(),
            mapping: Seconds(0.0),
            matmul: Seconds(1e-3),
            datamove: Seconds(0.0),
            total: Seconds(1e-3),
            energy: PicoJoules::new(1.0),
            dram_bytes: 0,
        }
    }
}

/// PointNet and DGCNN: two distinct trace-cache keys with the same
/// 64-point modeled load at [`SCALE`].
fn two_benchmarks() -> Vec<Benchmark> {
    zoo::benchmarks()
        .into_iter()
        .filter(|b| b.notation == "PointNet" || b.notation == "DGCNN")
        .collect()
}

fn run_frozen(
    benchmarks: &[Benchmark],
    capacities: Vec<f64>,
    policy: AdmissionPolicy,
    workers_per_engine: usize,
    queue_capacity: usize,
    requests: Vec<Request>,
) -> pointacc_bench::serve::ServeReport {
    let a = ConstEngine::new("A");
    let b = ConstEngine::new("B");
    let engines = [&a as &dyn Engine, &b as &dyn Engine];
    let frontend = Frontend::new(
        &engines,
        benchmarks,
        FrontendOptions {
            queue_capacity,
            workers_per_engine,
            scale: SCALE,
            policy,
            capacities: Some(capacities),
            // Property runs must not pick up a disk tier from the test
            // runner's environment.
            artifact_dir: None,
        },
    );
    let clock = SimClock::new();
    frontend.run_with_clock(&clock, requests)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn accounting_identity_holds_for_any_stream(
        // Benchmark indices 0..2 are valid, 2..4 fail at the worker.
        raw in prop::collection::vec((0usize..4, 0u64..3, 0u64..40), 0..24),
        capacity in 32.0f64..100_000.0,
        max_delay_ms in 0u64..200,
        workers in 0usize..3,
        queue_capacity in 1usize..4,
    ) {
        let benchmarks = two_benchmarks();
        let requests: Vec<Request> = raw
            .iter()
            .map(|&(bench, seed, deadline_ms)| {
                let req = Request::new(bench, seed);
                // 0 means "no deadline"; otherwise a budget that may or
                // may not be feasible for the drawn capacity.
                if deadline_ms == 0 {
                    req
                } else {
                    req.with_deadline(Duration::from_millis(deadline_ms))
                }
            })
            .collect();
        let policy = if max_delay_ms == 0 {
            AdmissionPolicy::admit_all()
        } else {
            AdmissionPolicy::shed_after(Duration::from_millis(max_delay_ms))
        };
        let n = requests.len();
        let report = run_frozen(
            &benchmarks,
            vec![capacity, capacity / 2.0],
            policy,
            workers,
            queue_capacity,
            requests,
        );
        prop_assert_eq!(report.submitted, n);
        prop_assert!(
            report.accounting_balances(),
            "completed {} + unsupported {} + failed {} + rejected {} + expired {} != submitted {}",
            report.completed,
            report.unsupported,
            report.failed,
            report.rejected,
            report.expired,
            report.submitted
        );
        if workers == 0 {
            prop_assert_eq!(report.rejected, n, "a workerless front-end sheds everything");
        }
        if policy.max_queue_delay.is_none() && workers > 0 {
            prop_assert_eq!(report.rejected, 0, "admit-all never sheds");
        }
        // Percentiles stay ordered whatever the stream shape.
        prop_assert!(report.queue_p50 <= report.queue_p99);
    }

    #[test]
    fn admission_is_invariant_under_reordering_within_a_tick(
        seeds in prop::collection::vec((0usize..2, 0u64..5), 2..20),
        capacity in 32.0f64..10_000.0,
        max_delay_ms in 1u64..100,
        deadline_choice in prop::sample::select(vec![0u64, 50, 5_000]),
        shuffle_seed in 0u64..1_000,
    ) {
        // All requests share one tick (frozen clock), one modeled load
        // (64 points each) and one budget, so admission may depend only
        // on *how many* requests preceded each one — never on which.
        let benchmarks = two_benchmarks();
        let make = |&(bench, seed): &(usize, u64)| {
            let req = Request::new(bench, seed);
            if deadline_choice == 0 {
                req
            } else {
                req.with_deadline(Duration::from_millis(deadline_choice))
            }
        };
        let original: Vec<Request> = seeds.iter().map(make).collect();
        let mut permuted = original.clone();
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        // Fisher–Yates with the deterministic in-tree rand shim.
        for i in (1..permuted.len()).rev() {
            let j = rng.gen_range(0..=i);
            permuted.swap(i, j);
        }
        let policy = AdmissionPolicy::shed_after(Duration::from_millis(max_delay_ms));
        let capacities = vec![capacity, capacity / 3.0];
        let a = run_frozen(&benchmarks, capacities.clone(), policy, 1, 4, original);
        let b = run_frozen(&benchmarks, capacities, policy, 1, 4, permuted);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.rejected, b.rejected);
        prop_assert_eq!(a.expired, b.expired);
        prop_assert_eq!(a.failed, b.failed);
        prop_assert_eq!(
            a.per_engine.iter().map(|(_, n)| *n).collect::<Vec<_>>(),
            b.per_engine.iter().map(|(_, n)| *n).collect::<Vec<_>>(),
            "routing counts are positional, not identity-based"
        );
    }
}
