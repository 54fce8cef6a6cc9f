//! Deterministic serving scenarios under a simulated clock.
//!
//! Every test here threads a `SimClock` through the admission-controlled
//! front-end, so scheduling behavior — shedding, deadline expiry,
//! routing, latency percentiles — is a pure function of the request
//! stream: no sleeps, no wall-clock assertions, bit-identical outcomes
//! on any machine. Engines are fixed-latency fakes; where a test needs
//! to control *when* a worker dispatches, it gates the engine on a
//! channel instead of racing the scheduler.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::time::Duration;

use pointacc::{Engine, EngineReport, Seconds};
use pointacc_bench::frontend::{AdmissionPolicy, Clock, Frontend, FrontendOptions, SimClock};
use pointacc_bench::serve::Request;
use pointacc_nn::zoo::{self, Benchmark};
use pointacc_nn::NetworkTrace;
use pointacc_sim::PicoJoules;

/// Scale at which every benchmark trace is its 64-point floor — cheap,
/// and it makes each request's modeled load exactly 64 points.
const SCALE: f64 = 0.02;
const POINTS: f64 = 64.0;

/// A deterministic engine with a fixed simulated latency that counts
/// its evaluations — the probe for "counted, not executed".
struct CountingEngine {
    name: &'static str,
    evals: AtomicUsize,
}

impl CountingEngine {
    fn new(name: &'static str) -> Self {
        CountingEngine { name, evals: AtomicUsize::new(0) }
    }

    fn evals(&self) -> usize {
        self.evals.load(Ordering::SeqCst)
    }

    fn report(&self, trace: &NetworkTrace) -> EngineReport {
        EngineReport {
            engine: self.name.into(),
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

impl Engine for CountingEngine {
    fn name(&self) -> String {
        self.name.into()
    }

    fn evaluate(&self, trace: &NetworkTrace) -> EngineReport {
        self.evals.fetch_add(1, Ordering::SeqCst);
        self.report(trace)
    }
}

/// A [`CountingEngine`] whose **first** evaluation blocks until the
/// test releases it: the deterministic way to hold a worker busy while
/// the producer admits more requests and advances simulated time.
struct GatedEngine {
    inner: CountingEngine,
    gate: Mutex<Option<Receiver<()>>>,
}

impl GatedEngine {
    fn new(name: &'static str) -> (Self, Sender<()>) {
        let (tx, rx) = channel();
        (GatedEngine { inner: CountingEngine::new(name), gate: Mutex::new(Some(rx)) }, tx)
    }
}

impl Engine for GatedEngine {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn evaluate(&self, trace: &NetworkTrace) -> EngineReport {
        if let Some(rx) = self.gate.lock().expect("gate poisoned").take() {
            rx.recv().expect("test releases the gate");
        }
        self.inner.evals.fetch_add(1, Ordering::SeqCst);
        self.inner.report(trace)
    }
}

fn pointnet_only() -> Vec<Benchmark> {
    zoo::benchmarks().into_iter().filter(|b| b.notation == "PointNet").collect()
}

fn options(capacities: Vec<f64>, policy: AdmissionPolicy) -> FrontendOptions {
    FrontendOptions {
        queue_capacity: 16,
        workers_per_engine: 1,
        scale: SCALE,
        policy,
        capacities: Some(capacities),
        // Scenario determinism: no disk tier regardless of the test
        // runner's environment.
        artifact_dir: None,
    }
}

#[test]
fn overload_sheds_exactly_the_modeled_excess() {
    // Capacity 6400 points/s and a 50 ms queue-delay bound admit
    // exactly floor(50ms × 6400 / 64) + 1 = 6 of a 10-request burst:
    // request k arrives with a modeled backlog of 64k points, i.e. a
    // wait of 10k ms, and sheds once that exceeds 50 ms.
    let engine = CountingEngine::new("Const");
    let engines = [&engine as &dyn Engine];
    let benchmarks = pointnet_only();
    let frontend = Frontend::new(
        &engines,
        &benchmarks,
        options(vec![100.0 * POINTS], AdmissionPolicy::shed_after(Duration::from_millis(50))),
    );
    let clock = SimClock::new();
    let report = frontend.run_with_clock(&clock, (0..10).map(|seed| Request::new(0, seed as u64)));
    assert_eq!(report.submitted, 10);
    assert_eq!(report.completed, 6, "modeled bound admits exactly six");
    assert_eq!(report.rejected, 4, "the excess is shed, nothing more");
    assert_eq!(report.expired, 0);
    assert_eq!(report.failed + report.unsupported, 0);
    assert!(report.accounting_balances());
    assert_eq!(engine.evals(), 6, "shed requests are never executed");
}

#[test]
fn shed_load_is_readmitted_once_the_backlog_drains() {
    // Same bound, but the clock advances 100 ms mid-burst: the fluid
    // backlog drains 6400 points and admission opens again.
    let engine = CountingEngine::new("Const");
    let engines = [&engine as &dyn Engine];
    let benchmarks = pointnet_only();
    let frontend = Frontend::new(
        &engines,
        &benchmarks,
        options(vec![100.0 * POINTS], AdmissionPolicy::shed_after(Duration::from_millis(50))),
    );
    let clock = SimClock::new();
    let requests: Vec<Request> = (0..14).map(|seed| Request::new(0, seed as u64)).collect();
    let clock_ref = &clock;
    let stream = requests.into_iter().enumerate().map(move |(i, r)| {
        if i == 10 {
            // 100 ms drains 6400 modeled points — more than the whole
            // admitted backlog.
            clock_ref.advance(Duration::from_millis(100));
        }
        r
    });
    let report = frontend.run_with_clock(&clock, stream);
    // First burst: 6 admitted, 4 shed (as above). After the drain the
    // remaining 4 all fit under the bound again.
    assert_eq!(report.completed, 10);
    assert_eq!(report.rejected, 4);
    assert!(report.accounting_balances());
}

#[test]
fn deadline_expired_requests_are_counted_not_executed() {
    // Capacity 64 points/s: one request is one simulated second of
    // service. The second request's modeled sojourn (1 s wait + 1 s
    // service) exceeds its 500 ms budget at admission; the third's
    // 10 s budget is met.
    let engine = CountingEngine::new("Const");
    let engines = [&engine as &dyn Engine];
    let benchmarks = pointnet_only();
    let frontend =
        Frontend::new(&engines, &benchmarks, options(vec![POINTS], AdmissionPolicy::admit_all()));
    let clock = SimClock::new();
    let requests = [
        Request::new(0, 1),
        Request::new(0, 2).with_deadline(Duration::from_millis(500)),
        Request::new(0, 3).with_deadline(Duration::from_secs(10)),
    ];
    let report = frontend.run_with_clock(&clock, requests);
    assert_eq!(report.submitted, 3);
    assert_eq!(report.completed, 2);
    assert_eq!(report.expired, 1, "infeasible budget expires at admission");
    assert_eq!(report.rejected, 0, "admit-all never sheds for queue depth");
    assert!(report.accounting_balances());
    assert_eq!(engine.evals(), 2, "expired requests are never executed");
}

#[test]
fn deadlines_expire_at_dispatch_when_the_clock_outruns_them() {
    // Queue-time expiry, deterministically: the first request holds the
    // only worker inside a gated engine; the second (1 ms budget) waits
    // in queue while the stream advances simulated time 10 ms past its
    // deadline, then releases the gate. The worker must discard it at
    // dispatch — counted, never executed.
    let (engine, release) = GatedEngine::new("Gated");
    let engines = [&engine as &dyn Engine];
    let benchmarks = pointnet_only();
    // Huge capacity: admission models no queueing, so only the
    // dispatch-time check can expire the request.
    let frontend =
        Frontend::new(&engines, &benchmarks, options(vec![1e9], AdmissionPolicy::admit_all()));
    let clock = SimClock::new();
    let clock_ref = &clock;
    let release_ref = &release;
    let stream = (0..3).filter_map(move |i| match i {
        0 => Some(Request::new(0, 1)),
        1 => Some(Request::new(0, 2).with_deadline(Duration::from_millis(1))),
        _ => {
            // Both requests are admitted and enqueued; now outrun the
            // second one's budget, then let the worker go.
            clock_ref.advance(Duration::from_millis(10));
            release_ref.send(()).expect("worker waits on the gate");
            None
        }
    });
    let report = frontend.run_with_clock(&clock, stream);
    assert_eq!(report.submitted, 2);
    assert_eq!(report.completed, 1);
    assert_eq!(report.expired, 1, "the deadline passed while queued");
    assert!(report.accounting_balances());
    assert_eq!(engine.inner.evals(), 1, "expired requests are never executed");
}

#[test]
fn a_slow_shard_never_starves_the_queue() {
    // A 1000× capacity imbalance under a (generous) shed policy, which
    // engages capacity-aware routing: every request stays on the fast
    // shard (its whole backlog still finishes sooner than one request
    // on the slow shard), the slow shard idles, and the stream drains
    // completely — a slow shard can delay only work explicitly routed
    // to it, never the queue as a whole.
    let fast = CountingEngine::new("Fast");
    let slow = CountingEngine::new("Slow");
    let engines = [&fast as &dyn Engine, &slow as &dyn Engine];
    let benchmarks = pointnet_only();
    let frontend = Frontend::new(
        &engines,
        &benchmarks,
        options(
            vec![1000.0 * POINTS, POINTS],
            AdmissionPolicy::shed_after(Duration::from_secs(3600)),
        ),
    );
    let clock = SimClock::new();
    let report = frontend.run_with_clock(&clock, (0..20).map(|seed| Request::new(0, seed as u64)));
    assert_eq!(report.completed, 20, "nothing starves");
    assert_eq!(report.rejected, 0, "the bound is far beyond this burst");
    assert!(report.accounting_balances());
    assert_eq!(report.per_engine[0], ("Fast".to_string(), 20));
    assert_eq!(report.per_engine[1], ("Slow".to_string(), 0));
}

#[test]
fn equal_shards_split_a_burst_evenly() {
    // With equal capacities the completion-time router alternates: each
    // admission grows one backlog, making the other shard's completion
    // earlier for the next request.
    let a = CountingEngine::new("A");
    let b = CountingEngine::new("B");
    let engines = [&a as &dyn Engine, &b as &dyn Engine];
    let benchmarks = pointnet_only();
    let frontend = Frontend::new(
        &engines,
        &benchmarks,
        options(vec![POINTS, POINTS], AdmissionPolicy::shed_after(Duration::from_secs(3600))),
    );
    let clock = SimClock::new();
    let report = frontend.run_with_clock(&clock, (0..10).map(|seed| Request::new(0, seed as u64)));
    assert_eq!(report.completed, 10);
    assert_eq!(report.per_engine[0].1, 5);
    assert_eq!(report.per_engine[1].1, 5);
}

#[test]
fn an_idle_shard_within_the_bound_absorbs_before_anything_sheds() {
    // 100:1 capacity split, 50 ms bound, same-instant burst. The fast
    // shard fills up after 6 requests (wait 60 ms > bound); request 7
    // must route to the *idle* slow shard (wait 0 meets the bound even
    // though its completion is a full second away) instead of
    // shedding. Only once both shards are beyond the bound does
    // admission shed.
    let fast = CountingEngine::new("Fast");
    let slow = CountingEngine::new("Slow");
    let engines = [&fast as &dyn Engine, &slow as &dyn Engine];
    let benchmarks = pointnet_only();
    let frontend = Frontend::new(
        &engines,
        &benchmarks,
        options(
            vec![100.0 * POINTS, POINTS],
            AdmissionPolicy::shed_after(Duration::from_millis(50)),
        ),
    );
    let clock = SimClock::new();
    let report = frontend.run_with_clock(&clock, (0..10).map(|seed| Request::new(0, seed as u64)));
    assert_eq!(report.completed, 7, "six on the fast shard, one absorbed by the idle slow one");
    assert_eq!(report.rejected, 3, "shedding starts only when no shard meets the bound");
    assert!(report.accounting_balances());
    assert_eq!(report.per_engine[0], ("Fast".to_string(), 6));
    assert_eq!(report.per_engine[1], ("Slow".to_string(), 1));
}

#[test]
fn admit_all_balances_work_instead_of_chasing_modeled_capacity() {
    // Batch mode (admit-all, no deadlines): every request completes
    // regardless of the capacity model, and the engines' wall-clock
    // cost is roughly uniform, so routing must spread work evenly —
    // capacity-proportional routing would idle half the worker pool
    // behind the modeled-fastest shard.
    let fast = CountingEngine::new("Fast");
    let slow = CountingEngine::new("Slow");
    let engines = [&fast as &dyn Engine, &slow as &dyn Engine];
    let benchmarks = pointnet_only();
    let frontend = Frontend::new(
        &engines,
        &benchmarks,
        options(vec![1000.0 * POINTS, POINTS], AdmissionPolicy::admit_all()),
    );
    let clock = SimClock::new();
    let report = frontend.run_with_clock(&clock, (0..20).map(|seed| Request::new(0, seed as u64)));
    assert_eq!(report.completed, 20);
    assert_eq!(report.per_engine[0].1, 10, "even split despite the capacity imbalance");
    assert_eq!(report.per_engine[1].1, 10);
}

#[test]
fn queue_latency_percentiles_come_from_the_injected_clock() {
    // The gated engine holds the worker while four more requests queue
    // and the stream advances simulated time 10 ms; after release they
    // all dispatch at t = 10 ms. Sorted queue latencies are exactly
    // [0, 10, 10, 10, 10] ms — p50 and p99 are simulated values, not
    // wall-clock luck.
    let (engine, release) = GatedEngine::new("Gated");
    let engines = [&engine as &dyn Engine];
    let benchmarks = pointnet_only();
    let frontend =
        Frontend::new(&engines, &benchmarks, options(vec![1e9], AdmissionPolicy::admit_all()));
    let clock = SimClock::new();
    let clock_ref = &clock;
    let release_ref = &release;
    let stream = (0..6).filter_map(move |i| {
        if i < 5 {
            return Some(Request::new(0, i as u64));
        }
        clock_ref.advance(Duration::from_millis(10));
        release_ref.send(()).expect("worker waits on the gate");
        None
    });
    let report = frontend.run_with_clock(&clock, stream);
    assert_eq!(report.completed, 5);
    assert_eq!(report.queue_p50, Duration::from_millis(10));
    assert_eq!(report.queue_p99, Duration::from_millis(10));
    assert!(report.queue_p50 <= report.queue_p99, "structural invariant");
    assert_eq!(report.wall, Duration::from_millis(10), "elapsed time is simulated");
}

#[test]
fn zero_requests_yield_a_clean_empty_report() {
    let engine = CountingEngine::new("Const");
    let engines = [&engine as &dyn Engine];
    let benchmarks = pointnet_only();
    let frontend =
        Frontend::new(&engines, &benchmarks, options(vec![POINTS], AdmissionPolicy::admit_all()));
    let clock = SimClock::new();
    let report = frontend.run_with_clock(&clock, std::iter::empty());
    assert_eq!(report.submitted, 0);
    assert_eq!(
        (report.completed, report.unsupported, report.failed, report.rejected, report.expired),
        (0, 0, 0, 0, 0)
    );
    assert!(report.accounting_balances());
    assert_eq!(report.queue_p50, Duration::ZERO);
    assert_eq!(report.queue_p99, Duration::ZERO);
    assert_eq!(report.cache.hits + report.cache.misses, 0);
    assert_eq!(report.utilization_per_shard, vec![("Const".to_string(), 0.0)]);
    assert_eq!(engine.evals(), 0);
}

#[test]
fn zero_workers_shed_instead_of_deadlocking() {
    // Nothing can ever drain a zero-worker front-end: admission must
    // shed every request up front — far more than the queue capacity,
    // which would deadlock if anything were enqueued.
    let engine = CountingEngine::new("Const");
    let engines = [&engine as &dyn Engine];
    let benchmarks = pointnet_only();
    let frontend = Frontend::new(
        &engines,
        &benchmarks,
        FrontendOptions {
            queue_capacity: 2,
            workers_per_engine: 0,
            capacities: Some(vec![POINTS]),
            ..options(vec![POINTS], AdmissionPolicy::admit_all())
        },
    );
    let clock = SimClock::new();
    let report = frontend.run_with_clock(&clock, (0..32).map(|seed| Request::new(0, seed as u64)));
    assert_eq!(report.submitted, 32);
    assert_eq!(report.rejected, 32);
    assert_eq!(report.completed, 0);
    assert!(report.accounting_balances());
    assert_eq!(engine.evals(), 0);
}

#[test]
fn serving_recovers_after_a_transient_build_fault() {
    use pointacc_bench::cache::{FailurePolicy, TraceCache};
    use pointacc_bench::UnknownDataset;
    use pointacc_nn::TraceKey;

    // A transient fault (dataset store briefly unreachable, say) was
    // negatively cached before the request wave arrives. Whether the
    // wave recovers is purely the cache's failure policy.
    let engine = CountingEngine::new("Const");
    let engines = [&engine as &dyn Engine];
    let benchmarks = pointnet_only();
    let frontend =
        Frontend::new(&engines, &benchmarks, options(vec![1e9], AdmissionPolicy::admit_all()));
    let key = TraceKey::new(benchmarks[0].notation, 1, SCALE);
    let poison = |cache: &TraceCache| {
        cache
            .try_get_or_build(&key, || Err(UnknownDataset { name: "transient".into() }.into()))
            .unwrap_err();
    };

    // Under Retain the fault is permanent: every request for the key
    // keeps failing from the cache and nothing ever executes.
    let retained = TraceCache::new().with_failure_policy(FailurePolicy::Retain);
    poison(&retained);
    let clock = SimClock::new();
    let report = frontend.run_on_cache(&clock, &retained, (0..4).map(|_| Request::new(0, 1)));
    assert_eq!(report.completed, 0, "retained failure makes the key unservable");
    assert_eq!(report.failed, 4);
    assert!(report.accounting_balances());
    assert_eq!(engine.evals(), 0);

    // Under RetryOnRequest the first request drops the failed slot and
    // rebuilds for real; the whole wave completes.
    let retrying = TraceCache::new().with_failure_policy(FailurePolicy::RetryOnRequest);
    poison(&retrying);
    let clock = SimClock::new();
    let report = frontend.run_on_cache(&clock, &retrying, (0..4).map(|_| Request::new(0, 1)));
    assert_eq!(report.failed, 0, "the transient fault must not outlive its cause");
    assert_eq!(report.completed, 4);
    assert!(report.accounting_balances());
    assert_eq!(engine.evals(), 4);
    assert!(report.cache.compiles >= 1, "recovery really recompiled the trace");
}

#[test]
fn sim_clock_reads_back_exactly_what_was_advanced() {
    let clock = SimClock::new();
    assert_eq!(clock.now(), Duration::ZERO);
    clock.advance(Duration::from_micros(1));
    clock.advance(Duration::from_secs(2));
    assert_eq!(clock.now(), Duration::from_secs(2) + Duration::from_micros(1));
}
