//! Streaming scenario family: the multi-frame LiDAR pipeline end to
//! end — [`FrameStream`] determinism and overlap, [`GridIndex`] kNN on
//! far-outside and degenerate queries, exact cross-frame trace reuse
//! pinned to a fresh compile's fingerprint, and the [`serve_stream`]
//! SLO scenario on a simulated clock.

use std::time::Duration;

use pointacc::{Accelerator, PointAccConfig};
use pointacc_bench::frontend::SimClock;
use pointacc_bench::stream::{serve_stream, StreamOptions};
use pointacc_data::lidar::{FrameStream, ScanProfile};
use pointacc_geom::golden;
use pointacc_geom::index::GridIndex;
use pointacc_geom::{Point3, PointSet};
use pointacc_nn::stream::{ReuseOutcome, StreamingTracer};
use pointacc_nn::{zoo, ExecMode, Executor};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// FrameStream scenarios
// ---------------------------------------------------------------------

#[test]
fn frame_stream_is_reproducible_and_overlapping() {
    let collect = || {
        let mut s = FrameStream::new(77, 2_000, ScanProfile::semantic_kitti());
        (0..4).map(|_| s.next_frame()).collect::<Vec<_>>()
    };
    let a = collect();
    let b = collect();
    for (fa, fb) in a.iter().zip(&b) {
        assert_eq!(fa.points, fb.points, "frame {} not reproducible", fa.index);
        assert_eq!(fa.removed, fb.removed);
        assert_eq!(fa.inserted, fb.inserted);
    }
    for f in &a[1..] {
        assert!(f.overlap() > 0.75, "frame {} overlap {} too low", f.index, f.overlap());
    }
}

// ---------------------------------------------------------------------
// Grid-index query properties
// ---------------------------------------------------------------------

/// A deterministic pseudo-cloud of `n` points in a ±30 m box.
fn cloud(n: usize, seed: u64) -> Vec<Point3> {
    (0..n)
        .map(|i| {
            let h = (i as u64 + 1).wrapping_mul(seed | 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let f = |s: u64| ((h >> s) & 0xFFFF) as f32 / 65535.0 * 60.0 - 30.0;
            Point3::new(f(0), f(16), f(32))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Far-outside and degenerate (collinear/coincident) knn queries
    /// agree with the golden brute-force ranking.
    #[test]
    fn knn_far_outside_and_degenerate_matches_golden(
        n in 1usize..60,
        seed in 1u64..5_000,
        k in 1usize..12,
        shape in prop::sample::select(vec!["cloud", "collinear", "coincident"]),
        far in prop::sample::select(vec![1.0f32, 50.0, 1_000.0, 100_000.0]),
    ) {
        let pts: Vec<Point3> = match shape {
            "collinear" => (0..n).map(|i| Point3::new(i as f32 * 0.25, 0.0, 0.0)).collect(),
            "coincident" => (0..n).map(|_| Point3::new(1.5, -2.5, 3.5)).collect(),
            _ => cloud(n, seed),
        };
        let idx = GridIndex::build(&pts);
        let set = PointSet::from_points(pts);
        let queries = PointSet::from_points(vec![
            Point3::new(far, far * 0.5, -far),
            Point3::new(-far, 0.0, 0.0),
            Point3::new(0.0, 0.0, far),
            set.point(0),
        ]);
        let want = golden::k_nearest_neighbors(&set, &queries, k);
        for (qi, want_q) in want.iter().enumerate() {
            prop_assert_eq!(
                &idx.knn(queries.point(qi), k), want_q,
                "shape={} far={} q={}", shape, far, qi
            );
        }
    }
}

// ---------------------------------------------------------------------
// Cross-frame trace reuse
// ---------------------------------------------------------------------

#[test]
fn exact_reuse_matches_fresh_compile_fingerprint() {
    let net = zoo::minknet_outdoor();
    let mut stream = FrameStream::new(5, 1_500, ScanProfile::semantic_kitti());
    stream.set_motion(0.0, 0);
    let mut tracer = StreamingTracer::new(ExecMode::TraceOnly, 5);
    let first = stream.next_frame();
    let (cold, outcome) = tracer.run_frame(&net, &first.points).unwrap();
    assert_eq!(outcome, ReuseOutcome::Compiled);
    for _ in 0..3 {
        let frame = stream.next_frame();
        let (out, outcome) = tracer.run_frame(&net, &frame.points).unwrap();
        assert_eq!(outcome, ReuseOutcome::ExactReuse);
        // The reused trace is the compiled trace, byte for byte.
        assert_eq!(out.trace.fingerprint(), cold.trace.fingerprint());
        let fresh = Executor::new(ExecMode::TraceOnly, 5).try_run(&net, &frame.points).unwrap();
        assert_eq!(out.trace.fingerprint(), fresh.trace.fingerprint());
    }
    let stats = tracer.stats();
    assert_eq!(stats.compiles, 1);
    assert_eq!(stats.exact_reuses, 3);
    assert!(stats.accounting().ends_with("compiles=1"), "{}", stats.accounting());
}

#[test]
fn moving_frames_recompile_and_still_match_fresh_compiles() {
    let net = zoo::minknet_outdoor();
    let mut stream = FrameStream::new(6, 1_500, ScanProfile::semantic_kitti());
    let mut tracer = StreamingTracer::new(ExecMode::TraceOnly, 6);
    for _ in 0..4 {
        let frame = stream.next_frame();
        let (out, _) = tracer.run_frame(&net, &frame.points).unwrap();
        let fresh = Executor::new(ExecMode::TraceOnly, 6).try_run(&net, &frame.points).unwrap();
        assert_eq!(
            out.trace.fingerprint(),
            fresh.trace.fingerprint(),
            "frame {} trace drifted from a fresh compile",
            frame.index
        );
    }
}

// ---------------------------------------------------------------------
// Serving scenario on the simulated clock
// ---------------------------------------------------------------------

fn scenario_opts() -> StreamOptions {
    StreamOptions {
        seed: 9,
        frames: 10,
        points_hint: 2_000,
        period: Duration::from_millis(100),
        slo: Duration::from_millis(100),
        dwell_after: Some(5),
        ..StreamOptions::default()
    }
}

#[test]
fn serve_stream_meets_slo_and_compiles_nothing_in_steady_state() {
    let engine = Accelerator::new(PointAccConfig::full());
    let net = zoo::minknet_outdoor();
    let report = serve_stream(&engine, &net, &SimClock::new(), &scenario_opts()).unwrap();
    assert_eq!(report.records.len(), 10);
    assert_eq!(report.slo_attainment(), 1.0, "max latency {:?}", report.max_latency());
    assert!(report.max_latency() <= Duration::from_millis(100));
    let steady = report.stats_from(6);
    assert_eq!(steady.compiles, 0, "steady state compiled: {}", steady.accounting());
    assert!(report.amortized_points_per_s() > report.cold_points_per_s());
}

#[test]
fn serve_stream_is_a_pure_function_of_its_options() {
    let engine = Accelerator::new(PointAccConfig::full());
    let net = zoo::minknet_outdoor();
    let a = serve_stream(&engine, &net, &SimClock::new(), &scenario_opts()).unwrap();
    let b = serve_stream(&engine, &net, &SimClock::new(), &scenario_opts()).unwrap();
    assert_eq!(a.stats, b.stats);
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.outcome, rb.outcome);
        assert_eq!(ra.service, rb.service);
        assert_eq!(ra.latency, rb.latency);
    }
}
