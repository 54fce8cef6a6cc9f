//! The `lidar-stream` workload: an open loop over one Mini-MinkUNet
//! `FrameStream` (SemanticKITTI profile) served on PointAcc edge.
//!
//! Frame *k* is due at `k × PERIOD` after the loop starts, whether or not
//! the previous frame has finished; each frame calls `next_frame`, then
//! `StreamingTracer::run_frame`, then `Engine::evaluate`, and its latency
//! runs from its due time to its report. The ego drives stop-and-go:
//! each cycle of [`CYCLE`] frames starts with [`MOTION`] frames in motion
//! (every frame compiles through the voxel and kernel-map path) and
//! dwells for the rest (bit-identical frames, exact reuse). Dwell frames
//! are the majority, so the median frame is a reused frame and the tail
//! a compiled one; the cycles spread both over many scenes.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use pointacc::{Accelerator, Engine, EngineReport, PointAccConfig};
use pointacc_data::lidar::{FrameStream, ScanProfile};
use pointacc_geom::{par, PointSet};
use pointacc_nn::stream::{ReuseOutcome, StreamingTracer};
use pointacc_nn::{zoo, ExecMode, Executor, Network, NetworkTrace, TraceKey};

use crate::util::{
    artifact_stages, median, ms, percentile, same_report, start_pool, tail, ArtifactStages,
    Outcome, SetupReps,
};
use crate::Config;

/// The stream's size hint; its SemanticKITTI sweep yields about 33k
/// points per frame.
const POINTS: usize = 20_000;
/// Frame period: long enough that a compiled frame finishes well
/// before the next one is due, so no frame queues behind another.
const PERIOD: Duration = Duration::from_millis(200);
/// Frames per stop-and-go cycle, and how many of them are in motion.
const CYCLE: usize = 5;
const MOTION: usize = 2;
/// Ego motion per moving frame, meters (the stream's default).
const EGO_STEP: f32 = 0.5;

/// One prepared stream: engine, network, frame source and tracer, with
/// the full-sweep first frame already served.
struct Stream {
    engine: Accelerator,
    net: Network,
    frames: FrameStream,
    tracer: StreamingTracer,
    seed: u64,
}

fn prepare(seed: u64, points: usize) -> Result<Stream, String> {
    start_pool();
    let engine = Accelerator::new(PointAccConfig::edge());
    let net = zoo::mini_minkunet();
    let mut frames = FrameStream::new(seed, points, ScanProfile::semantic_kitti());
    let mut tracer = StreamingTracer::new(ExecMode::TraceOnly, seed);
    // Frame 0 raycasts the whole sweep and fills the tracer's cache: it
    // is the stream's set-up, not one of its steady frames.
    let first = frames.next_frame();
    let (output, _) = tracer.run_frame(&net, &first.points).map_err(|e| e.to_string())?;
    engine.evaluate(&output.trace);
    Ok(Stream { engine, net, frames, tracer, seed })
}

/// Host timestamps of one frame, relative to the loop start.
struct Frame {
    due: Duration,
    start: Duration,
    /// After `next_frame` (traced runs only).
    generated: Option<Duration>,
    /// After `run_frame` (traced runs only).
    traced: Option<Duration>,
    end: Duration,
    outcome: ReuseOutcome,
    fingerprint: u64,
    report: EngineReport,
}

struct Run {
    frames: Vec<Frame>,
    /// Each served frame's input, kept for the correctness gate.
    inputs: Vec<PointSet>,
}

fn serve(s: &mut Stream, count: usize, traced: bool, out: &mut Outcome) -> Run {
    let churn = (s.frames.azimuth_steps() / 10).max(1);
    let mut run = Run { frames: Vec::with_capacity(count), inputs: Vec::with_capacity(count) };
    let t0 = Instant::now();
    for k in 0..count {
        match k % CYCLE {
            0 => s.frames.set_motion(EGO_STEP, churn),
            MOTION => s.frames.set_motion(0.0, 0),
            _ => {}
        }
        let due = PERIOD * k as u32;
        // Spin rather than sleep until the frame is due: a sleeping
        // thread wakes late by a host-dependent amount, and that lateness
        // would land in the frame's latency.
        while t0.elapsed() < due {
            std::hint::spin_loop();
        }
        let start = t0.elapsed();
        let frame = s.frames.next_frame();
        let generated = traced.then(|| t0.elapsed());
        out.attempted += 1;
        match s.tracer.run_frame(&s.net, &frame.points) {
            Ok((output, outcome)) => {
                let traced_at = traced.then(|| t0.elapsed());
                let report = s.engine.evaluate(&output.trace);
                let end = t0.elapsed();
                run.frames.push(Frame {
                    due,
                    start,
                    generated,
                    traced: traced_at,
                    end,
                    outcome,
                    fingerprint: output.trace.fingerprint(),
                    report,
                });
                run.inputs.push(frame.points);
            }
            Err(e) => {
                out.failed += 1;
                out.error(format!("frame {} failed to trace: {e}", frame.index));
            }
        }
    }
    run
}

/// What the gate's cold recomputation leaves for the per-layer metrics.
struct Cold {
    /// Cold `Executor::try_run` time of each frame, in ms.
    compile_ms: Vec<f64>,
    /// The first frame's cold trace.
    first: Option<NetworkTrace>,
}

/// The correctness gate: every frame, reused ones included, must match
/// a cold `Executor::try_run` of its input (trace fingerprint) and a
/// cold `Accelerator::run` of that trace (report, bit for bit).
fn gate(s: &Stream, run: &Run, corrupt: bool, out: &mut Outcome) -> Cold {
    let mut compile_ms = Vec::with_capacity(run.frames.len());
    let mut first = None;
    let mut reference: HashMap<u64, EngineReport> = HashMap::new();
    for (i, (frame, input)) in run.frames.iter().zip(&run.inputs).enumerate() {
        let t = Instant::now();
        let cold = Executor::new(ExecMode::TraceOnly, s.seed).try_run(&s.net, input);
        compile_ms.push(ms(t.elapsed()));
        let verdict = match cold {
            Err(e) => Err(format!("cold compile failed: {e}")),
            Ok(cold) => {
                let fingerprint = cold.trace.fingerprint();
                let report = reference.entry(fingerprint).or_insert_with(|| {
                    let mut r = s.engine.run(&cold.trace).to_engine_report();
                    if corrupt {
                        r.dram_bytes += 1;
                    }
                    r
                });
                let verdict = if fingerprint != frame.fingerprint {
                    Err(format!(
                        "trace fingerprint {:#x} != cold {fingerprint:#x}",
                        frame.fingerprint
                    ))
                } else if !same_report(report, &frame.report) {
                    Err(format!("report {:?} != cold {report:?}", frame.report))
                } else {
                    Ok(())
                };
                first.get_or_insert(cold.trace);
                verdict
            }
        };
        if let Err(why) = verdict {
            out.failed += 1;
            out.error(format!("stream frame {i} ({:?}): {why}", frame.outcome));
        }
    }
    Cold { compile_ms, first }
}

fn latencies(run: &Run) -> Vec<f64> {
    run.frames.iter().map(|f| ms(f.end - f.due)).collect()
}

fn throughput(run: &Run) -> f64 {
    let last = run.frames.last().map_or(Duration::ZERO, |f| f.end);
    run.frames.len() as f64 / last.as_secs_f64().max(f64::MIN_POSITIVE)
}

/// Runs the `lidar-stream` workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let points = ((POINTS as f64 * cfg.size) as usize).max(256);
    let seconds = if cfg.traced { cfg.seconds / 2.0 } else { cfg.seconds };
    let count = ((seconds / PERIOD.as_secs_f64()) as usize).max(4);
    out.meta("scale", cfg.size);
    out.meta("points_hint", points);
    out.meta("period_ms", ms(PERIOD));
    out.meta("frames", count);

    let mut setup_s = Vec::new();
    let mut reps = SetupReps::default();
    let prepared = loop {
        let t0 = Instant::now();
        let prepared = prepare(cfg.seed, points);
        setup_s.push(t0.elapsed().as_secs_f64());
        if reps.record(t0.elapsed()) {
            break prepared;
        }
    };
    let mut stream = match prepared {
        Ok(s) => s,
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.error(format!("stream set-up failed: {e}"));
            return out;
        }
    };

    let spawned_before = par::threads_spawned();
    let plain = serve(&mut stream, count, false, &mut out);
    let mut second = if cfg.traced { prepare(cfg.seed, points).ok() } else { None };
    let traced = second.as_mut().map(|s| serve(s, count, true, &mut out));
    let spawned = par::threads_spawned() - spawned_before;
    let peak_rss = crate::util::peak_rss_mb();

    gate(&stream, &plain, cfg.corrupt_reference, &mut out);
    let lat = latencies(&plain);
    let lat_tail = tail(&lat);
    let late = lat.iter().filter(|&&l| l > ms(PERIOD)).count();
    out.meta("slo_miss_rate", late as f64 / lat.len().max(1) as f64);
    out.meta("latency_tail_percentile", lat_tail.percentile);
    out.meta("latency_samples", lat_tail.samples);
    out.meta("latency_samples_beyond_tail", lat_tail.beyond);

    let (Some(s2), Some(traced)) = (second.as_ref(), traced.as_ref()) else {
        if cfg.traced {
            out.attempted += 1;
            out.failed += 1;
            out.error("traced stream set-up failed".into());
        }
        out.metric("throughput_rps", throughput(&plain), "1/s");
        out.metric("latency_p50_ms", median(&lat), "ms");
        out.metric("latency_tail_ms", lat_tail.value, "ms");
        out.metric("setup_s", median(&setup_s), "s");
        return out;
    };
    let cold = gate(s2, traced, cfg.corrupt_reference, &mut out);
    layer_metrics(&mut out, s2, &plain, traced, &cold, &cfg.scratch, spawned);
    out.metric("process.peak_rss_mb", peak_rss, "MB");
    out
}

fn layer_metrics(
    out: &mut Outcome,
    s: &Stream,
    plain: &Run,
    run: &Run,
    cold: &Cold,
    dir: &Path,
    spawned: usize,
) {
    let span = |a: Option<Duration>, b: Option<Duration>| match (a, b) {
        (Some(a), Some(b)) => ms(b.saturating_sub(a)),
        _ => 0.0,
    };
    let frames = &run.frames;
    let gen: Vec<f64> = frames.iter().map(|f| span(Some(f.start), f.generated)).collect();
    let trace: Vec<f64> = frames.iter().map(|f| span(f.generated, f.traced)).collect();
    let replay: Vec<f64> = frames.iter().map(|f| span(f.traced, Some(f.end))).collect();
    let busy: Vec<f64> = frames.iter().map(|f| ms(f.end - f.start)).collect();
    let waits: Vec<f64> = frames.iter().map(|f| ms(f.start.saturating_sub(f.due))).collect();
    // run_frame time of the compiled (or of the reused) frames.
    let trace_where = |compiled: bool| -> Vec<f64> {
        frames
            .iter()
            .zip(&trace)
            .filter(|(f, _)| (f.outcome == ReuseOutcome::Compiled) == compiled)
            .map(|(_, &t)| t)
            .collect()
    };
    let compiled_ms: Vec<f64> = frames
        .iter()
        .zip(&cold.compile_ms)
        .filter(|(f, _)| f.outcome == ReuseOutcome::Compiled)
        .map(|(_, &c)| c)
        .collect();
    let busy_sum: f64 = busy.iter().sum();
    let replay_sum: f64 = replay.iter().sum();
    let wall = frames.last().map_or(0.0, |f| ms(f.end));

    // The full accelerator does not serve the stream; the stage pass
    // replays the first frame's trace on it once, and times the
    // verifier and the artifact layer on the same trace.
    let mut full = 0.0;
    let mut stages = None;
    if let Some(trace) = &cold.first {
        let t = Instant::now();
        let _ = Accelerator::new(PointAccConfig::full()).run(trace);
        full = ms(t.elapsed());
        let a = artifact_stages(&TraceKey::new(s.net.name(), s.seed, 1.0), trace, dir);
        if !a.ok {
            out.error("stage pass: stream trace failed verify or the artifact round trip".into());
        }
        stages = Some(a);
    }
    let stage = |f: fn(&ArtifactStages) -> f64| stages.as_ref().map_or(0.0, f);

    out.metric("core.replay_ms.full", full, "ms");
    out.metric("core.replay_ms.edge", median(&replay), "ms");
    out.metric("core.replay_busy_s.full", full / 1e3, "s");
    out.metric("core.replay_busy_s.edge", replay_sum / 1e3, "s");
    out.metric("bench.frontend.shard_busy.full", 0.0, "share");
    out.metric("bench.frontend.shard_busy.edge", busy_sum / wall.max(f64::MIN_POSITIVE), "share");
    out.metric("bench.frontend.queue_wait_p50_ms", median(&waits), "ms");
    out.metric("bench.frontend.queue_wait_p99_ms", percentile(&waits, 99.0), "ms");
    let gaps: Vec<f64> = busy.iter().zip(&replay).map(|(b, r)| b - r).collect();
    out.metric("bench.worker.gap_ms", median(&gaps), "ms");
    out.metric("bench.cache.hit_ratio", 0.0, "share");
    out.metric("bench.cache.disk_hits", 0.0, "count");
    out.metric("bench.cache.compiles", 0.0, "count");
    out.metric("bench.cache.verify_rejects", 0.0, "count");
    out.metric("nn.exec.compile_ms", median(&compiled_ms), "ms");
    let reused = frames.iter().filter(|f| f.outcome != ReuseOutcome::Compiled).count();
    out.metric("nn.stream.reuse_ratio", reused as f64 / frames.len().max(1) as f64, "share");
    out.metric("nn.stream.frame_trace_ms.compiled", median(&trace_where(true)), "ms");
    out.metric("nn.stream.frame_trace_ms.reused", median(&trace_where(false)), "ms");
    out.metric("nn.verify_ms", stage(|a| a.verify), "ms");
    out.metric("nn.artifact.encode_ms", stage(|a| a.encode), "ms");
    out.metric("nn.artifact.decode_ms", stage(|a| a.decode), "ms");
    out.metric("nn.artifact.save_ms", stage(|a| a.save), "ms");
    out.metric("nn.artifact.load_ms", stage(|a| a.load), "ms");
    out.metric("nn.artifact.bytes", stage(|a| a.bytes), "bytes");
    out.metric("data.gen_ms", median(&gen), "ms");
    out.metric("geom.par.threads_spawned", spawned as f64, "count");

    let compiled_trace: f64 = trace_where(true).iter().sum();
    let traced_sum: f64 = gen.iter().sum::<f64>() + trace.iter().sum::<f64>() + replay_sum;
    let busy_sum = busy_sum.max(f64::MIN_POSITIVE);
    out.metric("trace.replay_share", replay_sum / busy_sum, "share");
    out.metric("trace.compile_share", compiled_trace / busy_sum, "share");
    out.metric("trace.coverage", traced_sum / busy_sum, "share");

    let (base_rps, traced_rps) = (throughput(plain), throughput(run));
    let (base_p50, traced_p50) = (median(&latencies(plain)), median(&latencies(run)));
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
    fn the_seed_alone_fixes_the_frames() {
        let first = |seed| {
            let mut s = prepare(seed, 1_000).expect("a small stream prepares");
            s.frames.next_frame().points
        };
        assert_eq!(first(1), first(1));
        assert_ne!(first(1), first(2));
    }
}
