//! Host wall-clock serving benchmark of the PointAcc reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <zoo-cold|zoo-warm|lidar-stream> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every metric is host wall-clock time, host memory or a count, taken
//! from outside the layer it measures. Simulated (modeled) accelerator
//! numbers only enter the correctness gate. `--trace 0` prints the
//! end-to-end metrics of an untraced run; `--trace 1` serves an untraced
//! and a traced half and prints the per-layer metrics. The last line of
//! standard output is one JSON object; the exit code is nonzero when the
//! correctness gate fails. See `README.md` beside this file.

mod lidar;
mod util;
mod zoo;

use std::path::PathBuf;
use std::process::ExitCode;

use util::Outcome;

/// Everything a workload run depends on.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Multiplier on every workload's input size: 1 for the benchmark
    /// proper; the tests shrink it.
    pub size: f64,
    /// Where the run keeps its artifact files; removed afterwards.
    pub scratch: PathBuf,
    /// Perturbs one cold reference report so the gate must fail (used
    /// by the tests to prove the gate has teeth).
    pub corrupt_reference: bool,
}

pub const WORKLOADS: [&str; 3] = ["zoo-cold", "zoo-warm", "lidar-stream"];

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("core.replay_ms.full", "ms"),
    ("core.replay_ms.edge", "ms"),
    ("core.replay_busy_s.full", "s"),
    ("core.replay_busy_s.edge", "s"),
    ("bench.frontend.shard_busy.full", "share"),
    ("bench.frontend.shard_busy.edge", "share"),
    ("bench.frontend.queue_wait_p50_ms", "ms"),
    ("bench.frontend.queue_wait_p99_ms", "ms"),
    ("bench.worker.gap_ms", "ms"),
    ("bench.cache.hit_ratio", "share"),
    ("bench.cache.disk_hits", "count"),
    ("bench.cache.compiles", "count"),
    ("bench.cache.verify_rejects", "count"),
    ("nn.exec.compile_ms", "ms"),
    ("nn.stream.reuse_ratio", "share"),
    ("nn.stream.frame_trace_ms.compiled", "ms"),
    ("nn.stream.frame_trace_ms.reused", "ms"),
    ("nn.verify_ms", "ms"),
    ("nn.artifact.encode_ms", "ms"),
    ("nn.artifact.decode_ms", "ms"),
    ("nn.artifact.save_ms", "ms"),
    ("nn.artifact.load_ms", "ms"),
    ("nn.artifact.bytes", "bytes"),
    ("data.gen_ms", "ms"),
    ("geom.par.threads_spawned", "count"),
    ("process.peak_rss_mb", "MB"),
    ("trace.replay_share", "share"),
    ("trace.compile_share", "share"),
    ("trace.coverage", "share"),
    ("trace.overhead_pct.throughput", "%"),
    ("trace.overhead_pct.latency_p50", "%"),
];

const USAGE: &str =
    "usage: perfbench --workload <zoo-cold|zoo-warm|lidar-stream> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&format!("expected one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let scratch =
        PathBuf::from(".perfbench_tmp").join(format!("{workload}-{}", std::process::id()));
    let config = Config {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        size: 1.0,
        scratch,
        corrupt_reference: false,
    };
    Ok((workload, config))
}

/// Runs one workload; the scratch directory is removed afterwards.
pub fn run_workload(workload: &str, cfg: &Config) -> Outcome {
    let mut out = match workload {
        "zoo-cold" => zoo::run(&zoo::COLD, cfg),
        "zoo-warm" => zoo::run(&zoo::WARM, cfg),
        _ => lidar::run(cfg),
    };
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    out.meta("workload", workload);
    out.meta("seed", cfg.seed);
    out.meta("seconds", cfg.seconds);
    out.meta("trace", u8::from(cfg.traced));
    out.meta("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()));
    out.meta("worker_threads", pointacc_geom::par::worker_threads());
    out.meta("commit", commit());
    out.meta("source_digest", source_digest());
    out
}

/// The commit of the working tree the benchmark runs in, or `unknown`
/// when the current directory is not the top of a git work tree.
fn commit() -> String {
    let output = std::process::Command::new("git")
        .args(["rev-parse", "--show-toplevel", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    let here = std::env::current_dir().and_then(std::fs::canonicalize).ok();
    let text =
        output.ok().filter(|o| o.status.success()).and_then(|o| String::from_utf8(o.stdout).ok());
    match text.as_deref().map(|t| t.lines().collect::<Vec<_>>()).as_deref() {
        Some([top, head]) if std::fs::canonicalize(top).ok() == here => head.to_string(),
        _ => "unknown".to_string(),
    }
}

/// FNV-1a over the repository's crate sources (`crates/**/*.rs` and
/// manifests), so a result names the code it measured even where no
/// commit is available.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for file in &files {
        let name = file.to_string_lossy();
        for b in name.bytes().chain(std::fs::read(file).unwrap_or_default()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Checks the declared metric set against what the run produced and
/// renders the result line. Any missing, mistyped or non-finite metric
/// is a finding, so the line can never claim a metric it did not
/// measure.
pub fn result_line(out: &mut Outcome, traced: bool) -> String {
    let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in declared {
        match out.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit && m.value.is_finite() => fields.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                m.value,
                json_str(unit)
            )),
            other => {
                out.error(format!("metric {name} ({unit}) not measured: {other:?}"));
                fields.push(format!(
                    "{}: {{\"value\": 0, \"unit\": {}}}",
                    json_str(name),
                    json_str(unit)
                ));
            }
        }
    }
    if out.attempted == 0 {
        out.attempted = 1;
        out.failed += 1;
        out.error("the run attempted no request or frame".into());
    }
    let correct = out.failed == 0 && out.errors.is_empty();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The zoo workloads serve from two shard workers, so the worker
    // pool gets the remaining cores: together they use no more threads
    // than there are cores. The stream serves from one thread and keeps
    // the default pool. Set before the pool starts; an explicit
    // POINTACC_THREADS wins.
    if workload.starts_with("zoo") && std::env::var_os("POINTACC_THREADS").is_none() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::set_var("POINTACC_THREADS", cores.saturating_sub(1).max(1).to_string());
    }
    let mut out = run_workload(&workload, &cfg);
    let line = result_line(&mut out, cfg.traced);
    for m in &out.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let meta: Vec<String> =
        out.meta.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    println!("meta {{{}}}", meta.join(", "));
    for e in &out.errors {
        eprintln!("correctness: {e}");
    }
    println!("{line}");
    if out.failed == 0 && out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests;
