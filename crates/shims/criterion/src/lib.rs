//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so this in-tree shim
//! provides the benchmark-definition surface the workspace's benches
//! use — [`Criterion`], [`BenchmarkGroup`], [`BenchmarkId`], `iter`,
//! [`Throughput`], and the [`criterion_group!`] / [`criterion_main!`]
//! macros — backed by a plain wall-clock timing loop (median of
//! samples) instead of criterion's statistical machinery.
//!
//! Beyond API parity, the shim adds
//! [`BenchmarkGroup::report_metric`]: a line for metrics the bench
//! computed itself, printed alongside the wall-clock rows. The caller's
//! unit says what the number is: a measured wall-clock ratio, or an
//! engine's *simulated* points/s from `EngineReport`, which callers
//! label "modeled".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::hint::black_box;
use std::time::Instant;

/// Identifier for one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id combining a function name and a parameter.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { label: format!("{}/{}", name.into(), parameter) }
    }

    /// An id from a parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId { label: parameter.to_string() }
    }
}

/// Timing loop handed to benchmark closures.
pub struct Bencher {
    samples: usize,
    median_ns: f64,
}

impl Bencher {
    /// Times `f`, recording the median over the configured sample count.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // Warm-up, and a rough scale estimate to size the inner loop.
        let start = Instant::now();
        black_box(f());
        let once_ns = start.elapsed().as_nanos().max(1) as f64;
        // Target ~5 ms per sample so fast kernels are measurable.
        let inner = ((5e6 / once_ns).ceil() as usize).clamp(1, 10_000);
        let mut times: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..inner {
                black_box(f());
            }
            times.push(t.elapsed().as_nanos() as f64 / inner as f64);
        }
        times.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN timings"));
        self.median_ns = times[times.len() / 2];
    }
}

/// Work performed per benchmark iteration; when set on a group, each
/// wall-clock row also reports a derived rate (elements/s or bytes/s).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Throughput {
    /// Iterations process this many logical elements (points, requests…).
    Elements(u64),
    /// Iterations move this many bytes.
    Bytes(u64),
}

/// A named set of related benchmarks sharing a sample count.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declares the per-iteration work; subsequent benchmarks in the
    /// group report a wall-clock rate next to the time per iteration.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        let id: BenchmarkId = id.into();
        let mut b = Bencher { samples: self.sample_size, median_ns: 0.0 };
        f(&mut b);
        report(&self.name, &id.label, b.median_ns, self.throughput);
        self
    }

    /// Runs one benchmark that borrows an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher { samples: self.sample_size, median_ns: 0.0 };
        f(&mut b, input);
        report(&self.name, &id.label, b.median_ns, self.throughput);
        self
    }

    /// Prints a metric the benchmark computed itself (no timing loop).
    /// The line carries `unit` verbatim, so the unit says whether the
    /// number is modeled ("points/s (modeled)") or measured
    /// ("x (wall-clock)").
    pub fn report_metric(
        &mut self,
        id: impl Into<BenchmarkId>,
        value: f64,
        unit: &str,
    ) -> &mut Self {
        let id: BenchmarkId = id.into();
        let name =
            if self.name.is_empty() { id.label } else { format!("{}/{}", self.name, id.label) };
        println!("{name:<40} {value:>14.1} {unit}");
        self
    }

    /// Ends the group (parity with criterion's API; nothing to flush).
    pub fn finish(&mut self) {}
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { label: s.to_string() }
    }
}

/// Entry point owning benchmark execution (subset of `criterion::Criterion`).
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup { name: name.into(), sample_size: 10, throughput: None }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        self.benchmark_group("").bench_function(name, f);
        self
    }
}

fn report(group: &str, label: &str, median_ns: f64, throughput: Option<Throughput>) {
    let name = if group.is_empty() { label.to_string() } else { format!("{group}/{label}") };
    let time = if median_ns >= 1e6 {
        format!("{:>10.3} ms/iter", median_ns / 1e6)
    } else if median_ns >= 1e3 {
        format!("{:>10.3} us/iter", median_ns / 1e3)
    } else {
        format!("{median_ns:>10.0} ns/iter")
    };
    let rate = match throughput {
        Some(Throughput::Elements(n)) => {
            format!("  {:>10.3} Melem/s", n as f64 / median_ns.max(1.0) * 1e3)
        }
        Some(Throughput::Bytes(n)) => {
            format!("  {:>10.3} MiB/s", n as f64 / median_ns.max(1.0) * 1e9 / (1024.0 * 1024.0))
        }
        None => String::new(),
    };
    println!("{name:<40} {time}{rate}");
}

/// Bundles benchmark functions into one runner function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Defines `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("t");
        g.sample_size(3);
        let mut ran = 0u64;
        g.bench_function("count", |b| b.iter(|| ran = ran.wrapping_add(1)));
        g.finish();
        assert!(ran > 0);
    }

    #[test]
    fn throughput_and_metric_reporting_do_not_disturb_timing() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("rates");
        g.sample_size(2).throughput(Throughput::Elements(1024));
        let mut ran = 0u64;
        g.bench_function("elems", |b| b.iter(|| ran = ran.wrapping_add(1)));
        g.throughput(Throughput::Bytes(4096));
        g.bench_function("bytes", |b| b.iter(|| ran = ran.wrapping_add(1)));
        // A self-computed metric needs no timing loop at all.
        g.report_metric(BenchmarkId::new("modeled", "engine"), 123456.7, "points/s (modeled)");
        g.finish();
        assert!(ran > 0);
    }
}
