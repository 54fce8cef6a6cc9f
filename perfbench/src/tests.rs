//! Tiny-scale runs of every workload through the same entry point the
//! command uses.

use super::*;

fn tiny(name: &str, seed: u64, traced: bool, corrupt_reference: bool) -> Config {
    Config {
        seed,
        seconds: 1.0,
        traced,
        size: 0.05,
        scratch: PathBuf::from(".perfbench_tmp")
            .join(format!("test-{name}-{}", std::process::id())),
        corrupt_reference,
    }
}

fn names(out: &Outcome) -> Vec<(String, &'static str)> {
    out.metrics.iter().map(|m| (m.name.clone(), m.unit)).collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for traced in [false, true] {
            let mut out =
                run_workload(workload, &tiny(&format!("{workload}-{traced}"), 7, traced, false));
            let line = result_line(&mut out, traced);
            assert!(out.errors.is_empty() && out.failed == 0, "{workload}: {:?}", out.errors);
            assert!(line.starts_with("{\"correct\": true, "), "{line}");
            let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
            for (name, unit) in declared {
                let field = format!("\"{name}\": {{\"value\": ");
                assert!(line.contains(&field), "{workload} lacks {name}: {line}");
                assert!(out.metrics.iter().any(|m| m.name == *name && m.unit == *unit));
            }
            assert_eq!(line.matches("\"value\"").count(), declared.len(), "{line}");
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for workload in WORKLOADS {
        let out = run_workload(workload, &tiny(&format!("{workload}-nonzero"), 3, false, false));
        for m in &out.metrics {
            assert!(m.value > 0.0, "{workload}: {} = {}", m.name, m.value);
        }
    }
}

#[test]
fn a_corrupted_reference_report_trips_the_gate() {
    for workload in WORKLOADS {
        let mut out = run_workload(workload, &tiny(&format!("{workload}-corrupt"), 5, false, true));
        let line = result_line(&mut out, false);
        assert!(out.failed > 0, "{workload}: the gate passed a corrupted reference");
        assert!(line.starts_with("{\"correct\": false, "), "{line}");
    }
}

#[test]
fn changing_the_seed_keeps_the_metric_names() {
    for workload in WORKLOADS {
        let a = run_workload(workload, &tiny(&format!("{workload}-seed-a"), 11, true, false));
        let b = run_workload(workload, &tiny(&format!("{workload}-seed-b"), 12, true, false));
        assert_eq!(names(&a), names(&b), "{workload}");
    }
}

#[test]
fn benchmark_json_declares_the_same_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    for workload in WORKLOADS {
        assert!(json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")), "{workload}");
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = json.matches("{\"name\": ").count();
    assert_eq!(declared, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
}

#[test]
fn arguments_are_checked() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let (w, c) = parse_args(&args("--workload zoo-warm --seed 9 --seconds 10 --trace 1")).unwrap();
    assert_eq!((w.as_str(), c.seed, c.seconds, c.traced), ("zoo-warm", 9, 10.0, true));
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload zoo-cold --seed x --seconds 1 --trace 0",
        "--workload zoo-cold --seed 1 --seconds 0 --trace 0",
        "--workload zoo-cold --seed 1 --seconds 1 --trace 2",
        "--workload zoo-cold --seed 1 --seconds 1",
        "--workload zoo-cold --seed 1 --seconds 1 --trace",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "{bad}");
    }
}
