//! Every workload runs end to end on its first three jobs, untraced and
//! traced, and prints every metric of `BENCHMARK.json` with its unit.

use std::process::Command;

use sgmap_benchmark::spec::{BenchSpec, MetricSpec};
use sgmap_benchmark::workloads::WORKLOADS;
use sgmap_sweep::JsonValue;

fn smoke(workload: &str, trace: bool, metrics: &[MetricSpec]) {
    let output = Command::new(env!("CARGO_BIN_EXE_sgmap-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--max-jobs", "3", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace}: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let (last, metric_lines) = lines.split_last().expect("some output");
    for m in metrics {
        let prefix = format!("{workload} {} ", m.name);
        let line = metric_lines
            .iter()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("{workload} trace={trace}: no line for {}", m.name));
        assert!(
            line.ends_with(&format!(" {}", m.unit)),
            "{workload}: {line:?} lacks unit {}",
            m.unit
        );
    }
    let result = JsonValue::parse(last).expect("the last line is JSON");
    assert!(
        matches!(result.get("correct"), Some(JsonValue::Bool(true))),
        "{last}"
    );
    assert_eq!(
        result.get("failed").and_then(JsonValue::as_u64),
        Some(0),
        "{last}"
    );
    assert!(
        result.get("attempted").and_then(JsonValue::as_u64) >= Some(3),
        "{last}"
    );
    let reported = result
        .get("metrics")
        .and_then(JsonValue::as_object)
        .unwrap();
    assert_eq!(reported.len(), metrics.len(), "{last}");
    if !trace {
        let success = result
            .get("metrics")
            .and_then(|m| m.get("success_ratio"))
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64);
        assert_eq!(success, Some(1.0), "{last}");
    }
}

#[test]
fn every_workload_prints_every_metric_and_fails_nothing() {
    let spec = BenchSpec::load().unwrap();
    assert_eq!(spec.workloads, WORKLOADS);
    std::thread::scope(|scope| {
        for workload in WORKLOADS {
            let spec = &spec;
            scope.spawn(move || {
                smoke(workload, false, &spec.end_to_end);
                smoke(workload, true, &spec.per_layer);
            });
        }
    });
}

#[test]
fn bad_arguments_exit_with_an_error_and_no_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "paper_apps"][..],
        &["--workload", "paper_apps", "--seed", "1", "--trace", "2"][..],
        &["compare", "only-one"][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_sgmap-benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
