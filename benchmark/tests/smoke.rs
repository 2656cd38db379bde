//! Every workload at ~1% size, through the real executable: the metric
//! names printed match `BENCHMARK.json` exactly, nothing fails, and a
//! deliberately corrupted expected output trips the correctness gate.

use std::path::Path;
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_fpsa-benchmark");
const WORKLOADS: [&str; 5] = [
    "compile-zoo",
    "exec-offline",
    "serve-steady",
    "serve-saturate",
    "fleet-zoo",
];
/// The exit code of a workload refused for lack of cores (see `main.rs`).
const REFUSED: i32 = 3;

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("the benchmark executable starts")
}

fn manifest() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `"name"` values inside the manifest's `section` array.
fn manifest_names(manifest: &str, section: &str) -> Vec<String> {
    let start = manifest
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("manifest has no {section}"));
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
        .collect()
}

/// `(name, value, unit)` of every metric in a run's last output line.
fn result_metrics(line: &str) -> Vec<(String, f64, String)> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics key") + 12..];
    metrics
        .split("\"unit\": \"")
        .collect::<Vec<_>>()
        .windows(2)
        .map(|pair| {
            let head = pair[0];
            let name_end = head.rfind("\": {\"value\": ").expect("value key");
            let name_start = head[..name_end].rfind('"').expect("name opens") + 1;
            let value = head[name_end + 13..]
                .trim_end_matches(", ")
                .parse()
                .unwrap_or_else(|e| panic!("value in {head:?}: {e}"));
            let unit = pair[1][..pair[1].find('"').expect("unit closes")].to_string();
            (head[name_start..name_end].to_string(), value, unit)
        })
        .collect()
}

fn last_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn checked_in_manifest_is_what_the_benchmark_generates() {
    let generated = run(&["--print-manifest"]);
    assert!(generated.status.success());
    assert_eq!(
        String::from_utf8_lossy(&generated.stdout),
        manifest(),
        "BENCHMARK.json is stale: regenerate it with --print-manifest"
    );
}

fn check_workload(workload: &str) {
    let manifest = manifest();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let output = run(&[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.15",
            "--trace",
            trace,
        ]);
        if output.status.code() == Some(REFUSED) {
            eprintln!("{workload}: refused on this host, skipped");
            return;
        }
        let line = last_line(&output);
        assert!(
            output.status.success(),
            "{workload} --trace {trace} failed: {line}\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
        let metrics = result_metrics(&line);
        let names: Vec<String> = metrics.iter().map(|(name, _, _)| name.clone()).collect();
        assert_eq!(
            names,
            manifest_names(&manifest, section),
            "{workload} {section}"
        );
        for (name, value, _) in &metrics {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "metric name {name:?}"
            );
            assert!(value.is_finite(), "{name} = {value}");
            if section == "end_to_end" {
                assert!(*value > 0.0, "{workload}: end-to-end {name} = {value}");
            }
        }
    }

    let corrupted = run(&[
        "--workload",
        workload,
        "--seconds",
        "0.15",
        "--corrupt-expected",
    ]);
    assert!(
        !corrupted.status.success(),
        "{workload}: a corrupted expected output must fail the run"
    );
    assert!(
        last_line(&corrupted).starts_with("{\"correct\": false"),
        "{}",
        last_line(&corrupted)
    );
}

#[test]
fn compile_zoo_reports_every_metric_and_checks_outputs() {
    check_workload(WORKLOADS[0]);
}

#[test]
fn exec_offline_reports_every_metric_and_checks_outputs() {
    check_workload(WORKLOADS[1]);
}

#[test]
fn serve_steady_reports_every_metric_and_checks_outputs() {
    check_workload(WORKLOADS[2]);
}

#[test]
fn serve_saturate_reports_every_metric_and_checks_outputs() {
    check_workload(WORKLOADS[3]);
}

#[test]
fn fleet_zoo_reports_every_metric_and_checks_outputs() {
    check_workload(WORKLOADS[4]);
}

#[test]
fn manifest_lists_exactly_the_five_workloads() {
    assert_eq!(manifest_names(&manifest(), "workloads"), WORKLOADS);
}
