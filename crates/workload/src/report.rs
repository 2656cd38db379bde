//! Per-scenario report rendering.
//!
//! The workload bench writes one markdown and one JSON report per checked-in
//! scenario; this module renders the *strings* and leaves filesystem
//! placement to the caller (the bench harness knows where artifacts live,
//! the library should not). The JSON is hand-rendered — the vendored serde
//! facade pretty-prints Rust debug structs, which is fine for inspection but
//! not for the CI job that parses `BENCH_workload.json` with a real JSON
//! parser — so every emitter here produces strict JSON by construction.

use crate::scenario::Scenario;
use crate::sim::VirtualReplay;
use crate::trace::Trace;

/// One scenario's rendered artifacts.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Human-readable summary table (`target/experiment-data/workload/<name>.md`).
    pub markdown: String,
    /// Strict JSON record (`target/experiment-data/workload/<name>.json`).
    pub json: String,
}

/// Format an `f64` as a strict-JSON number (no `inf`/`NaN` leakage: the
/// replay pipeline produces finite values by construction, but clamp anyway
/// so a report can never poison the CI parser).
pub fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.6}")
    } else {
        "0.0".to_string()
    }
}

/// Escape a string for a JSON literal (names come from scenario files).
pub fn json_str(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render one scenario's full virtual replay.
pub fn scenario_report(scenario: &Scenario, trace: &Trace, full: &VirtualReplay) -> ScenarioReport {
    let full_p50 = full.stats.latency_percentile_us(0.5);
    let full_p99 = full.stats.latency_percentile_us(0.99);

    let mut markdown = String::new();
    markdown.push_str(&format!("# Workload scenario `{}`\n\n", scenario.name));
    markdown.push_str(&format!(
        "{} requests, seed {}, arrival `{:?}`, trace fingerprint `{:016x}`.\n\n",
        trace.len(),
        scenario.seed,
        scenario.arrival,
        trace.fingerprint()
    ));
    markdown.push_str("| metric | virtual replay |\n");
    markdown.push_str("|---|---:|\n");
    markdown.push_str(&format!(
        "| throughput (req/s) | {:.0} |\n",
        full.throughput_rps
    ));
    markdown.push_str(&format!("| p50 latency (µs) | {full_p50} |\n"));
    markdown.push_str(&format!("| p99 latency (µs) | {full_p99} |\n"));
    markdown.push_str(&format!("| batches | {} |\n", full.stats.batches));

    let json = format!(
        "{{\n  \"scenario\": {},\n  \"seed\": {},\n  \"requests\": {},\n  \"trace_fingerprint\": {},\n  \"trace_duration_us\": {},\n  \"full\": {{\"throughput_rps\": {}, \"p50_us\": {full_p50}, \"p99_us\": {full_p99}, \"max_latency_us\": {}, \"makespan_us\": {}, \"batches\": {}, \"largest_batch\": {}}}\n}}\n",
        json_str(&scenario.name),
        scenario.seed,
        trace.len(),
        trace.fingerprint(),
        trace.duration_us(),
        json_f64(full.throughput_rps),
        full.stats.max_latency_us(),
        full.makespan_us,
        full.stats.batches,
        full.stats.largest_batch(),
    );
    ScenarioReport { markdown, json }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use crate::trace::TraceRecorder;

    fn report() -> ScenarioReport {
        let scenario = Scenario::steady("report \"quoted\"", "m", 17, 3_000);
        let trace = TraceRecorder::new(&scenario).record().unwrap();
        let full = simulate(&trace, scenario.policy, scenario.service);
        scenario_report(&scenario, &trace, &full)
    }

    #[test]
    fn json_is_strictly_balanced_and_escaped() {
        let r = report();
        let mut depth: i64 = 0;
        let mut in_string = false;
        let mut escaped = false;
        for c in r.json.chars() {
            if in_string {
                match (escaped, c) {
                    (true, _) => escaped = false,
                    (false, '\\') => escaped = true,
                    (false, '"') => in_string = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced json:\n{}", r.json);
        }
        assert_eq!(depth, 0, "unbalanced json:\n{}", r.json);
        assert!(r.json.contains("\"report \\\"quoted\\\"\""));
        assert!(r.json.contains("\"throughput_rps\""));
        assert!(!r.json.contains("inf") && !r.json.contains("NaN"));
    }

    #[test]
    fn markdown_carries_the_headline_numbers() {
        let r = report();
        assert!(r.markdown.contains("# Workload scenario"));
        assert!(r.markdown.contains("| throughput (req/s) |"));
        assert!(r.markdown.contains("| p99 latency (µs) |"));
    }

    #[test]
    fn json_f64_never_emits_non_finite_literals() {
        assert_eq!(json_f64(f64::INFINITY), "0.0");
        assert_eq!(json_f64(f64::NAN), "0.0");
        assert_eq!(json_f64(1.5), "1.500000");
    }
}
