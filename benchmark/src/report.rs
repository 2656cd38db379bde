//! What one workload run produces, and how it is printed.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quantile, quantile_of_whole};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Attempted/failed counts of one phase of a run.
pub struct Phase {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

/// Sample count and quartiles of one timing.
pub struct Timing {
    pub name: String,
    pub unit: &'static str,
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Throughput of each measured round and latency percentiles of each
/// measured window. A window is about 0.1 s of operations, short enough
/// that a burst of noise from the host's neighbours spoils few windows;
/// the reported percentile is the median over the windows, which the
/// spoiled ones do not move.
#[derive(Default)]
pub struct RoundStats {
    per_s: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
}

impl RoundStats {
    pub fn rate(&mut self, per_s: f64) {
        self.per_s.push(per_s);
    }

    /// One window's latencies.
    pub fn latencies(&mut self, latency_us: &[f64]) {
        self.p50_us.push(quantile(latency_us, 0.5));
        self.p99_us.push(quantile(latency_us, 0.99));
    }

    /// Latencies in completion order: one window per full `per_window` of
    /// them, or a single window when there are fewer.
    pub fn latency_windows(&mut self, latency_us: &[f64], per_window: usize) {
        self.windows(latency_us, per_window, quantile);
    }

    /// [`RoundStats::latency_windows`] for latencies stamped in whole µs.
    pub fn latency_windows_whole_us(&mut self, latency_us: &[f64], per_window: usize) {
        self.windows(latency_us, per_window, quantile_of_whole);
    }

    fn windows(&mut self, latency_us: &[f64], per_window: usize, q: fn(&[f64], f64) -> f64) {
        let per_window = per_window.min(latency_us.len()).max(1);
        for window in latency_us.chunks_exact(per_window) {
            self.p50_us.push(q(window, 0.5));
            self.p99_us.push(q(window, 0.99));
        }
    }

    /// Median over the windows of each window's median latency.
    pub fn p50_us(&self) -> f64 {
        median(&self.p50_us)
    }

    /// Median over the windows of each window's 99th-percentile latency.
    pub fn p99_us(&self) -> f64 {
        median(&self.p99_us)
    }
}

#[derive(Default)]
pub struct Outcome {
    metrics: BTreeMap<String, f64>,
    pub phases: Vec<Phase>,
    pub timings: Vec<Timing>,
}

impl Outcome {
    /// Record a metric. The name must be one the manifest lists.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "metric {name} is not in the manifest"
        );
        self.metrics.insert(name.to_string(), value);
    }

    /// The end-to-end metrics of a workload measured in rounds: each is the
    /// median over the rounds (for a latency, over the windows), whose
    /// values go on the `timing` lines.
    pub fn end_to_end_from_rounds(&mut self, setup_s: f64, rounds: &RoundStats) {
        self.set("setup_s", setup_s);
        self.set("throughput_per_s", median(&rounds.per_s));
        self.set("latency_p50_us", rounds.p50_us());
        self.set("latency_p99_us", rounds.p99_us());
        self.timing("round throughput", "1/s", &rounds.per_s);
        self.timing("window latency p50", "us", &rounds.p50_us);
        self.timing("window latency p99", "us", &rounds.p99_us);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Count a phase's operations: `failed` covers errors, refusals, sheds
    /// and outputs that did not match their expected value.
    pub fn phase(&mut self, name: &'static str, attempted: u64, failed: u64) {
        self.phases.push(Phase {
            name,
            attempted,
            failed,
        });
    }

    /// Record the distribution behind a reported timing.
    pub fn timing(&mut self, name: impl Into<String>, unit: &'static str, samples: &[f64]) {
        self.timings.push(Timing {
            name: name.into(),
            unit,
            n: samples.len(),
            q1: quantile(samples, 0.25),
            median: quantile(samples, 0.5),
            q3: quantile(samples, 0.75),
        });
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// The metric set of this run: every end-to-end metric on an untraced
    /// run, every per-layer metric (0 where the layer did nothing) on a
    /// traced one.
    fn listed(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        if traced {
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, self.get(m.name).unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let value = self
                        .get(m.name)
                        .unwrap_or_else(|| panic!("workload did not report {}", m.name));
                    (m.name, m.unit, value)
                })
                .collect()
        }
    }

    /// Human-readable lines: phases, timings, then `metric <name> <value>
    /// <unit>` for every metric of the run.
    pub fn render_text(&self, traced: bool) -> String {
        let mut t = String::new();
        for p in &self.phases {
            let _ = writeln!(
                t,
                "phase {} attempted={} succeeded={} failed={}",
                p.name,
                p.attempted,
                p.attempted - p.failed,
                p.failed
            );
        }
        for s in &self.timings {
            let _ = writeln!(
                t,
                "timing {} n={} q1={:.4} median={:.4} q3={:.4} {}",
                s.name, s.n, s.q1, s.median, s.q3, s.unit
            );
        }
        for (name, unit, value) in self.listed(traced) {
            let _ = writeln!(t, "metric {name} {value} {unit}");
        }
        t
    }

    /// The run's last output line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed`, `metrics`.
    pub fn render_json(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .listed(traced)
            .into_iter()
            .map(|(name, unit, value)| {
                assert!(value.is_finite(), "metric {name} is not finite");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed() == 0,
            self.attempted(),
            self.failed(),
            metrics.join(", ")
        )
    }
}
