//! All five workloads from one command, each in its own child process (so
//! peak memory and thread state are per workload): an untraced run for the
//! end-to-end metrics, then a traced run for the per-layer metrics. With
//! `--repeat 2` the whole suite runs twice on the same build and the two
//! sets of end-to-end medians are held against each metric's bound.

use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::Cli;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// `metric <name> <value> <unit>` lines of a child's output, by name.
type Metrics = BTreeMap<String, (f64, String)>;

struct ChildRun {
    metrics: Metrics,
    ok: bool,
}

fn run_child(cli: &Cli, workload: &str, traced: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .expect("the benchmark can start itself");
    let stdout = String::from_utf8_lossy(&output.stdout);
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let mut metrics = Metrics::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("metric ") {
            let mut fields = rest.split_whitespace();
            if let (Some(name), Some(value), Some(unit)) =
                (fields.next(), fields.next(), fields.next())
            {
                if let Ok(value) = value.parse() {
                    metrics.insert(name.to_string(), (value, unit.to_string()));
                }
            }
        } else if !line.starts_with('{') {
            println!("  {line}");
        }
    }
    ChildRun {
        metrics,
        ok: output.status.success(),
    }
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

pub fn run(cli: &Cli) -> ExitCode {
    let mut all_ok = true;
    // sets[repeat][workload] = that run's end-to-end metrics.
    let mut sets: Vec<BTreeMap<&str, Metrics>> = Vec::new();
    for repeat in 0..cli.repeat {
        let mut set = BTreeMap::new();
        for workload in WORKLOADS {
            println!("== set {} · {} · untraced", repeat + 1, workload.name);
            let untraced = run_child(cli, workload.name, false);
            println!("== set {} · {} · traced", repeat + 1, workload.name);
            let traced = run_child(cli, workload.name, true);
            all_ok &= untraced.ok && traced.ok;
            for (name, (value, unit)) in untraced.metrics.iter().chain(&traced.metrics) {
                println!("{:<16} {name:<52} {value:>16.4} {unit}", workload.name);
            }
            set.insert(workload.name, untraced.metrics);
        }
        sets.push(set);
    }

    if let [first, second, ..] = &sets[..] {
        println!("\n== repeatability: set 1 vs set 2, end-to-end");
        println!(
            "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7}",
            "workload", "metric", "set 1", "set 2", "worse by", "bound"
        );
        for workload in WORKLOADS {
            for metric in END_TO_END {
                let value = |set: &BTreeMap<&str, Metrics>| {
                    set.get(workload.name)
                        .and_then(|m| m.get(metric.name))
                        .map(|(v, _)| *v)
                };
                let (Some(a), Some(b)) = (value(first), value(second)) else {
                    all_ok = false;
                    continue;
                };
                let worse = worsening(metric.better, a, b);
                let within = worse <= metric.bound;
                all_ok &= within;
                println!(
                    "{:<16} {:<20} {a:>14.4} {b:>14.4} {:>8.1}% {:>6.0}%{}",
                    workload.name,
                    metric.name,
                    worse * 100.0,
                    metric.bound * 100.0,
                    if within { "" } else { "  <-- outside bound" }
                );
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
