//! The FPSA stack's benchmark of record: five workloads over compile → bind
//! → execute → serve → fleet, end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one. See `README.md` beside this package.
//!
//! ```text
//! fpsa-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fpsa-benchmark [--seed <n>] [--seconds <s>] [--repeat <n>]   # all five
//! ```
//!
//! A single-workload run prints its phases, timings and metrics, then one
//! JSON object as its last line, and exits non-zero when any operation
//! failed or any output differed from its expected value.

mod common;
mod metrics;
mod report;
mod rng;
mod span;
mod stats;
mod suite;
mod workloads;

use common::Args;
use metrics::{DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use report::Outcome;
use span::Recorder;
use std::path::PathBuf;
use std::process::ExitCode;

pub struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
    corrupt: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: fpsa-benchmark [--workload <{}>] [--seed <u64>] [--seconds <s>] \
         [--trace <0|1>] [--repeat <n>] [--print-manifest]",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        traced: false,
        repeat: 1,
        corrupt: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()),
            "--seed" => {
                cli.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a u64"))
            }
            "--seconds" => {
                cli.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace" => {
                cli.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--repeat" => {
                cli.repeat = value()
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| usage("--repeat takes a count >= 1"))
            }
            // Test hook: flips one expected output so the correctness gate
            // must trip (see tests/smoke.rs).
            "--corrupt-expected" => cli.corrupt = true,
            "--print-manifest" => {
                print!("{}", metrics::manifest_json());
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    cli
}

/// `<target dir>/benchmark-traces`, next to the profile directory the
/// running executable was built into.
fn trace_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("benchmark-traces")
}

/// FNV-1a over the run's rendered results, as `fpsa_bench::run_id` does:
/// the same results always carry the same id.
fn run_id(payload: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in payload.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    format!("fnv1a-{hash:016x}")
}

fn run_workload(cli: &Cli, name: &str) -> ExitCode {
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == name) else {
        usage(&format!("unknown workload {name}"));
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = workload.worker_threads + workload.generator_threads;
    if threads > host_cores + 1 {
        eprintln!(
            "error: {name} runs {threads} threads at once; this host has {host_cores} cores \
             and the benchmark refuses more than cores + 1"
        );
        return ExitCode::from(3);
    }

    let args = Args {
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        corrupt: cli.corrupt,
    };
    let mut rec = Recorder::new();
    let mut out = Outcome::default();
    match name {
        "compile-zoo" => workloads::compile_zoo::run(&args, &mut rec, &mut out),
        "exec-offline" => workloads::exec_offline::run(&args, &mut rec, &mut out),
        "serve-steady" => workloads::serve_steady::run(&args, &mut rec, &mut out),
        "serve-saturate" => workloads::serve_saturate::run(&args, &mut rec, &mut out),
        "fleet-zoo" => workloads::fleet_zoo::run(&args, &mut rec, &mut out),
        _ => unreachable!("WORKLOADS lists only these"),
    }
    if !cli.traced {
        out.set("peak_rss_mb", common::peak_rss_mb());
    }

    let text = out.render_text(cli.traced);
    println!(
        "envelope workload={name} seed={} seconds={} trace={} host_cores={host_cores} \
         worker_threads={} generator_threads={} rustc=\"{}\" profile={} run_id={}",
        cli.seed,
        cli.seconds,
        u8::from(cli.traced),
        workload.worker_threads,
        workload.generator_threads,
        env!("FPSA_BENCH_RUSTC"),
        env!("FPSA_BENCH_PROFILE"),
        run_id(&text)
    );
    print!("{text}");
    if cli.traced {
        let path = trace_dir().join(format!("trace-{name}.json"));
        match rec.write_chrome_trace(&path) {
            Ok(()) => println!("trace {} spans -> {}", rec.len(), path.display()),
            Err(e) => eprintln!("note: could not write {}: {e}", path.display()),
        }
        for (layer, ns) in rec.layer_self_ns() {
            println!("self-time {layer} {:.3} ms", ns as f64 / 1e6);
        }
    }
    println!("{}", out.render_json(cli.traced));
    if out.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = parse_cli();
    match &cli.workload {
        Some(name) => run_workload(&cli, name),
        None => suite::run(&cli),
    }
}
