//! The benchmark's contract: workloads, metric names, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root is generated
//! from these tables (`--print-manifest`) and the smoke test asserts the
//! checked-in file still matches, so there is one source of truth.

use std::fmt::Write as _;

pub const RUN_SECONDS: u64 = 20;
pub const DEFAULT_SEED: u64 = 20190413;

pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Library worker threads running at once in the workload's main phase.
    pub worker_threads: usize,
    /// Benchmark threads submitting work (the main thread).
    pub generator_threads: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "compile-zoo",
        why: "13 zoo configs through compile, cache and deploy on one thread: mapper dominates the ImageNet rows, placeroute the dup-64 rows, core's cache the hit pass; serving does nothing",
        worker_threads: 0,
        generator_threads: 1,
    },
    Workload {
        name: "exec-offline",
        why: "Executor::run_batch_into alone, 9 rows of model x Float/Integer x batch 1/8: sim kernels do all the work, so a Float gain that costs Integer or a batch-8 gain that costs batch-1 shows",
        worker_threads: 0,
        generator_threads: 1,
    },
    Workload {
        name: "serve-steady",
        why: "Open loop, Poisson 5000 req/s (~11% of saturation) on ServeEngine: latency from due time is set by the batch window and wake-ups, kernel speed barely moves it",
        worker_threads: 2,
        generator_threads: 1,
    },
    Workload {
        name: "serve-saturate",
        why: "Closed loop, 64 in flight on the same engine and model: batches are full and ~95% of a request is kernel, the opposite use of the serve layer from serve-steady",
        worker_threads: 2,
        generator_threads: 1,
    },
    Workload {
        name: "fleet-zoo",
        why: "Closed loop, 64 in flight of tiny models through FleetEngine: the kernel is ~nothing, so throughput is WFQ admission, routing, bind LRU, stats mutex and the per-request channel",
        worker_threads: 2,
        generator_threads: 1,
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload reports every one of these (see the README for what one
/// operation is on each workload).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "latency_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every workload reports every one of these on a traced run; a layer that
/// does no work on a workload reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // nn
    lo("nn.graph_build_ms", "ms"),
    lo("nn.params_seed_ms", "ms"),
    // synthesis
    lo("synthesis.busy_ms", "ms"),
    lo("synthesis.groups_out", "count"),
    // mapper
    lo("mapper.busy_ms", "ms"),
    lo("mapper.busy_ms.imagenet", "ms"),
    lo("mapper.blocks_out", "count"),
    lo("mapper.nets_out", "count"),
    // placeroute
    lo("placeroute.busy_ms", "ms"),
    lo("placeroute.moves", "count"),
    lo("placeroute.ns_per_move", "ns"),
    lo("placeroute.route_iterations", "count"),
    lo("placeroute.hpwl", "count"),
    // core
    lo("core.estimate_ms", "ms"),
    lo("core.pipeline_residual_ms", "ms"),
    lo("core.cache_key_us", "us"),
    lo("core.cache_miss_ms", "ms"),
    lo("core.cache_hit_us", "us"),
    hi("core.cache_hits", "count"),
    lo("core.cache_misses", "count"),
    // the compile stack as its user sees it (compile-zoo)
    lo("compile_cold_ms", "ms"),
    lo("compile_cached_ms", "ms"),
    lo("deploy_ms", "ms"),
    hi("modeled_throughput_sps", "1/s"),
    lo("modeled_latency_us", "us"),
    // sim: bind and first run
    lo("sim.bind_ms.float", "ms"),
    lo("sim.bind_ms.integer", "ms"),
    lo("sim.bind_ms.noisy", "ms"),
    lo("sim.first_run_us", "us"),
    // sim: kernels (exec-offline)
    hi("samples_per_s_float", "1/s"),
    hi("samples_per_s_integer", "1/s"),
    lo("sim.exec_us_per_sample.mlp-500-100.float.b1", "us"),
    lo("sim.exec_us_per_sample.mlp-500-100.float.b8", "us"),
    lo("sim.exec_us_per_sample.mlp-500-100.integer.b1", "us"),
    lo("sim.exec_us_per_sample.mlp-500-100.integer.b8", "us"),
    lo("sim.exec_us_per_sample.lenet.float.b1", "us"),
    lo("sim.exec_us_per_sample.lenet.float.b8", "us"),
    lo("sim.exec_us_per_sample.lenet.integer.b1", "us"),
    lo("sim.exec_us_per_sample.lenet.integer.b8", "us"),
    lo("sim.exec_us_per_sample.cifar-vgg17.float.b1", "us"),
    hi("sim.batch_gain.mlp-500-100.float", "ratio"),
    hi("sim.batch_gain.mlp-500-100.integer", "ratio"),
    hi("sim.batch_gain.lenet.float", "ratio"),
    hi("sim.batch_gain.lenet.integer", "ratio"),
    lo("sim.macs_per_sample.mlp-500-100", "count"),
    lo("sim.macs_per_sample.lenet", "count"),
    lo("sim.macs_per_sample.cifar-vgg17", "count"),
    lo("sim.weight_bytes.mlp-500-100", "count"),
    lo("sim.weight_bytes.lenet", "count"),
    lo("sim.weight_bytes.cifar-vgg17", "count"),
    hi("sim.gmacs_per_s.mlp-500-100.float.b8", "1/s"),
    hi("sim.gmacs_per_s.lenet.float.b8", "1/s"),
    lo("sim.lowered_instructions.mlp-500-100", "count"),
    lo("sim.lowered_instructions.lenet", "count"),
    lo("sim.lowered_instructions.cifar-vgg17", "count"),
    hi("sim.skipped_zero_rows.mlp-500-100", "count"),
    hi("sim.skipped_zero_rows.lenet", "count"),
    hi("sim.skipped_zero_rows.cifar-vgg17", "count"),
    // serve
    lo("serve.submit_ns", "ns"),
    hi("serve.mean_batch", "count"),
    lo("serve.batches", "count"),
    lo("serve.queue_depth_p99", "count"),
    lo("serve.rejected", "count"),
    lo("serve.engine_latency_p50_us", "us"),
    lo("serve.engine_latency_p99_us", "us"),
    lo("bench.generator_lag_p99_us", "us"),
    lo("serve.ladder_p99_us.r2500", "us"),
    lo("serve.ladder_p99_us.r10000", "us"),
    lo("serve.ladder_p99_us.r20000", "us"),
    hi("serve.max_rate_within_slo_rps", "1/s"),
    lo("serve.overhead_us_per_request", "us"),
    hi("serve.replica_scaling", "ratio"),
    hi("serve.lenet_saturated_rps", "1/s"),
    lo("serve.queue_us_p50", "us"),
    lo("serve.execute_us_p50", "us"),
    lo("serve.respond_us_p50", "us"),
    // shard
    lo("shard.compile_ms", "ms"),
    lo("shard.stages", "count"),
    lo("shard.chain_overhead_ratio", "ratio"),
    hi("shard.pipeline_rps", "1/s"),
    // fleet
    lo("fleet.register_ms", "ms"),
    lo("fleet.pack_us", "us"),
    lo("fleet.submit_ns", "ns"),
    lo("fleet.overhead_us_per_request", "us"),
    hi("fleet.bind_cache_hits", "count"),
    lo("fleet.bind_cache_misses", "count"),
    lo("fleet.sheds", "count"),
    lo("fleet.tenant_p99_us.free", "us"),
    lo("fleet.tenant_p99_us.pro", "us"),
    hi("fleet.tenant_share.pro", "ratio"),
    hi("fleet.dedicated_rps", "1/s"),
    hi("fleet.vs_dedicated_ratio", "ratio"),
    // workload
    hi("workload.record_events_per_s", "1/s"),
    hi("workload.simulate_events_per_s", "1/s"),
    hi("workload.virtual_rps", "1/s"),
    lo("workload.virtual_vs_measured_err.serve-saturate", "ratio"),
    lo("workload.virtual_vs_measured_err.fleet-zoo", "ratio"),
    // obs
    lo("obs.full_overhead_ratio", "ratio"),
    lo("obs.events_per_request", "count"),
    // the benchmark's own spans
    lo("bench.trace_overhead_ratio", "ratio"),
    hi("bench.layer_self_share", "ratio"),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The exact text of the root `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut j = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|s| json_str(s)).collect();
    let _ = writeln!(j, "  \"command\": [{}],", command.join(", "));
    let _ = writeln!(j, "  \"paths\": [\"benchmark\"],");
    let _ = writeln!(j, "  \"run_seconds\": {RUN_SECONDS},");
    j.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"name\": {}, \"why\": {}}}{}",
            json_str(w.name),
            json_str(w.why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    j.push_str("  ]\n}\n");
    j
}
