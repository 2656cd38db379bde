//! `fleet-zoo`: tiny models make the kernel nearly free, so throughput *is*
//! the fleet layer's machinery — weighted-fair admission, shortest-queue
//! routing, the bind-handle LRU, the stats mutex, the per-request channel.
//!
//! One client thread keeps 64 requests in flight through a `FleetEngine` on
//! 2 fabrics × 1 replica, the (tenant, model) of each request taken in order
//! from the benchmark's copy of the fleet-zoo scenario (tiny_mlp:tiny_cnn
//! 4:1, tenants free:pro weighted 1:3). A traced run then sends the same
//! sequence to two dedicated 1-replica `ServeEngine`s — the same number of
//! worker threads — which is where "fleet ≥ dedicated" is decided.
//!
//! One operation is one request; latency is the worker-stamped
//! submit-to-completion time.

use crate::common::{closed_loop, kernel_us_per_sample, timed_setup, Args, Pool, Served};
use crate::report::{Outcome, RoundStats};
use crate::rng;
use crate::span::Recorder;
use fpsa::arch::{ArchitectureConfig, FabricCapacity};
use fpsa::core::compiler::PLACE_AND_ROUTE_BLOCK_LIMIT;
use fpsa::core::{CompileCache, Compiler};
use fpsa::fleet::{FleetConfig, FleetEngine, FleetPlacement, ModelRegistry};
use fpsa::nn::{zoo, ComputationalGraph, GraphParameters};
use fpsa::serve::{ServeConfig, ServeEngine};
use fpsa::sim::{Executor, Precision};
use fpsa::workload::{simulate_fleet, FleetPolicy, Scenario, Trace, TraceRecorder};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FLEET_ZOO: &str = include_str!("../../scenarios/fleet-zoo.scenario");
const ROUNDS: usize = 5;
const WARM_UP: f64 = 0.04;
const FABRICS: usize = 2;
const POOL: usize = 64;
const REFERENCE_CHECKS: usize = 16;

fn zoo_graph(name: &str) -> ComputationalGraph {
    match name {
        "tiny_mlp" => zoo::tiny_mlp(),
        "tiny_cnn" => zoo::tiny_cnn(),
        other => panic!("the benchmark's fleet scenario names no model {other:?}"),
    }
}

struct Setup {
    scenario: Scenario,
    trace: Trace,
    registry: ModelRegistry,
    placement: FleetPlacement,
    /// One pool per registered model, indexed by model id.
    pools: Vec<Pool>,
    executors: Vec<Executor>,
    graph_build_ms: f64,
    params_seed_ms: f64,
    register_ms: f64,
    pack_us: f64,
    record_per_s: f64,
    reference: (u64, u64),
}

fn setup(seed: u64) -> Setup {
    let mut scenario = Scenario::parse(FLEET_ZOO).expect("benchmark scenario parses");
    scenario.seed = rng::derive(seed, rng::STREAM_TRACE, 1);
    let start = Instant::now();
    let trace = TraceRecorder::new(&scenario)
        .record()
        .expect("benchmark scenario records");
    let record_per_s = trace.len() as f64 / start.elapsed().as_secs_f64();

    // A cache of the run's own: the process-wide one would turn the second
    // and third set-up into cache hits.
    let mut registry = ModelRegistry::with_cache(Compiler::fpsa(), Arc::new(CompileCache::new(4)));
    let (mut graph_build_ms, mut params_seed_ms, mut register_ms) = (0.0, 0.0, 0.0);
    for (index, entry) in scenario.models.iter().enumerate() {
        let start = Instant::now();
        let graph = zoo_graph(&entry.name);
        graph_build_ms += start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let params = GraphParameters::seeded(&graph, rng::params_seed(index as u64));
        params_seed_ms += start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        registry
            .register(&entry.name, graph, params, Precision::Float)
            .expect("tiny zoo models compile");
        register_ms += start.elapsed().as_secs_f64() * 1e3;
    }
    let capacity = FabricCapacity::within_block_budget(
        &ArchitectureConfig::fpsa(),
        PLACE_AND_ROUTE_BLOCK_LIMIT,
    );
    let start = Instant::now();
    let placement =
        FleetPlacement::pack(&registry, FABRICS, capacity).expect("the tiny zoo fits the fleet");
    let pack_us = start.elapsed().as_secs_f64() * 1e6;

    let mut reference = (0, 0);
    let (executors, pools): (Vec<Executor>, Vec<Pool>) = registry
        .models()
        .iter()
        .enumerate()
        .map(|(index, spec)| {
            let exec = spec
                .compiled
                .executor(&spec.graph, &spec.params, &spec.precision)
                .expect("registered models bind");
            let pool = Pool::build(
                &exec,
                rng::inputs(seed, index as u64, POOL, spec.graph.input_elements()),
            );
            let (attempted, failed) =
                pool.verify_float(&spec.graph, &spec.params, REFERENCE_CHECKS);
            reference.0 += attempted;
            reference.1 += failed;
            (exec, pool)
        })
        .unzip();
    Setup {
        scenario,
        trace,
        registry,
        placement,
        pools,
        executors,
        graph_build_ms,
        params_seed_ms,
        register_ms,
        pack_us,
        record_per_s,
        reference,
    }
}

impl Setup {
    fn tenant_weights(&self) -> Vec<(u16, u64)> {
        self.scenario
            .tenants
            .iter()
            .enumerate()
            .map(|(tenant, entry)| (tenant as u16, (entry.weight.round() as u64).max(1)))
            .collect()
    }

    fn fleet(&self) -> FleetEngine {
        let policy = self.scenario.policy;
        let mut config = FleetConfig::default()
            .with_replicas(policy.replicas)
            .with_batching(policy.max_batch, policy.window_us);
        for (tenant, weight) in self.tenant_weights() {
            config = config.with_tenant_weight(tenant, weight);
        }
        FleetEngine::start(self.registry.clone(), self.placement.clone(), config)
    }

    /// Request `i`: the trace's `i`-th (tenant, model), cycled, with the
    /// model's `i`-th pool entry.
    fn request(&self, i: usize) -> (u16, u16, usize) {
        let event = self.trace.events[i % self.trace.len()];
        (event.tenant, event.model, i % POOL)
    }

    fn drive_fleet(&self, rec: &mut Recorder, engine: &FleetEngine, duration: Duration) -> Served {
        closed_loop(
            rec,
            "fleet",
            duration,
            |i| {
                let (tenant, model, at) = self.request(i);
                engine.submit(
                    tenant,
                    model,
                    self.pools[usize::from(model)].inputs[at].clone(),
                )
            },
            |i| {
                let (_, model, at) = self.request(i);
                &self.pools[usize::from(model)].expected[at]
            },
        )
    }

    /// The same request sequence, each model on its own 1-replica engine.
    fn drive_dedicated(&self, rec: &mut Recorder, duration: Duration) -> Served {
        let policy = self.scenario.policy;
        let engines: Vec<ServeEngine> = self
            .registry
            .models()
            .iter()
            .map(|spec| {
                let exec = spec
                    .compiled
                    .executor(&spec.graph, &spec.params, &spec.precision)
                    .expect("registered models bind");
                ServeEngine::start(
                    exec,
                    ServeConfig {
                        replicas: policy.replicas,
                        max_batch: policy.max_batch,
                        batch_window_us: policy.window_us,
                    },
                )
            })
            .collect();
        let served = closed_loop(
            rec,
            "serve",
            duration,
            |i| {
                let (_, model, at) = self.request(i);
                engines[usize::from(model)]
                    .submit(self.pools[usize::from(model)].inputs[at].clone())
            },
            |i| {
                let (_, model, at) = self.request(i);
                &self.pools[usize::from(model)].expected[at]
            },
        );
        for engine in engines {
            engine.shutdown();
        }
        served
    }

    /// Mean per-request kernel time over the trace's model mix, µs:
    /// `run_batch_into` at the engine's batch size on each model.
    fn kernel_us_per_request(&self, duration: Duration) -> f64 {
        let batch = self.scenario.policy.max_batch.min(POOL);
        let per_model: Vec<f64> = self
            .executors
            .iter()
            .zip(&self.pools)
            .map(|(exec, pool)| kernel_us_per_sample(exec, &pool.inputs[..batch], duration / 2))
            .collect();
        let mut total = 0.0;
        for event in &self.trace.events {
            total += per_model[usize::from(event.model)];
        }
        total / self.trace.len() as f64
    }
}

pub fn run(args: &Args, rec: &mut Recorder, out: &mut Outcome) {
    let (mut setup, setup_s) = timed_setup(|| setup(args.seed));
    if args.corrupt {
        setup.pools[0].corrupt();
    }
    let workers = FABRICS * setup.scenario.policy.replicas;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |served: &Served| {
        attempted += served.attempted;
        failed += served.failed;
    };

    if !args.traced {
        let engine = setup.fleet();
        setup.drive_fleet(rec, &engine, args.slice(WARM_UP));
        let round = args.slice((1.0 - WARM_UP) / ROUNDS as f64);
        let mut rounds = RoundStats::default();
        for _ in 0..ROUNDS {
            let served = setup.drive_fleet(rec, &engine, round);
            tally(&served);
            rounds.rate(served.rps());
            rounds.latency_windows_whole_us(&served.engine_latency_us, served.latency_window());
        }
        engine.shutdown();
        out.end_to_end_from_rounds(setup_s, &rounds);
    } else {
        let kernel_us = setup.kernel_us_per_request(args.slice(0.05));

        let engine = setup.fleet();
        setup.drive_fleet(rec, &engine, args.slice(WARM_UP));
        let untraced = setup.drive_fleet(rec, &engine, args.slice(0.2));
        tally(&untraced);
        engine.shutdown();

        let engine = setup.fleet();
        let root = rec.open_root();
        let served = setup.drive_fleet(rec, &engine, args.slice(0.3));
        rec.close_root(root);
        tally(&served);
        let stats = engine.shutdown();

        let dedicated = setup.drive_dedicated(rec, args.slice(0.25));
        tally(&dedicated);

        out.set("fleet.register_ms", setup.register_ms);
        out.set("fleet.pack_us", setup.pack_us);
        out.set("fleet.submit_ns", rec.mean_ns("fleet", "submit"));
        out.set(
            "fleet.overhead_us_per_request",
            workers as f64 * 1e6 / untraced.rps() - kernel_us,
        );
        out.set("fleet.bind_cache_hits", stats.bind_cache.hits as f64);
        out.set("fleet.bind_cache_misses", stats.bind_cache.misses as f64);
        out.set("fleet.sheds", stats.sheds.iter().sum::<u64>() as f64);
        let tenant = |name: &str| {
            setup
                .scenario
                .tenants
                .iter()
                .position(|t| t.name == name)
                .and_then(|t| stats.tenants.get(t))
        };
        if let (Some(free), Some(pro)) = (tenant("free"), tenant("pro")) {
            out.set("fleet.tenant_p99_us.free", free.p99_latency_us() as f64);
            out.set("fleet.tenant_p99_us.pro", pro.p99_latency_us() as f64);
            out.set(
                "fleet.tenant_share.pro",
                pro.completed as f64 / stats.aggregate.completed.max(1) as f64,
            );
        }
        out.set("fleet.dedicated_rps", dedicated.rps());
        out.set("fleet.vs_dedicated_ratio", untraced.rps() / dedicated.rps());
        out.set("bench.trace_overhead_ratio", untraced.rps() / served.rps());
        out.set("bench.layer_self_share", rec.layer_self_share());

        // The virtual clock's prediction for the recorded trace, with the
        // scenario's hand-set `ServiceModel`.
        let policy = FleetPolicy {
            per_fabric: setup.scenario.policy,
            hosted: setup.placement.hosted.clone(),
            tenant_weights: setup.tenant_weights(),
        };
        let start = Instant::now();
        let replay = simulate_fleet(&setup.trace, &policy, setup.scenario.service);
        out.set(
            "workload.simulate_events_per_s",
            setup.trace.len() as f64 / start.elapsed().as_secs_f64(),
        );
        let virtual_rps = replay.aggregate.throughput_rps;
        out.set("workload.virtual_rps", virtual_rps);
        out.set(
            "workload.virtual_vs_measured_err.fleet-zoo",
            (virtual_rps - untraced.rps()).abs() / untraced.rps(),
        );
        out.set("workload.record_events_per_s", setup.record_per_s);
        out.set("nn.graph_build_ms", setup.graph_build_ms);
        out.set("nn.params_seed_ms", setup.params_seed_ms);
    }
    out.phase("requests", attempted, failed);
    out.phase("reference", setup.reference.0, setup.reference.1);
}
