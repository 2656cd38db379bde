//! `compile-zoo`: the compile stack does all the work and serving none.
//!
//! 13 configs — {MLP-500-100, LeNet, CIFAR-VGG17} × duplication {1, 16, 64}
//! with full place & route, plus the four ImageNet models through the
//! analytic fallback — so every compile layer has rows where it is most of
//! the time (mapper on the ImageNet rows, placeroute on the dup-64 rows,
//! core's cache on the hit pass) and rows where it is nothing.
//!
//! One round, on one thread: a cold `Compiler::compile` of all 13; graph →
//! first logits for the three dup-1 models; hit passes through a
//! `CompileCache` the run filled once. A traced round also calls the four
//! pipeline stages one by one for the per-layer split.
//!
//! One operation here is one cold compile (`throughput_per_s`) and one pass
//! of 13 cache hits (`latency_*`). Cold compiles are counted per round and
//! hit passes in windows of 0.1 s, and each metric is the median over them:
//! a neighbour's burst on the host lengthens the tail of the windows it
//! falls in, and the median window has none. Over twelve runs on the 2-core
//! host the run-pooled 99th percentile spread 25% of its median (quartile to
//! quartile); the median window's, on the same passes, 2.4%.

use crate::common::{close_to, timed_setup, Args};
use crate::report::{Outcome, RoundStats};
use crate::rng;
use crate::span::Recorder;
use crate::stats::{geomean, median};
use fpsa::core::pipeline::{
    CompileStage, EstimateStage, MapStage, PlaceRouteStage, SynthesizeStage,
};
use fpsa::core::{CompileCache, CompileKey, CompiledModel, Compiler};
use fpsa::device::variation::{CellVariation, WeightScheme};
use fpsa::nn::{zoo, ComputationalGraph, GraphParameters, QuantizationPlan, Reference};
use fpsa::sim::Precision;
use std::time::{Duration, Instant};

/// Hit passes per round, in windows short enough (~0.1 s) that a burst of
/// host noise spoils few of them.
const HIT_WINDOWS_PER_ROUND: usize = 8;
const HIT_PASSES_PER_WINDOW: usize = 250;
const MIN_ROUNDS: usize = 2;

struct Config {
    graph: usize,
    compiler: Compiler,
    imagenet: bool,
}

struct Deploy {
    graph: usize,
    params: GraphParameters,
    input: Vec<f32>,
    /// `Reference::logits(input)` — never the executor under test.
    expected: Vec<f32>,
}

struct Setup {
    graphs: Vec<ComputationalGraph>,
    configs: Vec<Config>,
    deploys: Vec<Deploy>,
    /// Integer plan for the MLP-500-100 bind-time row.
    mlp_plan: QuantizationPlan,
    graph_build_ms: f64,
    params_seed_ms: f64,
}

fn setup(seed: u64) -> Setup {
    let start = Instant::now();
    let graphs = vec![
        zoo::mlp_500_100(),
        zoo::lenet(),
        zoo::cifar_vgg17(),
        zoo::alexnet(),
        zoo::vgg16(),
        zoo::googlenet(),
        zoo::resnet152(),
    ];
    let graph_build_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut configs = Vec::new();
    for graph in 0..3 {
        for duplication in [1, 16, 64] {
            configs.push(Config {
                graph,
                compiler: Compiler::fpsa().with_duplication(duplication),
                imagenet: false,
            });
        }
    }
    for graph in 3..7 {
        configs.push(Config {
            graph,
            compiler: Compiler::fpsa().with_analytic_fallback(),
            imagenet: true,
        });
    }

    let mut params_seed_ms = 0.0;
    let deploys: Vec<Deploy> = (0..3)
        .map(|graph| {
            let start = Instant::now();
            let params = GraphParameters::seeded(&graphs[graph], rng::params_seed(graph as u64));
            params_seed_ms += start.elapsed().as_secs_f64() * 1e3;
            let input = rng::inputs(seed, graph as u64, 1, graphs[graph].input_elements())
                .pop()
                .expect("one input");
            let expected = Reference::new(&graphs[graph], &params)
                .and_then(|r| r.logits(&input))
                .expect("reference forward pass");
            Deploy {
                graph,
                params,
                input,
                expected,
            }
        })
        .collect();
    let calibration = rng::inputs(seed, 100, 4, graphs[0].input_elements());
    let mlp_plan = QuantizationPlan::calibrate(&graphs[0], &deploys[0].params, &calibration)
        .expect("MLP-500-100 calibrates");
    Setup {
        graphs,
        configs,
        deploys,
        mlp_plan,
        graph_build_ms,
        params_seed_ms,
    }
}

/// What the deterministic compiler must reproduce exactly on every compile
/// of a config: the simulated performance and the physical-design counts.
#[derive(PartialEq, Clone, Debug)]
struct Fingerprint {
    modeled_throughput_sps: f64,
    modeled_latency_us: f64,
    hpwl: f64,
    moves: u64,
    route_iterations: usize,
    blocks: usize,
    nets: usize,
    groups: usize,
}

fn fingerprint(model: &CompiledModel) -> Fingerprint {
    let perf = model.performance();
    let (hpwl, moves, route_iterations) = model.physical.as_ref().map_or((0.0, 0, 0), |p| {
        (
            p.placement.wirelength(),
            p.placement.quality().moves_evaluated,
            p.routing.iterations,
        )
    });
    Fingerprint {
        modeled_throughput_sps: perf.throughput_samples_per_s,
        modeled_latency_us: perf.latency_us,
        hpwl,
        moves,
        route_iterations,
        blocks: model.mapping.netlist.len(),
        nets: model.mapping.netlist.nets().len(),
        groups: model.core_graph.len(),
    }
}

/// Per-round sums over the 13 configs (ms unless named otherwise).
#[derive(Default)]
struct Rounds {
    /// Cold compiles per second of each round and hit-pass percentiles of
    /// each window.
    end_to_end: RoundStats,
    cold_ms: Vec<f64>,
    deploy_ms: Vec<f64>,
    first_run_us: Vec<f64>,
    /// The part of a round both passes of a traced run share.
    comparable_ms: Vec<f64>,
    hit_pass_us: Vec<f64>,
    synth_ms: Vec<f64>,
    map_ms: Vec<f64>,
    map_imagenet_ms: Vec<f64>,
    place_route_ms: Vec<f64>,
    estimate_ms: Vec<f64>,
    cache_key_us: Vec<f64>,
    bind_float_ms: Vec<f64>,
    bind_integer_ms: Vec<f64>,
    bind_noisy_ms: Vec<f64>,
}

#[derive(Default)]
struct Counts {
    compiles: u64,
    compile_failures: u64,
    nondeterministic: u64,
    deploys: u64,
    deploy_failures: u64,
    cache_calls: u64,
    cache_failures: u64,
}

struct Run<'a> {
    setup: &'a Setup,
    /// The first compile of each config; later compiles must equal it.
    pinned: Vec<Option<Fingerprint>>,
    cache: CompileCache,
    cache_miss_ms: f64,
    counts: Counts,
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

impl Run<'_> {
    fn round(&mut self, rec: &mut Recorder, rounds: &mut Rounds, staged: bool) {
        let setup = self.setup;
        let round_span = rec.enter("bench", "round", 0);
        let comparable = Instant::now();

        // Cold compile of every config.
        let mut cold_ms = 0.0;
        for (i, config) in setup.configs.iter().enumerate() {
            let graph = &setup.graphs[config.graph];
            let (result, took) = rec.timed("core", "compile", i as u64 + 1, || {
                config.compiler.compile(graph)
            });
            cold_ms += ms(took);
            self.counts.compiles += 1;
            match result {
                Ok(model) => {
                    let print = fingerprint(&model);
                    match &self.pinned[i] {
                        Some(first) => self.counts.nondeterministic += u64::from(*first != print),
                        None => self.pinned[i] = Some(print),
                    }
                }
                Err(_) => self.counts.compile_failures += 1,
            }
        }
        rounds.cold_ms.push(cold_ms);
        rounds
            .end_to_end
            .rate(setup.configs.len() as f64 * 1e3 / cold_ms);

        // Graph -> first logits for the dup-1 models.
        let (mut deploy_ms, mut first_run_us) = (0.0, 0.0);
        for (i, deploy) in setup.deploys.iter().enumerate() {
            let graph = &setup.graphs[deploy.graph];
            let request = i as u64 + 1;
            let open = rec.enter("bench", "deploy", request);
            let start = Instant::now();
            let (compiled, _) = rec.timed("core", "compile", request, || {
                Compiler::fpsa().compile(graph)
            });
            let logits = compiled.ok().and_then(|model| {
                let (exec, _) = rec.timed("sim", "bind", request, || {
                    model.executor(graph, &deploy.params, &Precision::Float)
                });
                let exec = exec.ok()?;
                let (out, took) = rec.timed("sim", "run", request, || exec.run(&deploy.input));
                first_run_us += took.as_secs_f64() * 1e6;
                out.ok()
            });
            deploy_ms += ms(start.elapsed());
            rec.exit(open);
            self.counts.deploys += 1;
            let close = logits.is_some_and(|got| close_to(&got, &deploy.expected));
            self.counts.deploy_failures += u64::from(!close);
        }
        rounds.deploy_ms.push(deploy_ms);
        rounds.first_run_us.push(first_run_us);

        // The cache: filled by the run's first pass, hit ever after.
        if self.cache.is_empty() {
            let start = Instant::now();
            self.cache_pass(rec, "cache_miss");
            self.cache_miss_ms = ms(start.elapsed());
        }
        for _ in 0..HIT_WINDOWS_PER_ROUND {
            let first_pass = rounds.hit_pass_us.len();
            for _ in 0..HIT_PASSES_PER_WINDOW {
                let start = Instant::now();
                self.cache_pass(rec, "cache_hit");
                rounds.hit_pass_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
            rounds
                .end_to_end
                .latencies(&rounds.hit_pass_us[first_pass..]);
        }
        rounds.comparable_ms.push(ms(comparable.elapsed()));

        if staged {
            self.staged(rec, rounds);
        }
        rec.exit(round_span);
    }

    fn cache_pass(&mut self, rec: &mut Recorder, name: &'static str) {
        for (i, config) in self.setup.configs.iter().enumerate() {
            let graph = &self.setup.graphs[config.graph];
            let (result, _) = rec.timed("core", name, i as u64 + 1, || {
                self.cache.compile(&config.compiler, graph)
            });
            self.counts.cache_calls += 1;
            self.counts.cache_failures += u64::from(result.is_err());
        }
    }

    /// The four stages called one by one, plus the bind-time rows and the
    /// cache key: the per-layer split of what `round` timed as a whole.
    fn staged(&mut self, rec: &mut Recorder, rounds: &mut Rounds) {
        let setup = self.setup;
        let (mut synth, mut map, mut map_imagenet, mut pr, mut estimate, mut key_us) =
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        for (i, config) in setup.configs.iter().enumerate() {
            let graph = &setup.graphs[config.graph];
            let compiler = &config.compiler;
            let arch = &compiler.arch;
            let request = i as u64 + 1;

            let (_, took) = rec.timed("core", "cache_key", request, || {
                std::hint::black_box(CompileKey::for_compile(compiler, graph))
            });
            key_us += took.as_secs_f64() * 1e6;

            let (core_graph, took) = rec.timed("synthesis", "synthesize", request, || {
                SynthesizeStage::for_architecture(arch).run(graph)
            });
            synth += ms(took);
            let Ok(core_graph) = core_graph else { continue };

            let (mapping, took) = rec.timed("mapper", "map", request, || {
                MapStage::new(arch, compiler.duplication).run(&core_graph)
            });
            map += ms(took);
            if config.imagenet {
                map_imagenet += ms(took);
            }
            let Ok(mapping) = mapping else { continue };

            let (physical, took) = rec.timed("placeroute", "place_route", request, || {
                PlaceRouteStage::new(arch.clone(), compiler.place_route).run(&mapping)
            });
            pr += ms(took);
            let Ok(physical) = physical else { continue };

            let (_, took) = rec.timed("core", "estimate", request, || {
                std::hint::black_box(
                    EstimateStage::new(arch.clone()).run((&mapping, physical.as_ref())),
                )
            });
            estimate += ms(took);
        }
        rounds.synth_ms.push(synth);
        rounds.map_ms.push(map);
        rounds.map_imagenet_ms.push(map_imagenet);
        rounds.place_route_ms.push(pr);
        rounds.estimate_ms.push(estimate);
        rounds.cache_key_us.push(key_us);

        // Bind-time rows on MLP-500-100, the model the serving workloads
        // bind in their set-up.
        let mlp = &setup.deploys[0];
        let graph = &setup.graphs[mlp.graph];
        let Ok(model) = Compiler::fpsa().compile(graph) else {
            return;
        };
        let noisy = Precision::Noisy {
            scheme: WeightScheme::fpsa_add(),
            variation: CellVariation::measured(),
            seed: 7,
        };
        let integer = Precision::Integer(setup.mlp_plan.clone());
        for (precision, into) in [
            (&Precision::Float, &mut rounds.bind_float_ms),
            (&integer, &mut rounds.bind_integer_ms),
            (&noisy, &mut rounds.bind_noisy_ms),
        ] {
            let (_, took) = rec.timed("sim", "bind", 0, || {
                model.executor(graph, &mlp.params, precision)
            });
            into.push(ms(took));
        }
    }
}

fn run_rounds(run: &mut Run<'_>, rec: &mut Recorder, seconds: f64, staged: bool) -> Rounds {
    let mut rounds = Rounds::default();
    let start = Instant::now();
    while rounds.cold_ms.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        run.round(rec, &mut rounds, staged);
    }
    rounds
}

pub fn run(args: &Args, rec: &mut Recorder, out: &mut Outcome) {
    let (mut setup, setup_s) = timed_setup(|| setup(args.seed));
    if args.corrupt {
        setup.deploys[0].expected[0] += 1.0;
    }
    let configs = setup.configs.len();
    let mut run = Run {
        setup: &setup,
        pinned: vec![None; configs],
        cache: CompileCache::new(configs),
        cache_miss_ms: 0.0,
        counts: Counts::default(),
    };

    if !args.traced {
        let rounds = run_rounds(&mut run, rec, args.seconds, false);
        out.end_to_end_from_rounds(setup_s, &rounds.end_to_end);
        out.timing("cold compile of 13 configs", "ms", &rounds.cold_ms);
        out.timing("pass of 13 cache hits", "us", &rounds.hit_pass_us);
        out.timing("deploy of 3 models", "ms", &rounds.deploy_ms);
    } else {
        // The same rounds with the recorder off, then on: their ratio is
        // what the benchmark's own spans cost.
        let untraced = run_rounds(&mut run, rec, args.seconds * 0.25, false);
        rec.set_enabled(true);
        let rounds = run_rounds(&mut run, rec, args.seconds * 0.75, true);
        rec.set_enabled(false);

        let cold_ms = median(&rounds.cold_ms);
        let stage_ms = [
            median(&rounds.synth_ms),
            median(&rounds.map_ms),
            median(&rounds.place_route_ms),
            median(&rounds.estimate_ms),
        ];
        out.set("nn.graph_build_ms", setup.graph_build_ms);
        out.set("nn.params_seed_ms", setup.params_seed_ms);
        out.set("synthesis.busy_ms", stage_ms[0]);
        out.set("mapper.busy_ms", stage_ms[1]);
        out.set("mapper.busy_ms.imagenet", median(&rounds.map_imagenet_ms));
        out.set("placeroute.busy_ms", stage_ms[2]);
        out.set("core.estimate_ms", stage_ms[3]);
        out.set(
            "core.pipeline_residual_ms",
            cold_ms - stage_ms.iter().sum::<f64>(),
        );
        out.set("core.cache_key_us", median(&rounds.cache_key_us));
        out.set("core.cache_miss_ms", run.cache_miss_ms);
        out.set("core.cache_hit_us", median(&rounds.hit_pass_us));
        let cache = run.cache.stats();
        out.set("core.cache_hits", cache.hits as f64);
        out.set("core.cache_misses", cache.misses as f64);
        out.set("compile_cold_ms", cold_ms);
        out.set("compile_cached_ms", median(&rounds.hit_pass_us) / 1e3);
        out.set("deploy_ms", median(&rounds.deploy_ms));
        out.set("sim.bind_ms.float", median(&rounds.bind_float_ms));
        out.set("sim.bind_ms.integer", median(&rounds.bind_integer_ms));
        out.set("sim.bind_ms.noisy", median(&rounds.bind_noisy_ms));
        out.set("sim.first_run_us", median(&rounds.first_run_us));

        let pinned: Vec<&Fingerprint> = run.pinned.iter().flatten().collect();
        let sum = |f: &dyn Fn(&Fingerprint) -> f64| pinned.iter().map(|p| f(p)).sum::<f64>();
        let moves = sum(&|p| p.moves as f64);
        out.set("synthesis.groups_out", sum(&|p| p.groups as f64));
        out.set("mapper.blocks_out", sum(&|p| p.blocks as f64));
        out.set("mapper.nets_out", sum(&|p| p.nets as f64));
        out.set("placeroute.moves", moves);
        out.set("placeroute.ns_per_move", stage_ms[2] * 1e6 / moves.max(1.0));
        out.set(
            "placeroute.route_iterations",
            sum(&|p| p.route_iterations as f64),
        );
        out.set("placeroute.hpwl", sum(&|p| p.hpwl));
        let modeled = |f: &dyn Fn(&Fingerprint) -> f64| {
            geomean(&pinned.iter().map(|p| f(p)).collect::<Vec<_>>())
        };
        out.set(
            "modeled_throughput_sps",
            modeled(&|p| p.modeled_throughput_sps),
        );
        out.set("modeled_latency_us", modeled(&|p| p.modeled_latency_us));
        out.set(
            "bench.trace_overhead_ratio",
            median(&rounds.comparable_ms) / median(&untraced.comparable_ms),
        );
        out.set("bench.layer_self_share", rec.layer_self_share());
        out.timing("traced cold compile of 13 configs", "ms", &rounds.cold_ms);
        out.timing("mapper stage over 13 configs", "ms", &rounds.map_ms);
        out.timing(
            "place&route stage over 13 configs",
            "ms",
            &rounds.place_route_ms,
        );
    }

    let c = &run.counts;
    out.phase(
        "cold-compile",
        c.compiles,
        c.compile_failures + c.nondeterministic,
    );
    out.phase("deploy", c.deploys, c.deploy_failures);
    out.phase("cache", c.cache_calls, c.cache_failures);
}
