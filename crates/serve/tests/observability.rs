//! The serve-tier half of the "tracing only observes" contract: the
//! determinism guarantees of `ServeEngine` and `ShardedEngine` hold
//! unchanged with the global tracer in [`Mode::Full`], and the trace the
//! engines leave behind carries the full request→queue→execute→respond
//! span chain. One test, its own binary: the global tracer is
//! process-wide state.

use fpsa_core::Compiler;
use fpsa_nn::params::mlp_graph;
use fpsa_nn::GraphParameters;
use fpsa_obs::{Mode, Phase, Registry, Tracer};
use fpsa_serve::{ServeConfig, ServeEngine, ShardedEngine};
use fpsa_sim::{Executor, Precision};

fn executor(name: &str, sizes: &[usize]) -> Executor {
    let graph = mlp_graph(name, sizes);
    let params = GraphParameters::seeded(&graph, 21);
    let compiled = Compiler::fpsa().compile(&graph).expect("mlp compiles");
    compiled
        .executor(&graph, &params, &Precision::Float)
        .expect("mlp binds")
}

fn sample(seed: u64) -> Vec<f32> {
    (0..16).map(|i| ((seed + i) % 10) as f32 * 0.1).collect()
}

/// Span names recorded under `cat` whose begin has a matching end.
fn span_names(events: &[fpsa_obs::Event], cat: &str) -> Vec<&'static str> {
    events
        .iter()
        .filter(|e| e.cat == cat && e.phase == Phase::SpanBegin)
        .filter(|b| {
            events
                .iter()
                .any(|e| e.phase == Phase::SpanEnd && e.id == b.id && e.name == b.name)
        })
        .map(|e| e.name)
        .collect()
}

#[test]
fn full_tracing_leaves_serve_and_shard_outputs_bit_identical() {
    let inputs: Vec<Vec<f32>> = (0..8).map(sample).collect();

    // Ground truths, computed before tracing turns on.
    let direct_exec = executor("obs-mlp", &[16, 8, 4]);
    let direct: Vec<Vec<f32>> = inputs
        .iter()
        .map(|x| direct_exec.run(x).expect("direct run"))
        .collect();
    let stage_execs = || {
        vec![
            executor("obs-front", &[16, 8]),
            executor("obs-back", &[8, 4]),
        ]
    };
    let chained: Vec<Vec<f32>> = {
        let stages = stage_execs();
        inputs
            .iter()
            .map(|x| {
                let mut v = x.clone();
                for stage in &stages {
                    v = stage.run(&v).expect("stage run");
                }
                v
            })
            .collect()
    };

    let counter_at = |name: &str| {
        Registry::global()
            .snapshot()
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    let submitted_before = counter_at("serve.submitted");
    let completed_before = counter_at("serve.completed");
    let shard_counters = || {
        ["submitted", "completed", "failed", "rejected"]
            .map(|event| counter_at(&format!("shard.{event}")))
    };
    let shard_before = shard_counters();

    let tracer = Tracer::global();
    tracer.clear();
    tracer.set_mode(Mode::Full);

    // Flat engine under full tracing: outputs bit-identical to direct.
    let engine = ServeEngine::start(
        executor("obs-mlp", &[16, 8, 4]),
        ServeConfig {
            replicas: 2,
            max_batch: 4,
            batch_window_us: 300,
        },
    );
    let served = engine.serve_batch(&inputs).expect("serve batch");
    assert_eq!(served, direct, "tracing perturbed ServeEngine outputs");
    engine.shutdown();

    // Sharded pipeline under full tracing: identical to manual chaining.
    let sharded = ShardedEngine::start(stage_execs(), ServeConfig::default());
    let piped = sharded.serve_batch(&inputs).expect("sharded batch");
    assert_eq!(piped, chained, "tracing perturbed ShardedEngine outputs");
    sharded.shutdown();

    let events = tracer.events();
    tracer.set_mode(Mode::Off);
    tracer.clear();

    // The flat engine also fed the process-wide metrics registry.
    assert_eq!(
        counter_at("serve.submitted") - submitted_before,
        inputs.len() as u64,
        "every admitted request increments serve.submitted"
    );
    assert_eq!(
        counter_at("serve.completed") - completed_before,
        inputs.len() as u64,
        "every served request increments serve.completed"
    );

    // ... and so did the pipeline, under its own tier.
    let shard_after = shard_counters();
    let served = inputs.len() as u64;
    assert_eq!(
        [0, 1, 2, 3].map(|i| shard_after[i] - shard_before[i]),
        [served, served, 0, 0],
        "every sharded request increments shard.submitted and shard.completed"
    );

    // The engines left complete span chains behind.
    let serve_spans = span_names(&events, "serve");
    for name in ["request", "queue", "execute", "respond"] {
        assert!(
            serve_spans.iter().filter(|&&n| n == name).count() >= inputs.len(),
            "every served request opens+closes a '{name}' span"
        );
    }
    let shard_spans = span_names(&events, "shard");
    assert!(
        shard_spans.iter().filter(|&&n| n == "request").count() >= inputs.len(),
        "every sharded request has a root span"
    );
    assert!(
        // Two pipeline stages: at least two stage hops per request.
        shard_spans.iter().filter(|&&n| n == "stage").count() >= 2 * inputs.len(),
        "every pipeline hop records a 'stage' span"
    );
    for name in ["queue", "respond"] {
        assert!(
            shard_spans.iter().filter(|&&n| n == name).count() >= inputs.len(),
            "every sharded request opens+closes a '{name}' span"
        );
    }
    for track in ["serve.queue_depth", "shard.queue_depth"] {
        assert!(
            events
                .iter()
                .any(|e| e.phase == Phase::Counter && e.name == track),
            "admission samples the {track} counter"
        );
    }
}
