//! The observability acceptance test: a fleet-zoo run with the global
//! tracer in [`Mode::Full`] (a) keeps every output bit-identical to
//! direct execution — tracing only observes — and (b) exports a
//! well-formed Chrome trace-event JSON in which every tenant has at
//! least one request whose compile→queue→execute→respond chain nests
//! under one correlation id. One test, its own binary: the global
//! tracer is process-wide state.

use fpsa::core::Compiler;
use fpsa::fleet::{FleetConfig, FleetEngine, FleetPlacement, ModelRegistry};
use fpsa::nn::{zoo, GraphParameters};
use fpsa::obs::{export, Event, Mode, Phase, Tracer};
use fpsa::sim::Precision;

const TENANTS: u16 = 2;

fn sample(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| ((seed + i as u64) % 10) as f32 * 0.1)
        .collect()
}

/// The exported document is structurally valid JSON: balanced braces and
/// brackets outside string literals, no trailing comma before a closer.
/// (A full parser is overkill; CI additionally loads the exported file
/// with Python's `json` module.)
fn assert_balanced_json(doc: &str) {
    let mut depth: i64 = 0;
    let mut in_string = false;
    let mut escaped = false;
    let mut last_significant = ' ';
    for c in doc.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                assert_ne!(last_significant, ',', "trailing comma before {c}");
                depth -= 1;
                assert!(depth >= 0, "unbalanced closer");
            }
            _ => {}
        }
        if !c.is_whitespace() {
            last_significant = c;
        }
    }
    assert_eq!(depth, 0, "unbalanced trace JSON");
    assert!(!in_string, "unterminated string in trace JSON");
}

#[test]
fn a_traced_fleet_zoo_run_exports_nested_chrome_spans_per_tenant() {
    let tracer = Tracer::global();
    tracer.clear();
    tracer.set_mode(Mode::Full);

    // The fleet-zoo model mix, compiled with tracing on: every pipeline
    // stage records a span into the global tracer.
    let mut registry = ModelRegistry::new(Compiler::fpsa());
    for (name, graph, seed) in [
        ("tiny_mlp", zoo::tiny_mlp(), 11),
        ("tiny_cnn", zoo::tiny_cnn(), 13),
    ] {
        let params = GraphParameters::seeded(&graph, seed);
        registry
            .register(name, graph, params, Precision::Float)
            .expect("zoo models compile");
    }
    // What each model's synthesize and map spans must report as output.
    let artifact_sizes: Vec<(usize, usize)> = registry
        .models()
        .iter()
        .map(|m| {
            (
                m.compiled.core_graph.len(),
                m.compiled.mapping.netlist.len(),
            )
        })
        .collect();

    // Ground truth, per request: direct single-threaded execution.
    let requests: Vec<(u16, u16)> = (0..8u64)
        .map(|i| ((i % u64::from(TENANTS)) as u16, (i % 2) as u16))
        .collect();
    let direct: Vec<Vec<f32>> = requests
        .iter()
        .enumerate()
        .map(|(i, &(_, model))| {
            let spec = registry.get(model).expect("registered");
            spec.compiled
                .executor(&spec.graph, &spec.params, &spec.precision)
                .expect("models bind")
                .run(&sample(spec.input_len().unwrap(), i as u64))
                .expect("direct run")
        })
        .collect();

    let capacity = fpsa::arch::FabricCapacity::new(100_000, 20_000, 20_000);
    let placement = FleetPlacement::pack(&registry, 2, capacity).expect("the zoo fits");
    let engine = FleetEngine::start(
        registry,
        placement,
        FleetConfig::default()
            .with_replicas(2)
            .with_tenant_weight(0, 1)
            .with_tenant_weight(1, 3),
    );
    let tickets: Vec<_> = requests
        .iter()
        .enumerate()
        .map(|(i, &(tenant, model))| {
            let len = engine.registry().get(model).unwrap().input_len().unwrap();
            engine.submit(tenant, model, sample(len, i as u64))
        })
        .collect();
    let served: Vec<Vec<f32>> = tickets
        .into_iter()
        .map(|t| t.wait().expect("request served"))
        .collect();
    assert_eq!(served, direct, "tracing perturbed fleet outputs");
    engine.shutdown();

    let events = tracer.events();
    tracer.set_mode(Mode::Off);
    tracer.clear();

    // The compile pipeline traced each stage of each model.
    const STAGES: [&str; 4] = ["synthesize", "map", "place&route", "estimate"];
    for stage in STAGES {
        assert!(
            events
                .iter()
                .filter(|e| e.cat == "compile" && e.phase == Phase::SpanBegin && e.name == stage)
                .count()
                >= 2,
            "both zoo models record a '{stage}' compile span"
        );
    }
    // The models registered one after the other, so their compile spans
    // open in pipeline order, model by model, and the synthesize and map
    // spans report the sizes of the artifacts they produced.
    let begins: Vec<&Event> = events
        .iter()
        .filter(|e| e.cat == "compile" && e.phase == Phase::SpanBegin)
        .collect();
    assert_eq!(begins.len(), STAGES.len() * artifact_sizes.len());
    let items_out = |begin: &Event| {
        events
            .iter()
            .find(|e| e.phase == Phase::Instant && e.id == begin.id && e.name == begin.name)
            .and_then(|e| e.args().iter().find(|(key, _)| *key == "items_out"))
            .map(|&(_, value)| value)
    };
    for (model, stages) in begins.chunks(STAGES.len()).enumerate() {
        let names: Vec<&str> = stages.iter().map(|e| e.name).collect();
        assert_eq!(
            names, STAGES,
            "model {model}'s compile spans in pipeline order"
        );
        let (core_groups, netlist_blocks) = artifact_sizes[model];
        assert_eq!(items_out(stages[0]), Some(core_groups as i64));
        assert_eq!(items_out(stages[1]), Some(netlist_blocks as i64));
    }

    // Per tenant: at least one request whose queue → execute → respond
    // children all nest under the root's correlation id.
    for tenant in 0..TENANTS {
        let full_chain = |root: &&Event| {
            ["queue", "execute", "respond"].iter().all(|&child| {
                events
                    .iter()
                    .any(|e| e.phase == Phase::SpanBegin && e.name == child && e.id == root.id)
                    && events
                        .iter()
                        .any(|e| e.phase == Phase::SpanEnd && e.name == child && e.id == root.id)
            })
        };
        let root = events
            .iter()
            .filter(|e| {
                e.cat == "fleet"
                    && e.phase == Phase::SpanBegin
                    && e.name == "request"
                    && e.args().contains(&("tenant", i64::from(tenant)))
            })
            .find(full_chain);
        assert!(
            root.is_some(),
            "tenant {tenant} has a request with a full queue/execute/respond chain"
        );
    }

    // Export lands under target/experiment-data/traces/ and is a valid
    // Chrome trace-event document.
    let path =
        export::write_chrome_trace("fleet-zoo-acceptance", &events).expect("trace export writes");
    assert!(path.ends_with("fleet-zoo-acceptance.json"));
    let doc = std::fs::read_to_string(&path).expect("trace readable");
    assert!(doc.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(doc.contains("\"ph\":\"b\"") && doc.contains("\"ph\":\"e\""));
    assert_eq!(
        doc.matches("\"ph\":\"b\"").count(),
        doc.matches("\"ph\":\"e\"").count(),
        "every span begin has an end"
    );
    assert_balanced_json(&doc);
}
