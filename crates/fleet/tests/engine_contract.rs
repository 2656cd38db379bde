//! One contract, every engine.
//!
//! `ServeEngine`, `ShardedEngine` and `FleetEngine` are configurations of
//! one serving core (`fpsa_serve::core`), so one table-driven suite holds
//! them all to the same contract: outputs bit-identical to chaining direct
//! `Executor::run` calls, stats snapshots that never show more answered
//! than admitted under concurrent clients, histograms that account for
//! every request and batch at shutdown, an idle engine serving a lone
//! request at once whatever its window — and, for the degenerate
//! configurations (one stage, one fabric, one tenant), identical
//! accounting under the same batch bounds, which is the equivalence the
//! design claims.

use fpsa_arch::FabricCapacity;
use fpsa_core::Compiler;
use fpsa_fleet::{FleetConfig, FleetEngine, FleetPlacement, ModelRegistry};
use fpsa_nn::params::mlp_graph;
use fpsa_nn::{ComputationalGraph, GraphParameters};
use fpsa_serve::{ServeConfig, ServeEngine, ServeStats, ShardedEngine, Ticket};
use fpsa_sim::{Executor, Precision};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One row of the table: which engine, in which shape.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Serve,
    Shard { stages: usize },
    Fleet { fabrics: usize, tenants: u16 },
}

const TABLE: [Shape; 5] = [
    Shape::Serve,
    Shape::Shard { stages: 1 },
    Shape::Shard { stages: 2 },
    Shape::Fleet {
        fabrics: 1,
        tenants: 1,
    },
    Shape::Fleet {
        fabrics: 2,
        tenants: 2,
    },
];

/// The three shapes that must be indistinguishable from one another.
const DEGENERATE: [Shape; 3] = [TABLE[0], TABLE[1], TABLE[3]];

/// A running engine behind the one interface the contract speaks.
enum Subject {
    Serve(ServeEngine),
    Shard(ShardedEngine),
    Fleet(FleetEngine, u16),
}

impl Subject {
    /// Request `index` (fleet rows spread requests over their tenants).
    fn submit(&self, index: usize, input: Vec<f32>) -> Ticket {
        match self {
            Subject::Serve(engine) => engine.submit(input),
            Subject::Shard(engine) => engine.submit(input),
            Subject::Fleet(engine, tenants) => engine.submit(index as u16 % tenants, 0, input),
        }
    }

    fn stats(&self) -> ServeStats {
        match self {
            Subject::Serve(engine) => engine.stats(),
            Subject::Shard(engine) => engine.stats(),
            Subject::Fleet(engine, _) => engine.stats().aggregate,
        }
    }

    fn shutdown(self) -> ServeStats {
        match self {
            Subject::Serve(engine) => engine.shutdown(),
            Subject::Shard(engine) => engine.shutdown(),
            Subject::Fleet(engine, _) => engine.shutdown().aggregate,
        }
    }
}

/// The stage graphs a shape serves: 16 → 8 → 4 as one model, or cut in two.
fn stage_graphs(shape: Shape) -> Vec<ComputationalGraph> {
    match shape {
        Shape::Shard { stages: 2 } => {
            vec![mlp_graph("front", &[16, 8]), mlp_graph("back", &[8, 4])]
        }
        _ => vec![mlp_graph("whole", &[16, 8, 4])],
    }
}

fn params(graph: &ComputationalGraph) -> GraphParameters {
    GraphParameters::seeded(graph, 21)
}

/// Directly bound stage executors: the ground truth, and what the serve
/// and shard rows are started over.
fn executors(shape: Shape) -> Vec<Executor> {
    stage_graphs(shape)
        .iter()
        .map(|graph| {
            let compiled = Compiler::fpsa().compile(graph).expect("mlp compiles");
            compiled
                .executor(graph, &params(graph), &Precision::Float)
                .expect("mlp binds")
        })
        .collect()
}

fn start(shape: Shape, replicas: usize, max_batch: usize, window_us: u64) -> Subject {
    let config = ServeConfig {
        replicas,
        max_batch,
        batch_window_us: window_us,
    };
    match shape {
        Shape::Serve => {
            let executor = executors(shape).pop().expect("one stage");
            Subject::Serve(ServeEngine::start(executor, config))
        }
        Shape::Shard { .. } => Subject::Shard(ShardedEngine::start(executors(shape), config)),
        Shape::Fleet { fabrics, tenants } => {
            let mut registry = ModelRegistry::new(Compiler::fpsa());
            for graph in stage_graphs(shape) {
                let params = params(&graph);
                registry
                    .register("whole", graph, params, Precision::Float)
                    .expect("mlp compiles");
            }
            let capacity = FabricCapacity::new(100_000, 20_000, 20_000);
            let placement = FleetPlacement::pack(&registry, fabrics, capacity).expect("mlp fits");
            let config = FleetConfig::default()
                .with_replicas(replicas)
                .with_batching(max_batch, window_us);
            Subject::Fleet(FleetEngine::start(registry, placement, config), tenants)
        }
    }
}

fn sample(seed: usize) -> Vec<f32> {
    (0..16).map(|i| ((seed + i) % 10) as f32 * 0.1).collect()
}

/// Ground truth: `Executor::run` chained through the shape's stages.
fn direct(chain: &[Executor], input: &[f32]) -> Vec<f32> {
    let mut value = input.to_vec();
    for stage in chain {
        value = stage.run(&value).expect("direct run");
    }
    value
}

#[test]
fn every_engine_serves_bit_identically_and_accounts_for_every_request() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 24;
    for shape in TABLE {
        let chain = executors(shape);
        let subject = start(shape, 2, 4, 200);
        let done = AtomicBool::new(false);
        let snapshots = std::thread::scope(|scope| {
            // Polls for as long as the clients run, and once more after.
            let monitor = scope.spawn(|| {
                let mut snapshots = 0u64;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let stats = subject.stats();
                    assert!(
                        stats.completed + stats.failed <= stats.submitted,
                        "{shape:?}: answered {} + {} of {} admitted",
                        stats.completed,
                        stats.failed,
                        stats.submitted
                    );
                    snapshots += 1;
                    if finished {
                        return snapshots;
                    }
                    std::thread::yield_now();
                }
            });
            let clients: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let (subject, chain) = (&subject, &chain);
                    scope.spawn(move || {
                        let indices = (0..PER_CLIENT).map(|i| client * PER_CLIENT + i);
                        let tickets: Vec<(usize, Ticket)> =
                            indices.map(|i| (i, subject.submit(i, sample(i)))).collect();
                        for (i, ticket) in tickets {
                            let served = ticket.wait().expect("request served");
                            assert_eq!(served, direct(chain, &sample(i)), "{shape:?} request {i}");
                        }
                    })
                })
                .collect();
            // Release the monitor before surfacing a client failure, or a
            // failed assertion would leave it polling forever.
            let clients: Vec<_> = clients.into_iter().map(|c| c.join()).collect();
            done.store(true, Ordering::Release);
            let snapshots = monitor.join().expect("monitor thread");
            clients
                .into_iter()
                .for_each(|client| client.expect("client thread"));
            snapshots
        });
        assert!(snapshots >= 1);

        let total = (CLIENTS * PER_CLIENT) as u64;
        let stats = subject.shutdown();
        assert_eq!(
            (
                stats.submitted,
                stats.completed,
                stats.failed,
                stats.rejected
            ),
            (total, total, 0, 0),
            "{shape:?}"
        );
        assert_eq!(stats.latency_us.count(), stats.completed, "{shape:?}");
        assert_eq!(stats.batch_sizes.count(), stats.batches, "{shape:?}");
        assert_eq!(stats.queue_depth.count(), stats.submitted, "{shape:?}");
    }
}

#[test]
fn degenerate_configurations_form_identical_batches() {
    // Eight submissions from one client, batches of four, a window far
    // beyond the test's patience. The first request reaches an idle engine
    // and runs alone; the rest coalesce behind it as the single worker
    // frees, so how they split depends on timing — but in every shape all
    // eight are answered, within the batch bound, without the window.
    for shape in DEGENERATE {
        let subject = start(shape, 1, 4, 30_000_000);
        let tickets: Vec<Ticket> = (0..8).map(|i| subject.submit(i, sample(i))).collect();
        for ticket in tickets {
            ticket.wait().expect("request served");
        }
        let stats = subject.shutdown();
        let counters = [
            stats.submitted,
            stats.completed,
            stats.failed,
            stats.rejected,
        ];
        assert_eq!(counters, [8, 8, 0, 0], "{shape:?}");
        assert!(stats.largest_batch() <= 4, "{shape:?}: {stats:?}");
        assert_eq!(stats.batch_sizes.count(), stats.batches, "{shape:?}");
        assert!((2..=8).contains(&stats.batches), "{shape:?}: {stats:?}");
        // Every batch ran to completion, so sizes sum to the requests.
        assert_eq!(stats.completed + stats.failed, 8, "{shape:?}");
    }
}

#[test]
fn an_idle_engine_serves_a_lone_request_at_once() {
    // A 30 s window and one request: nothing is executing, so the request
    // must not wait for company.
    let shapes = [
        Shape::Serve,
        Shape::Shard { stages: 2 },
        Shape::Fleet {
            fabrics: 1,
            tenants: 1,
        },
        Shape::Fleet {
            fabrics: 2,
            tenants: 1,
        },
    ];
    for shape in shapes {
        let chain = executors(shape);
        let subject = start(shape, 2, 8, 30_000_000);
        // A warm-up request binds the fleet's executor lazily, off the clock.
        subject.submit(0, sample(0)).wait().expect("request served");
        let start = Instant::now();
        let served = subject.submit(1, sample(1)).wait().expect("request served");
        let waited = start.elapsed();
        assert_eq!(served, direct(&chain, &sample(1)), "{shape:?}");
        assert!(
            waited < Duration::from_secs(1),
            "{shape:?}: a lone request waited {waited:?}"
        );
        assert_eq!(subject.shutdown().completed, 2, "{shape:?}");
    }
}
