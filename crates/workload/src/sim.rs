//! The deterministic virtual-time replay clock.
//!
//! Wall-clock serving measurements depend on thread scheduling, CPU load
//! and timer resolution — none of which belongs in a CI pin. Following the
//! record → simulate → report methodology (measure against a model you can
//! hold fixed, not an ad-hoc probe), [`simulate`] replays a recorded
//! [`Trace`] through the serving core's own [`StationState`] and [`Router`]
//! under a discrete-event virtual clock: the threaded workers and this loop
//! are two drivers of one batching decision ([`StationState::decide`]).
//! Arrivals land at their trace timestamps, ready batches are claimed by
//! the earliest-free of `replicas` virtual workers, and each batch occupies
//! its worker for the scenario's [`ServiceModel`] cost; the engine is idle
//! once no virtual worker of any fabric is busy. This module keeps only
//! event ordering, the service model, stats and spans. Everything is
//! integer microseconds, the simulation is single-threaded, and ties break
//! by index — so the resulting [`ServeStats`] (built through the engine's
//! own recording methods, bucket for bucket) is **identical across runs,
//! host thread counts and real-engine replica configurations**, which is
//! the property the golden digests and the determinism suite stand on.

use crate::scenario::{ReplayPolicy, ServiceModel};
use crate::trace::Trace;
use fpsa_obs::{Span, SpanId, Tracer};
use fpsa_serve::{lane_mut, BatchPolicy, Decision, Router, ServeStats, StationState};
use serde::{Deserialize, Serialize};

/// The result of one virtual-time replay.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VirtualReplay {
    /// Engine-contract statistics accumulated under the virtual clock
    /// (deterministic: identical across runs and thread counts).
    pub stats: ServeStats,
    /// Virtual time from the first arrival to the last batch completion.
    /// Measured from the first event's `at_us`, not virtual t=0, so a
    /// trace that starts late reports the same makespan as its shift to 0.
    pub makespan_us: u64,
    /// Requests per *virtual* second: `requests / makespan`.
    pub throughput_rps: f64,
}

/// Replay `trace` under the virtual clock (see the module docs): the
/// one-fabric, one-lane, everything-hosted case of [`simulate_fleet`].
pub fn simulate(trace: &Trace, policy: ReplayPolicy, service: ServiceModel) -> VirtualReplay {
    run(trace, &single(policy), false, service, None).aggregate
}

/// [`simulate`], recording every request's `request → queue → execute →
/// respond` span chain into `tracer` — with **virtual** timestamps.
///
/// The replay is single-threaded and deterministic, and the tracer never
/// reads a clock, so on a *fresh* [`Tracer`] (sequential span ids) the
/// recorded event stream — and therefore the exported Chrome-trace JSON —
/// is a pure function of `(trace, policy, service)`: bit-identical across
/// runs, which is what lets CI pin the exported bytes. Pass a tracer in
/// [`fpsa_obs::Mode::Full`]; tracing only observes the replay, so the
/// returned [`VirtualReplay`] is identical to the untraced one.
pub fn simulate_traced(
    trace: &Trace,
    policy: ReplayPolicy,
    service: ServiceModel,
    tracer: &Tracer,
) -> VirtualReplay {
    run(trace, &single(policy), false, service, Some(tracer)).aggregate
}

/// How a virtual *fleet* replays a trace: several fabrics, each running a
/// per-fabric [`ReplayPolicy`] over a weighted-fair multi-tenant queue,
/// with models pinned to the fabrics that host them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetPolicy {
    /// Replicas and batching, per fabric.
    pub per_fabric: ReplayPolicy,
    /// Models hosted on each fabric (a `FleetPlacement::hosted` mirror).
    pub hosted: Vec<Vec<u16>>,
    /// Weighted-fair shares: `(tenant, weight)`; unlisted tenants weigh 1.
    pub tenant_weights: Vec<(u16, u64)>,
}

/// The result of one virtual fleet replay: the aggregate [`VirtualReplay`]
/// plus each tenant's own engine-contract counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetVirtualReplay {
    /// All tenants together.
    pub aggregate: VirtualReplay,
    /// Per-tenant counters, dense by tenant id.
    pub per_tenant: Vec<ServeStats>,
}

/// Replay `trace` through a virtual fleet (see [`FleetPolicy`]): arrivals
/// route through the very [`Router`] `FleetEngine::submit` calls (shortest
/// queue among the hosting fabrics, ties to the lowest index, a model
/// hosted nowhere falls back to every fabric), each fabric's earliest-free
/// replica claims batches under weighted-fair order, and every batch costs
/// the scenario's [`ServiceModel`] time. Single-threaded, integer
/// microseconds, bit-deterministic.
pub fn simulate_fleet(
    trace: &Trace,
    policy: &FleetPolicy,
    service: ServiceModel,
) -> FleetVirtualReplay {
    run(trace, policy, true, service, None)
}

/// [`simulate_fleet`] with the same per-request span recording contract as
/// [`simulate_traced`]: virtual timestamps, bit-identical exports on a
/// fresh [`Tracer`], identical replay results.
pub fn simulate_fleet_traced(
    trace: &Trace,
    policy: &FleetPolicy,
    service: ServiceModel,
    tracer: &Tracer,
) -> FleetVirtualReplay {
    run(trace, policy, true, service, Some(tracer))
}

/// The single-engine view of the event loop: one fabric hosting
/// everything, and (`fleet = false` below) one FIFO lane for all tenants.
fn single(policy: ReplayPolicy) -> FleetPolicy {
    FleetPolicy {
        per_fabric: policy,
        hosted: Vec::new(),
        tenant_weights: Vec::new(),
    }
}

/// The one discrete-event loop. Each iteration either admits the next
/// arrival or lets one fabric's earliest-free worker pop one batch,
/// whichever comes first on the monotone global clock. `fleet` says
/// whether tenants queue in their own lanes and spans name their fabric.
fn run(
    trace: &Trace,
    plan: &FleetPolicy,
    fleet: bool,
    service: ServiceModel,
    tracer: Option<&Tracer>,
) -> FleetVirtualReplay {
    let router = Router::new(&plan.hosted);
    let fabrics = router.stations();
    let policy = BatchPolicy::new(plan.per_fabric.max_batch, plan.per_fabric.window_us);
    // Never closed or relayed to: a fabric's decision is `Now`, `Until` or
    // `Park`.
    let mut stations: Vec<StationState<usize>> = (0..fabrics)
        .map(|_| StationState::new(policy, &plan.tenant_weights))
        .collect();
    let mut free = vec![vec![0u64; plan.per_fabric.replicas.max(1)]; fabrics];
    let mut lanes: Vec<ServeStats> = Vec::new();
    // Request/queue span handles, indexed by trace-event index (admissions
    // happen strictly in index order).
    let mut spans: Vec<(Span, Span)> = Vec::new();
    let events = &trace.events;
    let mut next = 0usize;
    let mut last_finish = 0u64;
    // The global simulation clock: monotone, so a replica that frees up
    // early can never claim a batch "before" arrivals the simulation has
    // already admitted (which would send a latency negative).
    let mut clock = 0u64;

    loop {
        // The earliest instant any fabric could pop a batch: its earliest
        // free worker's time (clamped to the global clock) if the station
        // decides `Now` then; on `Until(t)`, the earlier of `t` and the
        // instant the engine goes idle (its last busy worker frees). Ties go
        // to the lowest fabric index.
        let idle_from = free.iter().flatten().copied().max().unwrap_or(0);
        let mut action: Option<(u64, usize)> = None;
        for (fabric, station) in stations.iter().enumerate() {
            let worker_free = *free[fabric].iter().min().expect("replicas >= 1");
            let base = worker_free.max(clock);
            let at = match station.decide(base, idle_from <= base) {
                Decision::Now => Some(base),
                Decision::Until(t) => Some(t.min(idle_from).max(base)),
                Decision::Park | Decision::Drained => None,
            };
            if let Some(at) = at {
                if action.is_none_or(|(best, _)| at < best) {
                    action = Some((at, fabric));
                }
            }
        }

        // Arrivals up to the action instant are admitted first (and one at
        // a time, because each admission can enable an earlier action), so
        // simultaneity resolves identically on every run.
        let horizon = action.map_or(u64::MAX, |(at, _)| at);
        if next < events.len() && events[next].at_us <= horizon {
            let event = &events[next];
            let fabric = router.route(event.model, |f| stations[f].queued(None));
            let lane = if fleet { event.tenant } else { 0 };
            stations[fabric].push(lane, next, event.at_us);
            // Admission advances the global clock to the arrival instant.
            // Without this, a count-full queue is "ready" at the stale
            // clock and a batch can be popped *before* its items arrived,
            // underflowing `finish - at_us`. Safe to advance:
            // `at_us <= horizon` means no fabric had an earlier action.
            clock = clock.max(event.at_us);
            let depth = stations[fabric].queued(None);
            let lane_stats = lane_mut(&mut lanes, lane);
            lane_stats.submitted += 1;
            lane_stats.record_queue_depth(depth);
            if let Some(t) = tracer {
                let tenant = ("tenant", i64::from(event.tenant));
                let who = [tenant, ("model", i64::from(event.model))];
                let root = t.enter_with("request", "replay", event.at_us, SpanId::NONE, &who);
                let args = [("fabric", fabric as i64)];
                let args = &args[usize::from(!fleet)..];
                let queue = t.enter_with("queue", "replay", event.at_us, root.id, args);
                spans.push((root, queue));
                t.counter("replay.queue_depth", "replay", event.at_us, depth as i64);
            }
            next += 1;
            continue;
        }

        let Some((now, fabric)) = action else {
            break; // no queued work and no arrivals left
        };
        // The earliest-free virtual worker claims the batch (ties by
        // worker index) — the deterministic mirror of "whichever replica
        // frees up first".
        let (worker, _) = free[fabric]
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(i, t)| (t, i))
            .expect("replicas >= 1");
        let (lane, batch) = stations[fabric]
            .take(now, idle_from <= now)
            .expect("a fabric's action instant has a ready batch");
        clock = now;
        let blen = batch.len();
        let finish = now + service.batch_us(blen);
        free[fabric][worker] = finish;
        last_finish = last_finish.max(finish);
        let lane_stats = lane_mut(&mut lanes, lane);
        lane_stats.record_batch(blen, true);
        let args = [("fabric", fabric as i64), ("batch", blen as i64)];
        let args = &args[usize::from(!fleet)..];
        for index in batch {
            let latency = finish - events[index].at_us;
            lane_stats.record_latency(latency);
            if let Some(t) = tracer {
                let (root, queue) = spans[index];
                t.exit(&queue, now);
                let exec = t.enter_with("execute", "replay", now, root.id, args);
                t.exit(&exec, finish);
                let respond = t.enter("respond", "replay", finish, root.id);
                t.exit(&respond, finish);
                t.record(&root, "latency_us", latency as i64, finish);
                t.exit(&root, finish);
            }
        }
    }

    // Makespan runs from the first *arrival*, not virtual t=0: counting a
    // late-starting trace's dead lead-in would deflate throughput_rps.
    let makespan_us = last_finish.saturating_sub(events.first().map_or(0, |e| e.at_us));
    FleetVirtualReplay {
        aggregate: VirtualReplay {
            stats: ServeStats::merged(&lanes),
            makespan_us,
            throughput_rps: events.len() as f64 / (makespan_us.max(1) as f64 / 1_000_000.0),
        },
        per_tenant: lanes,
    }
}

#[cfg(test)]
use crate::trace::TraceEvent;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ArrivalProcess, Scenario};
    use crate::trace::TraceRecorder;

    fn replay(scenario: &Scenario) -> VirtualReplay {
        let trace = TraceRecorder::new(scenario).record().unwrap();
        simulate(&trace, scenario.policy, scenario.service)
    }

    #[test]
    fn every_request_completes_exactly_once() {
        let scenario =
            Scenario::steady("sim", "m", 3, 777).with_batch_mix(vec![(1, 1.0), (3, 1.0)]);
        let result = replay(&scenario);
        assert_eq!(result.stats.submitted, 777);
        assert_eq!(result.stats.completed, 777);
        assert_eq!(result.stats.failed + result.stats.rejected, 0);
        assert_eq!(
            result.stats.latency_us.count(),
            777,
            "one latency sample per request"
        );
        assert!(result.makespan_us > 0);
        assert!(result.throughput_rps > 0.0);
    }

    #[test]
    fn simulation_is_bit_deterministic() {
        for arrival in [
            ArrivalProcess::Poisson {
                rate_per_s: 3_000.0,
            },
            ArrivalProcess::AdversarialClosedLoop {
                clients: 8,
                think_us: 25,
                barrier_us: 400,
            },
        ] {
            let scenario = Scenario::steady("det", "m", 5, 600).with_arrival(arrival);
            assert_eq!(replay(&scenario), replay(&scenario));
        }
    }

    #[test]
    fn batches_respect_the_policy_and_windows_bound_latency() {
        let mut scenario = Scenario::steady("bound", "m", 9, 400);
        scenario.policy.max_batch = 4;
        scenario.policy.window_us = 300;
        let result = replay(&scenario);
        assert!(result.stats.largest_batch() <= 4);
        // Under an uncongested open-loop load, no request waits much past
        // its window plus one service round.
        let worst =
            scenario.policy.window_us + 4 * scenario.service.batch_us(scenario.policy.max_batch);
        assert!(
            result.stats.max_latency_us() <= worst,
            "max latency {} > bound {worst}",
            result.stats.max_latency_us()
        );
    }

    #[test]
    fn more_replicas_never_hurt_virtual_throughput() {
        let mut slow = Scenario::steady("one", "m", 21, 800);
        slow.service = crate::scenario::ServiceModel {
            base_us: 200,
            per_request_us: 50,
        };
        slow.policy.replicas = 1;
        let mut fast = slow.clone();
        fast.policy.replicas = 4;
        let one = replay(&slow);
        let four = replay(&fast);
        assert!(
            four.makespan_us <= one.makespan_us,
            "4 replicas {} > 1 replica {}",
            four.makespan_us,
            one.makespan_us
        );
    }

    #[test]
    fn makespan_is_measured_from_the_first_arrival() {
        let scenario = Scenario::steady("rebase", "m", 7, 300);
        let trace = TraceRecorder::new(&scenario).record().unwrap();
        let mid = trace.len() / 2;
        // A non-rebased tail slice starts deep into virtual time; its
        // rebased twin is the same workload shifted to t=0. Both must
        // report the same makespan (and therefore the same throughput).
        let tail = Trace {
            scenario: trace.scenario.clone(),
            seed: trace.seed,
            events: trace.events[mid..].to_vec(),
        };
        assert!(tail.events[0].at_us > 0, "tail must not start at t=0");
        let base = tail.events[0].at_us;
        let rebased = Trace {
            events: tail
                .events
                .iter()
                .map(|e| TraceEvent {
                    at_us: e.at_us - base,
                    ..*e
                })
                .collect(),
            ..tail.clone()
        };
        let raw = simulate(&tail, scenario.policy, scenario.service);
        let rebased = simulate(&rebased, scenario.policy, scenario.service);
        assert_eq!(raw.makespan_us, rebased.makespan_us);
        assert_eq!(raw.throughput_rps, rebased.throughput_rps);
    }

    fn zoo_scenario(requests: usize) -> Scenario {
        let mut scenario = Scenario::steady("fleet-sim", "mlp", 9, requests);
        scenario.models = vec![
            crate::scenario::MixEntry {
                name: "mlp".into(),
                weight: 4.0,
            },
            crate::scenario::MixEntry {
                name: "cnn".into(),
                weight: 1.0,
            },
        ];
        scenario.tenants = vec![
            crate::scenario::MixEntry {
                name: "free".into(),
                weight: 1.0,
            },
            crate::scenario::MixEntry {
                name: "pro".into(),
                weight: 3.0,
            },
        ];
        scenario
    }

    #[test]
    fn fleet_replay_completes_every_request_exactly_once() {
        let scenario = zoo_scenario(500);
        let trace = TraceRecorder::new(&scenario).record().unwrap();
        let policy = FleetPolicy {
            per_fabric: scenario.policy,
            hosted: vec![vec![0, 1], vec![0, 1]],
            tenant_weights: vec![(1, 3)],
        };
        let replay = simulate_fleet(&trace, &policy, scenario.service);
        assert_eq!(replay.aggregate.stats.submitted, 500);
        assert_eq!(replay.aggregate.stats.completed, 500);
        assert_eq!(
            replay.per_tenant.iter().map(|t| t.completed).sum::<u64>(),
            500,
            "per-tenant counters partition the aggregate"
        );
        assert_eq!(replay.per_tenant.len(), 2);
        assert!(replay.per_tenant.iter().all(|t| t.submitted > 0));
        // Bit-deterministic, like the single-engine clock.
        assert_eq!(replay, simulate_fleet(&trace, &policy, scenario.service));
    }

    #[test]
    fn colocation_beats_dedicated_fabrics_on_a_skewed_mix() {
        // Model 0 carries 4x model 1's load. Dedicated fabrics bottleneck
        // on model 0's chip while model 1's sits mostly idle; a co-located
        // fleet (every fabric serves every model, shortest-queue routing)
        // spreads the hot model across both.
        let mut scenario = zoo_scenario(800).with_arrival(ArrivalProcess::Poisson {
            rate_per_s: 50_000.0,
        });
        scenario.service = crate::scenario::ServiceModel {
            base_us: 150,
            per_request_us: 40,
        };
        let trace = TraceRecorder::new(&scenario).record().unwrap();
        let colocated = FleetPolicy {
            per_fabric: scenario.policy,
            hosted: vec![vec![0, 1], vec![0, 1]],
            tenant_weights: Vec::new(),
        };
        let dedicated = FleetPolicy {
            per_fabric: scenario.policy,
            hosted: vec![vec![0], vec![1]],
            tenant_weights: Vec::new(),
        };
        let fleet = simulate_fleet(&trace, &colocated, scenario.service);
        let split = simulate_fleet(&trace, &dedicated, scenario.service);
        assert!(
            fleet.aggregate.makespan_us < split.aggregate.makespan_us,
            "co-located {} >= dedicated {}",
            fleet.aggregate.makespan_us,
            split.aggregate.makespan_us
        );
    }

    #[test]
    fn sparse_arrivals_never_start_service_before_they_arrive() {
        // max_batch = 1 makes a single queued request count-full, so a
        // fabric is "ready" at any instant once something is admitted.
        // Sparse arrivals leave the workers free long before each event:
        // before admission advanced the global clock, the pop happened at
        // the stale clock, service started before the arrival, and
        // `finish - at_us` underflowed (a debug panic; wrapped, huge
        // latencies in release).
        let trace = Trace {
            scenario: "sparse".into(),
            seed: 0,
            events: (0..10u64)
                .map(|i| TraceEvent {
                    at_us: 10_000 * (i + 1),
                    tenant: (i % 2) as u16,
                    model: 0,
                    group: i as u32,
                })
                .collect(),
        };
        let mut per_fabric = Scenario::steady("sparse", "m", 1, 1).policy;
        per_fabric.max_batch = 1;
        let policy = FleetPolicy {
            per_fabric,
            hosted: vec![vec![0]],
            tenant_weights: Vec::new(),
        };
        let service = crate::scenario::ServiceModel {
            base_us: 50,
            per_request_us: 10,
        };
        let replay = simulate_fleet(&trace, &policy, service);
        assert_eq!(replay.aggregate.stats.completed, 10);
        // Each request is served alone the moment it arrives, so every
        // latency is exactly one single-request service time — nothing
        // negative, nothing wrapped.
        assert_eq!(replay.aggregate.stats.max_latency_us(), service.batch_us(1));
        // Makespan runs from the first arrival (10ms) to the last finish
        // (100ms + one service), never from the stale virtual t=0.
        assert_eq!(
            replay.aggregate.makespan_us,
            90_000 + service.batch_us(1),
            "service must not start before the arrival clock"
        );
    }

    #[test]
    fn unhosted_models_degrade_to_shared_routing_instead_of_dropping() {
        let scenario = zoo_scenario(120);
        let trace = TraceRecorder::new(&scenario).record().unwrap();
        // Model 1 is hosted nowhere: it still routes (across all fabrics).
        let policy = FleetPolicy {
            per_fabric: scenario.policy,
            hosted: vec![vec![0]],
            tenant_weights: Vec::new(),
        };
        let replay = simulate_fleet(&trace, &policy, scenario.service);
        assert_eq!(replay.aggregate.stats.completed, 120);
    }

    #[test]
    fn traced_replay_exports_are_byte_identical_and_results_unperturbed() {
        let scenario = Scenario::steady("traced", "m", 11, 300).with_batch_mix(vec![(2, 1.0)]);
        let trace = TraceRecorder::new(&scenario).record().unwrap();

        let run = || {
            let tracer = fpsa_obs::Tracer::new();
            tracer.set_mode(fpsa_obs::Mode::Full);
            let replay = simulate_traced(&trace, scenario.policy, scenario.service, &tracer);
            (
                replay,
                fpsa_obs::export::chrome_trace_json(&tracer.events()),
            )
        };
        let (first, json_a) = run();
        let (second, json_b) = run();
        // Tracing only observes: the replay matches the untraced run.
        assert_eq!(first, simulate(&trace, scenario.policy, scenario.service));
        assert_eq!(first, second);
        // Virtual clock + fresh tracer → the export is a pure function of
        // the trace: identical bytes on every run.
        assert_eq!(json_a, json_b);
        assert!(json_a.contains("\"name\":\"execute\""));
        assert!(json_a.contains("\"name\":\"respond\""));
        // Every request opens and closes: begins balance ends.
        assert_eq!(
            json_a.matches("\"ph\":\"b\"").count(),
            json_a.matches("\"ph\":\"e\"").count()
        );
    }

    #[test]
    fn traced_fleet_replay_exports_are_byte_identical() {
        let scenario = zoo_scenario(200);
        let trace = TraceRecorder::new(&scenario).record().unwrap();
        let policy = FleetPolicy {
            per_fabric: scenario.policy,
            hosted: vec![vec![0, 1], vec![0, 1]],
            tenant_weights: vec![(1, 3)],
        };
        let run = || {
            let tracer = fpsa_obs::Tracer::new();
            tracer.set_mode(fpsa_obs::Mode::Full);
            let replay = simulate_fleet_traced(&trace, &policy, scenario.service, &tracer);
            (
                replay,
                fpsa_obs::export::chrome_trace_json(&tracer.events()),
            )
        };
        let (first, json_a) = run();
        let (second, json_b) = run();
        assert_eq!(first, simulate_fleet(&trace, &policy, scenario.service));
        assert_eq!(first, second);
        assert_eq!(json_a, json_b);
        assert!(json_a.contains("\"fabric\""));
    }

    #[test]
    fn empty_traces_short_circuit() {
        let trace = Trace {
            scenario: "empty".into(),
            seed: 0,
            events: Vec::new(),
        };
        let scenario = Scenario::steady("empty", "m", 1, 1);
        let result = simulate(&trace, scenario.policy, scenario.service);
        assert_eq!(result, VirtualReplay::default());
    }
}
