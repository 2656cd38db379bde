//! Virtual-clock replays are pinned bit for bit.
//!
//! The discrete-event loop behind `simulate` / `simulate_fleet` may be
//! restructured, but what it computes may not move: every digest below
//! covers every field of the replay result (per-tenant counters included)
//! and the bytes of the traced replay's Chrome export, for every checked-in
//! scenario. The digests were first recorded from the two separate loops
//! (`simulate_inner`, `simulate_fleet_inner`) the unified loop replaced, and
//! re-recorded once for one policy change: a part-full batch pops as soon
//! as no virtual worker of any fabric is busy, instead of always waiting
//! out its window (`bursty-coalesce`, whose batches always fill, kept its
//! digests). The hand-built trace test pins that rule directly, and the
//! property pins the claim the design rests on: `simulate` *is* the fleet
//! loop run as one fabric with one lane.

use fpsa_fleet::experiments::fleet::{
    checked_in_zoo, fabric_capacity, registry_for, tenant_weights,
};
use fpsa_fleet::FleetPlacement;
use fpsa_obs::{export, Histogram, Mode, Tracer};
use fpsa_serve::ServeStats;
use fpsa_testgen::{cases, vec};
use fpsa_workload::{
    simulate, simulate_fleet, simulate_fleet_traced, simulate_traced, FleetPolicy,
    FleetVirtualReplay, ReplayPolicy, Scenario, ServiceModel, Trace, TraceEvent, TraceRecorder,
    VirtualReplay,
};
use rand::Rng;

/// FNV-1a over bytes; `word` feeds little-endian `u64`s.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn histogram(&mut self, h: &Histogram) {
        for &count in h.buckets() {
            self.word(count);
        }
        self.word(h.max());
    }

    fn stats(&mut self, s: &ServeStats) {
        for counter in [s.submitted, s.completed, s.failed, s.rejected, s.batches] {
            self.word(counter);
        }
        self.histogram(&s.batch_sizes);
        self.histogram(&s.queue_depth);
        self.histogram(&s.latency_us);
    }

    fn replay(&mut self, r: &VirtualReplay) {
        self.stats(&r.stats);
        self.word(r.makespan_us);
        self.word(r.throughput_rps.to_bits());
    }
}

fn replay_digest(replay: &VirtualReplay) -> u64 {
    let mut h = Fnv::new();
    h.replay(replay);
    h.0
}

fn fleet_digest(replay: &FleetVirtualReplay) -> u64 {
    let mut h = Fnv::new();
    h.replay(&replay.aggregate);
    h.word(replay.per_tenant.len() as u64);
    for tenant in &replay.per_tenant {
        h.stats(tenant);
    }
    h.0
}

/// Digest of the Chrome export a traced replay leaves on a fresh tracer,
/// after checking that tracing did not perturb the replay.
fn export_digest<R: PartialEq + std::fmt::Debug>(untraced: &R, run: impl Fn(&Tracer) -> R) -> u64 {
    let tracer = Tracer::new();
    tracer.set_mode(Mode::Full);
    assert_eq!(&run(&tracer), untraced, "tracing perturbed the replay");
    let mut h = Fnv::new();
    h.bytes(export::chrome_trace_json(&tracer.events()).as_bytes());
    h.0
}

fn checked_in(name: &str) -> (Scenario, Trace) {
    let path = format!(
        "{}/../../scenarios/{name}.scenario",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let scenario = Scenario::parse(&text).unwrap_or_else(|e| panic!("{path} does not parse: {e}"));
    let trace = TraceRecorder::new(&scenario)
        .record()
        .expect("valid scenario");
    (scenario, trace)
}

#[test]
fn single_engine_scenarios_match_the_recorded_digests() {
    // (scenario, trace fingerprint, replay digest, Chrome-export digest)
    let golden = [
        (
            "adversarial-herd",
            0x9cce_6478_1def_b64c_u64,
            0xb2b5_85e5_62d5_5c0b_u64,
            0x4b36_b704_0670_1fb0_u64,
        ),
        (
            "bursty-coalesce",
            0x3883_592b_61c2_009a,
            0xbad5_eb5c_d79f_b4ec,
            0x42f6_c281_680a_5a1a,
        ),
        (
            "diurnal-mix",
            0x9b0f_5ba8_2659_6ebe,
            0xaf24_d1e1_32ca_193c,
            0x735d_9cb3_1559_91fe,
        ),
        (
            "steady-poisson",
            0x6d2e_d8b9_9b0e_79b8,
            0xb15b_c9cd_044b_608c,
            0x59a5_11ac_b526_1b86,
        ),
    ];
    let got = golden.map(|(name, ..)| {
        let (scenario, trace) = checked_in(name);
        let untraced = simulate(&trace, scenario.policy, scenario.service);
        let chrome = export_digest(&untraced, |t| {
            simulate_traced(&trace, scenario.policy, scenario.service, t)
        });
        (name, trace.fingerprint(), replay_digest(&untraced), chrome)
    });
    assert_eq!(got, golden, "got {got:#x?}");
}

#[test]
fn the_fleet_zoo_and_its_dedicated_baseline_match_the_recorded_digests() {
    let scenario = checked_in_zoo();
    let trace = TraceRecorder::new(&scenario)
        .record()
        .expect("valid scenario");
    let registry = registry_for(&scenario);
    // The comparison `experiments::fleet::run` makes: one fabric per model.
    let placement = FleetPlacement::pack(&registry, registry.len(), fabric_capacity())
        .expect("the tiny zoo fits the fleet");
    let policy = FleetPolicy {
        per_fabric: scenario.policy,
        hosted: placement.hosted.clone(),
        tenant_weights: tenant_weights(&scenario),
    };
    let untraced = simulate_fleet(&trace, &policy, scenario.service);
    let got = (
        fleet_digest(&untraced),
        export_digest(&untraced, |t| {
            simulate_fleet_traced(&trace, &policy, scenario.service, t)
        }),
    );
    assert_eq!(
        got,
        (0xa688_db4a_b051_660b, 0x9872_8375_56e3_8a47),
        "fleet-zoo: got {got:#x?}"
    );

    // Dedicated baseline: each model's sub-trace (arrival times kept)
    // through the single-engine clock.
    let dedicated = [0u16, 1].map(|model| {
        let sub = Trace {
            scenario: trace.scenario.clone(),
            seed: trace.seed,
            events: trace
                .events
                .iter()
                .filter(|e| e.model == model)
                .copied()
                .collect(),
        };
        replay_digest(&simulate(&sub, scenario.policy, scenario.service))
    });
    assert_eq!(
        dedicated,
        [0x854c_cb15_b3fe_582d, 0xc11e_9185_e3ce_1512],
        "dedicated: got {dedicated:#x?}"
    );
}

#[test]
fn the_virtual_clock_batches_only_while_a_worker_is_busy() {
    // Fabric 0 hosts model 0, fabric 1 model 1, one worker each, a window
    // no arrival waits out. The engine is idle at 0, 10 000 and 20 000 µs;
    // the two model-1 arrivals at 10 and 20 µs land on an idle fabric while
    // fabric 0 executes, so they wait for it and leave as one batch.
    let event = |at_us, model| TraceEvent {
        at_us,
        tenant: 0,
        model,
        group: 0,
    };
    let trace = Trace {
        scenario: "idle-rule".into(),
        seed: 0,
        events: vec![
            event(0, 0),
            event(10, 1),
            event(20, 1),
            event(10_000, 0),
            event(20_000, 1),
        ],
    };
    let policy = FleetPolicy {
        per_fabric: ReplayPolicy {
            replicas: 1,
            max_batch: 8,
            window_us: 5_000,
        },
        hosted: vec![vec![0], vec![1]],
        tenant_weights: Vec::new(),
    };
    let service = ServiceModel {
        base_us: 100,
        per_request_us: 10,
    };
    let stats = simulate_fleet(&trace, &policy, service).aggregate.stats;
    assert_eq!((stats.completed, stats.batches), (5, 4));
    assert_eq!(
        stats.largest_batch(),
        2,
        "the busy-period arrivals coalesce"
    );
    assert_eq!(stats.batch_sizes.buckets()[1], 3, "idle arrivals run alone");
    // The pair pops the instant fabric 0 frees (110 µs), not at its
    // deadline: the earlier one's latency is 110 + 120 - 10.
    assert_eq!(stats.max_latency_us(), 220);
}

/// `simulate` is the one-fabric, one-lane, everything-hosted case of
/// the fleet loop — whatever tenants and models the events carry.
#[test]
fn simulate_is_the_fleet_loop_on_one_fabric_and_one_lane() {
    let name = "simulate_is_the_fleet_loop_on_one_fabric_and_one_lane";
    cases(name, 64, |rng| {
        let gaps = vec(rng, 1..120, |r| r.gen_range(0u64..400));
        let replicas = rng.gen_range(1usize..4);
        let max_batch = rng.gen_range(1usize..9);
        let window_us = rng.gen_range(0u64..500);
        let base_us = rng.gen_range(1u64..300);
        let per_request_us = rng.gen_range(0u64..60);
        let mut at_us = 0;
        let events: Vec<TraceEvent> = gaps
            .iter()
            .enumerate()
            .map(|(i, gap)| {
                at_us += gap;
                TraceEvent {
                    at_us,
                    tenant: 0,
                    model: (i % 3) as u16,
                    group: i as u32,
                }
            })
            .collect();
        let trace = Trace {
            scenario: "prop".into(),
            seed: 0,
            events,
        };
        let policy = ReplayPolicy {
            replicas,
            max_batch,
            window_us,
        };
        let service = ServiceModel {
            base_us,
            per_request_us,
        };
        let fleet = FleetPolicy {
            per_fabric: policy,
            hosted: vec![vec![0, 1, 2]],
            tenant_weights: Vec::new(),
        };
        let single = simulate(&trace, policy, service);
        let as_fleet = simulate_fleet(&trace, &fleet, service);
        assert_eq!(&as_fleet.aggregate, &single);
        assert_eq!(as_fleet.per_tenant, vec![single.stats]);
    });
}
