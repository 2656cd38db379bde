//! Property suite for the station's one batching decision.
//!
//! [`StationState`] is the state both serving drivers share: the threaded
//! worker (lock → `decide` → wait or pop) and the virtual-clock replay in
//! `fpsa_workload` (`decide` → event instant). It is pure — time and the
//! engine's idleness are arguments — so seeded random sequences of push /
//! relay / close / decide+take, at arbitrary instants and idle flags, check
//! the contract both drivers rely on:
//!
//! * `decide == Now` exactly when `take` yields a batch;
//! * `Until(t)` names a future instant at which a busy engine pops;
//! * relayed batches pop whole, in order, before any lane work;
//! * a closed station never waits: it pops or reports `Drained`, and drains
//!   everything at one instant;
//! * `Drained` exactly when closed with nothing queued or relayed;
//! * every pushed or relayed item pops exactly once.

use fpsa_serve::{BatchPolicy, Decision, StationState};
use fpsa_testgen::{cases, vec};
use rand::Rng;
use std::collections::VecDeque;

/// The test's own account of what the station holds.
#[derive(Default)]
struct Model {
    queued: usize,
    relayed: VecDeque<(u16, Vec<u32>)>,
    closed: bool,
    popped: Vec<u32>,
}

/// One `decide` + `take` at `now`, checked against the model.
fn decide_and_take(station: &mut StationState<u32>, model: &mut Model, now: u64, idle: bool) {
    let decision = station.decide(now, idle);
    let empty = model.queued == 0 && model.relayed.is_empty();
    assert_eq!(
        decision == Decision::Drained,
        model.closed && empty,
        "{decision:?} at {now}: closed {}, queued {}, relayed {}",
        model.closed,
        model.queued,
        model.relayed.len()
    );
    match decision {
        Decision::Until(t) => {
            assert!(!model.closed, "a closed station waited until {t}");
            assert!(t > now, "Until({t}) is not after now {now}");
            assert_eq!(
                station.decide(t, false),
                Decision::Now,
                "nothing pops at {t}"
            );
        }
        Decision::Park => assert!(!model.closed && empty, "parked with work queued"),
        Decision::Now | Decision::Drained => {}
    }
    let taken = station.take(now, idle);
    assert_eq!(taken.is_some(), decision == Decision::Now, "{decision:?}");
    let Some((lane, batch)) = taken else {
        return;
    };
    assert!(!batch.is_empty(), "an empty batch popped");
    match model.relayed.pop_front() {
        Some(front) => assert_eq!((lane, batch.clone()), front, "relayed work jumped"),
        None => model.queued -= batch.len(),
    }
    assert_eq!(station.queued(None), model.queued);
    model.popped.extend(batch);
}

/// Random transitions keep the decision and the pops in agreement.
#[test]
fn the_decision_and_the_pop_agree() {
    cases("the_decision_and_the_pop_agree", 256, |rng| {
        let max_batch = rng.gen_range(1usize..6);
        let window_us = rng.gen_range(0u64..400);
        let weights = (0..3).map(|_| rng.gen_range(1u64..4)).collect::<Vec<_>>();
        let ops = vec(rng, 1..160, |r| {
            (0..4).map(|_| r.gen_range(0u64..1_000)).collect::<Vec<_>>()
        });
        let lanes: Vec<(u16, u64)> = (0u16..).zip(weights).collect();
        let mut station = StationState::new(BatchPolicy::new(max_batch, window_us), &lanes);
        let mut model = Model::default();
        let mut clock = 0u64;
        let mut next_item = 0u32;
        for op in &ops {
            let (kind, gap, arg, idle) = (op[0], op[1], op[2], op[3] % 2 == 0);
            clock += gap;
            match kind {
                // Admit one request to a lane, stamped at the clock.
                0..=399 => {
                    station.push((arg % 3) as u16, next_item, clock);
                    model.queued += 1;
                    next_item += 1;
                }
                // Relay a whole upstream batch.
                400..=499 => {
                    let size = 1 + (arg % 4) as u32;
                    let batch: Vec<u32> = (next_item..next_item + size).collect();
                    next_item += size;
                    station.relay((arg % 3) as u16, batch.clone());
                    model.relayed.push_back(((arg % 3) as u16, batch));
                }
                500..=509 => {
                    station.close();
                    model.closed = true;
                }
                // Decide and pop, at the clock or at an arbitrary instant.
                _ => {
                    let now = if arg % 2 == 0 { clock } else { arg * 7 };
                    decide_and_take(&mut station, &mut model, now, idle);
                }
            }
        }
        // Close and drain at one instant, with the engine busy: nothing may
        // wait out its window.
        station.close();
        model.closed = true;
        while station.decide(clock, false) != Decision::Drained {
            decide_and_take(&mut station, &mut model, clock, false);
        }
        decide_and_take(&mut station, &mut model, clock, false);
        model.popped.sort_unstable();
        assert_eq!(model.popped, (0..next_item).collect::<Vec<u32>>());
    });
}
