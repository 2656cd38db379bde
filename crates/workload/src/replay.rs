//! Replaying a recorded trace against the *real* serving engines.
//!
//! This is the measured half of the workload story: the virtual clock in
//! [`crate::sim`] answers "what do these arrivals deserve" deterministically,
//! while [`TraceReplayer`] pushes the very same events through a live
//! `ServeEngine` / `ShardedEngine` / `FleetEngine` worker pool and reports
//! what actually happened on the wall clock. Outputs are **bit-identical** across replays,
//! replica counts and client thread counts — every request's input vector is
//! regenerated from the trace seed by index ([`Trace::input_for`]) and the
//! executors themselves are deterministic — so acceptance tests can pin
//! `f32`-exact agreement while timing stays advisory.

use crate::trace::{Trace, TraceEvent};
use fpsa_serve::{Engine, ServeStats, Ticket};
use std::time::Instant;

/// Anything a recorded trace can be replayed against: the two serving
/// engines today, test doubles tomorrow. One request in, one ticket out,
/// engine-contract counters on demand.
pub trait ReplayTarget {
    /// Enqueue one request; the ticket resolves when a worker finishes it.
    fn submit(&self, input: Vec<f32>) -> Ticket;
    /// A snapshot of the target's lifetime counters.
    fn stats(&self) -> ServeStats;
}

/// [`fpsa_serve::ServeEngine`] and [`fpsa_serve::ShardedEngine`] alike.
impl<const CHAIN: bool> ReplayTarget for Engine<CHAIN> {
    fn submit(&self, input: Vec<f32>) -> Ticket {
        Engine::submit(self, input)
    }
    fn stats(&self) -> ServeStats {
        Engine::stats(self)
    }
}

/// A replay target that routes by the trace's tenant and model columns —
/// the fleet tier, where one front door serves a whole model zoo and
/// requests carry their tenant for weighted-fair admission. Single-model
/// targets are the degenerate case (`ReplayTarget` ignores both columns).
pub trait RoutedReplayTarget {
    /// Enqueue one request for `model` on behalf of `tenant`.
    fn submit_routed(&self, tenant: u16, model: u16, input: Vec<f32>) -> Ticket;
    /// A snapshot of the target's aggregate lifetime counters.
    fn stats(&self) -> ServeStats;
}

/// What one real-engine replay produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Every request's logits, in trace order. Bit-identical across
    /// replays of the same trace whatever the replica or client count.
    pub outputs: Vec<Vec<f32>>,
    /// Worker-stamped queue-to-completion latency per request, trace
    /// order. Wall-clock: advisory, never pinned.
    pub latencies_us: Vec<u64>,
    /// Wall time from first submission to last completion, microseconds.
    pub wall_us: u64,
    /// The target's counters after the replay (includes any earlier use).
    pub stats: ServeStats,
}

impl ReplayOutcome {
    /// Requests per wall-clock second over the whole replay.
    pub fn throughput_rps(&self) -> f64 {
        self.outputs.len() as f64 / (self.wall_us.max(1) as f64 / 1_000_000.0)
    }
}

/// Drives a recorded [`Trace`] through a [`ReplayTarget`], regenerating
/// each request's input from the trace seed. Every event is submitted
/// back-to-back (the throughput shape); the recorded offsets only matter
/// to the virtual clock.
pub struct TraceReplayer<'a> {
    trace: &'a Trace,
    input_len: usize,
}

impl<'a> TraceReplayer<'a> {
    /// A replayer for `trace` whose requests carry `input_len` features
    /// (pass the executor's bound input width).
    pub fn new(trace: &'a Trace, input_len: usize) -> TraceReplayer<'a> {
        TraceReplayer { trace, input_len }
    }

    /// Replay every event from one client thread, in trace order.
    pub fn replay<T: ReplayTarget>(&self, target: &T) -> ReplayOutcome {
        let start = Instant::now();
        let resolved = self.client(0, 1, &self.plain(target));
        Self::outcome(resolved, start, target.stats())
    }

    /// Replay through `clients` concurrent submitter threads (events dealt
    /// round-robin, each client submitting its share in trace order), then
    /// reassemble outputs back into trace order. Exercises the engines'
    /// cross-thread admission path; outputs still match [`Self::replay`]
    /// bit for bit.
    pub fn replay_concurrent<T: ReplayTarget + Sync>(
        &self,
        target: &T,
        clients: usize,
    ) -> ReplayOutcome {
        let start = Instant::now();
        let resolved = self.concurrent(clients, &self.plain(target));
        Self::outcome(resolved, start, target.stats())
    }

    /// Replay every event through a routed target, honouring each event's
    /// tenant and model columns. `input_lens[model]` gives each model's
    /// input width (models index the trace's mix order, same as the
    /// registry's dense ids). One client thread, trace order.
    ///
    /// # Panics
    ///
    /// When an event's model has no entry in `input_lens` — the trace and
    /// the fleet registry disagree, which is a harness bug, not a serving
    /// condition.
    pub fn replay_routed<T: RoutedReplayTarget>(
        &self,
        target: &T,
        input_lens: &[usize],
    ) -> ReplayOutcome {
        let start = Instant::now();
        let submit = self.routed(target, input_lens);
        let resolved = self.client(0, 1, &submit);
        Self::outcome(resolved, start, target.stats())
    }

    /// [`Self::replay_routed`] through `clients` concurrent submitter
    /// threads (events dealt round-robin, reassembled into trace order),
    /// exercising the routed target's cross-thread admission path. Outputs
    /// still match the single-client replay bit for bit.
    ///
    /// # Panics
    ///
    /// As [`Self::replay_routed`], when a model is missing an input width.
    pub fn replay_routed_concurrent<T: RoutedReplayTarget + Sync>(
        &self,
        target: &T,
        input_lens: &[usize],
        clients: usize,
    ) -> ReplayOutcome {
        let start = Instant::now();
        let resolved = self.concurrent(clients, &self.routed(target, input_lens));
        Self::outcome(resolved, start, target.stats())
    }

    /// How event `index` is submitted to a single-model target.
    fn plain<'t, T: ReplayTarget>(
        &'t self,
        target: &'t T,
    ) -> impl Fn(usize, &TraceEvent) -> Ticket + 't {
        move |index, _| target.submit(self.trace.input_for(index, self.input_len))
    }

    /// How event `index` is submitted to a routed target.
    fn routed<'t, T: RoutedReplayTarget>(
        &'t self,
        target: &'t T,
        input_lens: &'t [usize],
    ) -> impl Fn(usize, &TraceEvent) -> Ticket + 't {
        move |index, event| {
            let len = input_lens[usize::from(event.model)];
            target.submit_routed(event.tenant, event.model, self.trace.input_for(index, len))
        }
    }

    /// The one replay body: client `client` of `clients` submits its
    /// round-robin share of the trace in order, then collects its tickets.
    fn client(
        &self,
        client: usize,
        clients: usize,
        submit: &impl Fn(usize, &TraceEvent) -> Ticket,
    ) -> Vec<Resolved> {
        let events = &self.trace.events;
        let tickets: Vec<(usize, Ticket)> = (client..events.len())
            .step_by(clients)
            .map(|index| (index, submit(index, &events[index])))
            .collect();
        let wait = |(index, ticket): (usize, Ticket)| match ticket.wait_timed() {
            Ok((logits, latency_us)) => (index, logits, latency_us),
            Err(e) => panic!("replay request {index} failed: {e}"),
        };
        tickets.into_iter().map(wait).collect()
    }

    /// Run [`Self::client`] on `clients` scoped threads.
    fn concurrent(
        &self,
        clients: usize,
        submit: &(impl Fn(usize, &TraceEvent) -> Ticket + Sync),
    ) -> Vec<Resolved> {
        let clients = clients.max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| scope.spawn(move || self.client(c, clients, submit)))
                .collect();
            let joined = handles.into_iter().map(|handle| handle.join());
            joined
                .flat_map(|share| share.expect("replay client panicked"))
                .collect()
        })
    }

    /// Put the clients' results back into trace order.
    fn outcome(mut resolved: Vec<Resolved>, start: Instant, stats: ServeStats) -> ReplayOutcome {
        let wall_us = start.elapsed().as_micros() as u64;
        resolved.sort_unstable_by_key(|&(index, ..)| index);
        let in_order = resolved.into_iter().map(|(_, logits, us)| (logits, us));
        let (outputs, latencies_us) = in_order.unzip();
        ReplayOutcome {
            outputs,
            latencies_us,
            wall_us,
            stats,
        }
    }
}

/// One answered request: `(trace index, logits, latency_us)`.
type Resolved = (usize, Vec<f32>, u64);
