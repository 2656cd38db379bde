//! The one serving core: stations, workers, the submit / reject / shutdown
//! path and the router. [`crate::ServeEngine`], [`crate::ShardedEngine`]
//! and `fpsa_fleet::FleetEngine` are configurations of it, and the
//! virtual-clock twin in `fpsa_workload` drives the same [`StationState`],
//! [`Router`] and per-lane stats under a simulated clock.
//!
//! A **station** is a [`StationState`] behind a mutex, with a condvar:
//! weighted-fair lanes that coalesce admitted requests into batches, a FIFO
//! of whole batches relayed from an upstream station, and a closed flag.
//! [`StationState::decide`] is the one batching decision — pop now, wait
//! until a deadline, park, or end — and it reads no lock or clock, so both
//! drivers share it. Each station has `replicas` **workers** running one
//! loop: claim a batch under the station lock, close its queue spans,
//! resolve the executor, execute *outside every lock* on the worker's own
//! arena, count the run before answering it, then answer the tickets — or,
//! in a chain, hand the batch to the next station as a unit.
//!
//! | engine | stations | lanes | executor | admission check |
//! |---|---|---|---|---|
//! | `ServeEngine` | 1 | 1 | fixed | input length |
//! | `ShardedEngine` | a chain, one per stage | 1, at the entry | fixed per stage | input length |
//! | `FleetEngine` | one per fabric, routed | one per tenant, weighted | bind-handle LRU | model, length, SLO shed |
//!
//! Batching is work-conserving: the core counts the batches in flight
//! engine-wide, and a part-full batch waits for company (up to the
//! policy's `window_us`) only while that count is non-zero. The worker whose
//! finish brings it to zero wakes a waiter at every other station with
//! queued work, so an idle engine serves a lone request at once. A closed
//! station drains without waiting out the batch window, and a chain closes
//! front to back, so every admitted ticket resolves.

use crate::batcher::BatchPolicy;
use crate::engine::{Response, ServeError, ServeStats, Ticket};
use crate::wfq::WeightedFairBatcher;
use fpsa_obs::{Counter, Registry, Span, SpanId, Tracer};
use fpsa_sim::exec::{ExecArena, Executor};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// The telemetry vocabulary of one engine tier.
#[derive(Debug, Clone, Copy)]
pub struct Tier {
    /// Span category and registry-counter prefix (`serve`, `shard`, `fleet`).
    pub name: &'static str,
    /// Name of the span a worker opens around each execution hop.
    pub hop: &'static str,
    /// Arg naming the station on queue and hop spans (empty: no such arg).
    pub station_arg: &'static str,
    /// Name of the queue-depth counter track sampled at admission.
    pub depth_counter: &'static str,
}

/// The one routing rule, shared by the fleet's front door and its
/// virtual-clock twin: shortest queue among the stations hosting the model,
/// ties to the lowest index. A model hosted nowhere routes across every
/// station, so a stale placement degrades to a shared queue instead of
/// dropping (or panicking on) the request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Router {
    /// Stations hosting each model, ascending, dense by model id.
    hosts: Vec<Vec<usize>>,
    all: Vec<usize>,
}

impl Router {
    /// The router over a per-station `hosted` table (at least one station).
    pub fn new(hosted: &[Vec<u16>]) -> Router {
        let all: Vec<usize> = (0..hosted.len().max(1)).collect();
        let models = hosted
            .iter()
            .flatten()
            .max()
            .map_or(0, |&m| u32::from(m) + 1);
        let hosts_of = |model| {
            let hosting = all.iter().copied().filter(|&s| hosted[s].contains(&model));
            hosting.collect()
        };
        let hosts = (0..models).map(|model| hosts_of(model as u16)).collect();
        Router { hosts, all }
    }

    /// Number of stations routed across.
    pub fn stations(&self) -> usize {
        self.all.len()
    }

    /// `model`'s hosts, or every station when it is hosted nowhere.
    pub fn hosts(&self, model: u16) -> &[usize] {
        match self.hosts.get(usize::from(model)) {
            Some(hosts) if !hosts.is_empty() => hosts,
            _ => &self.all,
        }
    }

    /// Pick `model`'s station given each station's current queue `depth`.
    pub fn route(&self, model: u16, depth: impl Fn(usize) -> usize) -> usize {
        let shortest = |&station: &usize| (depth(station), station);
        let hosts = self.hosts(model).iter().copied();
        hosts
            .min_by_key(shortest)
            .expect("a router has >= 1 station")
    }
}

/// `lane`'s counters in a per-lane table (dense by lane id; the aggregate
/// is [`ServeStats::merged`] over it), materializing every lane up to it.
pub fn lane_mut(lanes: &mut Vec<ServeStats>, lane: u16) -> &mut ServeStats {
    let index = usize::from(lane);
    if lanes.len() <= index {
        lanes.resize_with(index + 1, ServeStats::default);
    }
    &mut lanes[index]
}

/// How a worker at `station` obtains `model`'s executor; called on the
/// worker thread with no core lock held.
pub type Resolver = Box<dyn Fn(usize, u16) -> Result<Arc<Executor>, ServeError> + Send + Sync>;

/// What an engine asks of the core (see the module table).
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Telemetry names.
    pub tier: Tier,
    /// Stations: routed fabrics, or pipeline stages when `chain`.
    pub stations: usize,
    /// Whether station `s` hands its finished batches to `s + 1` (tickets
    /// resolve at the last station) instead of answering them itself.
    pub chain: bool,
    /// Workers per station.
    pub replicas: usize,
    /// Coalescing policy of every lane.
    pub policy: BatchPolicy,
    /// Weighted-fair shares: `(lane, weight)`; unlisted lanes weigh 1.
    pub lane_weights: Vec<(u16, u64)>,
}

/// One request inside the core; its payload is rewritten to each stage's
/// output as it crosses a chain.
struct Job {
    model: u16,
    payload: Vec<f32>,
    submitted_us: u64,
    tx: Sender<Response>,
    /// Root trace span; [`Span::DISABLED`] (every later tracing call a
    /// no-op) when the global tracer was off at submission.
    span: Span,
    /// Open while the job waits in a station's queue.
    queue_span: Span,
}

/// What a station's worker does next ([`StationState::decide`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// A batch is ready: [`StationState::take`] yields it.
    Now,
    /// Nothing pops before this deadline unless work arrives or the engine
    /// goes idle.
    Until(u64),
    /// Nothing is queued: wait for work.
    Park,
    /// Closed with nothing queued or relayed: the worker ends.
    Drained,
}

/// One station's pure state (see the module docs): no lock, clock or
/// condvar — time and the engine's idleness are arguments.
#[derive(Debug)]
pub struct StationState<T> {
    lanes: WeightedFairBatcher<T>,
    /// Whole batches handed over by the previous station of a chain.
    relayed: VecDeque<(u16, Vec<T>)>,
    /// No more work will arrive: admissions are refused (entry) or every
    /// upstream worker has exited (relay), so an empty queue ends workers.
    closed: bool,
}

impl<T> StationState<T> {
    /// An open, empty station; unlisted lanes weigh 1.
    pub fn new(policy: BatchPolicy, lane_weights: &[(u16, u64)]) -> Self {
        StationState {
            lanes: WeightedFairBatcher::with_weights(policy, lane_weights),
            relayed: VecDeque::new(),
            closed: false,
        }
    }

    /// Requests queued in `lane`, or in all lanes (`None`), relays aside.
    pub fn queued(&self, lane: Option<u16>) -> usize {
        lane.map_or(self.lanes.len(), |lane| self.lanes.tenant_len(lane))
    }

    /// Admit `item` to `lane`, observed at `now_us` (monotone stamps).
    pub fn push(&mut self, lane: u16, item: T, now_us: u64) {
        self.lanes.push(lane, item, now_us);
    }

    /// Queue a whole batch from an upstream station, ahead of lane work.
    pub fn relay(&mut self, lane: u16, batch: Vec<T>) {
        self.relayed.push_back((lane, batch));
    }

    /// No more work will arrive: drain without waiting out the window.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// The one batching decision at `now_us`; `idle`: no worker of the
    /// engine is executing.
    pub fn decide(&self, now_us: u64, idle: bool) -> Decision {
        if !self.relayed.is_empty() || self.lanes.ready(now_us, idle) {
            return Decision::Now;
        }
        match (self.closed, self.lanes.next_deadline_us()) {
            (true, Some(_)) => Decision::Now,
            (true, None) => Decision::Drained,
            (false, Some(deadline)) => Decision::Until(deadline),
            (false, None) => Decision::Park,
        }
    }

    /// Pop the batch a [`Decision::Now`] promised (else `None`): relayed
    /// first, then the lanes, then — once closed — whatever is left.
    pub fn take(&mut self, now_us: u64, idle: bool) -> Option<(u16, Vec<T>)> {
        let ready = self.relayed.pop_front();
        let ready = ready.or_else(|| self.lanes.pop_ready(now_us, idle));
        if ready.is_some() || !self.closed {
            return ready;
        }
        self.lanes.pop_now()
    }
}

struct Station {
    state: Mutex<StationState<Job>>,
    work: Condvar,
}

impl Station {
    fn lock(&self) -> MutexGuard<'_, StationState<Job>> {
        self.state.lock().expect("station lock")
    }

    fn close(&self) {
        self.lock().close();
        self.work.notify_all();
    }

    /// Block until a batch is ready (`None`: drained out, the worker
    /// ends), returned with the guard that counts it in flight. Wakes on
    /// new work, on the engine going idle and on the oldest request's
    /// deadline; the `notify_one` after a pop hands leftover work to another
    /// replica — that hand-off is the batch pipeline.
    fn next_batch<'a>(
        &self,
        shared: &'a Shared,
        station: usize,
    ) -> Option<(u16, Vec<Job>, Busy<'a>)> {
        let mut state = self.lock();
        loop {
            let now = shared.now_us();
            let idle = shared.in_flight.load(Ordering::Acquire) == 0;
            state = match state.decide(now, idle) {
                Decision::Now => {
                    let (lane, batch) = state.take(now, idle).expect("a decided batch pops");
                    let busy = Busy::start(shared, station);
                    if !state.relayed.is_empty() || !state.lanes.is_empty() {
                        self.work.notify_one();
                    }
                    return Some((lane, batch, busy));
                }
                Decision::Until(deadline) => {
                    let wait = Duration::from_micros(deadline.saturating_sub(now).max(1));
                    self.work.wait_timeout(state, wait).expect("station lock").0
                }
                Decision::Park => self.work.wait(state).expect("station lock"),
                Decision::Drained => return None,
            };
        }
    }
}

/// Global-registry counter handles (`{tier}.submitted` …), registered once
/// at start so the hot path pays one relaxed RMW per event — never the
/// registry's name-table lock.
struct EngineCounters {
    submitted: Counter,
    completed: Counter,
    failed: Counter,
    rejected: Counter,
}

impl EngineCounters {
    fn for_tier(tier: &str) -> EngineCounters {
        let counter = |event| Registry::global().counter(&format!("{tier}.{event}"));
        EngineCounters {
            submitted: counter("submitted"),
            completed: counter("completed"),
            failed: counter("failed"),
            rejected: counter("rejected"),
        }
    }
}

/// One popped batch in flight, from its pop until its run or relay ends —
/// dropped on every exit path, a failed or panicking run included, so the
/// engine-wide count cannot leak.
struct Busy<'a> {
    shared: &'a Shared,
    station: usize,
}

impl<'a> Busy<'a> {
    fn start(shared: &'a Shared, station: usize) -> Busy<'a> {
        shared.in_flight.fetch_add(1, Ordering::AcqRel);
        Busy { shared, station }
    }
}

impl Drop for Busy<'_> {
    /// The last batch out wakes one waiter at every other station holding
    /// queued work: its part-full batch stops waiting for company. (This
    /// station's own worker is about to look for work itself.) Taking the
    /// station lock orders the wake after a waiter's idle check.
    fn drop(&mut self) {
        if self.shared.in_flight.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        let stations = self.shared.stations.iter().enumerate();
        for (_, station) in stations.filter(|&(index, _)| index != self.station) {
            let state = station.state.lock().unwrap_or_else(PoisonError::into_inner);
            if !state.lanes.is_empty() {
                station.work.notify_one();
            }
        }
    }
}

/// Everything the workers share.
struct Shared {
    tier: Tier,
    chain: bool,
    stations: Vec<Station>,
    /// Batches popped and not yet finished or relayed, engine-wide. It
    /// publishes no other data; waiters read it under their station lock,
    /// and the finish that takes it to 0 then takes each other station's
    /// lock before waking it, so a waiter either sees 0 or is already
    /// waiting when the wake comes.
    in_flight: AtomicUsize,
    stats: Mutex<Vec<ServeStats>>,
    resolve: Resolver,
    counters: EngineCounters,
    started: Instant,
}

impl Shared {
    /// Microseconds since the core started (every queue's clock).
    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    fn stats(&self) -> MutexGuard<'_, Vec<ServeStats>> {
        self.stats.lock().expect("stats lock")
    }

    /// Open a request's `queue` span at `station` (disabled with its root).
    fn queue_span(&self, tracer: &Tracer, station: usize, root: &Span, ts: u64) -> Span {
        if root.id.is_none() {
            return Span::DISABLED;
        }
        let args = [(self.tier.station_arg, station as i64)];
        let args = &args[usize::from(self.tier.station_arg.is_empty())..];
        tracer.enter_with("queue", self.tier.name, ts, root.id, args)
    }

    /// Mark and close a refused request's spans, count the rejection for
    /// its lane, resolve the ticket with `err`.
    fn refuse(&self, lane: u16, err: ServeError, span: Span, queue: Span, tx: &Sender<Response>) {
        if !span.id.is_none() {
            let tracer = Tracer::global();
            let ts = tracer.now_us();
            let shutdown = matches!(err, ServeError::ShutDown);
            let mark = if shutdown { "shutdown" } else { "rejected" };
            tracer.record(&span, mark, 1, ts);
            tracer.exit(&queue, ts);
            tracer.exit(&span, ts);
        }
        lane_mut(&mut self.stats(), lane).rejected += 1;
        Registry::global().inc(self.counters.rejected);
        let _ = tx.send(Err(err));
    }

    /// Count a finished run, then answer its tickets — in that order, so
    /// a client holding its output always observes itself in the stats.
    fn finish(
        &self,
        lane: u16,
        run: &[Job],
        result: Result<(), ServeError>,
        outputs: &mut [Vec<f32>],
        done_us: u64,
    ) {
        let latency_of = |job: &Job| done_us.saturating_sub(job.submitted_us);
        let ok = result.is_ok();
        {
            let mut stats = self.stats();
            let lane = lane_mut(&mut stats, lane);
            lane.record_batch(run.len(), ok);
            for job in run.iter().filter(|_| ok) {
                lane.record_latency(latency_of(job));
            }
        }
        let counter = [self.counters.failed, self.counters.completed][usize::from(ok)];
        Registry::global().add(counter, run.len() as u64);
        let tracer = Tracer::global();
        match result {
            Ok(()) => {
                for (job, out) in run.iter().zip(outputs) {
                    let latency = latency_of(job);
                    if job.span.id.is_none() {
                        let _ = job.tx.send(Ok((std::mem::take(out), latency)));
                        continue;
                    }
                    let name = self.tier.name;
                    let respond = tracer.enter("respond", name, tracer.now_us(), job.span.id);
                    let _ = job.tx.send(Ok((std::mem::take(out), latency)));
                    let ts = tracer.now_us();
                    tracer.record(&job.span, "latency_us", latency as i64, ts);
                    tracer.exit(&respond, ts);
                    tracer.exit(&job.span, ts);
                }
            }
            Err(e) => {
                // Inputs are validated at submission, so this is an
                // internal failure; every member of the run learns of it.
                for job in run {
                    let _ = job.tx.send(Err(e.clone()));
                    if !job.span.id.is_none() {
                        let ts = tracer.now_us();
                        tracer.record(&job.span, "exec_error", 1, ts);
                        tracer.exit(&job.span, ts);
                    }
                }
            }
        }
    }
}

/// One worker of `station`: the loop described in the module docs.
fn worker_loop(shared: &Shared, station: usize) {
    let tracer = Tracer::global();
    let tier = shared.tier;
    let next = station + 1;
    let relays = shared.chain && next < shared.stations.len();
    let mut arena = ExecArena::new();
    let mut inputs: Vec<Vec<f32>> = Vec::new();
    let mut outputs: Vec<Vec<f32>> = Vec::new();
    let mut hop_spans: Vec<Span> = Vec::new();
    while let Some((lane, mut batch, _busy)) = shared.stations[station].next_batch(shared, station)
    {
        if tracer.enabled() {
            let ts = tracer.now_us();
            for job in &batch {
                tracer.exit(&job.queue_span, ts);
            }
        }
        while !batch.is_empty() {
            // A lane is FIFO across models; a run is the longest prefix of
            // one model, executed as one executor batch. Splitting off an
            // empty rest (the single-model case) allocates nothing.
            let model = batch[0].model;
            let len = batch.iter().take_while(|job| job.model == model).count();
            let rest = batch.split_off(len);
            let mut run = std::mem::replace(&mut batch, rest);
            inputs.clear();
            inputs.extend(run.iter_mut().map(|job| std::mem::take(&mut job.payload)));
            hop_spans.clear();
            if tracer.enabled() {
                let ts = tracer.now_us();
                let size = ("batch", run.len() as i64);
                let args = [(tier.station_arg, station as i64), size];
                let args = &args[usize::from(tier.station_arg.is_empty())..];
                let open =
                    |job: &Job| tracer.enter_with(tier.hop, tier.name, ts, job.span.id, args);
                hop_spans.extend(run.iter().map(open));
            }
            let result = (shared.resolve)(station, model).and_then(|exec| {
                exec.run_batch_into(&inputs, &mut arena, &mut outputs)
                    .map_err(ServeError::Exec)
            });
            let done_us = shared.now_us();
            if !hop_spans.is_empty() {
                let ts = tracer.now_us();
                for span in &hop_spans {
                    tracer.exit(span, ts);
                }
            }
            if result.is_err() || !relays {
                shared.finish(lane, &run, result, &mut outputs, done_us);
                continue;
            }
            // Rewrite payloads to this stage's outputs and relay the run
            // as a unit — the next station sees it exactly once.
            let ts = if tracer.enabled() { tracer.now_us() } else { 0 };
            for (job, out) in run.iter_mut().zip(outputs.iter_mut()) {
                job.payload = std::mem::take(out);
                job.queue_span = shared.queue_span(tracer, next, &job.span, ts);
            }
            shared.stations[next].lock().relay(lane, run);
            shared.stations[next].work.notify_one();
        }
    }
}

/// A running core: the stations and their worker threads (see the module
/// docs). Dropping it shuts down and joins.
pub struct Core {
    shared: Arc<Shared>,
    /// Worker handles grouped by station, so a chain can drain in order.
    workers: Vec<Vec<thread::JoinHandle<()>>>,
}

impl Core {
    /// Start the stations and spawn `replicas` workers on each (counts
    /// clamped to at least 1).
    pub fn start(config: CoreConfig, resolve: Resolver) -> Core {
        let station = |_| Station {
            state: Mutex::new(StationState::new(config.policy, &config.lane_weights)),
            work: Condvar::new(),
        };
        let stations = (0..config.stations.max(1)).map(station).collect();
        let shared = Arc::new(Shared {
            tier: config.tier,
            chain: config.chain,
            stations,
            in_flight: AtomicUsize::new(0),
            stats: Mutex::new(Vec::new()),
            resolve,
            counters: EngineCounters::for_tier(config.tier.name),
            started: Instant::now(),
        });
        let workers = (0..shared.stations.len())
            .map(|station| {
                (0..config.replicas.max(1))
                    .map(|replica| {
                        let shared = Arc::clone(&shared);
                        thread::Builder::new()
                            .name(format!("fpsa-{}-{station}-{replica}", config.tier.name))
                            .spawn(move || worker_loop(&shared, station))
                            .expect("serving worker threads spawn")
                    })
                    .collect()
            })
            .collect();
        Core { shared, workers }
    }

    /// Requests queued at `station` — by `lane`, or in all lanes (`None`:
    /// the router's load signal).
    pub fn queued(&self, station: usize, lane: Option<u16>) -> usize {
        self.shared.stations[station].lock().queued(lane)
    }

    /// `lane`'s observed p99 latency in microseconds (0 before any
    /// completion) — what an SLO admission check compares.
    pub fn lane_p99_latency_us(&self, lane: u16) -> u64 {
        let stats = self.shared.stats();
        let lane = stats.get(usize::from(lane));
        lane.map_or(0, ServeStats::p99_latency_us)
    }

    /// The one front door: `admitted` is the engine's admission verdict —
    /// `(station, model, payload)` to enqueue on `lane`, or the error to
    /// refuse the request with (counted as rejected, like a submission to a
    /// closed station). Never blocks on the model; `args` (at most two)
    /// annotate the request's root span.
    pub fn submit(
        &self,
        lane: u16,
        args: &[(&'static str, i64)],
        admitted: Result<(usize, u16, Vec<f32>), ServeError>,
    ) -> Ticket {
        let shared = &*self.shared;
        let tier = shared.tier;
        let (tx, ticket) = Ticket::channel();
        // One relaxed load when tracing is off; spans open outside the
        // station lock so tracing never extends the critical section.
        let tracer = Tracer::global();
        let ts = if tracer.enabled() { tracer.now_us() } else { 0 };
        let span = tracer.enter_with("request", tier.name, ts, SpanId::NONE, args);
        let (station, model, payload) = match admitted {
            Ok(request) => request,
            Err(err) => {
                shared.refuse(lane, err, span, Span::DISABLED, &tx);
                return ticket;
            }
        };
        let queue_span = shared.queue_span(tracer, station, &span, ts);
        let unit = &shared.stations[station];
        let mut state = unit.lock();
        if state.closed {
            drop(state);
            shared.refuse(lane, ServeError::ShutDown, span, queue_span, &tx);
            return ticket;
        }
        // Stamped under the station lock, so each lane's timestamps are
        // monotone and its oldest entry is always the front.
        let now = shared.now_us();
        let job = Job {
            model,
            payload,
            submitted_us: now,
            tx,
            span,
            queue_span,
        };
        state.push(lane, job, now);
        let depth = state.queued(None);
        // Counted while the station lock is still held: a worker cannot
        // pop (let alone complete) this request before the lock drops, so
        // `completed + failed <= submitted` holds in every stats snapshot.
        {
            let mut stats = shared.stats();
            let lane = lane_mut(&mut stats, lane);
            lane.submitted += 1;
            lane.record_queue_depth(depth);
        }
        drop(state);
        Registry::global().inc(shared.counters.submitted);
        tracer.counter(tier.depth_counter, tier.name, now, depth as i64);
        unit.work.notify_one();
        ticket
    }

    /// A consistent snapshot of the lifetime counters, dense by lane id.
    pub fn stats(&self) -> Vec<ServeStats> {
        self.shared.stats().clone()
    }

    /// Stop admitting, drain every queue and join the workers: routed
    /// stations close together, a chain front to back, each stage once its
    /// feeder's workers have exited. Idempotent.
    pub fn shutdown_and_join(&mut self) {
        let stations = &self.shared.stations;
        if !self.shared.chain {
            stations.iter().for_each(Station::close);
        }
        for (station, handles) in self.workers.iter_mut().enumerate() {
            stations[station].close();
            for handle in handles.drain(..) {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Core {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsa_core::Compiler;
    use fpsa_nn::params::mlp_graph;
    use fpsa_nn::{ComputationalGraph, GraphParameters};
    use fpsa_sim::Precision;
    use std::sync::Barrier;

    /// A window no test waits out: a request resolving promptly was served
    /// because the engine was idle (or its batch filled).
    const FOREVER_US: u64 = 30_000_000;

    fn bind(graph: &ComputationalGraph) -> Arc<Executor> {
        let params = GraphParameters::seeded(graph, 7);
        let compiled = Compiler::fpsa().compile(graph).unwrap();
        Arc::new(
            compiled
                .executor(graph, &params, &Precision::Float)
                .unwrap(),
        )
    }

    /// A 16-input model.
    fn executor() -> Arc<Executor> {
        bind(&mlp_graph("whole", &[16, 8, 4]))
    }

    /// `stations` stations (a chain when `chain`) of `replicas` workers.
    fn start_chain(stations: usize, chain: bool, replicas: usize, resolve: Resolver) -> Core {
        let config = CoreConfig {
            tier: Tier {
                name: "core-test",
                hop: "execute",
                station_arg: "",
                depth_counter: "core-test.queue_depth",
            },
            stations,
            chain,
            replicas,
            policy: BatchPolicy::new(4, FOREVER_US),
            lane_weights: Vec::new(),
        };
        Core::start(config, resolve)
    }

    fn start(replicas: usize, resolve: Resolver) -> Core {
        start_chain(1, false, replicas, resolve)
    }

    /// A resolver whose first call at `station` blocks until `gate` is
    /// passed a second time: the batch it resolves for keeps the engine
    /// busy for as long as the test likes.
    fn held(station: usize, gate: &Arc<Barrier>, stages: Vec<Arc<Executor>>) -> Resolver {
        let gate = Arc::clone(gate);
        let calls = AtomicUsize::new(0);
        Box::new(move |at, _| {
            if at == station && calls.fetch_add(1, Ordering::Relaxed) == 0 {
                gate.wait();
            }
            Ok(Arc::clone(&stages[at]))
        })
    }

    /// Block until nothing is queued at `station`.
    fn until_popped(core: &Core, station: usize) {
        while core.queued(station, None) > 0 {
            thread::yield_now();
        }
    }

    fn request(core: &Core, len: usize) -> Ticket {
        core.submit(0, &[], Ok((0, 0, vec![0.5; len])))
    }

    /// A lone request resolves far inside the window: nothing is in flight.
    fn assert_served_at_once(core: &Core) {
        let start = Instant::now();
        request(core, 16).wait().expect("served");
        let waited = start.elapsed();
        assert!(
            waited < Duration::from_secs(1),
            "lone request waited {waited:?}"
        );
    }

    #[test]
    fn a_failed_resolve_does_not_leave_the_engine_busy() {
        let exec = executor();
        let calls = AtomicUsize::new(0);
        let core = start(
            1,
            Box::new(
                move |_, model| match calls.fetch_add(1, Ordering::Relaxed) {
                    0 => Err(ServeError::UnknownModel { model }),
                    _ => Ok(Arc::clone(&exec)),
                },
            ),
        );
        let failed = request(&core, 16).wait();
        assert_eq!(failed, Err(ServeError::UnknownModel { model: 0 }));
        assert_served_at_once(&core);
    }

    #[test]
    fn a_failed_batch_does_not_leave_the_engine_busy() {
        let exec = executor();
        let core = start(1, Box::new(move |_, _| Ok(Arc::clone(&exec))));
        // The core trusts its engines to validate lengths, so a short
        // payload reaches the executor and fails the batch.
        let failed = request(&core, 3).wait();
        assert!(matches!(failed, Err(ServeError::Exec(_))), "{failed:?}");
        assert_served_at_once(&core);
        let stats = ServeStats::merged(&core.stats());
        assert_eq!((stats.failed, stats.completed), (1, 1));
    }

    #[test]
    fn a_busy_engine_still_waits_for_company() {
        let gate = Arc::new(Barrier::new(2));
        let core = start(2, held(0, &gate, vec![executor()]));
        let first = request(&core, 16);
        until_popped(&core, 0);
        // One worker is executing, so three stragglers wait for company
        // instead of running at once.
        let stragglers: Vec<Ticket> = (0..3).map(|_| request(&core, 16)).collect();
        thread::sleep(Duration::from_millis(50));
        assert_eq!(
            core.queued(0, None),
            3,
            "a busy engine popped a part-full batch"
        );
        // The fourth fills the batch, which pops without the window.
        let fourth = request(&core, 16);
        for ticket in stragglers.into_iter().chain([fourth]) {
            ticket.wait().expect("served");
        }
        gate.wait();
        first.wait().expect("served");
        let stats = ServeStats::merged(&core.stats());
        assert_eq!((stats.batches, stats.largest_batch()), (2, 4));
    }

    #[test]
    fn a_full_batch_crosses_a_chain_as_one_unit() {
        let stages = vec![
            bind(&mlp_graph("front", &[16, 8])),
            bind(&mlp_graph("back", &[8, 4])),
        ];
        let gate = Arc::new(Barrier::new(2));
        let core = start_chain(2, true, 1, held(0, &gate, stages));
        let first = request(&core, 16);
        until_popped(&core, 0);
        // The entry's only worker is held, so these four fill one batch.
        let tickets: Vec<Ticket> = (0..4).map(|_| request(&core, 16)).collect();
        gate.wait();
        for ticket in tickets.into_iter().chain([first]) {
            assert_eq!(ticket.wait().expect("served").len(), 4);
        }
        // Counted at the exit station: the lone first request, then the
        // four as one batch — the relay never split it.
        let stats = ServeStats::merged(&core.stats());
        assert_eq!((stats.batches, stats.largest_batch()), (2, 4));
    }
}
