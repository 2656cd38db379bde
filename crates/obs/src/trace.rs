//! Span-based structured tracing with caller-provided integer-µs clocks.
//!
//! # Span model
//!
//! A [`Span`] is an interval on a trace timeline, opened by
//! [`Tracer::enter`] and closed by [`Tracer::exit`]. Parenthood is
//! **explicit**: `enter` takes the parent's [`SpanId`] (or
//! [`SpanId::NONE`] for a root span), and a child shares its root's
//! correlation id, which is exactly what makes the Chrome-trace exporter
//! render a request's `queue → execute → respond` chain as nested async
//! slices on one track. There is no thread-local "current span" — handles
//! travel with the work (a queued request carries its `SpanId` through the
//! batcher and across worker threads), which is also why the model works
//! unchanged inside the single-threaded virtual-clock replay.
//!
//! # Clocks
//!
//! The tracer never reads a clock on the record path: every event carries
//! a caller-provided timestamp in integer microseconds. Real engines pass
//! wall-clock stamps ([`Tracer::now_us`], µs since tracer creation); the
//! workload subsystem's virtual-time replay passes its simulated clock, so
//! a simulated trace is a pure function of the scenario and **bit-identical
//! across runs** — CI pins the exported JSON bytes.
//!
//! # Hot-path discipline
//!
//! With the tracer [`Mode::Off`] (the default), every recording call is one
//! relaxed atomic load and a branch: no lock, no allocation, no clock read.
//! The overhead pin in CI holds the exec bench within 2% of a no-obs
//! baseline. Enabled recording appends fixed-size [`Event`] PODs (two
//! inline key/value args, `&'static str` names) under a mutex — still
//! allocation-free per event except for buffer growth.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// How much the tracer retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Record nothing; every call is one relaxed load and a branch.
    Off,
    /// Record only into the fixed-capacity flight-recorder ring (postmortem
    /// context for typed errors; steady-state memory is bounded).
    FlightRecorder,
    /// Record into the unbounded trace buffer *and* the flight ring.
    Full,
}

/// What kind of timeline mark an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// An async span opens (`ph: "b"` in Chrome trace terms).
    SpanBegin,
    /// An async span closes (`ph: "e"`).
    SpanEnd,
    /// A point-in-time mark (`ph: "i"`).
    Instant,
    /// A sampled counter value (`ph: "C"`).
    Counter,
}

/// Correlation id tying a span's begin/end (and a request's child spans)
/// together. `NONE` (0) means "tracing disabled / no parent" and is never
/// allocated to a live span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null id: no parent / tracing disabled.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the null id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// One fixed-size trace event. Plain `Copy` data — `&'static str` names,
/// at most two inline integer args — so recording never allocates and the
/// flight-recorder ring can overwrite slots without tearing concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Mark kind.
    pub phase: Phase,
    /// Event name (span name, instant name, or counter name).
    pub name: &'static str,
    /// Category, rendered as the Chrome-trace `cat` field.
    pub cat: &'static str,
    /// Caller-provided timestamp in integer microseconds.
    pub ts_us: u64,
    /// Correlation id (0 for free-standing instants/counters).
    pub id: u64,
    /// Up to two key/value args; `nargs` says how many are live.
    pub args: [(&'static str, i64); 2],
    /// Live entries in `args`.
    pub nargs: u8,
}

impl Event {
    fn new(phase: Phase, name: &'static str, cat: &'static str, ts_us: u64, id: u64) -> Event {
        Event {
            phase,
            name,
            cat,
            ts_us,
            id,
            args: [("", 0); 2],
            nargs: 0,
        }
    }

    fn with_args(mut self, args: &[(&'static str, i64)]) -> Event {
        for &arg in args.iter().take(2) {
            self.args[usize::from(self.nargs)] = arg;
            self.nargs += 1;
        }
        self
    }

    /// The live args as a slice.
    pub fn args(&self) -> &[(&'static str, i64)] {
        &self.args[..usize::from(self.nargs)]
    }
}

/// An open span handle: plain `Copy` data that can ride inside queued
/// requests across threads. Close it with [`Tracer::exit`]; attach
/// key/value marks with [`Tracer::record`]. A handle with
/// `id == SpanId::NONE` (from a disabled tracer) makes every subsequent
/// call a no-op.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Correlation id shared with the root of this span's chain.
    pub id: SpanId,
    /// The parent passed to [`Tracer::enter`] (`NONE` for roots).
    pub parent: SpanId,
    name: &'static str,
    cat: &'static str,
}

impl Span {
    /// The inert handle a disabled tracer hands out.
    pub const DISABLED: Span = Span {
        id: SpanId::NONE,
        parent: SpanId::NONE,
        name: "",
        cat: "",
    };
}

/// The flight-recorder ring: a preallocated, fixed-capacity circular buffer
/// of the most recent events. All access goes through one mutex, so a
/// reader can never observe a half-written event no matter how many
/// threads record concurrently (pinned by `tests/flight_recorder.rs`).
#[derive(Debug)]
struct Ring {
    slots: Vec<Event>,
    capacity: usize,
    /// Next slot to overwrite.
    head: usize,
    /// Lifetime events pushed (≥ `slots.len()`).
    total: u64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            slots: Vec::with_capacity(capacity),
            capacity: capacity.max(1),
            head: 0,
            total: 0,
        }
    }

    fn push(&mut self, event: Event) {
        if self.slots.len() < self.capacity {
            self.slots.push(event);
        } else {
            self.slots[self.head] = event;
        }
        self.head = (self.head + 1) % self.capacity;
        self.total += 1;
    }

    /// Events oldest-first.
    fn snapshot(&self) -> Vec<Event> {
        if self.slots.len() < self.capacity {
            self.slots.clone()
        } else {
            let mut out = Vec::with_capacity(self.slots.len());
            out.extend_from_slice(&self.slots[self.head..]);
            out.extend_from_slice(&self.slots[..self.head]);
            out
        }
    }
}

/// A postmortem snapshot taken when a typed error was constructed: the
/// flight ring's contents at that moment plus the trigger's context.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// What triggered the dump (e.g. `"serve.shed"`).
    pub reason: &'static str,
    /// Trigger context (e.g. the shedding tenant).
    pub args: Vec<(&'static str, i64)>,
    /// Ring contents, oldest-first.
    pub events: Vec<Event>,
    /// Lifetime events the ring had seen (wraparound diagnostic).
    pub total_recorded: u64,
}

/// Everything behind the tracer's mutex.
#[derive(Debug)]
struct Buffers {
    events: Vec<Event>,
    ring: Ring,
    last_dump: Option<FlightDump>,
}

/// Default flight-recorder capacity, in events.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// The tracing sink (see the module docs). Engines use the process-wide
/// [`Tracer::global`]; deterministic replays construct their own so the
/// exported trace is a pure function of the scenario.
#[derive(Debug)]
pub struct Tracer {
    mode: AtomicU8,
    next_id: AtomicU64,
    buffers: Mutex<Buffers>,
    started: Instant,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh tracer in [`Mode::Off`].
    pub fn new() -> Tracer {
        Tracer::with_flight_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// A fresh tracer whose flight ring holds `capacity` events.
    pub fn with_flight_capacity(capacity: usize) -> Tracer {
        Tracer {
            mode: AtomicU8::new(0),
            next_id: AtomicU64::new(1),
            buffers: Mutex::new(Buffers {
                events: Vec::new(),
                ring: Ring::new(capacity),
                last_dump: None,
            }),
            started: Instant::now(),
        }
    }

    /// The process-wide tracer every engine records into.
    pub fn global() -> &'static Tracer {
        static GLOBAL: OnceLock<Tracer> = OnceLock::new();
        GLOBAL.get_or_init(Tracer::new)
    }

    /// Switch recording mode (takes effect on the next recording call).
    pub fn set_mode(&self, mode: Mode) {
        let raw = match mode {
            Mode::Off => 0,
            Mode::FlightRecorder => 1,
            Mode::Full => 2,
        };
        self.mode.store(raw, Ordering::Relaxed);
    }

    /// Current recording mode.
    pub fn mode(&self) -> Mode {
        match self.mode.load(Ordering::Relaxed) {
            0 => Mode::Off,
            1 => Mode::FlightRecorder,
            _ => Mode::Full,
        }
    }

    /// Whether any recording is on — the one relaxed load every disabled
    /// call boils down to.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode.load(Ordering::Relaxed) != 0
    }

    /// Microseconds since this tracer was created: the wall-clock timestamp
    /// source for real (non-virtual) engines.
    pub fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    fn push(&self, event: Event) {
        let mode = self.mode.load(Ordering::Relaxed);
        if mode == 0 {
            return;
        }
        let mut buffers = self.buffers.lock().expect("tracer lock");
        buffers.ring.push(event);
        if mode >= 2 {
            buffers.events.push(event);
        }
    }

    /// Open a span at `ts_us`. A root span (`parent == SpanId::NONE`) gets
    /// a fresh correlation id; a child shares its parent's, which is what
    /// nests the chain in the Chrome-trace export. Returns
    /// [`Span::DISABLED`] (and records nothing) when the tracer is off.
    pub fn enter(&self, name: &'static str, cat: &'static str, ts_us: u64, parent: SpanId) -> Span {
        if !self.enabled() {
            return Span::DISABLED;
        }
        let id = if parent.is_none() {
            SpanId(self.next_id.fetch_add(1, Ordering::Relaxed))
        } else {
            parent
        };
        self.push(Event::new(Phase::SpanBegin, name, cat, ts_us, id.0));
        Span {
            id,
            parent,
            name,
            cat,
        }
    }

    /// Open a span with inline args on its begin event.
    pub fn enter_with(
        &self,
        name: &'static str,
        cat: &'static str,
        ts_us: u64,
        parent: SpanId,
        args: &[(&'static str, i64)],
    ) -> Span {
        if !self.enabled() {
            return Span::DISABLED;
        }
        let id = if parent.is_none() {
            SpanId(self.next_id.fetch_add(1, Ordering::Relaxed))
        } else {
            parent
        };
        self.push(Event::new(Phase::SpanBegin, name, cat, ts_us, id.0).with_args(args));
        Span {
            id,
            parent,
            name,
            cat,
        }
    }

    /// Close a span at `ts_us`. No-op for [`Span::DISABLED`].
    pub fn exit(&self, span: &Span, ts_us: u64) {
        if span.id.is_none() || !self.enabled() {
            return;
        }
        self.push(Event::new(
            Phase::SpanEnd,
            span.name,
            span.cat,
            ts_us,
            span.id.0,
        ));
    }

    /// Attach a key/value mark to an open span (an instant on the span's
    /// correlation id). No-op for [`Span::DISABLED`].
    pub fn record(&self, span: &Span, key: &'static str, value: i64, ts_us: u64) {
        if span.id.is_none() || !self.enabled() {
            return;
        }
        self.push(
            Event::new(Phase::Instant, span.name, span.cat, ts_us, span.id.0)
                .with_args(&[(key, value)]),
        );
    }

    /// A free-standing point-in-time mark.
    pub fn instant(
        &self,
        name: &'static str,
        cat: &'static str,
        ts_us: u64,
        args: &[(&'static str, i64)],
    ) {
        if !self.enabled() {
            return;
        }
        self.push(Event::new(Phase::Instant, name, cat, ts_us, 0).with_args(args));
    }

    /// A sampled counter value (rendered as a Chrome-trace counter track).
    pub fn counter(&self, name: &'static str, cat: &'static str, ts_us: u64, value: i64) {
        if !self.enabled() {
            return;
        }
        self.push(Event::new(Phase::Counter, name, cat, ts_us, 0).with_args(&[("value", value)]));
    }

    /// Snapshot of the full-mode trace buffer (empty unless [`Mode::Full`]).
    pub fn events(&self) -> Vec<Event> {
        self.buffers.lock().expect("tracer lock").events.clone()
    }

    /// Snapshot of the flight ring, oldest-first.
    pub fn flight_events(&self) -> Vec<Event> {
        self.buffers.lock().expect("tracer lock").ring.snapshot()
    }

    /// Lifetime events the flight ring has seen (wraparound diagnostic).
    pub fn flight_total(&self) -> u64 {
        self.buffers.lock().expect("tracer lock").ring.total
    }

    /// Drop all buffered events (mode is unchanged).
    pub fn clear(&self) {
        let mut buffers = self.buffers.lock().expect("tracer lock");
        buffers.events.clear();
        let capacity = buffers.ring.capacity;
        buffers.ring = Ring::new(capacity);
        buffers.last_dump = None;
    }

    /// Capture a postmortem [`FlightDump`] — called from typed-error
    /// construction sites (`ServeError::Shed`,
    /// `CompileError::CapacityExceeded`) so the last moments before a
    /// failure come for free. Returns `None` (and retains nothing) when the
    /// tracer is off or the ring is empty. The dump is also retained as
    /// [`Tracer::last_dump`] for tests and exporters.
    pub fn dump_flight(
        &self,
        reason: &'static str,
        args: &[(&'static str, i64)],
    ) -> Option<FlightDump> {
        if !self.enabled() {
            return None;
        }
        let mut buffers = self.buffers.lock().expect("tracer lock");
        if buffers.ring.total == 0 {
            return None;
        }
        let dump = FlightDump {
            reason,
            args: args.to_vec(),
            events: buffers.ring.snapshot(),
            total_recorded: buffers.ring.total,
        };
        buffers.last_dump = Some(dump.clone());
        Some(dump)
    }

    /// The most recent [`FlightDump`], if any error triggered one.
    pub fn last_dump(&self) -> Option<FlightDump> {
        self.buffers.lock().expect("tracer lock").last_dump.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_hands_out_inert_spans() {
        let tracer = Tracer::new();
        assert!(!tracer.enabled());
        let span = tracer.enter("request", "serve", 10, SpanId::NONE);
        assert!(span.id.is_none());
        tracer.record(&span, "batch", 4, 11);
        tracer.exit(&span, 12);
        tracer.instant("route", "fleet", 13, &[("host", 2)]);
        tracer.counter("depth", "serve", 14, 9);
        assert!(tracer.events().is_empty());
        assert!(tracer.flight_events().is_empty());
        assert_eq!(tracer.flight_total(), 0);
        assert!(tracer.dump_flight("test", &[]).is_none());
    }

    #[test]
    fn children_share_their_roots_correlation_id() {
        let tracer = Tracer::new();
        tracer.set_mode(Mode::Full);
        let root = tracer.enter("request", "serve", 0, SpanId::NONE);
        let child = tracer.enter("queue", "serve", 1, root.id);
        assert!(!root.id.is_none());
        assert_eq!(child.id, root.id);
        assert_eq!(child.parent, root.id);
        tracer.exit(&child, 2);
        tracer.exit(&root, 3);
        let events = tracer.events();
        assert_eq!(events.len(), 4);
        assert!(events.iter().all(|e| e.id == root.id.0));
        assert_eq!(events[0].phase, Phase::SpanBegin);
        assert_eq!(events[3].phase, Phase::SpanEnd);
        // A second root gets a distinct id.
        let other = tracer.enter("request", "serve", 4, SpanId::NONE);
        assert_ne!(other.id, root.id);
    }

    #[test]
    fn flight_ring_wraps_around_keeping_the_newest_events() {
        let tracer = Tracer::with_flight_capacity(4);
        tracer.set_mode(Mode::FlightRecorder);
        for i in 0..10u64 {
            tracer.instant("tick", "test", i, &[("i", i as i64)]);
        }
        let ring = tracer.flight_events();
        assert_eq!(ring.len(), 4);
        let stamps: Vec<u64> = ring.iter().map(|e| e.ts_us).collect();
        assert_eq!(stamps, vec![6, 7, 8, 9], "oldest-first, newest retained");
        assert_eq!(tracer.flight_total(), 10);
        // FlightRecorder mode keeps the unbounded buffer empty.
        assert!(tracer.events().is_empty());
    }

    #[test]
    fn dump_captures_ring_contents_and_trigger_context() {
        let tracer = Tracer::with_flight_capacity(8);
        tracer.set_mode(Mode::FlightRecorder);
        for depth in [3i64, 5, 9] {
            tracer.counter("queue_depth", "serve", depth as u64, depth);
        }
        let dump = tracer
            .dump_flight("serve.shed", &[("tenant", 2), ("p99_us", 900)])
            .expect("ring is non-empty");
        assert_eq!(dump.reason, "serve.shed");
        assert_eq!(dump.args, vec![("tenant", 2), ("p99_us", 900)]);
        assert_eq!(dump.events.len(), 3);
        assert_eq!(dump.events[2].args(), &[("value", 9)]);
        assert_eq!(tracer.last_dump().unwrap().reason, "serve.shed");
    }
}
