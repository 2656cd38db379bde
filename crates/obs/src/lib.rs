//! `fpsa_obs`: the unified telemetry subsystem (ROADMAP measurement
//! substrate; re-exported as `fpsa::obs`).
//!
//! Every layer of the stack — compile pipeline, bytecode executor, serving
//! engines, shard pipeline, fleet tier, virtual-time replay — records into
//! the same three primitives:
//!
//! * **Spans** ([`Tracer`], [`Span`], [`SpanId`]): interval events with
//!   explicit parent handles and caller-provided integer-µs timestamps, so
//!   the same API records wall-clock traces from live engines and
//!   bit-identical virtual-clock traces from the deterministic replay.
//! * **Metrics** ([`Registry`], [`Histogram`]): process-wide named
//!   counters with lock-free sharded recording, and the power-of-two
//!   [`Histogram`] — the one bucketing contract the whole stack shares
//!   (`fpsa_serve::ServeStats` and the fleet per-tenant stats are built on
//!   it).
//! * **Exporters** ([`export`]): Chrome trace-event JSON under
//!   `target/experiment-data/traces/`, per-run markdown summaries, and the
//!   flight-recorder postmortems dumped when a typed error is constructed.
//!
//! The contract that makes this safe to leave compiled into every engine:
//! with tracing [`Mode::Off`] (the default) a recording call is one relaxed
//! atomic load plus a branch — allocation-free, clock-free, pinned ≤2%
//! on the exec bench by CI — and enabling tracing only *observes* the
//! engines, so determinism suites pass with tracing on.

mod histogram;
mod registry;
mod trace;

pub mod export;

pub use histogram::{bucket_of, bucket_upper, Histogram, HIST_BUCKETS};
pub use registry::{Counter, MetricsSnapshot, Registry, MAX_COUNTERS, NUM_SHARDS};
pub use trace::{Event, FlightDump, Mode, Phase, Span, SpanId, Tracer, DEFAULT_FLIGHT_CAPACITY};

/// The typed-error hook: capture and persist a flight-recorder postmortem
/// from the global tracer. Called where `ServeError::Shed` and
/// `CompileError::CapacityExceeded` are constructed; a no-op (returning
/// `None`) when the global tracer is off or has recorded nothing, so error
/// paths stay cheap in untraced runs. Returns the dump also retained in
/// [`Tracer::last_dump`]; the on-disk write is best-effort.
pub fn flight_dump_on_error(
    reason: &'static str,
    args: &[(&'static str, i64)],
) -> Option<FlightDump> {
    let dump = Tracer::global().dump_flight(reason, args)?;
    let _ = export::write_flight_dump(&dump);
    Some(dump)
}
