//! `fpsa_workload` — trace-driven workload replay for the serving engines.
//!
//! The serving experiments used to hard-code their own arrival loops (a
//! burst here, a fixed-gap dribble there), which made workloads impossible
//! to share, vary or replay exactly. This crate replaces those loops with a
//! record → replay pipeline:
//!
//! 1. **Describe** the workload as a declarative [`Scenario`]: arrival
//!    process (Poisson, bursty, diurnal, adversarial closed-loop), model /
//!    tenant / client-batch mixes, a linear [`ServiceModel`] and a
//!    [`ReplayPolicy`]. Scenarios round-trip through a line-based config
//!    format ([`Scenario::parse`] / [`Scenario::to_config_string`]) so they
//!    can be checked in under `scenarios/`.
//! 2. **Record** it into an explicit [`Trace`] with [`TraceRecorder`]: one
//!    timestamped event per request, every stochastic draw seeded through
//!    `fpsa_nn::seeds::derive` on its own stream — the same scenario and
//!    seed always produce the identical trace, and any request's input
//!    vector regenerates from its index alone.
//! 3. **Replay** it two ways. [`TraceReplayer`] drives the *real*
//!    [`fpsa_serve::ServeEngine`] / [`fpsa_serve::ShardedEngine`] through
//!    their public submit/ticket APIs — outputs are bit-identical across
//!    replays, replica counts and client thread counts, wall-clock numbers
//!    are advisory. [`simulate`] replays the trace under a deterministic
//!    virtual clock that drives the serving core's own
//!    [`fpsa_serve::StationState`] — its [`fpsa_serve::ServeStats`] is
//!    identical on every run and so safe to pin in CI.
//! 4. **Report**: [`report::scenario_report`] renders per-scenario markdown
//!    and strict JSON for the bench harness to write under
//!    `target/experiment-data/workload/`.
//!
//! # Quick start
//!
//! ```
//! use fpsa_workload::{simulate, Scenario, TraceRecorder};
//!
//! let scenario = Scenario::steady("quickstart", "tiny_mlp", 7, 2_000);
//! let trace = TraceRecorder::new(&scenario).record().expect("scenario is valid");
//! let replay = simulate(&trace, scenario.policy, scenario.service);
//! assert_eq!(replay.stats.completed, 2_000);
//! // Same scenario, same seed: the virtual-clock stats are bit-identical.
//! let again = simulate(&trace, scenario.policy, scenario.service);
//! assert_eq!(replay, again);
//! ```

pub mod replay;
pub mod report;
pub mod scenario;
pub mod sim;
pub mod trace;

pub use replay::{ReplayOutcome, ReplayTarget, RoutedReplayTarget, TraceReplayer};
pub use report::{scenario_report, ScenarioReport};
pub use scenario::{
    ArrivalProcess, MixEntry, ReplayPolicy, Scenario, ScenarioParseError, ServiceModel,
};
pub use sim::{
    simulate, simulate_fleet, simulate_fleet_traced, simulate_traced, FleetPolicy,
    FleetVirtualReplay, VirtualReplay,
};
pub use trace::{Trace, TraceEvent, TraceRecorder};
