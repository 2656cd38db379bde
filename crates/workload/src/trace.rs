//! Materializing scenarios into explicit, replayable event traces.
//!
//! A [`TraceRecorder`] turns a [`Scenario`] into a [`Trace`]: one
//! [`TraceEvent`] per request, each stamped with its virtual arrival time,
//! tenant, model and arrival group (requests of one group are a client batch
//! submitted back-to-back at the same instant). Every stochastic draw is
//! seeded through `fpsa_nn::seeds::derive`, each consumer on its own stream
//! (`STREAM_ARRIVAL` for the arrival process, `STREAM_MIX` for
//! tenant/model/batch-size selection, `STREAM_REQUEST` for per-request input
//! features), so recording the same scenario twice yields the identical
//! trace, and any request's input vector can be regenerated from its trace
//! index alone — no stream scanning, no cross-contamination when one
//! component adds draws.

use crate::scenario::{ArrivalProcess, Scenario, ScenarioParseError};
use fpsa_nn::seeds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One request arrival in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Virtual arrival time, microseconds from trace start.
    pub at_us: u64,
    /// Index into the scenario's tenant mix.
    pub tenant: u16,
    /// Index into the scenario's model mix.
    pub model: u16,
    /// Arrival-group id: requests sharing a group are one client batch.
    pub group: u32,
}

/// An explicit event trace: the materialized form of a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Name of the scenario this trace was recorded from.
    pub scenario: String,
    /// The base seed the trace (and its request inputs) derive from.
    pub seed: u64,
    /// Arrival events in non-decreasing `at_us` order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Virtual time spanned by the arrivals (last minus first), µs.
    pub fn duration_us(&self) -> u64 {
        match (self.events.first(), self.events.last()) {
            (Some(first), Some(last)) => last.at_us - first.at_us,
            _ => 0,
        }
    }

    /// The input vector for the request at trace position `index`: uniform
    /// `[0, 1)` features from `StdRng(derive(seed, STREAM_REQUEST, index))`
    /// — regenerable without scanning the stream, identical on every
    /// replay.
    pub fn input_for(&self, index: usize, input_len: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seeds::derive(
            self.seed,
            seeds::STREAM_REQUEST,
            index as u64,
        ));
        (0..input_len).map(|_| rng.gen_range(0.0f32..1.0)).collect()
    }

    /// A 64-bit FNV-1a digest over every event field — a cheap identity for
    /// determinism pins and reports.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        eat(self.seed);
        eat(self.events.len() as u64);
        for e in &self.events {
            eat(e.at_us);
            eat(u64::from(e.tenant));
            eat(u64::from(e.model));
            eat(u64::from(e.group));
        }
        h
    }
}

/// Draw an index from a cumulative-weight table.
fn draw_weighted(rng: &mut StdRng, cumulative: &[f64]) -> usize {
    let total = *cumulative.last().expect("non-empty mix");
    let x = rng.gen_range(0.0f64..total);
    cumulative
        .iter()
        .position(|&c| x < c)
        .unwrap_or(cumulative.len() - 1)
}

fn cumulative(weights: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut acc = 0.0;
    weights
        .map(|w| {
            acc += w;
            acc
        })
        .collect()
}

/// Materializes scenarios into traces (see the module docs).
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    scenario: Scenario,
}

impl TraceRecorder {
    /// A recorder for `scenario`.
    pub fn new(scenario: &Scenario) -> TraceRecorder {
        TraceRecorder {
            scenario: scenario.clone(),
        }
    }

    /// Record the scenario into an explicit trace of exactly
    /// `scenario.requests` events. Deterministic: same scenario + seed,
    /// same trace, bit for bit.
    ///
    /// # Errors
    ///
    /// [`Scenario::validate`]'s error when the scenario is degenerate.
    /// Builder-constructed scenarios never went through the `parse` path,
    /// so this is where e.g. an all-zero mix weight surfaces as a typed
    /// error instead of a `gen_range(0.0..0.0)` panic deep in the sampler.
    pub fn record(&self) -> Result<Trace, ScenarioParseError> {
        self.scenario.validate()?;
        let s = &self.scenario;
        let mut mix_rng = [
            StdRng::seed_from_u64(seeds::derive(s.seed, seeds::STREAM_MIX, 0)),
            StdRng::seed_from_u64(seeds::derive(s.seed, seeds::STREAM_MIX, 1)),
            StdRng::seed_from_u64(seeds::derive(s.seed, seeds::STREAM_MIX, 2)),
        ];
        let tenant_cum = cumulative(s.tenants.iter().map(|e| e.weight));
        let model_cum = cumulative(s.models.iter().map(|e| e.weight));
        let batch_cum = cumulative(s.batch_mix.iter().map(|&(_, w)| w));

        let mut events = Vec::with_capacity(s.requests);
        for (group, at_us) in self.arrival_times().enumerate() {
            if events.len() >= s.requests {
                break;
            }
            let tenant = draw_weighted(&mut mix_rng[0], &tenant_cum) as u16;
            let model = draw_weighted(&mut mix_rng[1], &model_cum) as u16;
            let size = s.batch_mix[draw_weighted(&mut mix_rng[2], &batch_cum)].0;
            for _ in 0..size.min(s.requests - events.len()) {
                events.push(TraceEvent {
                    at_us,
                    tenant,
                    model,
                    group: group as u32,
                });
            }
        }
        Ok(Trace {
            scenario: s.name.clone(),
            seed: s.seed,
            events,
        })
    }

    /// The (unbounded) arrival-time stream for the scenario's process, in
    /// virtual microseconds. One yielded instant is one arrival *group*.
    fn arrival_times(&self) -> Box<dyn Iterator<Item = u64> + '_> {
        let s = &self.scenario;
        let mut rng = StdRng::seed_from_u64(seeds::derive(s.seed, seeds::STREAM_ARRIVAL, 0));
        match s.arrival {
            ArrivalProcess::Poisson { rate_per_s } => {
                let mut t = 0.0f64;
                Box::new(std::iter::repeat_with(move || {
                    t += exponential_gap_us(&mut rng, rate_per_s);
                    t as u64
                }))
            }
            ArrivalProcess::Bursty { period_us, burst } => {
                Box::new((0u64..).flat_map(move |k| std::iter::repeat_n(k * period_us, burst)))
            }
            ArrivalProcess::Diurnal {
                base_rate_per_s,
                peak_rate_per_s,
                period_us,
            } => {
                // Thinning: candidates at the peak rate, accepted with
                // probability λ(t)/λ_peak where λ swings sinusoidally.
                let mut accept =
                    StdRng::seed_from_u64(seeds::derive(s.seed, seeds::STREAM_ARRIVAL, 1));
                let mut t = 0.0f64;
                Box::new(std::iter::from_fn(move || loop {
                    t += exponential_gap_us(&mut rng, peak_rate_per_s);
                    let phase = (t / period_us as f64) * std::f64::consts::TAU;
                    let lambda = base_rate_per_s
                        + (peak_rate_per_s - base_rate_per_s) * 0.5 * (1.0 - phase.cos());
                    if accept.gen_range(0.0f64..1.0) < lambda / peak_rate_per_s {
                        return Some(t as u64);
                    }
                }))
            }
            ArrivalProcess::AdversarialClosedLoop {
                clients,
                think_us,
                barrier_us,
            } => {
                // Each client submits, waits for its (approximated, FIFO
                // single-server) completion plus think time, then holds
                // until the next barrier — the herd re-synchronizes into
                // simultaneous bursts. Fully deterministic.
                let service = s.service;
                let mut next: Vec<u64> = (0..clients).map(|_| 0).collect();
                let mut server_free = 0u64;
                Box::new(std::iter::from_fn(move || {
                    let (client, &at) = next
                        .iter()
                        .enumerate()
                        .min_by_key(|&(i, &t)| (t, i))
                        .expect("clients >= 1 validated");
                    let done = server_free.max(at) + service.batch_us(1);
                    server_free = done;
                    let ready = done + think_us;
                    next[client] = ready.div_ceil(barrier_us) * barrier_us;
                    Some(at)
                }))
            }
        }
    }
}

/// One exponential inter-arrival gap at `rate_per_s`, in microseconds.
fn exponential_gap_us(rng: &mut StdRng, rate_per_s: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0f64..1.0);
    -(1.0 - u).ln() / rate_per_s * 1_000_000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::MixEntry;

    fn scenario() -> Scenario {
        Scenario::steady("trace-test", "m", 11, 500)
            .with_batch_mix(vec![(1, 0.5), (4, 0.5)])
            .with_tenants(vec![
                MixEntry {
                    name: "a".into(),
                    weight: 1.0,
                },
                MixEntry {
                    name: "b".into(),
                    weight: 2.0,
                },
            ])
    }

    #[test]
    fn recording_is_deterministic_and_exactly_sized() {
        let a = TraceRecorder::new(&scenario()).record().unwrap();
        let b = TraceRecorder::new(&scenario()).record().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.len(), 500);
        let mut reseeded = scenario();
        reseeded.seed = 12;
        let c = TraceRecorder::new(&reseeded).record().unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn arrivals_are_monotone_and_groups_cohere() {
        for arrival in [
            ArrivalProcess::Poisson {
                rate_per_s: 5_000.0,
            },
            ArrivalProcess::Bursty {
                period_us: 300,
                burst: 4,
            },
            ArrivalProcess::Diurnal {
                base_rate_per_s: 500.0,
                peak_rate_per_s: 8_000.0,
                period_us: 20_000,
            },
            ArrivalProcess::AdversarialClosedLoop {
                clients: 6,
                think_us: 40,
                barrier_us: 250,
            },
        ] {
            let trace = TraceRecorder::new(&scenario().with_arrival(arrival.clone()))
                .record()
                .unwrap();
            assert_eq!(trace.len(), 500, "{arrival:?}");
            for pair in trace.events.windows(2) {
                assert!(pair[0].at_us <= pair[1].at_us, "{arrival:?} not monotone");
                if pair[0].group == pair[1].group {
                    assert_eq!(pair[0].at_us, pair[1].at_us);
                    assert_eq!(pair[0].tenant, pair[1].tenant);
                    assert_eq!(pair[0].model, pair[1].model);
                }
            }
        }
    }

    #[test]
    fn tenant_mix_weights_are_respected() {
        let trace = TraceRecorder::new(&scenario()).record().unwrap();
        let b_share =
            trace.events.iter().filter(|e| e.tenant == 1).count() as f64 / trace.len() as f64;
        assert!(
            (b_share - 2.0 / 3.0).abs() < 0.15,
            "tenant b share {b_share} far from 2/3"
        );
    }

    #[test]
    fn inputs_are_regenerable_per_index() {
        let trace = TraceRecorder::new(&scenario()).record().unwrap();
        let x = trace.input_for(42, 16);
        assert_eq!(x.len(), 16);
        assert_eq!(x, trace.input_for(42, 16));
        assert_ne!(x, trace.input_for(43, 16));
        assert!(x.iter().all(|v| (0.0..1.0).contains(v)));
    }

    #[test]
    fn zero_weight_mixes_are_a_typed_error_not_a_panic() {
        let mut degenerate = scenario();
        for entry in &mut degenerate.tenants {
            entry.weight = 0.0;
        }
        let err = TraceRecorder::new(&degenerate).record().unwrap_err();
        assert!(err.message.contains("weights must be > 0"), "{err}");
        assert_eq!(err.line, 0);
    }

    #[test]
    fn adversarial_closed_loop_resynchronizes_on_the_barrier() {
        let trace = TraceRecorder::new(&scenario().with_arrival(
            ArrivalProcess::AdversarialClosedLoop {
                clients: 4,
                think_us: 30,
                barrier_us: 500,
            },
        ))
        .record()
        .unwrap();
        // After the initial herd at t=0, every arrival lands on a barrier
        // multiple — the re-synchronized thundering pattern.
        assert!(trace.events.iter().all(|e| e.at_us % 500 == 0));
    }
}
