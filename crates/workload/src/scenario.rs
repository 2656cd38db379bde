//! Declarative workload scenarios.
//!
//! A [`Scenario`] describes a request workload the way a benchmark suite
//! config does (modeled on the `benchmarks/[config]/config.json` suites of
//! SimPoint-style simulation pipelines): an arrival process, a model mix, a
//! tenant mix, a client batch-size mix, a virtual service-cost model and a
//! default queueing policy. Scenarios are pure data — materializing one into
//! an explicit event trace is [`crate::TraceRecorder`]'s job, and every draw
//! it makes is seeded through the `fpsa_nn::seeds` derived-stream
//! convention, so a scenario plus its seed *is* the workload.
//!
//! # The config format
//!
//! Checked-in scenarios live in `scenarios/*.scenario` as `key = value`
//! lines (`#` starts a comment). The vendored serde facade serializes
//! through `Debug` and cannot deserialize, so the format has a first-class
//! parser here instead: [`Scenario::parse`] and
//! [`Scenario::to_config_string`] round-trip exactly, and the
//! `scenario_configs` test suite holds every checked-in file to that.
//!
//! ```text
//! name = steady-poisson
//! seed = 193
//! requests = 4096
//! arrival = poisson rate_per_s=2000
//! service = base_us=40 per_request_us=15
//! policy = replicas=2 max_batch=8 window_us=200
//! models = MLP-500-100:1
//! tenants = free:1 pro:3
//! batch_mix = 1:0.7 4:0.2 8:0.1
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;

/// One weighted entry of a model or tenant mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixEntry {
    /// Display name (model zoo name, tenant name).
    pub name: String,
    /// Relative weight (> 0; weights need not sum to 1).
    pub weight: f64,
}

/// How request arrivals are generated over virtual time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Open-loop Poisson arrivals at a constant rate: exponential
    /// inter-arrival gaps.
    Poisson {
        /// Mean arrival rate, requests per second.
        rate_per_s: f64,
    },
    /// Open-loop bursts: every `period_us` a burst of `burst` simultaneous
    /// arrivals (the classic coalescing-friendly pattern the serving
    /// experiments used to hand-roll).
    Bursty {
        /// Burst period in virtual microseconds.
        period_us: u64,
        /// Arrivals per burst.
        burst: usize,
    },
    /// Open-loop Poisson whose rate swings sinusoidally between a trough
    /// and a peak over `period_us` — a whole diurnal load curve compressed
    /// into virtual time. Generated by thinning a `peak_rate_per_s`
    /// process.
    Diurnal {
        /// Trough arrival rate, requests per second.
        base_rate_per_s: f64,
        /// Peak arrival rate, requests per second.
        peak_rate_per_s: f64,
        /// Length of one day in virtual microseconds.
        period_us: u64,
    },
    /// Closed-loop clients tuned against the batcher: each client submits,
    /// waits for (approximated) completion plus `think_us`, then holds its
    /// next request until the next `barrier_us` boundary — so the herd
    /// re-synchronizes into simultaneous thundering bursts instead of
    /// spreading out, the adversarial case for a deadline-based batch
    /// window.
    AdversarialClosedLoop {
        /// Concurrent closed-loop clients.
        clients: usize,
        /// Think time between completion and the next submission attempt.
        think_us: u64,
        /// Barrier the herd re-synchronizes on, in virtual microseconds.
        barrier_us: u64,
    },
}

/// The virtual per-batch service-cost model the deterministic replay clock
/// runs on: a batch of `n` requests occupies its replica for
/// `base_us + n * per_request_us` virtual microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceModel {
    /// Fixed per-batch dispatch cost, microseconds.
    pub base_us: u64,
    /// Marginal per-request cost, microseconds.
    pub per_request_us: u64,
}

impl ServiceModel {
    /// Virtual service time for a batch of `n` requests.
    pub fn batch_us(&self, n: usize) -> u64 {
        self.base_us
            .saturating_add(self.per_request_us.saturating_mul(n as u64))
    }
}

/// The queueing policy the virtual replay simulates (and the default for
/// driving a real engine): replica count plus the dynamic-batch policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayPolicy {
    /// Virtual replica workers (≥ 1).
    pub replicas: usize,
    /// Largest batch one replica executes in one go (≥ 1).
    pub max_batch: usize,
    /// How long a part-full batch may wait for stragglers while some
    /// virtual worker is busy, in virtual microseconds.
    pub window_us: u64,
}

/// A declarative workload description (see the module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (report titles, artifact file names).
    pub name: String,
    /// Base seed every derived stream mixes in.
    pub seed: u64,
    /// Total requests the materialized trace contains.
    pub requests: usize,
    /// The arrival process.
    pub arrival: ArrivalProcess,
    /// Weighted model mix (which model each request targets).
    pub models: Vec<MixEntry>,
    /// Weighted tenant mix (which tenant each request bills to).
    pub tenants: Vec<MixEntry>,
    /// Client batch-size mix: `(size, weight)` — one *arrival* submits
    /// `size` requests back-to-back at the same instant.
    pub batch_mix: Vec<(usize, f64)>,
    /// The virtual service-cost model.
    pub service: ServiceModel,
    /// The virtual (and default real) queueing policy.
    pub policy: ReplayPolicy,
}

/// A config line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioParseError {
    /// 1-based line number (0 for whole-document errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "scenario config: {}", self.message)
        } else {
            write!(f, "scenario config line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ScenarioParseError {}

fn err(line: usize, message: impl Into<String>) -> ScenarioParseError {
    ScenarioParseError {
        line,
        message: message.into(),
    }
}

/// Parse `key=value` tokens ("rate_per_s=2000") out of a parameter list.
fn kv_params(line: usize, text: &str) -> Result<Vec<(&str, &str)>, ScenarioParseError> {
    text.split_whitespace()
        .map(|tok| {
            tok.split_once('=')
                .ok_or_else(|| err(line, format!("expected key=value, got `{tok}`")))
        })
        .collect()
}

fn lookup<'a>(
    line: usize,
    params: &[(&'a str, &'a str)],
    key: &str,
) -> Result<&'a str, ScenarioParseError> {
    params
        .iter()
        .find(|(k, _)| *k == key)
        .map(|&(_, v)| v)
        .ok_or_else(|| err(line, format!("missing parameter `{key}`")))
}

fn parse_num<T: std::str::FromStr>(
    line: usize,
    key: &str,
    value: &str,
) -> Result<T, ScenarioParseError> {
    value
        .parse()
        .map_err(|_| err(line, format!("`{key}` is not a valid number: `{value}`")))
}

/// Parse a `name:weight name:weight …` mix list.
fn parse_mix(line: usize, text: &str) -> Result<Vec<MixEntry>, ScenarioParseError> {
    text.split_whitespace()
        .map(|tok| {
            let (name, weight) = tok
                .rsplit_once(':')
                .ok_or_else(|| err(line, format!("expected name:weight, got `{tok}`")))?;
            Ok(MixEntry {
                name: name.to_string(),
                weight: parse_num(line, name, weight)?,
            })
        })
        .collect()
}

fn render_mix(entries: &[MixEntry]) -> String {
    entries
        .iter()
        .map(|e| format!("{}:{}", e.name, e.weight))
        .collect::<Vec<_>>()
        .join(" ")
}

impl ArrivalProcess {
    fn render(&self) -> String {
        match self {
            ArrivalProcess::Poisson { rate_per_s } => format!("poisson rate_per_s={rate_per_s}"),
            ArrivalProcess::Bursty { period_us, burst } => {
                format!("bursty period_us={period_us} burst={burst}")
            }
            ArrivalProcess::Diurnal {
                base_rate_per_s,
                peak_rate_per_s,
                period_us,
            } => format!(
                "diurnal base_rate_per_s={base_rate_per_s} \
                 peak_rate_per_s={peak_rate_per_s} period_us={period_us}"
            ),
            ArrivalProcess::AdversarialClosedLoop {
                clients,
                think_us,
                barrier_us,
            } => format!(
                "adversarial_closed_loop clients={clients} think_us={think_us} \
                 barrier_us={barrier_us}"
            ),
        }
    }

    fn parse(line: usize, text: &str) -> Result<Self, ScenarioParseError> {
        let (kind, rest) = match text.split_once(char::is_whitespace) {
            Some((kind, rest)) => (kind, rest),
            None => (text, ""),
        };
        let params = kv_params(line, rest)?;
        match kind {
            "poisson" => Ok(ArrivalProcess::Poisson {
                rate_per_s: parse_num(line, "rate_per_s", lookup(line, &params, "rate_per_s")?)?,
            }),
            "bursty" => Ok(ArrivalProcess::Bursty {
                period_us: parse_num(line, "period_us", lookup(line, &params, "period_us")?)?,
                burst: parse_num(line, "burst", lookup(line, &params, "burst")?)?,
            }),
            "diurnal" => Ok(ArrivalProcess::Diurnal {
                base_rate_per_s: parse_num(
                    line,
                    "base_rate_per_s",
                    lookup(line, &params, "base_rate_per_s")?,
                )?,
                peak_rate_per_s: parse_num(
                    line,
                    "peak_rate_per_s",
                    lookup(line, &params, "peak_rate_per_s")?,
                )?,
                period_us: parse_num(line, "period_us", lookup(line, &params, "period_us")?)?,
            }),
            "adversarial_closed_loop" => Ok(ArrivalProcess::AdversarialClosedLoop {
                clients: parse_num(line, "clients", lookup(line, &params, "clients")?)?,
                think_us: parse_num(line, "think_us", lookup(line, &params, "think_us")?)?,
                barrier_us: parse_num(line, "barrier_us", lookup(line, &params, "barrier_us")?)?,
            }),
            other => Err(err(line, format!("unknown arrival process `{other}`"))),
        }
    }
}

impl Scenario {
    /// A minimal steady-Poisson scenario over one model — the starting
    /// point the builders below refine.
    pub fn steady(
        name: impl Into<String>,
        model: impl Into<String>,
        seed: u64,
        requests: usize,
    ) -> Scenario {
        Scenario {
            name: name.into(),
            seed,
            requests,
            arrival: ArrivalProcess::Poisson {
                rate_per_s: 2_000.0,
            },
            models: vec![MixEntry {
                name: model.into(),
                weight: 1.0,
            }],
            tenants: vec![MixEntry {
                name: "default".to_string(),
                weight: 1.0,
            }],
            batch_mix: vec![(1, 1.0)],
            service: ServiceModel {
                base_us: 40,
                per_request_us: 15,
            },
            policy: ReplayPolicy {
                replicas: 2,
                max_batch: 8,
                window_us: 200,
            },
        }
    }

    /// Replace the arrival process.
    pub fn with_arrival(mut self, arrival: ArrivalProcess) -> Scenario {
        self.arrival = arrival;
        self
    }

    /// Replace the client batch-size mix.
    pub fn with_batch_mix(mut self, mix: Vec<(usize, f64)>) -> Scenario {
        self.batch_mix = mix;
        self
    }

    /// Check the invariants every consumer relies on.
    ///
    /// # Errors
    ///
    /// A [`ScenarioParseError`] (line 0) naming the violated invariant.
    pub fn validate(&self) -> Result<(), ScenarioParseError> {
        if self.name.is_empty() {
            return Err(err(0, "scenario name must not be empty"));
        }
        if self.name.contains('#') {
            // `#` starts a comment in the config format, so a name holding
            // one cannot survive a render → parse round trip: the parser
            // would silently truncate the line at the `#`.
            return Err(err(0, "scenario name must not contain `#`"));
        }
        if self.requests == 0 {
            return Err(err(0, "requests must be >= 1"));
        }
        for (what, mix) in [("models", &self.models), ("tenants", &self.tenants)] {
            if mix.is_empty() {
                return Err(err(0, format!("{what} mix must not be empty")));
            }
            if mix
                .iter()
                .any(|e| !(e.weight > 0.0 && e.weight.is_finite()))
            {
                return Err(err(0, format!("{what} weights must be > 0 and finite")));
            }
            for entry in mix.iter() {
                if entry.name.is_empty() {
                    return Err(err(0, format!("{what} mix names must not be empty")));
                }
                if entry.name.contains('#') {
                    return Err(err(
                        0,
                        format!("{what} mix name `{}` must not contain `#`", entry.name),
                    ));
                }
                if entry.name.chars().any(char::is_whitespace) {
                    return Err(err(
                        0,
                        format!(
                            "{what} mix name `{}` must not contain whitespace",
                            entry.name
                        ),
                    ));
                }
            }
        }
        if self.batch_mix.is_empty() {
            return Err(err(0, "batch_mix must not be empty"));
        }
        if self
            .batch_mix
            .iter()
            .any(|&(n, w)| n == 0 || !(w > 0.0 && w.is_finite()))
        {
            return Err(err(
                0,
                "batch_mix sizes must be >= 1 with weights > 0 and finite",
            ));
        }
        if self.policy.replicas == 0 || self.policy.max_batch == 0 {
            return Err(err(0, "policy replicas and max_batch must be >= 1"));
        }
        let arrival_ok = match self.arrival {
            ArrivalProcess::Poisson { rate_per_s } => rate_per_s > 0.0 && rate_per_s.is_finite(),
            ArrivalProcess::Bursty { period_us, burst } => period_us > 0 && burst > 0,
            ArrivalProcess::Diurnal {
                base_rate_per_s,
                peak_rate_per_s,
                period_us,
            } => {
                base_rate_per_s > 0.0
                    && peak_rate_per_s >= base_rate_per_s
                    && peak_rate_per_s.is_finite()
                    && period_us > 0
            }
            ArrivalProcess::AdversarialClosedLoop {
                clients,
                barrier_us,
                ..
            } => clients > 0 && barrier_us > 0,
        };
        if !arrival_ok {
            return Err(err(0, "arrival-process parameters out of range"));
        }
        Ok(())
    }

    /// Render the canonical config document ([`Scenario::parse`] of the
    /// result reproduces `self` exactly — f64 values print with Rust's
    /// shortest round-trip formatting).
    pub fn to_config_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("name = {}\n", self.name));
        out.push_str(&format!("seed = {}\n", self.seed));
        out.push_str(&format!("requests = {}\n", self.requests));
        out.push_str(&format!("arrival = {}\n", self.arrival.render()));
        out.push_str(&format!(
            "service = base_us={} per_request_us={}\n",
            self.service.base_us, self.service.per_request_us
        ));
        out.push_str(&format!(
            "policy = replicas={} max_batch={} window_us={}\n",
            self.policy.replicas, self.policy.max_batch, self.policy.window_us
        ));
        out.push_str(&format!("models = {}\n", render_mix(&self.models)));
        out.push_str(&format!("tenants = {}\n", render_mix(&self.tenants)));
        let batch = self
            .batch_mix
            .iter()
            .map(|(n, w)| format!("{n}:{w}"))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!("batch_mix = {batch}\n"));
        out
    }

    /// Parse a config document (see the module docs for the format) and
    /// validate it.
    ///
    /// # Errors
    ///
    /// A [`ScenarioParseError`] locating the offending line.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioParseError> {
        let mut name = None;
        let mut seed = None;
        let mut requests = None;
        let mut arrival = None;
        let mut service = None;
        let mut policy = None;
        let mut models = None;
        let mut tenants = None;
        let mut batch_mix = None;
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let (key, value) = content
                .split_once('=')
                .ok_or_else(|| err(line, format!("expected `key = value`, got `{content}`")))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "name" => name = Some(value.to_string()),
                "seed" => seed = Some(parse_num(line, "seed", value)?),
                "requests" => requests = Some(parse_num(line, "requests", value)?),
                "arrival" => arrival = Some(ArrivalProcess::parse(line, value)?),
                "service" => {
                    let params = kv_params(line, value)?;
                    service = Some(ServiceModel {
                        base_us: parse_num(line, "base_us", lookup(line, &params, "base_us")?)?,
                        per_request_us: parse_num(
                            line,
                            "per_request_us",
                            lookup(line, &params, "per_request_us")?,
                        )?,
                    });
                }
                "policy" => {
                    let params = kv_params(line, value)?;
                    policy = Some(ReplayPolicy {
                        replicas: parse_num(line, "replicas", lookup(line, &params, "replicas")?)?,
                        max_batch: parse_num(
                            line,
                            "max_batch",
                            lookup(line, &params, "max_batch")?,
                        )?,
                        window_us: parse_num(
                            line,
                            "window_us",
                            lookup(line, &params, "window_us")?,
                        )?,
                    });
                }
                "models" => models = Some(parse_mix(line, value)?),
                "tenants" => tenants = Some(parse_mix(line, value)?),
                "batch_mix" => {
                    batch_mix = Some(
                        value
                            .split_whitespace()
                            .map(|tok| {
                                let (n, w) = tok.split_once(':').ok_or_else(|| {
                                    err(line, format!("expected size:weight, got `{tok}`"))
                                })?;
                                Ok((parse_num(line, "size", n)?, parse_num(line, "weight", w)?))
                            })
                            .collect::<Result<Vec<(usize, f64)>, ScenarioParseError>>()?,
                    );
                }
                other => return Err(err(line, format!("unknown key `{other}`"))),
            }
        }
        let scenario = Scenario {
            name: name.ok_or_else(|| err(0, "missing `name`"))?,
            seed: seed.ok_or_else(|| err(0, "missing `seed`"))?,
            requests: requests.ok_or_else(|| err(0, "missing `requests`"))?,
            arrival: arrival.ok_or_else(|| err(0, "missing `arrival`"))?,
            service: service.ok_or_else(|| err(0, "missing `service`"))?,
            policy: policy.ok_or_else(|| err(0, "missing `policy`"))?,
            models: models.ok_or_else(|| err(0, "missing `models`"))?,
            tenants: tenants.ok_or_else(|| err(0, "missing `tenants`"))?,
            batch_mix: batch_mix.ok_or_else(|| err(0, "missing `batch_mix`"))?,
        };
        scenario.validate()?;
        Ok(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Scenario {
        /// Replace the tenant mix.
        pub(crate) fn with_tenants(mut self, tenants: Vec<MixEntry>) -> Scenario {
            self.tenants = tenants;
            self
        }
    }

    fn full_scenario() -> Scenario {
        Scenario::steady("round-trip", "MLP-500-100", 17, 4096)
            .with_arrival(ArrivalProcess::Diurnal {
                base_rate_per_s: 500.5,
                peak_rate_per_s: 4_000.0,
                period_us: 2_000_000,
            })
            .with_batch_mix(vec![(1, 0.7), (4, 0.2), (8, 0.1)])
            .with_tenants(vec![
                MixEntry {
                    name: "free".into(),
                    weight: 1.0,
                },
                MixEntry {
                    name: "pro".into(),
                    weight: 3.5,
                },
            ])
    }

    #[test]
    fn config_round_trips_exactly() {
        let scenario = full_scenario();
        let text = scenario.to_config_string();
        assert_eq!(Scenario::parse(&text).unwrap(), scenario);
    }

    #[test]
    fn every_arrival_process_round_trips() {
        for arrival in [
            ArrivalProcess::Poisson { rate_per_s: 123.25 },
            ArrivalProcess::Bursty {
                period_us: 400,
                burst: 16,
            },
            ArrivalProcess::Diurnal {
                base_rate_per_s: 10.0,
                peak_rate_per_s: 99.5,
                period_us: 1_000_000,
            },
            ArrivalProcess::AdversarialClosedLoop {
                clients: 8,
                think_us: 50,
                barrier_us: 200,
            },
        ] {
            let scenario = Scenario::steady("a", "m", 1, 10).with_arrival(arrival.clone());
            let parsed = Scenario::parse(&scenario.to_config_string()).unwrap();
            assert_eq!(parsed.arrival, arrival);
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let mut text = String::from("# a comment\n\n");
        text.push_str(&full_scenario().to_config_string());
        text.push_str("  # trailing comment\n");
        assert_eq!(Scenario::parse(&text).unwrap(), full_scenario());
    }

    #[test]
    fn parse_errors_locate_the_line() {
        let e = Scenario::parse("name = x\nbogus line\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = Scenario::parse("arrival = warp speed=9\n").unwrap_err();
        assert!(e.message.contains("unknown arrival process"));
        let e = Scenario::parse("name = x\n").unwrap_err();
        assert!(e.message.contains("missing `seed`"));
    }

    #[test]
    fn names_containing_hash_are_rejected_not_truncated() {
        // `#` opens a comment, so `models = mlp#tiny:1` would silently
        // parse as `models = mlp` — validation refuses the name instead.
        let mut s = full_scenario();
        s.models[0].name = "mlp#tiny".into();
        let e = s.validate().unwrap_err();
        assert!(e.message.contains('#'), "{e}");
        assert_eq!(e.line, 0);

        let mut s = full_scenario();
        s.name = "fleet#zoo".into();
        assert!(s.validate().is_err());

        let mut s = full_scenario();
        s.tenants[1].name = "pro tier".into();
        let e = s.validate().unwrap_err();
        assert!(e.message.contains("whitespace"), "{e}");

        let mut s = full_scenario();
        s.tenants[0].name = String::new();
        assert!(s.validate().is_err());
    }

    #[test]
    fn validation_rejects_degenerate_scenarios() {
        let mut s = full_scenario();
        s.requests = 0;
        assert!(s.validate().is_err());
        let mut s = full_scenario();
        s.batch_mix = vec![(0, 1.0)];
        assert!(s.validate().is_err());
        let mut s = full_scenario();
        s.models.clear();
        assert!(s.validate().is_err());
        let mut s = full_scenario();
        s.tenants[0].weight = 0.0;
        assert!(s.validate().is_err());
        let mut s = full_scenario();
        s.arrival = ArrivalProcess::Poisson { rate_per_s: 0.0 };
        assert!(s.validate().is_err());
        assert!(full_scenario().validate().is_ok());
    }
}
