//! Every checked-in `scenarios/*.scenario` file must parse, validate and
//! round-trip through the canonical renderer — the CI `workload` job runs
//! this suite so a config typo is caught at review time, not when a bench
//! run silently skips the file.

use fpsa_testgen::{cases, vec};
use fpsa_workload::{MixEntry, Scenario, TraceRecorder};
use rand::Rng;
use std::path::PathBuf;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn checked_in_scenarios() -> Vec<(String, Scenario)> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(scenarios_dir()).expect("scenarios/ exists at the repo root") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("scenario") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("scenario file reads");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let scenario =
            Scenario::parse(&text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        found.push((name, scenario));
    }
    found
}

#[test]
fn every_checked_in_scenario_parses_and_round_trips() {
    let scenarios = checked_in_scenarios();
    assert!(
        scenarios.len() >= 4,
        "expected the four stock scenarios, found {}",
        scenarios.len()
    );
    for (name, scenario) in &scenarios {
        scenario
            .validate()
            .unwrap_or_else(|e| panic!("{name} does not validate: {e}"));
        // Canonical render → parse reproduces the scenario exactly.
        let rendered = scenario.to_config_string();
        let reparsed = Scenario::parse(&rendered)
            .unwrap_or_else(|e| panic!("{name} canonical form does not re-parse: {e}"));
        assert_eq!(&reparsed, scenario, "{name} does not round-trip");
        // File stem and scenario name agree, so reports land predictably.
        assert_eq!(
            name.trim_end_matches(".scenario"),
            scenario.name,
            "{name}: file stem and scenario name differ"
        );
    }
}

/// The config format's safe alphabet (no `#`, no whitespace) — anything
/// validation accepts must round-trip exactly. `:` is deliberately in the
/// pool: `rsplit_once` keeps colon-bearing names parseable.
const SAFE_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.:-";

fn safe_name(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|&i| SAFE_ALPHABET[i % SAFE_ALPHABET.len()] as char)
        .collect()
}

/// A positive decimal weight; Rust's shortest-round-trip float formatting
/// guarantees render → parse reproduces the exact bits.
fn weight(mantissa: u64, shift: u32) -> f64 {
    mantissa as f64 / 10f64.powi(shift as i32)
}

#[test]
fn safe_names_round_trip_exactly() {
    cases("safe_names_round_trip_exactly", 64, |rng| {
        let names = (0..5)
            .map(|_| vec(rng, 1..13, |r| r.gen_range(0usize..66)))
            .collect::<Vec<_>>();
        let mantissas = (0..4)
            .map(|_| rng.gen_range(1u64..1_000_000_000))
            .collect::<Vec<_>>();
        let shifts = (0..4).map(|_| rng.gen_range(0u32..6)).collect::<Vec<_>>();
        let split = rng.gen_range(1usize..4);
        let seed = rng.gen_range(0u64..1_000_000_000);
        let entries: Vec<MixEntry> = names[1..]
            .iter()
            .zip(mantissas.iter().zip(&shifts))
            .map(|(idx, (&m, &s))| MixEntry {
                name: safe_name(idx),
                weight: weight(m, s),
            })
            .collect();
        let mut scenario = Scenario::steady(safe_name(&names[0]), "placeholder", seed, 128);
        scenario.models = entries[..split].to_vec();
        scenario.tenants = entries[split..].to_vec();
        assert!(scenario.validate().is_ok());
        let reparsed =
            Scenario::parse(&scenario.to_config_string()).expect("validated scenarios re-parse");
        assert_eq!(reparsed, scenario);
    });
}

#[test]
fn hostile_names_fail_validation_before_they_can_corrupt_a_config() {
    let name = "hostile_names_fail_validation_before_they_can_corrupt_a_config";
    cases(name, 64, |rng| {
        let prefix = vec(rng, 0..7, |r| r.gen_range(0usize..66));
        let suffix = vec(rng, 0..7, |r| r.gen_range(0usize..66));
        let hostile = rng.gen_range(0usize..5);
        let slot = rng.gen_range(0usize..3);
        let poison = ["#", " ", "\t", "a#b", "a b"][hostile];
        let name = format!("{}{poison}{}", safe_name(&prefix), safe_name(&suffix));
        let mut scenario = Scenario::steady("hostile", "m", 1, 16);
        match slot {
            0 => scenario.models[0].name = name,
            1 => scenario.tenants[0].name = name,
            // The scenario name tolerates interior whitespace (it is the
            // whole rest of the line) but never `#`.
            _ => scenario.name = format!("{}#{}", safe_name(&prefix), safe_name(&suffix)),
        }
        assert!(scenario.validate().is_err());
        // And recording refuses too — the typed error, not a panic or a
        // silently truncated mix.
        assert!(TraceRecorder::new(&scenario).record().is_err());
    });
}

#[test]
fn every_checked_in_scenario_records_a_well_formed_trace() {
    for (name, scenario) in checked_in_scenarios() {
        // Recording the full 30k–120k request trace per file is bench work;
        // a 2k-request prefix exercises the same arrival machinery.
        let mut small = scenario.clone();
        small.requests = small.requests.min(2_000);
        let trace = TraceRecorder::new(&small).record().unwrap();
        assert_eq!(trace.len(), small.requests, "{name}");
        assert!(
            trace.events.windows(2).all(|p| p[0].at_us <= p[1].at_us),
            "{name}: arrivals not monotone"
        );
        let tenants = scenario.tenants.len() as u16;
        let models = scenario.models.len() as u16;
        assert!(
            trace
                .events
                .iter()
                .all(|e| e.tenant < tenants && e.model < models),
            "{name}: mix index out of range"
        );
    }
}
