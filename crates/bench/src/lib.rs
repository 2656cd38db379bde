//! Shared helpers for the FPSA benchmark harness.
//!
//! Every bench binary in `benches/` regenerates one table or figure of the
//! paper: it prints the experiment's table (so that `cargo bench` output can
//! be pasted straight into EXPERIMENTS.md) and then times the underlying
//! experiment code with Criterion.

use std::path::PathBuf;

/// Print an experiment banner followed by its rendered table.
pub fn print_experiment(title: &str, table: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
    println!("{table}");
}

/// The median of a set of finite timings (upper middle for even counts).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// The workspace-level `target/experiment-data` directory. Cargo runs bench
/// binaries with the *package* directory as CWD, so a bare relative
/// `target/` would scatter artifacts under `crates/bench/target/` where the
/// CI artifact checks never look; walking up to the directory holding
/// `Cargo.lock` anchors them at the workspace root instead.
fn experiment_dir() -> PathBuf {
    workspace_root().join("target").join("experiment-data")
}

/// The workspace root: the nearest ancestor of the CWD holding `Cargo.lock`.
/// Public so bench binaries can locate checked-in inputs (e.g. the
/// `scenarios/` directory) regardless of Cargo's per-package CWD.
pub fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    for _ in 0..4 {
        if dir.join("Cargo.lock").exists() {
            break;
        }
        if !dir.pop() {
            break;
        }
    }
    dir
}

/// Persist an experiment's structured records next to Criterion's output so
/// the numbers that produced a table can be inspected later.
///
/// Errors are reported but not fatal: benches still run on read-only file
/// systems.
pub fn save_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = experiment_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("note: could not create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("note: could not write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("note: could not serialize {name}: {e}"),
    }
}

/// Persist a pre-rendered experiment artifact under
/// `<root>/target/experiment-data/`. `relative` may contain subdirectories
/// (`workload/steady.md`); parents are created as needed. Errors are
/// reported but not fatal, like [`save_json`].
pub fn save_text(relative: &str, contents: &str) {
    let path = experiment_dir().join(relative);
    if let Some(parent) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("note: could not create {}: {e}", parent.display());
            return;
        }
    }
    if let Err(e) = std::fs::write(&path, contents) {
        eprintln!("note: could not write {}: {e}", path.display());
    }
}

/// Persist a benchmark artifact at the **workspace root** (not under
/// `target/`) — for the artifacts CI pins by path, like `BENCH_exec.json`.
/// The caller supplies the exact file contents (pre-rendered JSON), so the
/// artifact stays machine-parseable regardless of serializer behavior.
///
/// Errors are reported but not fatal, like [`save_json`].
pub fn save_text_at_root(file_name: &str, contents: &str) {
    let path = workspace_root().join(file_name);
    if let Err(e) = std::fs::write(&path, contents) {
        eprintln!("note: could not write {}: {e}", path.display());
    }
}

/// The envelope schema every root `BENCH_*.json` artifact declares. Bump
/// when the envelope shape (not a bench's payload) changes.
pub const BENCH_SCHEMA: &str = "fpsa-bench-v1";

/// A deterministic run identifier that needs no `git describe` (bench
/// runs happen in detached worktrees and tarballs where describe output
/// is unavailable or unstable): the FNV-1a hash of the payload itself.
/// The same results always carry the same id, so regenerated artifacts
/// diff clean when nothing moved.
pub fn run_id(payload: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in payload.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    format!("fnv1a-{hash:016x}")
}

/// Wrap a pre-rendered JSON payload in the common versioned envelope
/// (`{schema, git_describe_free_run_id, payload}`) the CI well-formedness
/// checks validate on every root artifact.
pub fn bench_envelope(payload: &str) -> String {
    let payload = payload.trim_end();
    // Indent the payload body so the envelope stays readable; the first
    // line rides on the `"payload":` key itself.
    let mut indented = String::with_capacity(payload.len() + 64);
    for (i, line) in payload.lines().enumerate() {
        if i > 0 {
            indented.push_str("\n  ");
        }
        indented.push_str(line);
    }
    format!(
        "{{\n  \"schema\": \"{}\",\n  \"git_describe_free_run_id\": \"{}\",\n  \"payload\": {}\n}}\n",
        BENCH_SCHEMA,
        run_id(payload),
        indented
    )
}

/// Persist a root `BENCH_*.json` artifact wrapped in the versioned
/// envelope. All four CI-pinned artifacts go through here so the envelope
/// cannot drift per bench. Errors are reported but not fatal, like
/// [`save_json`].
pub fn save_bench_artifact(file_name: &str, payload_json: &str) {
    save_text_at_root(file_name, &bench_envelope(payload_json));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_experiment_does_not_panic() {
        print_experiment("Table X", "| a |\n|---|\n| 1 |\n");
    }

    #[test]
    fn save_json_accepts_serializable_values() {
        save_json("bench-selftest", &vec![1, 2, 3]);
    }

    #[test]
    fn the_bench_envelope_is_versioned_and_content_addressed() {
        let payload = "{\n  \"speedup\": 3.5\n}\n";
        let envelope = bench_envelope(payload);
        assert!(envelope.starts_with("{\n  \"schema\": \"fpsa-bench-v1\",\n"));
        assert!(envelope.contains(&format!(
            "\"git_describe_free_run_id\": \"{}\"",
            run_id(payload.trim_end())
        )));
        assert!(envelope.contains("\"payload\": {\n    \"speedup\": 3.5\n  }"));
        // Same payload, same id; different payload, different id.
        assert_eq!(bench_envelope(payload), envelope);
        assert_ne!(run_id("{}"), run_id("{ }"));
        // Balanced braces: the envelope splices, never re-serializes.
        let opens = envelope.matches('{').count();
        assert_eq!(opens, envelope.matches('}').count());
        assert_eq!(opens, 2, "the envelope object plus the payload object");
    }

    #[test]
    fn experiment_dir_anchors_at_the_workspace_root() {
        // Test binaries also run with the package as CWD, so the resolved
        // directory must sit next to the workspace's Cargo.lock — not
        // inside this crate's own directory.
        let dir = experiment_dir();
        let root = dir
            .parent()
            .and_then(std::path::Path::parent)
            .expect("<root>/target/experiment-data has two ancestors");
        assert!(
            root.join("Cargo.lock").exists(),
            "artifacts must land at the workspace root, got {}",
            dir.display()
        );
        assert_ne!(
            root,
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")),
            "artifacts must not land inside the bench crate"
        );
    }
}
