#!/usr/bin/env bash
# Repeatability check: the whole suite twice on one build, both sets side by
# side, non-zero exit when an end-to-end metric's second median is worse than
# its first by more than the metric's bound. Run from the repository root.
set -euo pipefail
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --repeat 2 "$@"
