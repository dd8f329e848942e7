#!/usr/bin/env bash
# Lints, tests and smokes the benchmark crate, offline, without touching
# the root workspace. Run from anywhere: paths are taken from this file.
# (Wiring this into .github/workflows/ci.yml is left to a PR that may
# edit files outside benchmark/.)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest=(--manifest-path "$here/Cargo.toml" --offline)

cargo fmt --manifest-path "$here/Cargo.toml" --check
cargo clippy "${manifest[@]}" --all-targets -- -D warnings
cargo test "${manifest[@]}" --release -q

# Smoke mode prints exact fields only (counts, bytes, digests, verdicts):
# two runs of the same binary must agree byte for byte.
cargo build "${manifest[@]}" --release -q
mkdir -p "$here/out"
first="$here/out/smoke-a.jsonl"
second="$here/out/smoke-b.jsonl"
cargo run "${manifest[@]}" --release -q -- run --smoke --seed 42 >"$first"
cargo run "${manifest[@]}" --release -q -- run --smoke --seed 42 >"$second"
diff -u "$first" "$second"
echo "check.sh: fmt, clippy, tests and smoke determinism all pass"
