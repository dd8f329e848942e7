#!/usr/bin/env bash
# Cross-commit digest gate: every workload's journal (or report) digest at
# seed 42 must equal the one recorded in benchmark/baseline.json when the
# benchmark was defined. benchmark/check.sh compares two runs of the *same*
# build; this compares the build with the past, so a change that reorders
# two events identically on every run still fails here. Run from anywhere.
# If a digest moves on purpose, say so in the change and re-record the
# baseline in a change of its own (a gain-claiming change may not edit
# benchmark/).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
baseline="$root/benchmark/baseline.json"
manifest=(--manifest-path "$root/benchmark/Cargo.toml" --offline)

cargo build "${manifest[@]}" --release -q
cd "$root"

status=0
for workload in fleet-traffic fleet-control fleet-chaos fleet-sharded trace-analysis; do
    # The workload's block in baseline.json opens with its name; its digest
    # is the first "digest" line after that.
    want="$(sed -n "/^  *\"$workload\": {/,/\"digest\"/s/.*\"digest\": \"\([0-9a-f]*\)\".*/\1/p" "$baseline")"
    if [[ -z "$want" ]]; then
        echo "check_digests.sh: no baseline digest for $workload" >&2
        exit 2
    fi
    got="$(cargo run "${manifest[@]}" --release -q -- \
        run --workload "$workload" --seed 42 --seconds 1 --trace 0 | sed -n 's/^digest: //p')"
    if [[ "$got" == "$want" ]]; then
        echo "$workload: $got"
    else
        echo "$workload: digest $got, baseline $want" >&2
        status=1
    fi
done
if [[ $status -eq 0 ]]; then
    echo "check_digests.sh: all five digests equal benchmark/baseline.json"
fi
exit $status
