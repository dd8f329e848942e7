#!/usr/bin/env bash
# The perf ledger: runs the repo's benchmark exactly as BENCHMARK.json
# declares it (command, workloads, run_seconds) and appends one JSON line
# per workload to results/PERF_LEDGER.jsonl — commit, date, cores, the five
# end-to-end medians, failed/attempted output checks. One set of lines per
# landed change gives the trajectory ROADMAP asks for; compare two entries
# only as a first look (the host drifts by tens of percent between
# sessions — a claim needs alternated pairs, see scripts/ab_pairs.sh).
#
#   scripts/perf_ledger.sh [--label TEXT] [--seed N] [--out FILE] [--smoke]
#
# --smoke cuts every workload to one second and is what CI runs, into a
# temporary file, to check that the lines still parse; no timing is
# asserted there. Needs python3 for the JSON. Run from anywhere.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/results/PERF_LEDGER.jsonl"
label=""
seed=42
smoke=0
while [[ $# -gt 0 ]]; do
    case "$1" in
        --label) label="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --smoke) smoke=1; shift ;;
        *) echo "perf_ledger.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

cd "$root"
mapfile -t command < <(python3 -c "import json; print(*json.load(open('BENCHMARK.json'))['command'], sep='\n')")
mapfile -t workloads < <(python3 -c "import json; print(*[w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']], sep='\n')")
seconds="$(python3 -c "import json; print(json.load(open('BENCHMARK.json'))['run_seconds'])")"
if [[ $smoke -eq 1 ]]; then
    seconds=1
fi

commit="$(git describe --always --dirty 2>/dev/null || echo unknown)"
date="$(date -u +%F)"
cores="$(nproc)"

for workload in "${workloads[@]}"; do
    result="$("${command[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
    RESULT="$result" python3 - "$commit" "$label" "$date" "$cores" "$seed" "$seconds" "$workload" >>"$out" <<'PY'
import json, os, sys

commit, label, date, cores, seed, seconds, workload = sys.argv[1:]
result = json.loads(os.environ["RESULT"])
names = [m["name"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]]
line = {"commit": commit, "label": label, "date": date, "cores": int(cores),
        "seed": int(seed), "seconds": int(seconds), "workload": workload}
line.update({name: result["metrics"][name]["value"] for name in names})
line.update({"failed": result["failed"], "attempted": result["attempted"]})
print(json.dumps(line))
PY
    tail -n 1 "$out"
done
