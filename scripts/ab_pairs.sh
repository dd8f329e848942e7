#!/usr/bin/env bash
# Order-alternated parent/change pairs: the measurement every gain claim in
# this repo rests on (ROADMAP's house rule: >= 10 pairs beside an A/A floor).
# The host drifts by tens of percent over minutes, so two builds are only
# comparable run back to back, and which side goes first flips every pair.
#
#   scripts/ab_pairs.sh <workload> [--pairs N] [--seeds a,b,..] [--parent REV]
#                                  [--seconds S] [--aa] [--layers a,b,..]
#
# The parent is REV (default HEAD) unpacked with `git archive` into a
# temporary directory; the change is a copy of the working tree as it stands
# at start, uncommitted edits included, made into the same directory and
# built once, so an edit made while the pairs run is not measured. With
# --aa the first side is instead a second copy of the working tree, so the
# ratios printed are what two builds of one source read on this host right
# now: the floor a claim has to clear. Both sides
# run BENCHMARK.json's command with `--workload W --seed N --seconds S
# --trace 0` (12 seconds unless --seconds); pair i takes the i-th seed of
# --seeds, cycling (default 42). Printed per end-to-end metric: each side's
# median and quartiles, the ratio of medians, every pair's ratio and how
# many pairs the change won. With --layers, both sides run with --trace 1
# instead and the same is printed for each named per_layer metric of
# BENCHMARK.json, so which layer moved comes from the same pairs. Both
# sides run from their copies: nothing under the checkout's benchmark/ is
# written (a traced run writes benchmark/out/ in its side's copy); the
# temporary directory honours TMPDIR and is removed on exit. Each side's
# name is printed with its binary's `.text` bytes (`size -A`): code layout
# follows the build directory, so two builds of one source differ there.
# Needs python3 and binutils' `size`.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage() {
    echo "usage: scripts/ab_pairs.sh <workload> [--pairs N] [--seeds a,b,..] [--parent REV] [--seconds S] [--aa] [--layers a,b,..]" >&2
    exit 2
}

[[ $# -ge 1 && "$1" != --* ]] || usage
workload="$1"
shift
pairs=10
seeds=42
parent=HEAD
aa=0
layers=""
cd "$root"
seconds="$(python3 -c "import json; print(json.load(open('BENCHMARK.json'))['run_seconds'])")"
while [[ $# -gt 0 ]]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seeds) seeds="$2"; shift 2 ;;
        --parent) parent="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --aa) aa=1; shift ;;
        --layers) layers="$2"; shift 2 ;;
        *) echo "ab_pairs.sh: unknown argument $1" >&2; usage ;;
    esac
done

mapfile -t command < <(python3 -c "import json; print(*json.load(open('BENCHMARK.json'))['command'], sep='\n')")
IFS=',' read -r -a seed_list <<<"$seeds"
trace=0
if [[ -n "$layers" ]]; then
    trace=1
    # Every name must be a per_layer metric, before anything is built.
    python3 - "$layers" <<'PY'
import json, sys
known = {m["name"] for m in json.load(open("BENCHMARK.json"))["per_layer"]}
unknown = [name for name in sys.argv[1].split(",") if name not in known]
if unknown:
    sys.exit(f"ab_pairs.sh: not a per_layer metric in BENCHMARK.json: {', '.join(unknown)}")
PY
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/first" "$work/change"
# Copies the working tree as it is now into $1: tracked and
# untracked-but-not-ignored files that exist.
copy_tree() {
    git ls-files -z --cached --others --exclude-standard \
        | while IFS= read -r -d '' file; do
            if [[ -e "$file" ]]; then printf '%s\0' "$file"; fi
        done \
        | tar --null -T - -cf - | tar -xf - -C "$1"
}
change_name="copy of the working tree ($(git describe --always --dirty))"
copy_tree "$work/change"
if [[ $aa -eq 1 ]]; then
    first_name="second copy of the working tree"
    copy_tree "$work/first"
else
    first_name="$(git rev-parse --short "$parent")"
    git archive "$parent" | tar -xf - -C "$work/first"
fi

build() {
    (cd "$1" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
}
echo "building $first_name and the $change_name ..." >&2
build "$work/first"
build "$work/change"

# One run: the result line (the last line of the run) lands in the side's file.
# A traced result line holds the per_layer metrics only, so the end-to-end
# ones are added from the result file the same run wrote.
run() {
    local dir="$1" out="$2" seed="$3" line
    line="$(cd "$dir" && "${command[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" | tail -n 1)"
    if [[ $trace -eq 1 ]]; then
        line="$(python3 - "$line" "$dir/benchmark/out/$workload.result.json" <<'PY'
import json, sys
line = json.loads(sys.argv[1])
for name, value in json.load(open(sys.argv[2]))["end_to_end"].items():
    line["metrics"][name] = {"value": value}
print(json.dumps(line))
PY
)"
    fi
    echo "$line" >>"$out"
}

for ((i = 0; i < pairs; i++)); do
    seed="${seed_list[i % ${#seed_list[@]}]}"
    if ((i % 2 == 0)); then
        run "$work/first" "$work/first.jsonl" "$seed"
        run "$work/change" "$work/change.jsonl" "$seed"
    else
        run "$work/change" "$work/change.jsonl" "$seed"
        run "$work/first" "$work/first.jsonl" "$seed"
    fi
    echo "pair $((i + 1))/$pairs (seed $seed) done" >&2
done

# The `.text` section's size in bytes of the side's benchmark binary.
text_bytes() {
    size -A "$1/benchmark/target/release/cex-benchmark" | awk '$1 == ".text" { print $2 }'
}

echo "$workload: $pairs order-alternated pairs, seeds $seeds, --seconds $seconds --trace $trace"
echo "first side: $first_name (.text $(text_bytes "$work/first") B); change: $change_name (.text $(text_bytes "$work/change") B)"
python3 - "$work/first.jsonl" "$work/change.jsonl" "$layers" <<'PY'
import json, statistics, sys

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

first, change = ([json.loads(line) for line in open(path)] for path in sys.argv[1:3])
bench = json.load(open("BENCHMARK.json"))
layers = [name for name in sys.argv[3].split(",") if name]
per_layer = [m for m in bench["per_layer"] if m["name"] in layers]
for metric in bench["end_to_end"] + sorted(per_layer, key=lambda m: layers.index(m["name"])):
    name, lower = metric["name"], metric["better"] == "lower"
    a = [r["metrics"][name]["value"] for r in first]
    b = [r["metrics"][name]["value"] for r in change]
    print(f"{name} ({metric['unit']}, {metric['better']} is better)")
    if min(a + b) < 0:
        # The benchmark reports -1 for a layer the workload does not run.
        print("  not measured in these runs")
        continue
    for label, xs in (("first ", a), ("change", b)):
        q1, med, q3 = quartiles(xs)
        print(f"  {label} median {med:.4g}  q1 {q1:.4g}  q3 {q3:.4g}")
    ratio = lambda x, y: y / x if x else float("nan")
    ratios = [ratio(x, y) for x, y in zip(a, b)]
    wins = sum((r < 1) if lower else (r > 1) for r in ratios)
    of_medians = ratio(statistics.median(a), statistics.median(b))
    print(f"  change/first: of medians {of_medians:.3f}, per pair "
          + " ".join(f"{r:.3f}" for r in ratios) + f"; change wins {wins}/{len(ratios)}")
failed = [sum(r["failed"] for r in side) for side in (first, change)]
print(f"failed output checks: first {failed[0]}, change {failed[1]}")
sys.exit(1 if any(failed) else 0)
PY
