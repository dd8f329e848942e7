#!/usr/bin/env bash
# Gated results: every bin whose stdout holds no timing must print exactly
# the file committed under results/, across commits and not just reruns.
# Run from anywhere; exits non-zero on the first bin whose stdout differs,
# after printing the diff.
#
# All nineteen bins of cex-bench are gated; any timing a bin
# prints goes to stderr. ch2_tables renders the study's tables from its
# seeded data. fig3_3, fig3_4, fig3_5, fig3_6 and ablation_crossover
# run the Fenrir schedulers (fig3_5 takes about 30 s), so a change to an
# operator, the evaluator's accounting or a fitness bit shows there. tab3_3
# prints its wall-clock columns to stderr (left on the terminal); its stdout
# holds all four schedulers' evaluations-to-target and fitness at n = 15 and
# n = 40 High. fig4_6 runs the four-phase strategy live, journaled, and
# replays its own journal: it rebuilds the verdict trace and timeline from
# the journal's JSONL alone, so a change to the journal's writer or reader
# shows there. fig4_7 and fig4_9
# print check evaluations (and fig4_7 completed strategies) per row of the
# parallel-strategy and check-count sweeps to stdout, and the engine's CPU
# share and per-tick delays to stderr. fig5_5/fig5_6 go
# through topology::build_graph; ablation_hybrid drives classify and rank across
# eleven alpha values on both ch. 5 scenarios, so a change to diff order,
# edge pairing or a score bit shows there. fig5_9 and fig5_10 print the
# change count of every generated topology pair (per size, and per change
# frequency) to stdout, and every heuristic's time to stderr.
# The bench_* bins print what their seeds decide to stdout and any timing to
# stderr: bench_sequential the mSPRT-vs-fixed-window detection grid and its
# A/A row; bench_fenrir_eval the fitness sums of a fixed move count, full and
# incremental asserted equal; bench_health_scale the sketch pipeline's
# sampling, peak state, quantile error and ranking over 10^7 traces, with the
# 2% error and exact-ranking bounds asserted; bench_metric_hotpath the metric
# store's accounting over a million requests. pipefail makes a tripped
# assertion fail the gate.
set -euo pipefail

bins=(
    ch2_tables fig3_3 fig3_4 fig3_5 fig3_6 ablation_crossover tab3_3
    fig4_6 fig4_7 fig4_9 fig5_5 fig5_6 fig5_9 fig5_10 ablation_hybrid
    bench_sequential bench_fenrir_eval bench_health_scale bench_metric_hotpath
)

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
cargo build --release -q -p cex-bench $(printf -- '--bin %s ' "${bins[@]}")
for bin in "${bins[@]}"; do
    "${CARGO_TARGET_DIR:-target}/release/$bin" | diff -u "results/$bin.txt" -
done
echo "check_results.sh: all ${#bins[@]} bins equal results/"
