#!/usr/bin/env bash
# Gated results: every figure bin whose stdout holds no timing must print
# exactly the file committed under results/, across commits and not just
# reruns.
# Run from anywhere; exits non-zero on the first bin whose stdout differs,
# after printing the diff.
#
# fig4_7, fig4_9, fig5_9 and fig5_10 print timings and are left out until
# their timing columns are split off. ch2_tables renders the study's tables
# from its seeded data. fig3_3, fig3_4, fig3_5, fig3_6 and ablation_crossover
# run the Fenrir schedulers (fig3_5 takes about 30 s), so a change to an
# operator, the evaluator's accounting or a fitness bit shows there. tab3_3
# prints its wall-clock columns to stderr (left on the terminal); its stdout
# holds all four schedulers' evaluations-to-target and fitness at n = 15 and
# n = 40 High. fig4_6 runs the four-phase strategy live; fig4_6_replay
# rebuilds its verdict trace and timeline from the journal's JSONL alone, so
# a change to the journal's writer or reader shows there. fig5_5/fig5_6 go
# through topology::build_graph; ablation_hybrid drives classify and rank across
# eleven alpha values on both ch. 5 scenarios, so a change to diff order,
# edge pairing or a score bit shows there.
set -euo pipefail

figures=(
    ch2_tables fig3_3 fig3_4 fig3_5 fig3_6 ablation_crossover tab3_3
    fig4_6 fig4_6_replay fig5_5 fig5_6 ablation_hybrid
)

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
cargo build --release -q -p cex-bench $(printf -- '--bin %s ' "${figures[@]}")
for fig in "${figures[@]}"; do
    "${CARGO_TARGET_DIR:-target}/release/$fig" | diff -u "results/$fig.txt" -
done
echo "check_results.sh: all ${#figures[@]} figures equal results/"
