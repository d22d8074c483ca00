#!/usr/bin/env bash
# End-to-end smoke test for the transport axis: DCTCP + fabric ECN on
# the collective workloads (partition-aggregate incast, ring
# all-reduce).
#
# Gated exactly like the bake-off (ci/bakeoff_smoke.sh), proving the cc
# and ecn campaign axes end to end:
#   1. Run the committed incast campaign — Presto vs ECMP × (CUBIC,
#      DCTCP+ECN) × both collectives — into a scratch store.
#   2. Run it again with --require-cached: the second run must answer
#      every point from the content-addressed store (zero executions),
#      which pins the canonical-text fingerprints of the cc/ecn axes.
#   3. `lab diff` the fresh table against the committed baseline with
#      default tolerances — the deadline-miss gate must pass.
#   4. The fresh run must show the headline result: a nonzero
#      deadline-miss delta between Presto×DCTCP and ECMP×DCTCP.
#   5. Render the report and require every figure artifact (canonical
#      .txt AND rendered .svg) byte-identical to the goldens under
#      baselines/figures/incast/. Re-bless intentional changes with:
#        lab run campaigns/incast.toml --store S && \
#        lab report incast --store S --out R --baseline baselines/incast.json && \
#        cp R/figures/* baselines/figures/incast/
#   6. The report and trace viewer must be single self-contained files.
set -euo pipefail
cd "$(dirname "$0")/.."

CAMPAIGN=campaigns/incast.toml
BASELINE=baselines/incast.json
GOLDENS=baselines/figures/incast
STORE=$(mktemp -d)
FRESH="$STORE/run/incast/table.json"
REPORT_OUT="${REPORT_OUT:-$STORE/report}"
trap 'rm -rf "$STORE"' EXIT

echo "==> build the lab CLI (profile lab: release + unwind)"
cargo build --quiet --profile lab --bin lab
LAB=target/lab/lab

echo "==> run the committed incast grid (fresh store)"
"$LAB" run "$CAMPAIGN" --store "$STORE/run" --quiet

echo "==> re-run: every point must be a cache hit"
"$LAB" run "$CAMPAIGN" --store "$STORE/run" --require-cached --quiet

echo "==> diff against the committed baseline (default tolerances)"
"$LAB" diff "$BASELINE" "$FRESH"

echo "==> fresh run shows a deadline-miss delta between the DCTCP stacks"
sum_misses() {
    grep "\"$1/testbed16/incast[^\"]*cc:dctcp" "$FRESH" \
        | sed -n 's/.*"deadline_misses":\([0-9]*\).*/\1/p' \
        | awk '{ s += $1 } END { print s + 0 }'
}
presto_miss=$(sum_misses presto)
ecmp_miss=$(sum_misses ecmp)
if [ "$presto_miss" = "$ecmp_miss" ]; then
    echo "FAIL: Presto*DCTCP ($presto_miss) and ECMP*DCTCP ($ecmp_miss)" \
         "miss counts are equal — the campaign no longer discriminates" >&2
    exit 1
fi
echo "    presto*dctcp=$presto_miss vs ecmp*dctcp=$ecmp_miss misses"

echo "==> render the report (diff vs committed baseline must pass)"
"$LAB" report incast --store "$STORE/run" --out "$REPORT_OUT" \
    --baseline "$BASELINE" --viewer

echo "==> figure artifacts must match the committed goldens byte-for-byte"
if ! diff -r "$GOLDENS" "$REPORT_OUT/figures"; then
    echo "FAIL: figure artifacts drifted from $GOLDENS" >&2
    echo "      (if the change is intended, re-bless per the header of $0)" >&2
    exit 1
fi
count=$(ls "$GOLDENS" | wc -l)
echo "    $count golden artifact(s) identical"

echo "==> report and viewer are single self-contained files"
for page in "$REPORT_OUT/index.html" "$REPORT_OUT/viewer.html"; do
    [ -s "$page" ] || { echo "FAIL: $page missing or empty" >&2; exit 1; }
    if grep -Eq 'src="http|href="http|<script src|<link rel="stylesheet" href' "$page"; then
        echo "FAIL: $page references external resources" >&2
        exit 1
    fi
done
echo "    no external references"

echo "incast smoke: OK (report at $REPORT_OUT)"
