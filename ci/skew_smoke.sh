#!/usr/bin/env bash
# End-to-end smoke test for the receiver-load probe subsystem: the
# `prequal` scheme against static-WRR Presto and per-flow ECMP on the
# skewed partition-aggregate campaign.
#
# Gated exactly like the bake-off (ci/bakeoff_smoke.sh), proving the
# probe subsystem end to end:
#   1. Run the committed skew campaign — presto/ecmp/prequal × (plain
#      incast, skewed incast with two saturated responders) × two
#      seeds — into a scratch store.
#   2. Run it again with --require-cached: the second run must answer
#      every point from the content-addressed store (zero executions),
#      which pins the canonical-text fingerprints of the probing scheme
#      and the skew workload.
#   3. `lab diff` the fresh table against the committed baseline with
#      default tolerances — the deadline-miss gate must pass.
#   4. The fresh run must show the headline result: prequal's
#      receiver-load-aware replica selection misses STRICTLY fewer
#      deadlines than static-WRR Presto on the skewed points, and only
#      prequal rows carry probe fields.
#   5. Render the report and require every figure artifact (canonical
#      .txt AND rendered .svg, including the probe-pool composition
#      figure) byte-identical to the goldens under
#      baselines/figures/skew/. Re-bless intentional changes with:
#        lab run campaigns/skew.toml --store S && \
#        lab report skew --store S --out R --baseline baselines/skew.json && \
#        cp R/figures/* baselines/figures/skew/
#   6. The report and trace viewer must be single self-contained files.
set -euo pipefail
cd "$(dirname "$0")/.."

CAMPAIGN=campaigns/skew.toml
BASELINE=baselines/skew.json
GOLDENS=baselines/figures/skew
STORE=$(mktemp -d)
FRESH="$STORE/run/skew/table.json"
REPORT_OUT="${REPORT_OUT:-$STORE/report}"
trap 'rm -rf "$STORE"' EXIT

echo "==> build the lab CLI (profile lab: release + unwind)"
cargo build --quiet --profile lab --bin lab
LAB=target/lab/lab

echo "==> run the committed skew grid (fresh store)"
"$LAB" run "$CAMPAIGN" --store "$STORE/run" --quiet

echo "==> re-run: every point must be a cache hit"
"$LAB" run "$CAMPAIGN" --store "$STORE/run" --require-cached --quiet

echo "==> diff against the committed baseline (default tolerances)"
"$LAB" diff "$BASELINE" "$FRESH"

echo "==> fresh run shows prequal strictly beating static WRR on skew"
sum_misses() {
    grep "\"$1/testbed16/skew" "$FRESH" \
        | sed -n 's/.*"deadline_misses":\([0-9]*\).*/\1/p' \
        | awk '{ s += $1 } END { print s + 0 }'
}
presto_miss=$(sum_misses presto)
prequal_miss=$(sum_misses prequal)
if [ "$prequal_miss" -ge "$presto_miss" ]; then
    echo "FAIL: prequal ($prequal_miss) does not strictly improve on" \
         "static-WRR Presto ($presto_miss) deadline misses — the" \
         "receiver-load signal stopped paying for itself" >&2
    exit 1
fi
echo "    prequal=$prequal_miss vs presto=$presto_miss misses on the skewed points"

echo "==> probing stays opt-in: non-prequal rows carry no probe fields"
if grep '"label":"\(presto\|ecmp\)/' "$FRESH" | grep -q probe_rounds; then
    echo "FAIL: a non-probing row encodes probe fields — the opt-in" \
         "contract (and every pre-probe digest) is broken" >&2
    exit 1
fi
echo "    probe fields only on prequal rows"

echo "==> render the report (diff vs committed baseline must pass)"
"$LAB" report skew --store "$STORE/run" --out "$REPORT_OUT" \
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

echo "skew smoke: OK (report at $REPORT_OUT)"
