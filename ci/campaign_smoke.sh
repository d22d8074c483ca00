#!/usr/bin/env bash
# End-to-end gate for one committed lab campaign (DESIGN.md §11, §13).
#
#   bash ci/campaign_smoke.sh <paper_grid|bakeoff|incast|skew>
#
# Every campaign runs the same steps, in order:
#   1. Run campaigns/<c>.toml into a scratch store.
#   2. Run it again with --require-cached: the second run must answer
#      every point from the content-addressed store (zero executions),
#      which pins the canonical-text fingerprints of every point.
#   3. `lab diff --strict-digest` the fresh table against
#      baselines/<c>.json: default tolerances, and a report digest that
#      drifted at an unchanged fingerprint fails instead of printing a note.
#      Then the campaign's own gate (the `case` below) reads the fresh run.
#   4. Render the report and trace viewer (`lab report --baseline --viewer`).
#   5. Require every figure artifact (canonical .txt AND rendered .svg)
#      byte-identical to the goldens under baselines/figures/<c>/.
#      Re-bless intentional changes with:
#        lab run campaigns/<c>.toml --store S && \
#        lab report <c> --store S --out R --baseline baselines/<c>.json && \
#        cp R/figures/* baselines/figures/<c>/
#   6. The report and viewer must be single self-contained files (no
#      external fetches), so they can be passed around as CI artifacts.
#
# The rendered report is left in $REPORT_OUT (default: a scratch dir)
# for the CI workflow to upload as an artifact. The lab binary is built
# with the `lab` profile (release speed, but panic = "unwind" so
# catch_unwind isolation works — see Cargo.toml).
set -euo pipefail
cd "$(dirname "$0")/.."

C=${1:?usage: $0 <paper_grid|bakeoff|incast|skew>}
CAMPAIGN=campaigns/$C.toml
BASELINE=baselines/$C.json
GOLDENS=baselines/figures/$C
[ -f "$CAMPAIGN" ] && [ -f "$BASELINE" ] && [ -d "$GOLDENS" ] \
    || { echo "FAIL: no committed campaign, baseline and goldens for '$C'" >&2; exit 2; }
STORE=$(mktemp -d)
FRESH="$STORE/run/$C/table.json"
REPORT_OUT="${REPORT_OUT:-$STORE/report}"
trap 'rm -rf "$STORE"' EXIT

echo "==> build the lab CLI (profile lab: release + unwind)"
cargo build --quiet --profile lab --bin lab
LAB=target/lab/lab

echo "==> run the committed $C grid (fresh store)"
"$LAB" run "$CAMPAIGN" --store "$STORE/run" --quiet

echo "==> re-run: every point must be a cache hit"
"$LAB" run "$CAMPAIGN" --store "$STORE/run" --require-cached --quiet

echo "==> diff against the committed baseline (default tolerances, strict digests)"
"$LAB" diff "$BASELINE" "$FRESH" --strict-digest

# Sum `deadline_misses` over the fresh rows whose label matches $1.
sum_misses() {
    grep "\"$1" "$FRESH" \
        | sed -n 's/.*"deadline_misses":\([0-9]*\).*/\1/p' \
        | awk '{ s += $1 } END { print s + 0 }'
}

case "$C" in
paper_grid)
    echo "==> a 50% goodput regression must be caught"
    # Halve every row's goodput in a copy of the fresh table.
    awk '{
        if (match($0, /"goodput_gbps":[-+.0-9eE]+/)) {
            v = substr($0, RSTART + 15, RLENGTH - 15)
            $0 = substr($0, 1, RSTART - 1) "\"goodput_gbps\":" \
                sprintf("%.17g", v * 0.5) substr($0, RSTART + RLENGTH)
            n++
        }
        print
    } END { if (n == 0) exit 1 }' "$FRESH" > "$STORE/halved.json" \
        || { echo "FAIL: no goodput_gbps column in $FRESH" >&2; exit 1; }
    if "$LAB" diff "$BASELINE" "$STORE/halved.json" >/dev/null 2>&1; then
        echo "FAIL: lab diff accepted a 50% goodput regression" >&2
        exit 1
    fi
    echo "    regression flagged, exit code nonzero — as required"
    ;;
incast)
    echo "==> fresh run shows a deadline-miss delta between the DCTCP stacks"
    presto_miss=$(sum_misses 'presto/testbed16/incast[^"]*cc:dctcp')
    ecmp_miss=$(sum_misses 'ecmp/testbed16/incast[^"]*cc:dctcp')
    if [ "$presto_miss" = "$ecmp_miss" ]; then
        echo "FAIL: Presto*DCTCP ($presto_miss) and ECMP*DCTCP ($ecmp_miss)" \
             "miss counts are equal — the campaign no longer discriminates" >&2
        exit 1
    fi
    echo "    presto*dctcp=$presto_miss vs ecmp*dctcp=$ecmp_miss misses"
    ;;
skew)
    echo "==> fresh run shows prequal strictly beating static WRR on skew"
    presto_miss=$(sum_misses presto/testbed16/skew)
    prequal_miss=$(sum_misses prequal/testbed16/skew)
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
    ;;
esac

echo "==> render the report (diff vs committed baseline must pass)"
"$LAB" report "$C" --store "$STORE/run" --out "$REPORT_OUT" \
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

echo "$C smoke: OK (report at $REPORT_OUT)"
