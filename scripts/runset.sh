#!/bin/sh
# Write a fixed run set into OUT_DIR with this checkout's src/: a synthetic
# dataset and its validation, simulate with utility, greedy and random play
# and a rerun of the utility run from its manifest, simulate from a config
# file, full-info and its rerun from its manifest, analyze, eurr with and
# without an output directory, report with paired and with Welch t-tests,
# analyze, a precomputed-score simulate and full-info at two k on a small
# CSV forum, the exact oracle on a small items file, and the stdout of
# every demo.  Each command's stdout goes to a .txt file beside its output.
#
# Two checkouts that should behave alike give byte-identical run sets.  Run
# files name the dataset by its path, so write both into the same absolute
# OUT_DIR, moving the first aside before the second run, then diff -r them:
#
#   scripts/runset.sh /tmp/runs && mv /tmp/runs /tmp/runs.a
#   other/scripts/runset.sh /tmp/runs && diff -r /tmp/runs.a /tmp/runs
#
# usage: scripts/runset.sh OUT_DIR   (OUT_DIR must be empty or absent)
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
if [ -n "$(ls -A "$out")" ]; then
    echo "$0: $out is not empty" >&2
    exit 2
fi

run() {
    PYTHONPATH="$root/src" python3 "$@"
}
pubgame() {
    run -m pubgame.cli "$@"
}

data="$out/data.jsonl"
pubgame generate --out "$data" --weeks 24 --per-week 80 --rho -0.5 \
    --topic-effect 2 --seed 3 >"$out/generate.txt"
pubgame validate --data "$data" >"$out/validate.txt"

for strategy in utility greedy random; do
    pubgame simulate --data "$data" --pretrain-weeks 8 --rounds 16 --seed 1 \
        --m-cap 30 --k-cap 10 --retrain-period 4 --strategy "$strategy" \
        --out-dir "$out/simulate-$strategy" >"$out/simulate-$strategy.txt"
done
pubgame simulate --manifest "$out/simulate-utility/manifest.json" \
    --out-dir "$out/simulate-rerun" >"$out/simulate-rerun.txt"
# the file's values, and a flag that wins over one of them
printf 'pretrain_weeks = 8\nrounds = 12\nseed = 2  # a comment\nm_cap = 30\nk_cap = 10\nstrategy_g = utility\n' \
    >"$out/simulate.cfg"
pubgame simulate --data "$data" --config "$out/simulate.cfg" --seed 4 \
    --out-dir "$out/simulate-config" >"$out/simulate-config.txt"
pubgame full-info --data "$data" --pretrain-weeks 8 --rounds 16 --seed 1 \
    --k 10 --out-dir "$out/full-info" >"$out/full-info.txt"
pubgame full-info --manifest "$out/full-info/manifest.json" \
    --out-dir "$out/full-info-rerun" >"$out/full-info-rerun.txt"
pubgame analyze --data "$data" --out-dir "$out/analyze" >"$out/analyze.txt"
pubgame eurr --asym-dir "$out/simulate-utility" --full-dir "$out/full-info" \
    --out-dir "$out/eurr" >"$out/eurr.txt"
pubgame eurr --asym-dir "$out/simulate-utility" --full-dir "$out/full-info" \
    >"$out/eurr-stdout.txt"
pubgame report --asym-dir "$out/simulate-utility" --full-dir "$out/full-info" \
    --out-dir "$out/report" >"$out/report.txt"
pubgame report --asym-dir "$out/simulate-utility" --full-dir "$out/full-info" \
    --welch --out-dir "$out/report-welch" >"$out/report-welch.txt"

# a CSV forum: two domains, forum scores on a coarse grid (many ties), no
# records in one ISO week and no views in another
run - "$out/forum.csv" <<'PY'
import csv
import sys
from datetime import datetime, timedelta

with open(sys.argv[1], "w", newline="", encoding="utf-8") as fh:
    out = csv.writer(fh)
    out.writerow(["id", "timestamp", "domain", "title", "body", "view_count", "u_g",
                  "forum_score"])
    for w in (0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12):
        for i in range(12):
            n = 12 * w + i
            stamp = datetime(2024, 1, 1, 10) + timedelta(weeks=w, days=i % 7)
            out.writerow([f"f{n}", stamp.isoformat(), ("dba", "gis")[i % 2], f"q{n % 7}",
                          "word " * (n % 5 + 1), 0 if w == 5 else n * 37 % 101,
                          float(n * 13 % 17), n * 7 % 5 / 4])
PY
pubgame analyze --data "$out/forum.csv" --out-dir "$out/forum-analyze" \
    >"$out/forum-analyze.txt"
pubgame simulate --data "$out/forum.csv" --scorer precomputed --pretrain-weeks 4 \
    --rounds 8 --m-cap 8 --k-cap 4 --retrain-period 3 --strategy utility \
    --out-dir "$out/forum-simulate" >"$out/forum-simulate.txt"
# full-info on the forum's coarse grid of values (many ties), over its
# zero-view week, picking 5 of a week's 12 questions and then all 12
for k in 5 12; do
    pubgame full-info --data "$out/forum.csv" --pretrain-weeks 4 --rounds 8 --k "$k" \
        --seed 2 --out-dir "$out/forum-full-info-k$k" >"$out/forum-full-info-k$k.txt"
done

# ties on f, an exact fraction and a float, so the tie rule shows
printf 'f,g\n3,1\n1,3\n2,2\n3,1\n1/2,5\n0.25,7\n4,0\n2,2\n' >"$out/items.csv"
pubgame oracle --items "$out/items.csv" --k 3 >"$out/oracle.txt"

for demo in "$root"/demos/*.py; do
    run "$demo" >"$out/demo-$(basename "$demo" .py).txt"
done
