#!/bin/sh
# Write a fixed run set into OUT_DIR with this checkout's src/: a synthetic
# dataset and its validation, simulate with utility, greedy and random play,
# with a utility proposer that never retrains (checked to play as greedy
# does) and a rerun of the utility run from its manifest, simulate from a
# config file, full-info and its rerun from its manifest, analyze, eurr with
# and without an output directory, report with paired and with Welch t-tests,
# analyze, a precomputed-score simulate and full-info at two k on a small
# CSV forum, validate and analyze on a CSV whose domains hold a comma and
# a quote (analyze checked to write a scatter.csv whose rows all read back
# as 4 fields), validate and analyze on a CSV with blank rows, extra
# trailing cells and quoted bodies that span lines,
# a utility simulate with retrains on a CSV whose titles and bodies hold
# characters that lower-case or encode awkwardly, the exact oracle on a
# small items file, and the stdout of every demo.
# Each command's stdout goes to a .txt file beside its output.
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
# a utility proposer that never retrains keeps an untrained model, whose
# probabilities are all 1, so it picks what greedy picks
pubgame simulate --data "$data" --pretrain-weeks 8 --rounds 16 --seed 1 \
    --m-cap 30 --k-cap 10 --retrain-period 16 --strategy utility \
    --out-dir "$out/simulate-untrained" >"$out/simulate-untrained.txt"
if [ "$(tail -n +2 "$out/simulate-untrained/ledger.csv")" != \
     "$(tail -n +2 "$out/simulate-greedy/ledger.csv")" ]; then
    echo "$0: the untrained utility proposer's ledger differs from greedy's" >&2
    exit 1
fi
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

# domains that hold a comma and a quote: validate's list and scatter.csv
# quote them, so each of scatter.csv's data rows reads back as 4 fields
run - "$out/quoted.csv" <<'PY'
import csv
import sys

with open(sys.argv[1], "w", newline="", encoding="utf-8") as fh:
    out = csv.writer(fh)
    out.writerow(["id", "timestamp", "domain", "title", "body", "view_count", "u_g"])
    for n in range(24):
        out.writerow([f"d{n}", f"2024-01-{1 + 7 * (n % 3):02d}T12:00:00",
                      ("a,b", 'say "hi"')[n % 2], f"q{n}", "word", n * 37 % 101,
                      float(n * 13 % 17)])
PY
pubgame validate --data "$out/quoted.csv" >"$out/quoted-validate.txt"
pubgame analyze --data "$out/quoted.csv" --out-dir "$out/quoted-analyze" \
    >"$out/quoted-analyze.txt"
if ! run - "$out/quoted-analyze/scatter.csv" <<'PY'
import csv
import sys

with open(sys.argv[1], newline="", encoding="utf-8") as fh:
    rows = list(csv.reader(fh))[2:]
sys.exit(not rows or any(len(row) != 4 for row in rows))
PY
then
    echo "$0: a data row of quoted-analyze/scatter.csv is not 4 fields" >&2
    exit 1
fi

# CSV rows that a csv writer never writes: blank rows, rows with an extra
# trailing cell, and quoted bodies that span lines, one of them with a
# CRLF; validate and analyze read them as the header and cells say
run - "$out/rows.csv" <<'PY'
import sys

lines = ["id,timestamp,domain,title,body,view_count,u_g\n"]
for n in range(24):
    body = ('"two\nlines"', '"crlf\r\nand blank\n\nlines"', "word")[n % 3]
    extra = ",extra" if n % 5 == 0 else ""
    lines.append(f"r{n},2024-01-{1 + 7 * (n % 3):02d}T12:00:00,{('dba', 'gis')[n % 2]},"
                 f"q{n},{body},{n * 37 % 101},{float(n * 13 % 17)}{extra}\n")
    if n % 7 == 0:
        lines.append("\n")
with open(sys.argv[1], "w", newline="", encoding="utf-8") as fh:
    fh.write("".join(lines))
PY
pubgame validate --data "$out/rows.csv" >"$out/rows-validate.txt"
pubgame analyze --data "$out/rows.csv" --out-dir "$out/rows-analyze" \
    >"$out/rows-analyze.txt"

# titles and bodies that trip a byte-level tokenizer: the dotted capital I
# (two characters once lower-cased), the Kelvin sign, a capital sigma, a
# sharp s, one-letter words, digits and quoted newlines; a utility
# proposer that retrains reads them all, and the curator's vocabulary is
# saved in forum_scorer_model.json
run - "$out/unicode.csv" <<'PY'
import csv
import sys
from datetime import datetime, timedelta

words = ["\u0130stanbul", "\u212aelvin", "\u03a3igma", "stra\u00dfe", "a", "b", "x2", "42",
         "caf\u00e9", "sql", "index", "map"]
with open(sys.argv[1], "w", newline="", encoding="utf-8") as fh:
    out = csv.writer(fh)
    out.writerow(["id", "timestamp", "domain", "title", "body", "view_count", "u_g"])
    for w in range(12):
        for i in range(12):
            n = 12 * w + i
            stamp = datetime(2024, 1, 1, 10) + timedelta(weeks=w, days=i % 7)
            title = " ".join(words[(n * k) % len(words)] for k in (1, 3, 5))
            body = f"{words[n % 4]}\n{words[n % 7 + 4]} {n % 10}\n\n{words[(n + 1) % 12]}\u0130"
            # views that the text predicts, so the curator's scorer learns
            views = n * 37 % 101 + 200 * ("sql" in title or "\u212a" in title)
            out.writerow([f"u{n}", stamp.isoformat(), ("dba", "gis")[i % 2], title, body,
                          views, float(n * 13 % 17)])
PY
pubgame simulate --data "$out/unicode.csv" --pretrain-weeks 4 --rounds 8 --m-cap 8 \
    --k-cap 4 --retrain-period 2 --strategy utility --seed 5 \
    --out-dir "$out/unicode-simulate" >"$out/unicode-simulate.txt"

# ties on f, an exact fraction and a float, so the tie rule shows
printf 'f,g\n3,1\n1,3\n2,2\n3,1\n1/2,5\n0.25,7\n4,0\n2,2\n' >"$out/items.csv"
pubgame oracle --items "$out/items.csv" --k 3 >"$out/oracle.txt"

for demo in "$root"/demos/*.py; do
    run "$demo" >"$out/demo-$(basename "$demo" .py).txt"
done
