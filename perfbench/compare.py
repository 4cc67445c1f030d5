"""Compare two result files written by collect.py: parent, then change.

    python3 perfbench/compare.py perfbench/results/parent.json perfbench/results/change.json

For each workload and metric it prints the median and quartiles of each
side, the share of seed-matched pairs the change won (ties count for
neither), and a verdict:

- improved: the change won at least 9/10 of the pairs and its median is
  better than the parent's by more than the parent's quartile spread;
- unresolved: the parent's own spread exceeds the metric's bound, and
  not every change run beats every parent run;
- worse: the change's median is worse than the parent's by more than
  the bound (per-layer metrics, which have no bound: lost 9/10 of the
  pairs by more than the parent's spread);
- unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]], better: str, bound: float | None) -> tuple[str, float]:
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    share = wins / len(pairs) if pairs else 0.0
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    spread = q3 - q1
    gain = sign * (c_med - p_med)
    if pairs and share >= 0.9 and gain > spread:
        return "improved", share
    if bound is None:
        if pairs and losses / len(pairs) >= 0.9 and -gain > spread:
            return "worse", share
        return "unchanged", share
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if p_med and spread / abs(p_med) > bound and not all_better:
        return "unresolved", share
    if -gain > bound * abs(p_med):
        return "worse", share
    return "unchanged", share


def load(path: Path) -> tuple[dict, dict]:
    payload = json.loads(path.read_text())
    table: dict = defaultdict(lambda: defaultdict(dict))  # workload -> metric -> seed -> value
    for run in payload["runs"]:
        for name, metric in run["result"]["metrics"].items():
            table[run["workload"]][name][run["seed"]] = metric["value"]
        table[run["workload"]]["failed share"][run["seed"]] = run["result"]["failed"] / run["result"]["attempted"]
    return payload["meta"], table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    specs["failed share"] = {"better": "lower", "bound": 0.0}

    p_meta, parent = load(args.parent)
    c_meta, change = load(args.change)
    for side, m in (("parent", p_meta), ("change", c_meta)):
        print(f"{side}: Python {m['python']}, NumPy {m['numpy']}, {m['cpu_count']} CPUs, {m['root']}")
    worst = "unchanged"
    for workload in parent:
        if workload not in change:
            continue
        print(f"\n{workload}")
        print(f"  {'metric':28} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'won':>5}  verdict")
        for name, p_runs in parent[workload].items():
            c_runs = change[workload].get(name)
            if not c_runs or name not in specs:
                continue
            pairs = [(p_runs[s], c_runs[s]) for s in p_runs if s in c_runs]
            spec = specs[name]
            result, share = verdict(list(p_runs.values()), list(c_runs.values()), pairs, spec["better"], spec.get("bound"))
            pq1, pm, pq3 = quartiles(list(p_runs.values()))
            cq1, cm, cq3 = quartiles(list(c_runs.values()))
            won = f"{share:.0%}" if pairs else "-"
            print(
                f"  {name:28} {f'{pm:.5g} [{pq1:.4g}, {pq3:.4g}]':>34}"
                f" {f'{cm:.5g} [{cq1:.4g}, {cq3:.4g}]':>34} {won:>5}  {result}"
            )
            if "bound" in spec and result in ("worse", "unresolved") and worst != "worse":
                worst = result
    print(f"\nworst end-to-end verdict: {worst}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
