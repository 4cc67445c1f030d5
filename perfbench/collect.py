"""Run the benchmark many times and write a result file for compare.py.

    python3 perfbench/collect.py --out perfbench/results/change.json
    python3 perfbench/collect.py --out perfbench/results/change.json \\
        --parent-root ../parent --parent-out perfbench/results/parent.json

Each (workload, seed) pair is one run of ``run.py`` in its own process,
from the root of the checkout, for every workload of ``BENCHMARK.json``
and its ``run_seconds``.  With ``--parent-root`` (a checkout of the
parent commit that holds this same ``perfbench/``), every seed runs on
both checkouts, alternating which goes first.  Result files record the
Python and NumPy versions, the CPU count and, per run, the raw
reference-kernel time ``ref_s``.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    host = {}
    for line in lines:
        if line.startswith("perfbench-host "):
            host = json.loads(line[len("perfbench-host "):])
    return {"workload": workload, "seed": seed, "trace": trace, "host": host, "result": json.loads(lines[-1])}


def meta(root: Path, runs: list[dict]) -> dict:
    host = runs[0]["host"] if runs else {}
    return {
        "root": str(root),
        "python": host.get("python", platform.python_version()),
        "numpy": host.get("numpy"),
        "cpu_count": host.get("cpu_count"),
        "benchmark": json.loads((root / "BENCHMARK.json").read_text()),
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parent-root", type=Path)
    parser.add_argument("--parent-out", type=Path)
    args = parser.parse_args(argv)
    if (args.parent_root is None) != (args.parent_out is None):
        parser.error("--parent-root and --parent-out go together")

    sides = [("change", ROOT, args.out)]
    if args.parent_root is not None:
        sides.append(("parent", args.parent_root.resolve(), args.parent_out))
    runs = {name: [] for name, _, _ in sides}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in (w["name"] for w in bench["workloads"]):
            order = sides if seed % 2 == 0 else sides[::-1]
            for name, root, _ in order:
                record = run_once(root, workload, seed, bench["run_seconds"], args.trace)
                runs[name].append(record)
                r = record["result"]
                print(
                    f"{name} {workload} seed {seed}: correct {r['correct']} failed {r['failed']}/{r['attempted']} "
                    + " ".join(f"{k}={v['value']:.4g}" for k, v in list(r["metrics"].items())[:4]),
                    flush=True,
                )
    for name, root, out in sides:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"meta": meta(root, runs[name]), "runs": runs[name]}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
