"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload season --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ``pubgame`` from the
checkout's ``src/`` and nothing else.  The process is single-threaded:
NumPy's thread pools are pinned to one thread before NumPy loads.

A run repeats iterations until ``--seconds`` have passed (at least
three, four when traced).  Iteration i draws the seed
``seed * 1000 + i``, so no input is seen twice, and does:

1. a reference-kernel timing, then set-up: make the pass's inputs
   (timed as a set-up sample);
2. a reference-kernel timing, the timed pass, another reference timing;
3. checks of every output, against computations made apart from the
   program, in a forked child process (not timed).

Every time is rescaled to a nominal host by the reference timings
around it (see ``hostclock``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones:

- ``setup_s``: start-up (imports) plus the median set-up sample, the
  time from process start to the first timed pass;
- ``pass_s``: the median rescaled pass;
- ``peak_rss_mb``: the process's peak resident memory over start-up
  and the first three iterations, which every run makes whatever the
  host's speed (the checks run in a child and do not count).

With ``--trace 1`` every other iteration runs with spans around each
layer (see ``tracing``) and the metrics are the per-layer ones listed
in ``metrics``; the untraced iterations give the tracing overhead.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402
import tracing  # noqa: E402
from hostclock import HostClock  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORK_ROOT = BENCH_DIR / "work"
SPANS_DIR = BENCH_DIR / "results" / "spans"
# the peak is read after this many iterations, the fewest a run makes, so
# a faster host running more passes does not raise it
PEAK_ITERATIONS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("season", "skew", "exact", "forum"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the fast tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_program() -> None:
    """Import pubgame from this checkout's src/, or stop."""
    if not (SRC / "pubgame" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'pubgame'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import pubgame

    if Path(pubgame.__file__).resolve().parent != (SRC / "pubgame").resolve():
        sys.exit(f"perfbench: imported pubgame from {pubgame.__file__}, not from {SRC}")


def check_in_child(workload, inputs, outputs) -> tuple[dict, object]:
    """Run ``workload.check`` in a forked child and return its result.

    A check can allocate as much as the pass it checks (season re-reads
    every record), so it runs in a child process: the parent's peak
    resident memory then covers start-up, set-up and passes only, and
    nothing a check computes stays alive into the next pass.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                result = workload.check(inputs, outputs)
            except BaseException:
                message = "the check raised:\n" + traceback.format_exc()
                result = ({op: [message] for op in workload.ops_per_pass}, None)
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(result, fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        blob = fh.read()
    _, status = os.waitpid(pid, 0)
    if not blob:
        return {op: [f"the check process ended with status {status} and no result"] for op in workload.ops_per_pass}, None
    return pickle.loads(blob)


class Run:
    """Samples and failures gathered over one run."""

    def __init__(self, workload, clock, tracer):
        self.workload = workload
        self.clock = clock
        self.tracer = tracer
        self.setup_s: list[float] = []
        self.pass_s: list[float] = []
        self.pass_raw: list[float] = []
        self.pass_cpu: list[float] = []
        self.traced_pass_s: list[float] = []
        self.layers: list[tuple[dict, dict, float]] = []  # (self times, counts, unattributed)
        self.attempted = 0
        self.failed: set = set()
        self.tallies: list = []  # what each pass's check hands to finish()
        self.run_failures: list[str] = []

    def record_failures(self, seed: int, failures: dict) -> None:
        for op, messages in failures.items():
            if messages:
                self.failed.add((seed, op))
                for message in messages[:5]:
                    print(f"perfbench: {self.workload.name} seed {seed} {op}: FAIL {message}", file=sys.stderr)

    def iteration(self, i: int, seed: int, workdir: Path, traced: bool) -> None:
        clock, tracer, workload = self.clock, self.tracer, self.workload
        passdir = workdir / f"pass-{i}"
        passdir.mkdir()
        if traced:
            tracing.install_all(tracer)
            tracer.take()
        ref_setup = clock.ref()
        start = time.perf_counter()
        inputs = workload.prepare(seed, passdir)
        setup_raw = time.perf_counter() - start
        if traced:
            setup_times, setup_counts = tracer.take()
        gc.collect()
        ref_before = clock.ref()
        setup_factor = clock.rescale(1.0, ref_setup, ref_before)
        self.setup_s.append(setup_raw * setup_factor)

        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            outputs = workload.run(inputs, tracer if traced else None)
        except Exception:
            outputs = None
            traceback.print_exc()
        pass_raw = time.perf_counter() - start
        pass_cpu = time.process_time() - cpu_start
        ref_after = clock.ref()
        factor = clock.rescale(1.0, ref_before, ref_after)
        pass_scaled = pass_raw * factor
        if traced:
            pass_times, counts = tracer.take()
            tracer.uninstall()
        self.attempted += len(workload.ops_per_pass)
        if outputs is None:
            self.record_failures(seed, {op: ["the pass raised"] for op in workload.ops_per_pass})
        else:
            if traced:
                self.traced_pass_s.append(pass_scaled)
                attributed = sum(v for k, v in pass_times.items() if not k.startswith("nash_opt.oracle_exact."))
                times = {k: v * setup_factor for k, v in setup_times.items()}
                for k, v in pass_times.items():
                    times[k] = times.get(k, 0.0) + v * factor
                for k, v in setup_counts.items():
                    counts[k] = counts.get(k, 0) + v
                counts.update(workload.extra_counts(inputs))
                self.layers.append((times, counts, (pass_raw - attributed) * factor))
            else:
                self.pass_s.append(pass_scaled)
                self.pass_raw.append(pass_raw)
                self.pass_cpu.append(pass_cpu)
            failures, tally = check_in_child(workload, inputs, outputs)
            self.record_failures(seed, failures)
            self.tallies.append(tally)
        del inputs, outputs
        shutil.rmtree(passdir, ignore_errors=True)

    def finish(self) -> None:
        for key, messages in self.workload.finish(self.tallies).items():
            if key is None:
                self.run_failures += messages
                for message in messages:
                    print(f"perfbench: {self.workload.name}: FAIL {message}", file=sys.stderr)
            else:
                self.record_failures(key[0], {key[1]: messages})


def end_to_end(run: Run, startup_s: float, peak_rss_mb: float) -> dict:
    return {
        "setup_s": startup_s + statistics.median(run.setup_s),
        "pass_s": statistics.median(run.pass_s),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(run: Run) -> dict:
    n = len(run.layers)
    totals: dict[str, float] = {}
    for times, counts, _ in run.layers:
        for key, value in list(times.items()) + list(counts.items()):
            totals[key] = totals.get(key, 0.0) + value
    out = {}
    for name in metrics.LAYER_TIMES + metrics.LAYER_SPLITS:
        out[f"{name}_s"] = totals.get(name, 0.0) / n
    for name, _ in metrics.COUNTS:
        out[name] = totals.get(name, 0.0) / n
    proposed = totals.get("strategies.proposed", 0.0)
    out["strategies.publish_ratio"] = totals.get("strategies.published", 0.0) / proposed if proposed else 0.0
    oracle_s = totals.get("nash_opt.oracle_exact", 0.0)
    out["nash_opt.subsets_per_s"] = totals.get("nash_opt.subsets", 0.0) / oracle_s if oracle_s else 0.0
    out["host.ref_s"] = statistics.median(run.clock.ref_samples)
    out["host.pass_wall_s"] = statistics.median(run.pass_raw)
    out["trace.overhead_s"] = statistics.median(run.traced_pass_s) - statistics.median(run.pass_s)
    out["trace.unattributed_s"] = sum(u for _, _, u in run.layers) / n
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](smoke=args.smoke)
    clock = HostClock()
    tracer = tracing.Tracer() if args.trace else None
    run = Run(workload, clock, tracer)
    startup_raw = time.perf_counter() - _T0
    ref = clock.ref()
    startup_s = startup_raw * clock.rescale(1.0, ref, ref)

    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT))
    min_iterations = 4 if args.trace else PEAK_ITERATIONS
    try:
        loop_start = time.perf_counter()
        i = 0
        while i < min_iterations or time.perf_counter() - loop_start < args.seconds:
            traced = tracer is not None and i % 2 == 1
            run.iteration(i, args.seed * 1000 + i, workdir, traced)
            i += 1
            if i == PEAK_ITERATIONS:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.finish()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if not run.pass_s or (tracer is not None and not run.layers):
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    if tracer is not None:
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl")
        values = per_layer(run)
        units = dict(metrics.per_layer())
    else:
        values = end_to_end(run, startup_s, peak_rss_mb)
        units = dict(metrics.END_TO_END)
    host = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "ref_s": statistics.median(clock.ref_samples),
        "iterations": i,
        "startup_s": startup_s,
        "setup_s": run.setup_s,
        "pass_s": run.pass_s,
        "pass_raw_s": run.pass_raw,
        "pass_cpu_s": run.pass_cpu,
        "refs": clock.ref_samples,
    }
    print("perfbench-host " + json.dumps(host))
    result = {
        "correct": not run.failed and not run.run_failures,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
