"""Fast tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke runs play every workload end to end at a small size with all
checks on.  The corruption tests feed each check a deliberately broken
output and require it to be rejected, after first requiring that the
untouched output passes, so that no check passes vacuously.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import metrics
from compare import verdict
from pubgame.nash_opt import OracleResult
from workloads import WORKLOADS
from workloads.exact import check_case
from workloads.forum import check_rerun
from workloads.season import check_season, read_weeks
from workloads.skew import check_skew

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_lists_every_metric_and_workload():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == metrics.per_layer()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_passes_every_check(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    expected = metrics.per_layer() if trace else list(metrics.END_TO_END)
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_self_times_account_for_the_pass():
    proc = run_bench("season", 1)
    m = {k: v["value"] for k, v in json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()}
    assert m["engine.rounds"] > 0 and m["textmodel.docs_scored"] > 0 and m["data.records"] > 0
    assert m["trace.unattributed_s"] < 0.05 * m["host.pass_wall_s"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "skew", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]
    assert verdict(parent, faster, list(zip(parent, faster)), "lower", 0.25)[0] == "improved"
    assert verdict(parent, slower, list(zip(parent, slower)), "lower", 0.25)[0] == "worse"
    assert verdict(parent, parent, list(zip(parent, parent)), "lower", 0.25)[0] == "unchanged"
    assert verdict(noisy, noisy, list(zip(noisy, noisy)), "lower", 0.25)[0] == "unresolved"
    assert verdict(parent, slower, list(zip(parent, slower)), "higher", None)[0] == "improved"


# ------------------------------------------------------------ corruption


def play(name: str, tmp_path: Path, seed: int = 5):
    workload = WORKLOADS[name](smoke=True)
    passdir = tmp_path / "pass-0"
    passdir.mkdir()
    inputs = workload.prepare(seed, passdir)
    outputs = workload.run(inputs)
    return workload, inputs, outputs


def replace_outcome(ledger, t, **changes):
    """A copy of the ledger with round t changed, skipping the program's
    own validation so that a check sees outputs the program refuses."""
    outcomes = list(ledger.outcomes)
    outcomes[t] = SimpleNamespace(**{**vars(outcomes[t]), **changes})
    return SimpleNamespace(outcomes=outcomes, cum_u_g=ledger.cum_u_g, cum_u_f=ledger.cum_u_f)


@pytest.fixture(scope="module")
def season(tmp_path_factory):
    workload, inputs, outputs = play("season", tmp_path_factory.mktemp("season"))
    weeks = read_weeks(inputs["path"])
    assert check_season(weeks, outputs, workload.size) == []
    return workload, weeks, outputs


def test_season_rejects_a_swapped_published_id(season):
    workload, weeks, out = season
    ledger = out["ledgers"]["utility"]
    t = next(t for t, o in enumerate(ledger.outcomes) if o.published)
    o = ledger.outcomes[t]
    outsider = next(rec["id"] for rec in weeks[workload.size.pretrain + t] if rec["id"] not in o.proposed)
    bad = replace_outcome(ledger, t, proposed=o.proposed[:-1] + (outsider,), published=(outsider,) + o.published[1:])
    assert check_season(weeks, {**out, "ledgers": {"utility": bad}}, workload.size)


def test_season_rejects_a_shifted_theta(season):
    workload, weeks, out = season
    scorer = dataclasses.replace(out["scorer"], theta=out["scorer"].theta + 1e-9)
    assert any("theta" in f for f in check_season(weeks, {**out, "scorer": scorer}, workload.size))


def test_season_rejects_a_reordered_greedy_proposal(season):
    workload, weeks, out = season
    ledger = out["ledgers"]["greedy"]
    o = ledger.outcomes[0]
    bad = replace_outcome(ledger, 0, proposed=o.proposed[::-1])
    assert check_season(weeks, {**out, "ledgers": {"greedy": bad}}, workload.size)


def test_season_rejects_a_wrong_realized_utility(season):
    workload, weeks, out = season
    ledger = out["ledgers"]["utility"]
    o = ledger.outcomes[1]
    bad = replace_outcome(ledger, 1, u_f_realized=o.u_f_realized + 1e-12)
    assert check_season(weeks, {**out, "ledgers": {"utility": bad}}, workload.size)


def test_season_rejects_a_wrong_curator_utility(season):
    workload, weeks, out = season
    pool = out["dataset"].pools[2]
    q = pool.questions[0]
    shifted = dataclasses.replace(q, u_f_norm=q.u_f_norm * 0.5)
    pools = list(out["dataset"].pools)
    pools[2] = dataclasses.replace(pool, questions=(shifted,) + pool.questions[1:])
    dataset = dataclasses.replace(out["dataset"], pools=tuple(pools))
    assert check_season(weeks, {**out, "dataset": dataset}, workload.size)


def test_season_rejects_a_lost_advantage():
    workload = WORKLOADS["season"](smoke=True)
    kept = {"utility_g": 115.0, "greedy_g": 100.0, "utility_f": 10.0, "greedy_f": 9.0}
    lost = {"utility_g": 105.0, "greedy_g": 100.0, "utility_f": 10.0, "greedy_f": 9.0}
    assert workload.finish([kept, None]) == {}
    assert workload.finish([lost, None])[None]


@pytest.fixture(scope="module")
def skew(tmp_path_factory):
    workload, inputs, outputs = play("skew", tmp_path_factory.mktemp("skew"))
    assert check_skew(inputs["dataset"], outputs, workload.size.k) == []
    return workload, inputs["dataset"], outputs


def test_skew_rejects_a_duplicate_pick(skew):
    workload, dataset, runs = skew
    o = runs["mpp"].outcomes[0]
    bad = replace_outcome(runs["mpp"], 0, proposed=o.proposed[:-1] + o.proposed[:1], published=o.published[:-1] + o.published[:1])
    assert check_skew(dataset, {**runs, "mpp": bad}, workload.size.k)


def test_skew_rejects_a_wrong_realized_utility(skew):
    workload, dataset, runs = skew
    bad = replace_outcome(runs["random"], 2, u_g_realized=runs["random"].outcomes[2].u_g_realized * 1.001)
    assert check_skew(dataset, {**runs, "random": bad}, workload.size.k)


def test_skew_rejects_maxsp_below_another_heuristic(skew):
    workload, dataset, runs = skew
    swapped = {**runs, "maxsp": runs["random"], "random": runs["maxsp"]}
    assert any("larger sum of f*g" in f for f in check_skew(dataset, swapped, workload.size.k))


@pytest.fixture(scope="module")
def exact(tmp_path_factory):
    workload, cases, results = play("exact", tmp_path_factory.mktemp("exact"))
    assert all(check_case(c, e, d) == [] for c, (e, d) in zip(cases, results))
    return cases, results


@pytest.mark.parametrize("family", ["pool", "int", "reduction"])
def test_exact_rejects_a_value_off_by_one(exact, family):
    cases, results = exact
    for case, (e, dp) in zip(cases, results):
        if case.family == family:
            assert check_case(case, OracleResult(e.indices, e.value + 1), dp)


def test_exact_rejects_a_disagreeing_dp(exact):
    cases, results = exact
    case, (e, dp) = next((c, r) for c, r in zip(cases, results) if c.family == "int")
    assert check_case(case, e, OracleResult(dp.indices, dp.value - 1))


def test_exact_rejects_a_suboptimal_subset(exact):
    cases, results = exact
    for case, (e, dp) in zip(cases, results):
        if case.instance.n > 12 or case.family == "reduction":
            continue
        worst = tuple(range(case.instance.k))
        from workloads.exact import objective

        value = objective(case.instance, worst)
        if value == e.value:
            continue
        dp_bad = OracleResult(worst, value) if dp is not None else None
        assert check_case(case, OracleResult(worst, value), dp_bad)


def test_exact_rejects_a_planted_instance_that_falls_short(exact):
    cases, results = exact
    case, (e, dp) = next((c, r) for c, r in zip(cases, results) if c.family == "reduction" and not c.planted)
    assert check_case(dataclasses.replace(case, planted=True), e, dp)


@pytest.fixture()
def forum(tmp_path):
    workload, inputs, outputs = play("forum", tmp_path)
    return workload, inputs, outputs


def test_forum_passes_then_rejects_corrupted_outputs(forum):
    workload, inputs, outputs = forum
    failures, tally = workload.check(inputs, outputs)
    assert not any(failures.values())
    assert workload.finish([tally]) == {}
    dirs = inputs["dirs"]

    summary_path = dirs["analyze"] / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["rows"][0]["rho"] += 1e-6
    summary_path.write_text(json.dumps(summary))

    sig = dirs["report"] / "significance_g.csv"
    lines = sig.read_text().splitlines()
    cells = lines[2].split(",")
    cells[4] = f"{float(cells[4]) + 0.01:.3f}"
    lines[2] = ",".join(cells)
    sig.write_text("\n".join(lines) + "\n")

    ledger = dirs["full-info"] / "ledger_maxsp.csv"
    rows = ledger.read_text().splitlines()
    cells = rows[3].split(",")
    cells[5] = repr(float(cells[5]) + 1.0)
    rows[3] = ",".join(cells)
    ledger.write_text("\n".join(rows) + "\n")

    eurr = dirs["eurr"] / "eurr.json"
    payload = json.loads(eurr.read_text())
    payload["eurr_g"] *= 1.01
    eurr.write_text(json.dumps(payload))

    failures, tally = workload.check(inputs, outputs)
    assert failures["full-info"] and failures["eurr"]
    deferred = workload.finish([tally])
    assert deferred[(inputs["seed"], "analyze")] and deferred[(inputs["seed"], "report")]


def test_forum_rejects_a_curator_that_rarely_publishes(forum):
    workload, inputs, outputs = forum
    failures, tally = workload.check(inputs, outputs)
    assert not any(failures.values()) and 2 * tally["publishing"] > tally["rounds"]
    assert workload.finish([tally]) == {}
    half = {**tally, "publishing": tally["rounds"] // 2}
    silent = {**tally, "publishing": 0}
    assert workload.finish([half])[None]
    assert workload.finish([tally, silent])[None]


def test_forum_rejects_a_rerun_that_differs(forum):
    workload, inputs, outputs = forum
    sim = inputs["dirs"]["simulate"]
    assert check_rerun(sim, sim.parent / "rerun-clean") == []
    summary = sim / "summary.json"
    summary.write_text(summary.read_text().replace('"rounds"', '"rounds" ', 1))
    assert check_rerun(sim, sim.parent / "rerun-bad")
