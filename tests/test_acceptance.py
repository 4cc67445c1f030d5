"""Acceptance gate: nine end-to-end checks, one verdict line each.

Each test prints ``[PASS]``/``[FAIL] criterion N: ...`` (visible with ``-s``)
and then asserts, so the suite doubles as a release checklist.
"""

import json
import random
import statistics
import time

from pubgame.cli import main
from pubgame.core import GameConfig
from pubgame.data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    split_pretrain,
)
from pubgame.engine import (
    HEURISTICS,
    compute_eurr,
    exact_urr,
    run_asymmetric,
    run_full_information,
)
from pubgame.nash_opt import (
    BilinearInstance,
    nash_objective,
    oracle_exact,
    perturb_to_no_instance,
    plant_yes_instance,
    reduce_ccss,
)
from pubgame.stats import spearman, student_t_sf, weekly_ttest
from pubgame.strategies import calibrate_theta, train_text_scorer
from pubgame.textmodel import train_acceptance

from helpers import count_utility_rounds


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _synthetic(**kwargs):
    return generate_synthetic(SyntheticSpec(**kwargs))


def test_criterion_1_oracle_dominates_every_heuristic():
    start = time.monotonic()
    violations = 0
    for seed in range(200):
        rng = random.Random(seed)
        items = tuple(
            (rng.randint(1, 100), rng.randint(1, 100)) for _ in range(15)
        )
        instance = BilinearInstance(items=items, k=4)
        best = oracle_exact(instance)
        assert nash_objective(instance, best.indices) == best.value
        for name, heuristic in HEURISTICS.items():
            picked = heuristic(instance, seed) if name == "random" else heuristic(instance)
            if nash_objective(instance, picked) > best.value:
                violations += 1
    elapsed = time.monotonic() - start
    _verdict(
        1,
        "oracle dominates all heuristics on 200 random instances",
        violations == 0 and elapsed < 10.0,
        f"{violations} violations, {elapsed:.1f}s",
    )


def test_criterion_2_hardness_reduction_round_trip():
    start = time.monotonic()
    bad_yes = bad_no = 0
    for i in range(100):
        n = 8 + (i % 11)
        k = 2 + (i % 5)
        planted = plant_yes_instance(n, k, seed=i)
        value = oracle_exact(reduce_ccss(planted)).value
        if value != planted.target**2:
            bad_yes += 1
        perturbed = perturb_to_no_instance(planted)
        value = oracle_exact(reduce_ccss(perturbed)).value
        if not value < perturbed.target**2:
            bad_no += 1
    elapsed = time.monotonic() - start
    _verdict(
        2,
        "planted subset-sum instances hit the exact optimum, perturbed fall short",
        bad_yes == 0 and bad_no == 0 and elapsed < 60.0,
        f"{bad_yes} bad yes, {bad_no} bad no, {elapsed:.1f}s",
    )


def test_criterion_3_heuristic_skew_under_anticorrelated_utilities():
    start = time.monotonic()
    seeds = range(50)
    pattern_hits = random_worst_hits = 0
    for seed in seeds:
        ds = _synthetic(
            weeks=52,
            questions_per_week=400,
            utility_correlation=-0.5,
            topic_effect=0.0,
            seed=seed,
        )
        runs = {name: run_full_information(ds, name, 50, seed=seed) for name in HEURISTICS}
        u_g = {name: run.total_u_g for name, run in runs.items()}
        u_f = {name: run.total_u_f for name, run in runs.items()}
        maxsp_top_f = all(u_f["maxsp"] > u_f[h] for h in runs if h != "maxsp")
        greedy_beats_on_g = u_g["greedy_np"] > u_g["maxsp"]
        if maxsp_top_f and greedy_beats_on_g:
            pattern_hits += 1
        others = [h for h in runs if h != "random"]
        if u_g["random"] < min(u_g[h] for h in others) and u_f["random"] < min(
            u_f[h] for h in others
        ):
            random_worst_hits += 1
    elapsed = time.monotonic() - start
    ok = (
        pattern_hits >= 0.80 * len(seeds)
        and random_worst_hits >= 0.95 * len(seeds)
        and elapsed < 120.0
    )
    _verdict(
        3,
        "maxsp leads curator utility while greedy_np leads proposer utility",
        ok,
        f"pattern {pattern_hits}/50, random worst {random_worst_hits}/50, {elapsed:.1f}s",
    )


def test_criterion_4_learned_acceptance_beats_blind_greedy():
    start = time.monotonic()
    ug_ratios = []
    uf_ratios = []
    for seed in range(20):
        ds = _synthetic(
            weeks=65,
            questions_per_week=400,
            utility_correlation=0.0,
            topic_effect=2.0,
            seed=seed,
        )
        train, val, sim = split_pretrain(ds, 13)
        scorer = train_text_scorer(train.pools, val.pools)
        totals = {}
        for strategy in ("utility", "greedy"):
            config = GameConfig(
                m_cap=100,
                k_cap=50,
                rounds=52,
                retrain_period=13,
                seed=seed,
                strategy_g=strategy,
            )
            ledger = run_asymmetric(sim, config, scorer)
            totals[strategy] = (sum(ledger.u_g[13:]), ledger.total_u_f)
        ug_ratios.append(totals["utility"][0] / totals["greedy"][0])
        uf_ratios.append(totals["utility"][1] / totals["greedy"][1])
    elapsed = time.monotonic() - start
    mean_ug = statistics.fmean(ug_ratios)
    mean_uf = statistics.fmean(uf_ratios)
    ok = mean_ug >= 1.10 and mean_uf > 1.0 and elapsed < 180.0
    _verdict(
        4,
        "utility strategy beats greedy by >=10% proposer utility after warm-up",
        ok,
        f"mean u_g ratio {mean_ug:.3f}, mean u_f ratio {mean_uf:.3f}, {elapsed:.1f}s",
    )


def test_criterion_5_untrained_model_makes_utility_equal_greedy(monkeypatch):
    # a utility proposer that never retrains ranks with an untrained model
    calls = count_utility_rounds(monkeypatch)
    mismatches = 0
    for seed, rho in ((0, 0.0), (1, -0.5), (2, 0.5)):
        ds = _synthetic(
            weeks=10,
            questions_per_week=20,
            utility_correlation=rho,
            topic_effect=1.0,
            seed=seed,
        )
        train, val, sim = split_pretrain(ds, 4)
        scorer = train_text_scorer(train.pools, val.pools)
        ledgers = []
        for strategy in ("greedy", "utility"):
            config = GameConfig(
                m_cap=8,
                k_cap=4,
                rounds=6,
                retrain_period=6,
                seed=seed,
                strategy_g=strategy,
            )
            ledgers.append(run_asymmetric(sim, config, scorer))
        if ledgers[0].outcomes != ledgers[1].outcomes:
            mismatches += 1
    _verdict(
        5,
        "a utility proposer that never retrains plays as greedy does",
        mismatches == 0 and calls == [False] * 18,
        f"{mismatches} mismatched ledgers of 3, {calls.count(False)} untrained utility rounds of 18",
    )


def test_criterion_6_surrogate_recovery_never_exceeds_exact_recovery():
    start = time.monotonic()
    violations = 0
    out_of_range = 0
    for seed in range(20):
        ds = _synthetic(
            weeks=18,
            questions_per_week=18,
            utility_correlation=0.3,
            topic_effect=2.0,
            seed=seed,
        )
        train, val, sim = split_pretrain(ds, 6)
        scorer = train_text_scorer(train.pools, val.pools)
        full = {
            name: run_full_information(sim, name, 4, seed=seed, rounds=12)
            for name in HEURISTICS
        }
        for strategy in ("greedy", "utility", "random"):
            config = GameConfig(
                m_cap=8,
                k_cap=4,
                rounds=12,
                retrain_period=5,
                seed=seed,
                strategy_g=strategy,
            )
            ledger = run_asymmetric(sim, config, scorer)
            eurr = compute_eurr(ledger, full)
            urr = exact_urr(ledger, Dataset(sim.pools[:12]), 4)
            if eurr.eurr_g > urr.urr_g or eurr.eurr_f > urr.urr_f:
                violations += 1
            for value in (eurr.eurr_g, eurr.eurr_f, urr.urr_g, urr.urr_f):
                if not 0.0 <= value <= 1.0:
                    out_of_range += 1
    elapsed = time.monotonic() - start
    _verdict(
        6,
        "surrogate recovery rate lower-bounds the exact rate for both players",
        violations == 0 and out_of_range == 0,
        f"{violations} order violations, {out_of_range} out of range, {elapsed:.1f}s",
    )


def _rank_average(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for pos in range(i, j + 1):
            ranks[order[pos]] = mean_rank
        i = j + 1
    return ranks


def _pearson(x, y):
    mx = statistics.fmean(x)
    my = statistics.fmean(y)
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = sum((a - mx) ** 2 for a in x)
    dy = sum((b - my) ** 2 for b in y)
    return num / (dx * dy) ** 0.5


def test_criterion_7_statistics_match_independent_oracles():
    rng = random.Random(7)
    worst = 0.0
    checked = 0
    for _ in range(1000):
        n = rng.randint(3, 40)
        x = [rng.randint(0, 8) for _ in range(n)]
        y = [rng.randint(0, 8) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        expected = _pearson(_rank_average(x), _rank_average(y))
        worst = max(worst, abs(spearman(x, y).rho - expected))
        checked += 1
    oracle_ok = worst <= 1e-12 and checked > 900

    exact_ok = (
        spearman([1, 2, 3, 4], [10, 20, 30, 40]).rho == 1.0
        and spearman([1, 2, 3, 4], [4, 3, 2, 1]).rho == -1.0
    )

    tt = weekly_ttest([1, 2, 3, 4, 5], [1, 2, 3, 4, 6])
    ttest_ok = (
        abs(tt.t_stat - 1.0) < 1e-12
        and tt.df == 4
        and abs(tt.p_value - 0.374) < 1e-3
    )

    criticals = {
        4: (2.776445, 4.604095),
        10: (2.228139, 3.169273),
        51: (2.007584, 2.675722),
    }
    crit_ok = all(
        abs(2.0 * student_t_sf(t_crit, df) - alpha) < 1e-5
        for df, (t05, t01) in criticals.items()
        for alpha, t_crit in ((0.05, t05), (0.01, t01))
    )
    _verdict(
        7,
        "rank correlation and t-test agree with independent references",
        oracle_ok and exact_ok and ttest_ok and crit_ok,
        f"worst rho gap {worst:.2e} over {checked} vectors, "
        f"t={tt.t_stat:.3f} p={tt.p_value:.4f}",
    )


def test_criterion_8_classifier_and_threshold_calibration():
    rng = random.Random(29)
    pos_vocab = [f"alpha{i}" for i in range(10)]
    neg_vocab = [f"beta{i}" for i in range(10)]
    shared = [f"noise{i}" for i in range(10)]

    def doc(label):
        vocab = pos_vocab if label else neg_vocab
        return " ".join(rng.choices(vocab, k=6) + rng.choices(shared, k=4))

    corpus = [(doc(i % 2 == 0), i % 2 == 0) for i in range(500)]
    texts, labels = zip(*corpus[:400])
    model = train_acceptance(texts, labels)
    held_out = corpus[400:]
    probs = model.predict_proba([text for text, _ in held_out])
    accuracy = sum(
        (p >= 0.5) == label for p, (_, label) in zip(probs, held_out)
    ) / len(held_out)

    points = [
        (0.95, 1), (0.9, 1), (0.85, 0), (0.8, 1), (0.7, 1),
        (0.6, 0), (0.5, 0), (0.4, 1), (0.3, 0), (0.2, 0),
    ]

    def sweep(scored):
        best_theta, best_gap = None, None
        for theta in sorted({s for s, _ in scored}, reverse=True):
            kept = [label for score, label in scored if score >= theta]
            tp = sum(kept)
            precision = tp / len(kept)
            recall = tp / sum(label for _, label in scored)
            gap = abs(precision - 2.0 * recall)
            if best_gap is None or gap < best_gap:
                best_theta, best_gap = theta, gap
        return best_theta

    result = calibrate_theta([s for s, _ in points], [label for _, label in points])
    theta_ok = result.theta == sweep(points) == 0.85
    _verdict(
        8,
        "text classifier separates the held-out corpus and theta matches the sweep",
        accuracy >= 0.95 and theta_ok,
        f"accuracy {accuracy:.3f}, theta {result.theta}",
    )


def test_criterion_9_manifest_reruns_are_byte_identical(tmp_path):
    data = tmp_path / "questions.jsonl"
    args = ["--weeks", "10", "--per-week", "12", "--rho", "0.3",
            "--topic-effect", "2.0", "--seed", "5"]
    assert main(["generate", "--out", str(data), *args]) == 0

    first = {}
    runs = {
        "simulate": ["simulate", "--data", str(data), "--pretrain-weeks", "4",
                     "--rounds", "5", "--m-cap", "6", "--k-cap", "3", "--seed", "5"],
        "full-info": ["full-info", "--data", str(data), "--pretrain-weeks", "4",
                      "--rounds", "5", "--k", "3", "--seed", "5"],
        "analyze": ["analyze", "--data", str(data)],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert main([*argv, "--out-dir", str(out)]) == 0
        first[name] = out
    runs["eurr"] = ["eurr", "--asym-dir", str(first["simulate"]),
                    "--full-dir", str(first["full-info"])]
    runs["report"] = ["report", "--asym-dir", str(first["simulate"]),
                      "--full-dir", str(first["full-info"])]
    for name in ("eurr", "report"):
        out = tmp_path / name
        assert main([*runs[name], "--out-dir", str(out)]) == 0
        first[name] = out

    mismatches = []
    for name, out in first.items():
        rerun = tmp_path / f"{name}-rerun"
        command = runs[name][0]
        rc = main([command, "--manifest", str(out / "manifest.json"),
                   "--out-dir", str(rerun)])
        assert rc == 0
        produced = sorted(p.name for p in out.iterdir())
        if produced != sorted(p.name for p in rerun.iterdir()):
            mismatches.append(f"{name}: file sets differ")
            continue
        for fname in produced:
            if (out / fname).read_bytes() != (rerun / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    _verdict(
        9,
        "every manifest rerun reproduces its outputs byte for byte",
        not mismatches,
        f"{len(first)} commands, mismatches: {mismatches or 'none'}",
    )
