import dataclasses
import hashlib
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pubgame import (
    BilinearInstance,
    ConfigError,
    Dataset,
    EnumerationBudgetError,
    ForumScorer,
    GameConfig,
    GameLedger,
    SchemaError,
    SelectionOutcome,
    SyntheticSpec,
    compute_eurr,
    engine,
    exact_urr,
    generate_synthetic,
    nash_opt,
    oracle_exact,
    read_ledger_csv,
    run_asymmetric,
    run_full_information,
    split_pretrain,
    train_text_scorer,
    write_ledger_csv,
)
from pubgame.core import STRATEGIES_G, RoundPool
from pubgame.engine import LEDGER_COLUMNS
from pubgame.nash_opt import HEURISTICS
from pubgame.textmodel import tokenize_rows, train_acceptance

from helpers import (
    count_tokenize,
    count_utility_rounds,
    mk_q,
    mk_week,
    ref_run_asymmetric,
    ref_run_full_information,
)


def scored_pools(weeks, n=10, seed=1):
    """A dataset whose forum_score tracks views, so a precomputed
    curator behaves predictably."""
    import random

    rng = random.Random(seed)
    pools = []
    for week in range(weeks):
        qs = []
        for i in range(n):
            views = rng.randint(1, 100)
            qs.append(
                mk_q(
                    f"{week}-{i}",
                    views=views,
                    u_g=float(rng.randint(1, 60)),
                    forum_score=views / 100.0,
                    u_f_norm=views / 100,
                )
            )
        pools.append(RoundPool(questions=tuple(qs)))
    return Dataset(tuple(pools))


SCORER = ForumScorer(theta=0.3)


def test_run_asymmetric_respects_caps_and_subsets():
    pools = scored_pools(4)
    config = GameConfig(m_cap=6, k_cap=2, rounds=4, seed=0)
    ledger = run_asymmetric(pools, config, SCORER)
    assert len(ledger) == 4
    for outcome, pool in zip(ledger.outcomes, pools.pools):
        assert len(outcome.proposed) == 6
        assert len(outcome.published) <= 2
        assert set(outcome.published) <= set(outcome.proposed)
        by_id = {q.id: q for q in pool.questions}
        assert outcome.u_g_realized == sum(by_id[i].u_g for i in outcome.published)
        assert outcome.u_f_realized == sum(
            by_id[i].u_f_norm for i in outcome.published
        )


def test_run_asymmetric_greedy_equals_utility_untrained(monkeypatch):
    # a utility proposer that never retrains ranks with an untrained model
    pools = scored_pools(6)
    base = dict(m_cap=5, k_cap=3, rounds=6, retrain_period=6, seed=3)
    greedy = run_asymmetric(pools, GameConfig(strategy_g="greedy", **base), SCORER)
    calls = count_utility_rounds(monkeypatch)
    untrained = run_asymmetric(pools, GameConfig(strategy_g="utility", **base), SCORER)
    assert calls == [False] * 6
    assert greedy == untrained


def test_run_asymmetric_is_seed_deterministic():
    pools = scored_pools(6, n=12)
    base = dict(m_cap=6, k_cap=3, rounds=6, strategy_g="random")
    a = run_asymmetric(pools, GameConfig(seed=5, **base), SCORER)
    b = run_asymmetric(pools, GameConfig(seed=5, **base), SCORER)
    c = run_asymmetric(pools, GameConfig(seed=6, **base), SCORER)
    assert a == b
    assert a != c


def test_run_asymmetric_needs_enough_weeks():
    pools = scored_pools(3)
    with pytest.raises(ConfigError):
        run_asymmetric(
            pools,
            GameConfig(rounds=5, m_cap=5, k_cap=2),
            SCORER,
        )


def test_a_run_tokenizes_each_text_it_scores_once(monkeypatch):
    spec = SyntheticSpec(
        weeks=14, questions_per_week=30, utility_correlation=-0.5, topic_effect=2.0, seed=2
    )
    train, val, sim = split_pretrain(generate_synthetic(spec), 6)
    text = train_text_scorer(train.pools, val.pools)
    config = GameConfig(m_cap=10, k_cap=5, rounds=8, retrain_period=3, seed=1)
    calls = count_tokenize(monkeypatch)

    # the proposer scores each pool; the curator and the two retrains
    # reuse the pool's rows
    run_asymmetric(sim, dataclasses.replace(config, strategy_g="utility"), text)
    assert len(calls) == sum(len(pool) for pool in sim.pools[:8])

    # only the curator scores text: the proposals; a proposer that does
    # not learn never trains a model that would read text
    text_of = {qid: t for pool in sim.pools for qid, t in zip(pool.ids, pool.texts())}
    for change in (dict(strategy_g="greedy"), dict(strategy_g="random")):
        calls.clear()
        ledger = run_asymmetric(sim, dataclasses.replace(config, **change), text)
        assert calls == [text_of[i] for o in ledger.outcomes for i in o.proposed]

    # no text is scored
    calls.clear()
    for change in (dict(strategy_g="greedy"), dict(strategy_g="random")):
        config = GameConfig(m_cap=6, k_cap=2, rounds=4, **change)
        run_asymmetric(scored_pools(4), config, SCORER)
    assert calls == []


def test_run_full_information_selects_exactly_k():
    pools = scored_pools(5)
    for name in HEURISTICS:
        ledger = run_full_information(pools, name, 3, seed=2)
        assert len(ledger) == 5
        for outcome in ledger.outcomes:
            assert len(outcome.published) == 3
            assert outcome.proposed == outcome.published


def test_run_full_information_k_clamps_to_pool_size():
    pools = scored_pools(2, n=4)
    ledger = run_full_information(pools, "maxsp", 10)
    assert all(len(o.published) == 4 for o in ledger.outcomes)


def test_run_full_information_unknown_heuristic():
    with pytest.raises(ConfigError):
        run_full_information(scored_pools(2), "simulated_annealing", 2)


def test_run_full_information_refuses_k_below_one():
    for name in HEURISTICS:
        with pytest.raises(ConfigError, match="k must be >= 1, got 0"):
            run_full_information(scored_pools(2), name, 0)


@pytest.mark.parametrize("rounds", [0, -3])
def test_run_full_information_refuses_rounds_below_one(rounds):
    # a negative count would slice the season from its end
    for name in HEURISTICS:
        with pytest.raises(ConfigError, match="rounds must be >= 1"):
            run_full_information(scored_pools(8), name, 2, rounds=rounds)


def test_run_full_information_rounds_prefix_consistency():
    # the random heuristic reseeds per round, so a shorter run is a
    # prefix of a longer one
    pools = scored_pools(8)
    short = run_full_information(pools, "random", 3, seed=9, rounds=4)
    full = run_full_information(pools, "random", 3, seed=9, rounds=8)
    assert short.outcomes == full.outcomes[:4]
    with pytest.raises(ConfigError):
        run_full_information(pools, "random", 3, rounds=20)


def _spec_pool():
    # items (u_g, u_f_norm) = (3, 1/3), (1, 1), (2, 2/3): the oracle pair
    # is {0, 1} on the product (4) * (4/3)
    qs = (
        mk_q("a", views=1, u_g=3.0, u_f_norm=1 / 3),
        mk_q("b", views=3, u_g=1.0, u_f_norm=1.0),
        mk_q("c", views=2, u_g=2.0, u_f_norm=2 / 3),
    )
    return RoundPool(questions=qs)


def test_exact_urr_hand_instance():
    ledger = GameLedger.from_outcomes(
        [SelectionOutcome(("qa", "qb"), ("qa",), 3.0, 1 / 3)]
    )
    report = exact_urr(ledger, Dataset((_spec_pool(),)), 2)
    assert report.star_u_g == 4.0
    assert report.star_u_f == pytest.approx(4 / 3)
    assert report.urr_g == pytest.approx(0.75)
    assert report.urr_f == pytest.approx(0.25)


def test_exact_urr_window_mismatch():
    ledger = GameLedger.from_outcomes(
        [SelectionOutcome(("qa",), ("qa",), 1.0, 0.5)]
    )
    with pytest.raises(ConfigError):
        exact_urr(ledger, Dataset((_spec_pool(), _spec_pool())), 2)


def test_exact_urr_zero_optimum_is_an_error():
    qs = (mk_q("a", views=0, u_g=1.0, u_f_norm=0.0),)
    pool = RoundPool(questions=qs)
    ledger = GameLedger.from_outcomes([SelectionOutcome(("qa",), (), 0.0, 0.0)])
    with pytest.raises(ValueError):
        exact_urr(ledger, Dataset((pool,)), 1)


def test_exact_urr_budget_propagates():
    pools = scored_pools(1, n=30)
    ledger = GameLedger.from_outcomes(
        [SelectionOutcome(("q0-0",), ("q0-0",), 1.0, 0.5)]
    )
    with pytest.raises(EnumerationBudgetError):
        exact_urr(ledger, pools, 15, budget=100)


def _ledger_with_totals(u_g, u_f):
    return GameLedger.from_outcomes(
        [SelectionOutcome(("x",), ("x",), u_g, u_f)]
    )


def test_compute_eurr_picks_best_side_independently():
    full = {
        "mpp": _ledger_with_totals(10.0, 1.0),
        "maxsp": _ledger_with_totals(6.0, 4.0),
        "greedy_np": _ledger_with_totals(12.0, 3.0),
    }
    report = compute_eurr(_ledger_with_totals(6.0, 2.0), full)
    assert report.best_heuristic_g == "greedy_np"
    assert report.best_heuristic_f == "maxsp"
    assert report.tilde_u_g == 12.0
    assert report.tilde_u_f == 4.0
    assert report.eurr_g == pytest.approx(0.5)
    assert report.eurr_f == pytest.approx(0.5)
    assert "under-estimate" in report.note


def test_compute_eurr_tie_keeps_first_heuristic():
    full = {
        "mpp": _ledger_with_totals(10.0, 2.0),
        "maxsp": _ledger_with_totals(10.0, 2.0),
    }
    report = compute_eurr(_ledger_with_totals(5.0, 1.0), full)
    assert report.best_heuristic_g == "mpp"
    assert report.best_heuristic_f == "mpp"


def test_compute_eurr_error_paths():
    with pytest.raises(ConfigError):
        compute_eurr(_ledger_with_totals(1.0, 1.0), {})
    with pytest.raises(ValueError):
        compute_eurr(
            _ledger_with_totals(1.0, 1.0), {"mpp": _ledger_with_totals(0.0, 1.0)}
        )


def test_ledger_csv_round_trip_is_exact(tmp_path):
    pools = scored_pools(7, n=9, seed=42)
    config = GameConfig(m_cap=5, k_cap=3, rounds=7, seed=1)
    ledger = run_asymmetric(pools, config, SCORER)
    path = tmp_path / "ledger.csv"
    write_ledger_csv(ledger, path, manifest_hash="cafe0123deadbeef")
    assert path.read_text().startswith("# manifest cafe0123deadbeef\n")

    table = read_ledger_csv(path)
    assert isinstance(table, GameLedger)
    assert table.outcomes == ()
    assert table.published_counts == ledger.published_counts
    weeks = [line.split(",")[0] for line in path.read_text().splitlines()[2:]]
    assert weeks == [str(t) for t in range(len(ledger))]
    assert table.u_g == ledger.u_g
    assert table.cum_u_g == ledger.cum_u_g
    assert table.total_u_g == ledger.total_u_g
    assert table.total_u_f == ledger.total_u_f

    # a re-written table round-trips byte for byte
    second = tmp_path / "again.csv"
    write_ledger_csv(table, second, manifest_hash="cafe0123deadbeef")
    assert second.read_bytes() == path.read_bytes()


# bounded so running totals cannot overflow to inf
_finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 4), st.integers(0, 4), _finite, _finite),
        max_size=20,
    )
)
def test_ledger_csv_round_trip_property(rounds):
    outcomes = []
    for t, (n_prop, n_pub, u_g, u_f) in enumerate(rounds):
        proposed = tuple(f"{t}-{i}" for i in range(n_prop))
        outcomes.append(SelectionOutcome(proposed, proposed[:n_pub], u_g, u_f))
    ledger = GameLedger.from_outcomes(outcomes)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        write_ledger_csv(ledger, first)
        back = read_ledger_csv(first)
        write_ledger_csv(back, second)
        assert second.read_bytes() == first.read_bytes()
    assert back == dataclasses.replace(ledger, outcomes=())
    assert (back.total_u_g, back.total_u_f) == (ledger.total_u_g, ledger.total_u_f)


def test_read_ledger_csv_rejects_drifted_cumulatives(tmp_path):
    path = tmp_path / "ledger.csv"
    path.write_text(
        "week,proposed_count,published_count,u_g_realized,u_f_realized,cum_u_g,cum_u_f\n"
        "0,2,1,1.0,0.5,1.0,0.5\n"
        "1,2,1,1.0,0.5,2.5,1.0\n"
    )
    with pytest.raises(
        SchemaError, match="^ledger.csv line 3: cumulative totals disagree with per-round values$"
    ):
        read_ledger_csv(path)


@pytest.mark.parametrize(
    "weeks, message",
    [
        (["1"], "line 2: week 1 is not the row's position, 0"),
        (["0", "2"], "line 3: week 2 is not the row's position, 1"),
        (["0", "0"], "line 3: week 0 is not the row's position, 1"),
    ],
)
def test_read_ledger_csv_refuses_a_week_out_of_position(tmp_path, weeks, message):
    # round t of a ledger is week t; eurr and report pair rounds by position
    path = tmp_path / "ledger.csv"
    rows = [f"{w},2,1,1.0,0.5,{t + 1.0!r},{0.5 * (t + 1)!r}" for t, w in enumerate(weeks)]
    path.write_text("\n".join([",".join(LEDGER_COLUMNS), *rows]) + "\n")
    with pytest.raises(SchemaError, match=f"^ledger.csv {message}$"):
        read_ledger_csv(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("\u0663,5,1", "week '\u0663' is not an integer >= 0"),
        ("3,\uff15,1", "proposed_count '\uff15' is not an integer >= 0"),
        ("3,5,\u00b9", "published_count '\u00b9' is not an integer >= 0"),
        ("3,+5,1", "proposed_count '\\+5' is not an integer >= 0"),
        ("3, 5,1", "proposed_count ' 5' is not an integer >= 0"),
    ],
)
def test_read_ledger_csv_takes_ascii_digits_only(tmp_path, row, message):
    # int() reads an Arabic-Indic three and a fullwidth five as 3 and 5
    path = tmp_path / "ledger.csv"
    path.write_text(",".join(LEDGER_COLUMNS) + f"\n{row},1.0,0.5,1.0,0.5\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=f"^ledger.csv line 2: {message}$"):
        read_ledger_csv(path)


@pytest.mark.parametrize(
    "utilities, message",
    [
        ("1_0,0.5,10.0,0.5", "u_g_realized '1_0' is not a number"),
        ("1.0,\u0663,1.0,3.0", "u_f_realized '\u0663' is not a number"),
        ("1.0,0.5,1.0,0.\uff15", "cum_u_f '0.\uff15' is not a number"),
    ],
)
def test_read_ledger_csv_reads_utilities_as_ascii_numbers(tmp_path, utilities, message):
    # float() reads "1_0" as 10 and an Arabic-Indic three as 3
    path = tmp_path / "ledger.csv"
    path.write_text(",".join(LEDGER_COLUMNS) + f"\n0,2,1,{utilities}\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=f"^ledger.csv line 2: {message}$"):
        read_ledger_csv(path)


def test_read_ledger_csv_rejects_wrong_shape(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("week,oops\n0,1\n")
    with pytest.raises(SchemaError):
        read_ledger_csv(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SchemaError):
        read_ledger_csv(empty)


def test_recovery_reports_share_the_ledger_numerators():
    pools = scored_pools(6, n=12, seed=7)
    config = GameConfig(m_cap=6, k_cap=3, rounds=6, seed=0)
    ledger = run_asymmetric(pools, config, SCORER)
    full = {
        name: run_full_information(pools, name, 3, seed=0) for name in HEURISTICS
    }
    report = compute_eurr(ledger, full)
    urr = exact_urr(ledger, pools, 3)
    assert report.realized_u_g == urr.realized_u_g == ledger.total_u_g
    assert report.realized_u_f == urr.realized_u_f == ledger.total_u_f
    assert report.tilde_u_g == max(run.total_u_g for run in full.values())
    assert report.tilde_u_f == max(run.total_u_f for run in full.values())
    assert report.eurr_g == ledger.total_u_g / report.tilde_u_g
    assert urr.urr_g == ledger.total_u_g / urr.star_u_g


def test_exact_urr_on_criterion_6_pools_is_unchanged():
    # the digest is of these reprs as the itertools.combinations
    # enumerator printed them: the optima and ratios must not move
    lines = []
    for seed in range(20):
        spec = SyntheticSpec(
            weeks=18, questions_per_week=18, utility_correlation=0.3, topic_effect=2.0, seed=seed
        )
        _, _, sim = split_pretrain(generate_synthetic(spec), 6)
        window = Dataset(sim.pools[:12])
        for pool in window.pools:
            items = tuple((q.u_g, q.u_f_norm) for q in pool.questions)
            lines.append(repr(oracle_exact(BilinearInstance(items=items, k=4))))
        ledger = run_full_information(sim, "greedy_np", 4, seed=seed, rounds=12)
        lines.append(repr(exact_urr(ledger, window, 4)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "76d071a35055063b6c4c58a7027cc37efd2e4e0ef5be13cc86ec7b56b6e1bd05"


# ---------------------------------------------------------------- reference game
# Both loops against the per-question reference loops in helpers, ledger
# field for field and floats bit for bit, on small drawn seasons with
# heavily repeated values.

# the last word is non-ASCII: the tokenizer splits it into "na" and "ve"
_WORDS = ("alpha", "beta", "gamma", "delta", "omega", "zz", "na\u00efve")
# a fixed curator model: "alpha" and "beta" questions were accepted
_CURATOR_TEXTS = [f"{a} {b} {c}" for a in _WORDS for b in _WORDS for c in _WORDS[:3]]
_CURATOR = train_acceptance(
    tokenize_rows(_CURATOR_TEXTS), ["alpha" in t or "beta" in t for t in _CURATOR_TEXTS]
)
_question = st.fixed_dictionaries(
    {
        "views": st.sampled_from([0, 0, 1, 2, 3, 7, 100, 2**60 + 1]),
        "u_g": st.sampled_from([-0.0, 0.0, 0.1, 0.1, 0.5, 1.0, 2.5, 1e-300, 7.0, 1e6]),
        "title": st.lists(st.sampled_from(_WORDS), max_size=3).map(" ".join),
        "body": st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join),
        "forum_score": st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.75, 1.0]),
    }
)
_season = st.lists(st.lists(_question, min_size=1, max_size=30), min_size=2, max_size=8).map(
    lambda weeks: Dataset(
        tuple(
            mk_week([(f"{t}-{i}", kw) for i, kw in enumerate(week)])
            for t, week in enumerate(weeks)
        )
    )
)


def _assert_same_ledger(ledger, ref):
    def exact(values):
        assert all(type(v) is float for v in values)
        return [v.hex() for v in values]

    assert ref["weeks"] == tuple(range(len(ledger)))
    for name in ("proposed_counts", "published_counts"):
        assert getattr(ledger, name) == ref[name], name
    for name in ("u_g", "u_f", "cum_u_g", "cum_u_f"):
        assert exact(getattr(ledger, name)) == exact(ref[name]), name
    assert len(ledger.outcomes) == len(ref["outcomes"])
    for o, (_, proposed, published, u_g, u_f) in zip(ledger.outcomes, ref["outcomes"]):
        assert (o.proposed, o.published) == (proposed, published)
        assert exact([o.u_g_realized, o.u_f_realized]) == exact([u_g, u_f])


@settings(max_examples=60, deadline=None)
@given(
    dataset=_season,
    strategy=st.sampled_from(STRATEGIES_G),
    text=st.booleans(),
    theta=st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]),
    caps=st.tuples(st.integers(1, 8), st.integers(0, 8)),
    rounds=st.integers(1, 8),
    retrain_period=st.integers(1, 3),
    seed=st.integers(0, 3),
)
def test_run_asymmetric_matches_the_reference_loop(
    dataset, strategy, text, theta, caps, rounds, retrain_period, seed
):
    config = GameConfig(
        m_cap=caps[0] + caps[1],
        k_cap=caps[0],
        rounds=min(rounds, dataset.n_weeks),
        retrain_period=retrain_period,
        seed=seed,
        strategy_g=strategy,
    )
    scorer = ForumScorer(theta, _CURATOR if text else None)
    ledger = run_asymmetric(dataset, config, scorer)
    _assert_same_ledger(ledger, ref_run_asymmetric(dataset, config, scorer))


@settings(max_examples=50, deadline=None)
@given(
    dataset=_season,
    heuristic=st.sampled_from(sorted(HEURISTICS)),
    k=st.integers(1, 12),
    seed=st.integers(0, 3),
    rounds=st.none() | st.integers(1, 8),
)
def test_run_full_information_matches_the_reference_loop(dataset, heuristic, k, seed, rounds):
    rounds = rounds if rounds is None else min(rounds, dataset.n_weeks)
    ledger = run_full_information(dataset, heuristic, k, seed=seed, rounds=rounds)
    _assert_same_ledger(ledger, ref_run_full_information(dataset, heuristic, k, seed, rounds))


# values on a coarse grid, so items tie within a week, rows repeat and
# zero values tie with a padded row's zeros
_grid_question = st.fixed_dictionaries(
    {"views": st.sampled_from([0, 1, 2, 2, 4]), "u_g": st.sampled_from([0.0, 0.5, 0.5, 1.0, 2.0])}
)


@st.composite
def _grid_season(draw):
    """Either every week of one size, so each rule runs once on unpadded
    rows, or each week of its own size up to the largest, so the rows
    of a band are padded."""
    n = draw(st.integers(1, 12))
    size = st.just(n) if draw(st.booleans()) else st.integers(1, n)
    week = size.flatmap(lambda m: st.lists(_grid_question, min_size=m, max_size=m))
    weeks = draw(st.lists(week, min_size=1, max_size=8))
    dataset = Dataset(
        tuple(
            mk_week([(f"{t}-{i}", kw) for i, kw in enumerate(week)])
            for t, week in enumerate(weeks)
        )
    )
    # k up to, at and past the largest pool size
    return dataset, draw(st.integers(1, n + 3) | st.just(n))


@settings(max_examples=80, deadline=None)
@given(season=_grid_season(), heuristic=st.sampled_from(sorted(HEURISTICS)), seed=st.integers(0, 3))
def test_run_full_information_on_grid_seasons_matches_the_reference_loop(season, heuristic, seed):
    dataset, k = season
    ledger = run_full_information(dataset, heuristic, k, seed=seed)
    _assert_same_ledger(ledger, ref_run_full_information(dataset, heuristic, k, seed))


def test_run_full_information_calls_each_rule_once_per_size_band(monkeypatch):
    # bit lengths 2, 3, 2, 3, 3, 2, 4: three bands; weeks 0, 2 and 5 hold
    # fewer than k = 4 questions
    sizes = (3, 5, 2, 7, 4, 3, 9)
    dataset = Dataset(
        tuple(
            mk_week([(f"{t}-{i}", {"views": (i * 7 + t) % 5, "u_g": float(i * t % 3)}) for i in range(n)])
            for t, n in enumerate(sizes)
        )
    )
    bands = ([0, 2, 5], [1, 3, 4], [6])
    for name, rule in nash_opt.COLUMN_RULES.items():
        calls = []

        def spy(f, g, k, *seeds, _rule=rule, **kwargs):
            calls.append((f.tolist(), g.tolist(), k, seeds, kwargs))
            return _rule(f, g, k, *seeds, **kwargs)

        monkeypatch.setitem(nash_opt.COLUMN_RULES, name, spy)
        ledger = run_full_information(dataset, name, 4, seed=7)
        want = []
        for weeks in bands:
            pools = [dataset.pools[t] for t in weeks]
            width = max(map(len, pools))

            def padded(column):
                return [c.tolist() + [0.0] * (width - len(c)) for c in column]

            seeds = ([f"7-{t}" for t in weeks],) if name == "random" else ()
            want.append(
                (
                    padded(p.u_g for p in pools),
                    padded(p.u_f_norm for p in pools),
                    4,
                    seeds,
                    {"sizes": [len(p) for p in pools]},
                )
            )
        assert calls == want, name
        _assert_same_ledger(ledger, ref_run_full_information(dataset, name, 4, 7))


# seasons long enough for several retrains, and a proposer that learns:
# the case the property above draws in about one example of six
_long_season = st.lists(st.lists(_question, min_size=5, max_size=30), min_size=4, max_size=8).map(
    lambda weeks: Dataset(
        tuple(
            mk_week([(f"{t}-{i}", kw) for i, kw in enumerate(week)])
            for t, week in enumerate(weeks)
        )
    )
)


@settings(max_examples=40, deadline=None)
@given(
    dataset=_long_season,
    text=st.booleans(),
    theta=st.sampled_from([0.0, 0.3, 0.5, 0.7]),
    caps=st.tuples(st.integers(1, 8), st.integers(0, 8)),
    retrain_period=st.integers(1, 2),
    seed=st.integers(0, 3),
)
def test_a_learning_proposer_matches_the_reference_loop(
    dataset, text, theta, caps, retrain_period, seed
):
    config = GameConfig(
        m_cap=caps[0] + caps[1],
        k_cap=caps[0],
        rounds=dataset.n_weeks,
        retrain_period=retrain_period,
        seed=seed,
        strategy_g="utility",
    )
    scorer = ForumScorer(theta, _CURATOR if text else None)
    ledger = run_asymmetric(dataset, config, scorer)
    _assert_same_ledger(ledger, ref_run_asymmetric(dataset, config, scorer))


@settings(max_examples=40, deadline=None)
@given(
    dataset=_long_season,
    text=st.booleans(),
    caps=st.tuples(st.integers(1, 8), st.integers(0, 8)),
    retrain_period=st.integers(1, 3),
)
def test_once_a_retrain_is_trained_every_later_one_is(dataset, text, caps, retrain_period):
    # the history only grows, so it never loses a label or a token's
    # second document: a retrain never falls back to an untrained model
    config = GameConfig(
        m_cap=caps[0] + caps[1],
        k_cap=caps[0],
        rounds=dataset.n_weeks,
        retrain_period=retrain_period,
        strategy_g="utility",
    )
    retrains = []

    def spy(history, accepted):
        model = train_acceptance(history, accepted)
        retrains.append(model.trained)
        return model

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "train_acceptance", spy)
        run_asymmetric(dataset, config, ForumScorer(0.5, _CURATOR if text else None))
    assert len(retrains) == (dataset.n_weeks - 1) // retrain_period
    # untrained retrains, if any, then trained ones only
    assert retrains == sorted(retrains)
