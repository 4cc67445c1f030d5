import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pubgame import (
    ConfigError,
    GameConfig,
    GameLedger,
    Question,
    RoundPool,
    SelectionOutcome,
    set_utility,
    utility_of_set,
)

from helpers import mk_q, mk_pool


def pool_of(*questions):
    return RoundPool(questions=questions)


def test_question_text_joins_title_and_body():
    pool = pool_of(mk_q(1, title="how to sort", body="use a stable sort"), mk_q(2, body=""))
    assert pool.texts() == ["how to sort use a stable sort", "title 2 "]
    assert pool.texts([1, 0]) == ["title 2 ", "how to sort use a stable sort"]


def test_question_rejects_negative_fields():
    with pytest.raises(ValueError, match="^question 'q1': view_count must be a whole number >= 0$"):
        pool_of(mk_q(1, views=-5))
    with pytest.raises(ValueError, match="^question 'q1': u_g must be finite and >= 0$"):
        pool_of(mk_q(1, u_g=-0.1))
    with pytest.raises(ValueError, match=r"^question 'q1': u_f_norm outside \[0, 1\]$"):
        pool_of(mk_q(1, u_f_norm=1.5))


def test_pool_takes_no_week_and_refuses_empty():
    # a week is its pool's position in the dataset, not a field
    with pytest.raises(TypeError):
        RoundPool(week=0, questions=(mk_q(1),))
    with pytest.raises(ValueError, match="^empty round pool$"):
        RoundPool(questions=())


def test_question_requires_u_f_norm():
    with pytest.raises(TypeError):
        Question(id="q", domain="d", title="t", body="b", view_count=1, u_g=1.0)


def test_set_utility_divides_by_week_max():
    utilities = set_utility([10, 40, 20])
    assert utilities.dtype == np.float64
    assert utilities.tolist() == [0.25, 1.0, 0.5]
    pool = mk_pool(0, [(10, 1.0), (40, 2.0), (20, 3.0)])
    assert [q.u_f_norm for q in pool.questions] == [0.25, 1.0, 0.5]


def test_set_utility_zero_week_maps_to_zero():
    utilities = set_utility([0, 0]).tolist()
    assert utilities == [0.0, 0.0]
    assert all(type(u) is float and math.copysign(1.0, u) == 1.0 for u in utilities)


def test_set_utility_is_python_division_above_2_53():
    # past 2**53 a count and its float image differ; both sides divide
    # the correctly rounded images
    views = [2**53 + 1, 2**60 + 3, 3 * 2**70 + 7, 5, 2**200 - 1, 10**300]
    top = float(max(views))
    assert set_utility(views).tolist() == [v / top for v in views]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**200), min_size=1, max_size=20))
def test_set_utility_matches_python_division(views):
    top = float(max(views))
    want = [v / top if top > 0 else 0.0 for v in views]
    assert [u.hex() for u in set_utility(views).tolist()] == [u.hex() for u in want]


def test_utility_of_set_sides():
    # the proposer's (G) total, then the curator's (F)
    pool = mk_pool(0, [(10, 1.5), (20, 2.5)])
    assert utility_of_set(pool, [0, 1]) == (4.0, 1.5)


@pytest.mark.parametrize("side", [0, 1], ids=["G", "F"])
def test_utility_of_set_empty_is_float_zero(side):
    total = utility_of_set(mk_pool(0, [(10, 1.5)]), [])[side]
    assert total == 0.0 and type(total) is float


def test_utility_of_set_adds_left_to_right():
    # math.fsum and Python 3.12's sum() give 1.0 here
    pool = pool_of(*(mk_q(i, u_g=0.1, u_f_norm=0.1) for i in range(10)))
    assert utility_of_set(pool, np.arange(10)) == (0.9999999999999999, 0.9999999999999999)
    u_g, u_f = utility_of_set(pool, np.arange(10))
    assert type(u_g) is float and type(u_f) is float


def test_negative_zero_utility_realizes_zero():
    pool = pool_of(mk_q(0, u_g=-0.0, views=0))
    assert pool.questions[0].u_g.hex() == "-0x0.0p+0"
    u_g, u_f = utility_of_set(pool, [0])
    assert (u_g.hex(), u_f.hex()) == ("0x0.0p+0", "0x0.0p+0")
    assert SelectionOutcome.of(pool, [0], [0]).u_g_realized.hex() == "0x0.0p+0"


def test_selection_outcome_of_ids_and_realized_utilities():
    pool = mk_pool(3, [(10, 1.5), (20, 2.5), (40, 4.0)])
    assert SelectionOutcome.of(pool, np.array([0, 1, 2]), [2, 1]) == SelectionOutcome(
        ("q3-0", "q3-1", "q3-2"), ("q3-2", "q3-1"), 6.5, 1.5
    )


def test_game_config_validation():
    GameConfig()
    with pytest.raises(ConfigError):
        GameConfig(k_cap=0)
    with pytest.raises(ConfigError):
        GameConfig(m_cap=3, k_cap=5)
    with pytest.raises(ConfigError):
        GameConfig(rounds=0)
    with pytest.raises(ConfigError):
        GameConfig(retrain_period=0)
    with pytest.raises(ConfigError):
        GameConfig(strategy_g="optimal")


def test_selection_outcome_invariants():
    SelectionOutcome(("a", "b"), ("a",), 1.0, 0.5)
    with pytest.raises(ValueError):
        SelectionOutcome(("a",), ("b",), 1.0, 0.5)
    with pytest.raises(ValueError):
        SelectionOutcome(("a", "b"), ("a", "a"), 1.0, 0.5)


def _outcome(week, ug, uf):
    return SelectionOutcome((f"w{week}",), (f"w{week}",), ug, uf)


def test_ledger_accumulates_left_to_right():
    outcomes = [_outcome(t, float(t), 0.5 * t) for t in range(5)]
    ledger = GameLedger.from_outcomes(outcomes)
    assert ledger.cum_u_g == (0.0, 1.0, 3.0, 6.0, 10.0)
    assert ledger.total_u_g == 10.0
    assert ledger.total_u_f == 5.0
    assert ledger.u_g == (0.0, 1.0, 2.0, 3.0, 4.0)
    assert ledger.published_counts == (1, 1, 1, 1, 1)
    assert len(ledger) == 5


def test_ledger_totals_match_plain_sum_order_exactly():
    # many rounds of awkward floats: the running totals must equal the
    # same left-to-right accumulation, with no clever resummation
    vals = [0.1 * ((t * 7919) % 100) + 1e-9 for t in range(10_000)]
    ledger = GameLedger.from_outcomes(
        [_outcome(t, v, v / 3.0) for t, v in enumerate(vals)]
    )
    total = 0.0
    for v in vals:
        total += v
    assert ledger.total_u_g == total


def test_ledger_rejects_mismatched_cumulative_series():
    # the running totals are derived, so only the given columns and the
    # outcomes can disagree with the round count
    ledger = GameLedger.from_outcomes([_outcome(0, 1.0, 1.0)])
    for name in ("proposed_counts", "published_counts", "u_g", "u_f"):
        with pytest.raises(ValueError, match="one entry per round"):
            dataclasses.replace(ledger, **{name: getattr(ledger, name) * 2})
    with pytest.raises(ValueError, match="outcome count"):
        dataclasses.replace(ledger, outcomes=ledger.outcomes * 2)


def test_ledger_derives_its_running_totals():
    ledger = GameLedger((2, 2), (1, 0), (1.5, 0.25), (0.5, 0.0))
    assert (ledger.cum_u_g, ledger.cum_u_f) == ((1.5, 1.75), (0.5, 0.5))
    assert dataclasses.replace(ledger, u_g=(3.0, 1.0)).cum_u_g == (3.0, 4.0)
    with pytest.raises(TypeError):
        GameLedger((2,), (1,), (1.5,), (0.5,), cum_u_g=(9.0,))


def test_empty_ledger_totals_are_zero():
    ledger = GameLedger.from_outcomes([])
    assert ledger.total_u_g == 0.0
    assert ledger.total_u_f == 0.0


@pytest.mark.parametrize(
    "fields",
    [
        {"u_g": float("nan")},
        {"u_g": float("inf")},
        {"forum_score": float("inf")},
        {"forum_score": float("-inf")},
        {"views": 3.7},
        {"views": float("nan")},
    ],
)
def test_question_rejects_non_finite_and_fractional_values(fields):
    what = {
        "u_g": "u_g must be finite and >= 0",
        "forum_score": "forum_score must be finite",
        "views": "view_count must be a whole number >= 0",
    }[next(iter(fields))]
    with pytest.raises(ValueError, match=f"^question 'q1': {what}$"):
        pool_of(mk_q(0), mk_q(1, **fields), mk_q(2, **fields))


def test_pool_refuses_columns_of_different_lengths():
    with pytest.raises(ValueError, match="^columns of different lengths$"):
        RoundPool(("a", "b"), ("d",) * 2, ("t",) * 2, ("b",) * 2, (1, 2), [1.0, 1.0], [0.5])


def test_a_nan_forum_score_is_an_absent_one():
    pool = pool_of(mk_q(0, forum_score=float("nan")), mk_q(1, forum_score=0.5))
    assert [q.forum_score for q in pool.questions] == [None, 0.5]
    assert pool == pool_of(mk_q(0), mk_q(1, forum_score=0.5))


def test_question_is_immutable():
    q = mk_q(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.u_g = 2.0
    # so is a pool, columns included: splits share them
    pool = pool_of(q)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pool.ids = ("q2",)
    for column in (pool.u_g, pool.u_f_norm, pool.forum_score):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0.5


_texts = st.text(max_size=8)
_rows = st.lists(
    st.tuples(
        _texts,
        _texts,
        _texts,
        st.integers(0, 2**200),
        st.sampled_from([-0.0, 0.0, 0.1, 1e-300]) | st.floats(0, 1e300),
        st.floats(0, 1),
        st.none() | st.floats(allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(_rows)
def test_question_rows_round_trip_every_column(rows):
    ids = tuple(f"q{i}" for i in range(len(rows)))
    domains, titles, bodies, views, u_g, u_f, scores = (tuple(c) for c in zip(*rows))
    pool = RoundPool(ids, domains, titles, bodies, views, u_g, u_f, scores)
    want = [(i, *row) for i, row in zip(ids, rows)]
    # repr tells -0.0 from 0.0, and a float from a NumPy scalar
    assert repr([dataclasses.astuple(q) for q in pool.questions]) == repr(want)
    assert pool.questions is not pool.questions
    assert RoundPool(questions=pool.questions) == pool
    # with no forum_score column every question has none
    bare = RoundPool(ids, domains, titles, bodies, views, u_g, u_f)
    assert [q.forum_score for q in bare.questions] == [None] * len(rows)
