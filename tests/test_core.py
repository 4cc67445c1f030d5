import dataclasses

import pytest

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


def test_question_text_joins_title_and_body():
    q = mk_q(1, title="how to sort", body="use a stable sort")
    assert q.text == "how to sort use a stable sort"


def test_question_rejects_negative_fields():
    with pytest.raises(ValueError):
        mk_q(1, views=-5)
    with pytest.raises(ValueError):
        mk_q(1, u_g=-0.1)
    with pytest.raises(ValueError):
        mk_q(1, u_f_norm=1.5)


def test_pool_rejects_negative_week_and_empty():
    with pytest.raises(ValueError):
        RoundPool(week=-1, questions=(mk_q(1),))
    with pytest.raises(ValueError):
        RoundPool(week=0, questions=())


def test_set_utility_divides_by_week_max():
    pool = mk_pool(0, [(10, 1.0), (40, 2.0), (20, 3.0)])
    assert [q.u_f_norm for q in pool.questions] == [0.25, 1.0, 0.5]


def test_set_utility_requires_norm_stat():
    pool = RoundPool(week=0, questions=(mk_q(1),))
    with pytest.raises(ConfigError):
        set_utility(pool)


def test_set_utility_zero_week_maps_to_zero():
    qs = (mk_q(1, views=0), mk_q(2, views=0))
    pool = set_utility(RoundPool(week=0, questions=qs, norm_stat=0))
    assert [q.u_f_norm for q in pool.questions] == [0.0, 0.0]


def test_utility_of_set_sides():
    pool = mk_pool(0, [(10, 1.5), (20, 2.5)])
    assert utility_of_set(pool.questions, "G") == 4.0
    assert utility_of_set(pool.questions, "F") == 1.5
    with pytest.raises(ValueError):
        utility_of_set(pool.questions, "X")


def test_utility_of_set_rejects_unnormalized_f_side():
    with pytest.raises(ValueError):
        utility_of_set([mk_q(1)], "F")


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
        GameConfig(theta=1.5)
    with pytest.raises(ConfigError):
        GameConfig(strategy_g="optimal")
    with pytest.raises(ConfigError):
        GameConfig(scorer_f="mlp")


def test_selection_outcome_invariants():
    SelectionOutcome(0, ("a", "b"), ("a",), 1.0, 0.5)
    with pytest.raises(ValueError):
        SelectionOutcome(0, ("a",), ("b",), 1.0, 0.5)
    with pytest.raises(ValueError):
        SelectionOutcome(0, ("a", "b"), ("a", "a"), 1.0, 0.5)


def _outcome(week, ug, uf):
    return SelectionOutcome(week, (f"w{week}",), (f"w{week}",), ug, uf)


def test_ledger_accumulates_left_to_right():
    outcomes = [_outcome(t, float(t), 0.5 * t) for t in range(5)]
    ledger = GameLedger.from_outcomes(outcomes)
    assert ledger.cum_u_g == (0.0, 1.0, 3.0, 6.0, 10.0)
    assert ledger.total_u_g == 10.0
    assert ledger.total_u_f == 5.0
    assert ledger.weekly_u_g() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert ledger.weeks == (0, 1, 2, 3, 4)
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
    ledger = GameLedger.from_outcomes([_outcome(0, 1.0, 1.0)])
    with pytest.raises(ValueError):
        dataclasses.replace(ledger, cum_u_g=())
    with pytest.raises(ValueError):
        dataclasses.replace(ledger, outcomes=ledger.outcomes * 2)


def test_empty_ledger_totals_are_zero():
    ledger = GameLedger.from_outcomes([])
    assert ledger.total_u_g == 0.0
    assert ledger.total_u_f == 0.0


@pytest.mark.parametrize(
    "fields",
    [
        {"u_g": float("nan")},
        {"u_g": float("inf")},
        {"forum_score": float("nan")},
        {"forum_score": float("-inf")},
        {"views": 3.7},
        {"views": float("nan")},
    ],
)
def test_question_rejects_non_finite_and_fractional_values(fields):
    with pytest.raises(ValueError):
        mk_q(1, **fields)


def test_question_is_immutable():
    q = mk_q(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.u_g = 2.0
