import random

import pytest

from pubgame import (
    CalibrationError,
    ForumScorer,
    calibrate_theta,
    forum_select,
    label_by_percentile,
    make_precomputed_scorer,
    strategy_g_greedy,
    strategy_g_random,
    strategy_g_utility,
    train_acceptance,
    train_text_scorer,
)
from pubgame.core import RoundPool
from pubgame.textmodel import AcceptanceModel, FeaturizerConfig

from helpers import mk_q, mk_pool

CAL_POINTS = [
    (0.95, 1), (0.9, 1), (0.85, 0), (0.8, 1), (0.7, 1),
    (0.6, 0), (0.5, 0), (0.4, 1), (0.3, 0), (0.2, 0),
]


def test_greedy_strategy_takes_top_m_by_u_g():
    pool = mk_pool(0, [(10, 1.0), (10, 5.0), (10, 3.0), (10, 4.0)])
    picked = strategy_g_greedy(pool, 2)
    assert [q.u_g for q in picked] == [5.0, 4.0]
    assert len(strategy_g_greedy(pool, 99)) == 4


def test_greedy_strategy_breaks_ties_by_pool_order():
    pool = mk_pool(0, [(10, 2.0), (10, 2.0), (10, 2.0)])
    picked = strategy_g_greedy(pool, 2)
    assert [q.id for q in picked] == ["q0-0", "q0-1"]


def test_utility_strategy_equals_greedy_when_untrained():
    pool = mk_pool(0, [(10, 1.0), (10, 5.0), (10, 3.0)])
    assert strategy_g_utility(pool, 2, AcceptanceModel()) == strategy_g_greedy(pool, 2)


def test_utility_strategy_discounts_unlikely_questions():
    model = train_acceptance(
        [("alpha topic body text", True), ("beta topic body text", False)] * 3,
        FeaturizerConfig(min_df=1),
    )
    qs = (
        mk_q("hi-g", views=10, u_g=1.0, title="beta topic", u_f_norm=1.0),
        mk_q("lo-g", views=10, u_g=0.9, title="alpha topic", u_f_norm=1.0),
    )
    pool = RoundPool(week=0, questions=qs, norm_stat=10)
    assert strategy_g_greedy(pool, 1)[0].id == "qhi-g"
    assert strategy_g_utility(pool, 1, model)[0].id == "qlo-g"


def test_random_strategy_is_rng_driven_and_bounded():
    pool = mk_pool(0, [(10, float(i)) for i in range(8)])
    a = strategy_g_random(pool, 3, random.Random(5))
    b = strategy_g_random(pool, 3, random.Random(5))
    assert a == b
    assert len(a) == 3
    assert len(strategy_g_random(pool, 99, random.Random(0))) == 8


def test_percentile_labels_ten_distinct_values():
    pool = mk_pool(0, [(v, 1.0) for v in (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)])
    labels = {q.view_count: lbl for q, lbl in label_by_percentile([pool])}
    assert [labels[v] for v in (10, 20, 30, 40)] == [0, 0, 0, 0]
    assert [labels[v] for v in (50, 60)] == [None, None]
    assert [labels[v] for v in (70, 80, 90, 100)] == [1, 1, 1, 1]


def test_percentile_labels_five_distinct_values():
    pool = mk_pool(0, [(v, 1.0) for v in (10, 20, 30, 40, 50)])
    labels = [lbl for _, lbl in label_by_percentile([pool])]
    assert labels == [0, 0, None, 1, 1]


def test_percentile_labels_tie_runs_share_average_rank():
    pool = mk_pool(0, [(10, 1.0), (10, 1.0), (20, 1.0), (30, 1.0)])
    labels = [lbl for _, lbl in label_by_percentile([pool])]
    assert labels == [0, 0, 1, 1]


def test_percentile_labels_all_ties_are_excluded():
    pool = mk_pool(0, [(10, 1.0)] * 6)
    assert [lbl for _, lbl in label_by_percentile([pool])] == [None] * 6


def test_percentile_labels_require_normalized_pools():
    pool = mk_pool(0, [(10, 1.0), (20, 1.0)], normalize=False)
    with pytest.raises(ValueError):
        label_by_percentile([pool])


def test_calibrate_theta_known_sweep():
    result = calibrate_theta(CAL_POINTS)
    assert result.theta == 0.85
    assert result.precision == pytest.approx(2 / 3)
    assert result.recall == pytest.approx(0.4)
    assert not result.low_confidence


def test_calibrate_theta_tie_takes_larger_threshold():
    points = [(0.9, 1), (0.8, 1), (0.8, 1), (0.5, 0), (0.3, 1)]
    # theta 0.9 and 0.8 both reach |precision - 2*recall| = 0.5
    assert calibrate_theta(points).theta == 0.9


def test_calibrate_theta_needs_both_labels():
    with pytest.raises(CalibrationError):
        calibrate_theta([(0.5, 1), (0.6, 1)])


def test_calibrate_theta_low_confidence_flag():
    assert calibrate_theta([(0.9, 1), (0.2, 0)]).low_confidence


def sweep_oracle(scored):
    n_pos = sum(1 for _, lbl in scored if lbl == 1)
    best = None
    for theta in sorted({s for s, _ in scored}):
        tp = sum(1 for s, lbl in scored if s >= theta and lbl == 1)
        fp = sum(1 for s, lbl in scored if s >= theta and lbl == 0)
        if tp + fp == 0:
            continue
        diff = abs(tp / (tp + fp) - 2.0 * tp / n_pos)
        if best is None or diff <= best[0]:
            best = (diff, theta)
    return best[1]


def test_calibrate_theta_matches_independent_sweep():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(4, 30)
        scored = [(round(rng.random(), 3), rng.randint(0, 1)) for _ in range(n)]
        labels = {lbl for _, lbl in scored}
        if labels != {0, 1}:
            continue
        assert calibrate_theta(scored).theta == sweep_oracle(scored)


def _precomputed_pool():
    qs = tuple(
        mk_q(f"p{i}", views=10, u_g=1.0, u_f_norm=0.5, forum_score=s)
        for i, s in enumerate([0.9, 0.3, 0.7, 0.9, 0.4])
    )
    return RoundPool(week=0, questions=qs, norm_stat=10)


def test_forum_select_filters_orders_and_truncates():
    pool = _precomputed_pool()
    scorer = ForumScorer(kind="precomputed", theta=0.5)
    published = forum_select(pool.questions, scorer, 2)
    # scores >= 0.5: p0 (0.9), p2 (0.7), p3 (0.9); tie 0.9 keeps position order
    assert [q.id for q in published] == ["qp0", "qp3"]
    assert [q.id for q in forum_select(pool.questions, scorer, 10)] == ["qp0", "qp3", "qp2"]


def test_forum_select_may_publish_nothing():
    scorer = ForumScorer(kind="precomputed", theta=0.95)
    assert forum_select(_precomputed_pool().questions, scorer, 3) == []
    with pytest.raises(ValueError):
        forum_select(_precomputed_pool().questions, scorer, 0)


def test_forum_scorer_validation():
    with pytest.raises(ValueError):
        ForumScorer(kind="neural", theta=0.5)
    with pytest.raises(ValueError):
        ForumScorer(kind="text", theta=0.5)
    scorer = ForumScorer(kind="precomputed", theta=0.5)
    with pytest.raises(ValueError):
        scorer.score([mk_q(1, u_f_norm=0.5)])


def _topic_pools(weeks, seed=0, n=12):
    # high-view questions carry the "alpha" token, low-view the "beta" token
    rng = random.Random(seed)
    pools = []
    for week in range(weeks):
        qs = []
        for i in range(n):
            hot = i < n // 2
            views = rng.randint(80, 100) if hot else rng.randint(1, 20)
            word = "alpha" if hot else "beta"
            qs.append(
                mk_q(
                    f"{week}-{i}",
                    views=views,
                    u_g=float(rng.randint(1, 50)),
                    title=f"{word} question",
                    body=f"{word} detail {word}",
                )
            )
        pool = RoundPool(week=week, questions=tuple(qs), norm_stat=max(q.view_count for q in qs))
        pools.append(mk_pool_norm(pool))
    return pools


def mk_pool_norm(pool):
    from pubgame import set_utility

    return set_utility(pool)


def test_train_text_scorer_learns_topic_threshold():
    pools = _topic_pools(6)
    scorer = train_text_scorer(pools[:4], pools[4:])
    assert scorer.kind == "text"
    assert 0.0 <= scorer.theta <= 1.0
    assert scorer.calibration is not None
    hot = mk_q("hot", title="alpha question", body="alpha detail", u_f_norm=1.0)
    cold = mk_q("cold", title="beta question", body="beta detail", u_f_norm=0.0)
    s_hot, s_cold = scorer.score([hot, cold])
    assert s_hot > s_cold


def test_train_text_scorer_explicit_theta_keeps_calibration():
    pools = _topic_pools(6)
    scorer = train_text_scorer(pools[:4], pools[4:], theta=0.25)
    assert scorer.theta == 0.25
    assert scorer.calibration is not None


def test_train_text_scorer_rejects_degenerate_labels():
    flat = [mk_pool(w, [(10, 1.0)] * 8) for w in range(4)]
    with pytest.raises(CalibrationError):
        train_text_scorer(flat[:2], flat[2:])


def test_make_precomputed_scorer_calibrates_from_column():
    rng = random.Random(4)
    pools = []
    for week in range(2):
        qs = tuple(
            mk_q(
                f"{week}-{i}",
                views=rng.randint(1, 100),
                u_g=1.0,
                forum_score=rng.random(),
            )
            for i in range(10)
        )
        pools.append(mk_pool_norm(RoundPool(week=week, questions=qs, norm_stat=100)))
    scorer = make_precomputed_scorer(pools)
    assert scorer.kind == "precomputed"
    assert scorer.calibration is not None
    fixed = make_precomputed_scorer(pools, theta=0.7)
    assert fixed.theta == 0.7 and fixed.calibration is None
