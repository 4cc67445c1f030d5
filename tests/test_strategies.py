import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from pubgame.nash_opt import top_k
from pubgame.strategies import CalibrationResult
from pubgame.textmodel import AcceptanceModel

from helpers import count_tokenize, mk_q, mk_pool, mk_week, ref_calibrate_theta, rows_of

CAL_SCORES = [0.95, 0.9, 0.85, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2]
CAL_LABELS = [1, 1, 0, 1, 1, 0, 0, 1, 0, 0]


def test_greedy_strategy_takes_top_m_by_u_g():
    pool = mk_pool(0, [(10, 1.0), (10, 5.0), (10, 3.0), (10, 4.0)])
    picked = strategy_g_greedy(pool, 2)
    assert picked.dtype == np.int64
    assert picked.tolist() == [1, 3]
    assert strategy_g_greedy(pool, 99).tolist() == [1, 3, 2, 0]


def test_greedy_strategy_breaks_ties_by_pool_order():
    pool = mk_pool(0, [(10, 2.0), (10, 2.0), (10, 2.0)])
    assert strategy_g_greedy(pool, 2).tolist() == [0, 1]


def test_utility_strategy_equals_greedy_when_untrained():
    pool = mk_pool(0, [(10, 1.0), (10, 5.0), (10, 3.0)])
    untrained = AcceptanceModel()
    utility = strategy_g_utility(pool, 2, untrained, rows_of(pool))
    assert utility.tolist() == strategy_g_greedy(pool, 2).tolist() == [1, 2]


def test_utility_strategy_discounts_unlikely_questions():
    model = train_acceptance(
        ["alpha topic body text", "beta topic body text"] * 3, [True, False] * 3
    )
    qs = (
        mk_q("hi-g", views=10, u_g=1.0, title="beta topic", u_f_norm=1.0),
        mk_q("lo-g", views=10, u_g=0.9, title="alpha topic", u_f_norm=1.0),
    )
    pool = RoundPool(questions=qs)
    assert strategy_g_greedy(pool, 1).tolist() == [0]
    assert strategy_g_utility(pool, 1, model, rows_of(pool)).tolist() == [1]
    with pytest.raises(ValueError, match="2 questions needs their token rows"):
        strategy_g_utility(pool, 1, model, rows_of(pool, [0]))


def test_random_strategy_is_rng_driven_and_bounded():
    pool = mk_pool(0, [(10, float(i)) for i in range(8)])
    a = strategy_g_random(pool, 3, random.Random(5))
    b = strategy_g_random(pool, 3, random.Random(5))
    assert a.dtype == np.int64
    assert a.tolist() == b.tolist() == sorted(set(a.tolist()))
    assert len(a) == 3
    assert len(strategy_g_random(pool, 99, random.Random(0))) == 8


def test_percentile_labels_ten_distinct_values():
    pool = mk_pool(0, [(v, 1.0) for v in (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)])
    (labels,) = label_by_percentile([pool])
    assert labels.dtype == np.int64
    by_views = dict(zip(pool.view_counts, labels.tolist()))
    assert [by_views[v] for v in (10, 20, 30, 40)] == [0, 0, 0, 0]
    assert [by_views[v] for v in (50, 60)] == [-1, -1]
    assert [by_views[v] for v in (70, 80, 90, 100)] == [1, 1, 1, 1]


def test_percentile_labels_five_distinct_values():
    pool = mk_pool(0, [(v, 1.0) for v in (10, 20, 30, 40, 50)])
    pools = [pool, mk_pool(1, [(v, 1.0) for v in (50, 40, 30)])]
    assert [labels.tolist() for labels in label_by_percentile(pools)] == [
        [0, 0, -1, 1, 1],
        [1, -1, 0],
    ]


def test_percentile_labels_tie_runs_share_average_rank():
    pool = mk_pool(0, [(10, 1.0), (10, 1.0), (20, 1.0), (30, 1.0)])
    assert label_by_percentile([pool])[0].tolist() == [0, 0, 1, 1]


def test_percentile_labels_all_ties_are_excluded():
    pool = mk_pool(0, [(10, 1.0)] * 6)
    assert label_by_percentile([pool])[0].tolist() == [-1] * 6


def test_calibrate_theta_known_sweep():
    result = calibrate_theta(CAL_SCORES, CAL_LABELS)
    assert result.theta == 0.85
    assert result.precision == pytest.approx(2 / 3)
    assert result.recall == pytest.approx(0.4)
    assert not result.low_confidence


def test_calibrate_theta_tie_takes_larger_threshold():
    # theta 0.9 and 0.8 both reach |precision - 2*recall| = 0.5
    assert calibrate_theta([0.9, 0.8, 0.8, 0.5, 0.3], [1, 1, 1, 0, 1]).theta == 0.9


def test_calibrate_theta_needs_both_labels():
    with pytest.raises(CalibrationError):
        calibrate_theta([0.5, 0.6], [1, 1])
    with pytest.raises(ValueError, match="2 scores but 3 labels"):
        calibrate_theta([0.5, 0.6], [1, 0, 1])


def test_calibrate_theta_low_confidence_flag():
    assert calibrate_theta([0.9, 0.2], [1, 0]).low_confidence


def test_calibrate_theta_accepts_threshold_no_positive_clears():
    # theta 0.9 clears only a negative: precision = recall = 0 gives
    # |precision - 2 * recall| = 0, the smallest difference, so it wins
    assert calibrate_theta([0.9, 0.5, 0.4, 0.1], [0, 1, 1, 0]) == CalibrationResult(
        theta=0.9, precision=0.0, recall=0.0, low_confidence=False
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            # few distinct scores, so most thresholds are shared by ties
            st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.5000000000000001, 1.0]), st.floats(0, 1)),
            st.integers(0, 1),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_calibrate_theta_matches_independent_sweep(scored):
    scores, labels = [s for s, _ in scored], [lbl for _, lbl in scored]
    if set(labels) != {0, 1}:
        with pytest.raises(CalibrationError):
            calibrate_theta(scores, labels)
        return
    assert calibrate_theta(scores, labels) == ref_calibrate_theta(scored)


def _precomputed_pool():
    qs = tuple(
        mk_q(f"p{i}", views=10, u_g=1.0, u_f_norm=0.5, forum_score=s)
        for i, s in enumerate([0.9, 0.3, 0.7, 0.9, 0.4])
    )
    return RoundPool(questions=qs)


def test_forum_select_filters_orders_and_truncates():
    pool = _precomputed_pool()
    scorer = ForumScorer(theta=0.5)
    everyone = np.arange(len(pool))
    published = forum_select(everyone, pool, scorer, 2, None)
    # scores >= 0.5: p0 (0.9), p2 (0.7), p3 (0.9); tie 0.9 keeps position order
    assert published.dtype == np.int64
    assert published.tolist() == [0, 3]
    assert forum_select(everyone, pool, scorer, 10, None).tolist() == [0, 3, 2]
    # positions in the proposal, which holds positions into the pool
    assert forum_select(np.array([4, 3, 1, 2]), pool, scorer, 10, None).tolist() == [1, 3]


def test_forum_select_may_publish_nothing():
    scorer = ForumScorer(theta=0.95)
    pool = _precomputed_pool()
    assert forum_select(np.arange(len(pool)), pool, scorer, 3, None).tolist() == []
    with pytest.raises(ValueError):
        forum_select(np.arange(len(pool)), pool, scorer, 0, None)


# few distinct keys, signed zeros and infinities, so most ranks are ties
RANK_KEYS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5, -1.0, float("inf"), -float("inf")]),
    st.floats(allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(RANK_KEYS, max_size=30), st.integers(0, 40))
def test_top_k_is_the_minus_key_then_position_sort(keys, k):
    ranked = top_k(np.array(keys, dtype=np.float64), k)
    reference = sorted(range(len(keys)), key=lambda i: (-keys[i], i))[:k]
    assert ranked.dtype == np.int64
    assert ranked.tolist() == reference


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0, 1), min_size=1, max_size=20),
    st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1),
    st.integers(1, 25),
)
def test_forum_select_is_filter_then_sort(scores, theta, k):
    pool = RoundPool(questions=[mk_q(i, u_f_norm=0.5, forum_score=s) for i, s in enumerate(scores)])
    scorer = ForumScorer(theta=theta)
    eligible = [i for i, s in enumerate(scores) if s >= theta]
    reference = sorted(eligible, key=lambda i: (-scores[i], i))[:k]
    assert forum_select(np.arange(len(pool)), pool, scorer, k, None).tolist() == reference


def test_forum_scorer_validation():
    pool = RoundPool(questions=[mk_q(0, u_f_norm=0.5, forum_score=0.25), mk_q(1, u_f_norm=0.5)])
    first = np.array([0])
    # with a model the scorer reads token rows; an untrained model
    # scores every row 1, whatever the forum_score column says
    with_model = ForumScorer(theta=0.5, model=AcceptanceModel())
    assert with_model.score(pool, first, rows_of(pool, first)).tolist() == [1.0]
    with pytest.raises(ValueError, match="needs their token rows"):
        with_model.score(pool, first, None)
    # without one it reads the forum_score column, and needs it
    scorer = ForumScorer(theta=0.5)
    assert scorer.score(pool, first, None).tolist() == [0.25]
    with pytest.raises(ValueError, match="'q1' has no forum_score"):
        scorer.score(pool, np.array([0, 1]), None)


def test_make_precomputed_scorer_needs_the_forum_score_column():
    pool = mk_pool(0, [(v, 1.0) for v in (10, 20, 30, 40, 50)])
    with pytest.raises(ValueError, match="'q0-0' has no forum_score"):
        make_precomputed_scorer([pool])


def _topic_pools(weeks, seed=0, n=12):
    # high-view questions carry the "alpha" token, low-view the "beta" token
    rng = random.Random(seed)
    pools = []
    for week in range(weeks):
        specs = []
        for i in range(n):
            hot = i < n // 2
            views = rng.randint(80, 100) if hot else rng.randint(1, 20)
            word = "alpha" if hot else "beta"
            specs.append(
                (
                    f"{week}-{i}",
                    {
                        "views": views,
                        "u_g": float(rng.randint(1, 50)),
                        "title": f"{word} question",
                        "body": f"{word} detail {word}",
                    },
                )
            )
        pools.append(mk_week(specs))
    return pools


def test_train_text_scorer_learns_topic_threshold():
    pools = _topic_pools(6)
    scorer = train_text_scorer(pools[:4], pools[4:])
    assert scorer.model is not None
    assert 0.0 <= scorer.theta <= 1.0
    assert scorer.calibration is not None
    hot = mk_q("hot", title="alpha question", body="alpha detail", u_f_norm=1.0)
    cold = mk_q("cold", title="beta question", body="beta detail", u_f_norm=0.0)
    pool, both = RoundPool(questions=[hot, cold]), np.array([0, 1])
    s_hot, s_cold = scorer.score(pool, both, rows_of(pool))
    assert s_hot > s_cold
    with pytest.raises(ValueError, match="needs their token rows, one per question; got none"):
        scorer.score(pool, both, None)
    with pytest.raises(ValueError, match="got 1$"):
        forum_select(both, pool, scorer, 1, rows_of(pool, [1]))


def test_train_text_scorer_tokenizes_each_labelled_question_once(monkeypatch):
    pools = _topic_pools(6)
    calls = count_tokenize(monkeypatch)
    train_text_scorer(pools[:4], pools[4:])
    # fit and transform share the train rows; validation is scored once
    labelled = [
        text
        for pool, labels in zip(pools, label_by_percentile(pools))
        for text, label in zip(pool.texts(), labels.tolist())
        if label >= 0
    ]
    assert calls == labelled


def test_train_text_scorer_explicit_theta_keeps_calibration():
    pools = _topic_pools(6)
    scorer = train_text_scorer(pools[:4], pools[4:], theta=0.25)
    assert scorer.theta == 0.25
    assert scorer.calibration is not None


def test_train_text_scorer_rejects_degenerate_labels():
    flat = [mk_pool(w, [(10, 1.0)] * 8) for w in range(4)]
    with pytest.raises(CalibrationError):
        train_text_scorer(flat[:2], flat[2:])


@st.composite
def _drawn_weeks(draw):
    """Four weeks of questions: views from a range of three (mostly
    tied) or of a thousand, forum_score on a 0.1 grid (tied) or any
    float in [0, 1], and texts of three words, so text scores tie."""
    views = st.integers(1, draw(st.sampled_from([3, 1000])))
    grid = st.integers(0, 10).map(lambda i: i / 10)
    score = grid if draw(st.booleans()) else st.floats(0, 1)
    word = st.sampled_from(["alpha", "beta", "gamma"])
    return [
        mk_week([
            (f"{week}-{i}", {
                "views": draw(views),
                "forum_score": draw(score),
                "title": f"{draw(word)} {draw(word)}",
                "body": draw(word),
            })
            for i in range(draw(st.integers(5, 12)))
        ])
        for week in range(4)
    ]


@settings(max_examples=60, deadline=None)
@given(_drawn_weeks())
def test_each_builder_calibrates_on_its_labelled_validation_scores(pools):
    train, val = pools[:2], pools[2:]
    for weeks in (train, val):
        assume(set(np.concatenate(label_by_percentile(weeks)).tolist()) >= {0, 1})
    labelled = [
        (text, q, label)
        for pool, labels in zip(val, label_by_percentile(val))
        for text, q, label in zip(pool.texts(), pool.questions, labels.tolist())
        if label >= 0
    ]
    texts = [text for text, _, _ in labelled]
    labels = [label for _, _, label in labelled]

    text = train_text_scorer(train, val)
    want = calibrate_theta(text.model.predict_proba(texts), labels)
    assert (text.theta, text.calibration) == (want.theta, want)

    precomputed = make_precomputed_scorer(val)
    want = calibrate_theta([q.forum_score for _, q, _ in labelled], labels)
    assert (precomputed.theta, precomputed.calibration) == (want.theta, want)


def test_make_precomputed_scorer_calibrates_from_column():
    rng = random.Random(4)
    pools = []
    for week in range(2):
        qs = []
        for i in range(10):
            views = rng.randint(1, 100)
            qs.append(
                mk_q(
                    f"{week}-{i}",
                    views=views,
                    u_g=1.0,
                    forum_score=rng.random(),
                    u_f_norm=views / 100,
                )
            )
        pools.append(RoundPool(questions=tuple(qs)))
    scorer = make_precomputed_scorer(pools)
    assert scorer.model is None
    assert scorer.calibration is not None
    fixed = make_precomputed_scorer(pools, theta=0.7)
    assert fixed.theta == 0.7 and fixed.calibration is None
