"""Player policies: proposer batch strategies and the curator scorer.

The proposer ranks the week's pool and submits the top m questions;
the curator scores the submission, drops everything under a calibrated
threshold θ, and publishes the k best survivors.  A scorer is θ plus an
optional text model; without one it reads the pool's forum_score
column.  Both builders calibrate θ alike: label the validation weeks,
score the labelled questions, and pass scores and labels to
:func:`calibrate_theta`.  A selection is an int64 array of positions:
the proposer strategies' into the pool, :func:`forum_select`'s into the
proposal.  Every ranking is :func:`~pubgame.nash_opt.top_k` over a
pool's columns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import RoundPool
from .errors import CalibrationError
from .nash_opt import top_k
from .stats import _double_average_ranks
from .textmodel import (
    AcceptanceModel,
    TokenRows,
    TokenTable,
    tokenize_rows,
    train_acceptance,
)


def strategy_g_greedy(pool: RoundPool, m: int) -> np.ndarray:
    """Positions of the top m questions by raw proposer utility; ties
    keep pool order."""
    return top_k(pool.u_g, m)


def _check_rows(rows: TokenRows | None, n: int) -> None:
    if rows is None or len(rows) != n:
        raise ValueError(
            f"scoring {n} questions needs their token rows, one "
            f"per question; got {'none' if rows is None else len(rows)}"
        )


def strategy_g_utility(
    pool: RoundPool, m: int, model: AcceptanceModel, rows: TokenRows
) -> np.ndarray:
    """Positions of the top m questions by utility weighted with
    predicted acceptance probability.

    ``rows`` holds the pool's questions tokenized, in pool order.  With
    an untrained model every probability is 1, so the ranking is the
    greedy strategy's.
    """
    _check_rows(rows, len(pool))
    return top_k(pool.u_g * model.predict_proba(rows), m)


def strategy_g_random(pool: RoundPool, m: int, rng: random.Random) -> np.ndarray:
    """Positions of a uniform random batch of min(m, pool size)
    questions, in pool order."""
    n = len(pool)
    return np.array(sorted(rng.sample(range(n), min(m, n))), dtype=np.int64)


def label_by_percentile(pools: Sequence[RoundPool]) -> list[np.ndarray]:
    """Weekly percentile labels on curator utility, one int64 array per
    pool in pool order.

    Within each week, questions at or above the 60th percentile of
    ``u_f_norm`` are labeled 1, at or below the 40th labeled 0, and the
    middle band is excluded (-1).  Percentile of a question is
    (average rank - 0.5) / n with average ranks over ties; comparisons
    are exact integer arithmetic, so boundary cases are stable.
    """
    out = []
    for pool in pools:
        n = len(pool)
        # pct >= 0.6  <=>  (2r - 1) * 5 >= 6n ; pct <= 0.4 mirrored
        lhs = (np.array(_double_average_ranks(pool.u_f_norm.tolist())) - 1) * 5
        out.append(np.where(lhs >= 6 * n, 1, np.where(lhs <= 4 * n, 0, -1)))
    return out


@dataclass(frozen=True)
class CalibrationResult:
    """Threshold chosen by the precision/recall sweep, with the
    operating point it achieves on the validation scores."""

    theta: float
    precision: float
    recall: float
    low_confidence: bool


def calibrate_theta(scores: Sequence[float], labels: Sequence[int]) -> CalibrationResult:
    """Pick the threshold minimizing |precision - 2 * recall| over
    scores and their 0/1 labels, in the same order.

    Sweeps every observed score as a candidate threshold (predicting
    positive at score >= theta); ties resolve to the larger threshold.
    Needs at least one example of each label; fewer than two per label
    flags the result low-confidence.
    """
    if len(scores) != len(labels):
        raise ValueError(f"{len(scores)} scores but {len(labels)} labels")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.count_nonzero(labels == 1))
    n_neg = int(np.count_nonzero(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise CalibrationError(
            f"calibration needs both labels, got {n_pos} positive / "
            f"{n_neg} negative"
        )
    order = np.argsort(-scores, kind="stable")
    desc = scores[order]
    # at the last of each run of equal scores, the running counts are
    # those of predicting positive at score >= that score
    last = np.flatnonzero(np.append(desc[1:] != desc[:-1], True))
    tp = np.cumsum(labels[order] == 1)[last]
    fp = np.cumsum(labels[order] == 0)[last]
    seen = tp + fp > 0
    theta, tp, fp = desc[last][seen], tp[seen], fp[seen]
    precision = tp / (tp + fp)
    recall = tp / n_pos
    # thresholds run from large to small and argmin keeps the first of
    # equal differences, so ties go to the larger threshold
    best = int(np.argmin(np.abs(precision - 2.0 * recall)))
    return CalibrationResult(
        theta=float(theta[best]),
        precision=float(precision[best]),
        recall=float(recall[best]),
        low_confidence=min(n_pos, n_neg) < 2,
    )


@dataclass(frozen=True)
class ForumScorer:
    """The curator's scoring rule: the acceptance threshold theta plus
    an optional text model over title+body; without a model the scores
    are the dataset's forum_score column.
    """

    theta: float
    model: AcceptanceModel | None = None
    calibration: CalibrationResult | None = None

    def score(
        self, pool: RoundPool, positions: np.ndarray, rows: TokenRows | None
    ) -> np.ndarray:
        """One score per question at ``positions`` in ``pool``: the
        model's over ``rows``, those questions tokenized in order, or
        without a model their forum_score, for which ``rows`` may be
        None."""
        if self.model is None:
            return _forum_scores(pool, positions)
        _check_rows(rows, len(positions))
        return self.model.predict_proba(rows)


def _forum_scores(pool: RoundPool, positions: np.ndarray) -> np.ndarray:
    """The forum_score of the questions at ``positions`` in ``pool``,
    which a scorer without a model reads; a question without one is an
    error."""
    scores = pool.forum_score[positions]
    missing = np.flatnonzero(np.isnan(scores))
    if missing.size:
        raise ValueError(
            f"question {pool.ids[positions[missing[0]]]!r} has no forum_score; "
            f"the precomputed scorer needs that column in the dataset"
        )
    return scores


def forum_select(
    proposal: np.ndarray, pool: RoundPool, scorer: ForumScorer, k: int, rows: TokenRows | None
) -> np.ndarray:
    """Positions in ``proposal``, itself positions into ``pool``, of the
    k best-scoring questions at or above theta.

    ``rows`` holds the proposal tokenized, as :meth:`ForumScorer.score`
    reads it.

    The positions are ordered by descending score, ties by proposal
    position; there may be fewer than k when few questions clear the
    threshold.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = scorer.score(pool, proposal, rows)
    eligible = np.flatnonzero(scores >= scorer.theta)
    return eligible[top_k(scores[eligible], k)]


def _labeled(pools: Sequence[RoundPool]) -> tuple[list[np.ndarray], list[int]]:
    """Per pool, the positions of the questions that carry a percentile
    label; and their labels, pool by pool."""
    positions, labels = [], []
    for week_labels in label_by_percentile(pools):
        kept = np.flatnonzero(week_labels >= 0)
        positions.append(kept)
        labels.extend(week_labels[kept].tolist())
    return positions, labels


def _texts(pools: Sequence[RoundPool], positions: Sequence[np.ndarray]) -> list[str]:
    return [text for pool, kept in zip(pools, positions) for text in pool.texts(kept.tolist())]


def _calibrated(
    val_pools: Sequence[RoundPool],
    theta: float | None,
    model: AcceptanceModel | None = None,
    table: TokenTable | None = None,
) -> ForumScorer:
    """The scorer over ``model``, calibrated on the labelled validation
    questions; an explicit ``theta`` replaces the calibrated one."""
    positions, labels = _labeled(val_pools)
    if model is None:
        scores = np.concatenate([_forum_scores(*pair) for pair in zip(val_pools, positions)])
    else:
        scores = model.predict_proba(tokenize_rows(_texts(val_pools, positions), table))
    calibration = calibrate_theta(scores, labels)
    return ForumScorer(calibration.theta if theta is None else theta, model, calibration)


def train_text_scorer(
    train_pools: Sequence[RoundPool],
    val_pools: Sequence[RoundPool],
    *,
    theta: float | None = None,
) -> ForumScorer:
    """Fit the curator model on percentile labels and calibrate theta
    on the held-out validation weeks.

    An explicit ``theta`` skips nothing but the final choice: the sweep
    still runs so the operating point gets reported.
    """
    # the labelled questions are tokenized once, into one table
    table = TokenTable()
    positions, labels = _labeled(train_pools)
    model = train_acceptance(tokenize_rows(_texts(train_pools, positions), table), labels)
    if not model.trained:
        raise CalibrationError(
            "curator training collapsed: labels are single-class or the "
            "vocabulary is empty; widen the training window"
        )
    return _calibrated(val_pools, theta, model, table)


def make_precomputed_scorer(
    val_pools: Sequence[RoundPool], *, theta: float | None = None
) -> ForumScorer:
    """Curator scorer that reads scores from the forum_score column,
    calibrating theta on the validation weeks unless given."""
    return ForumScorer(theta) if theta is not None else _calibrated(val_pools, None)
