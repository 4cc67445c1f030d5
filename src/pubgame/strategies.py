"""Player policies: proposer batch strategies and the curator scorer.

The proposer ranks the week's pool and submits the top m questions;
the curator scores the submission, drops everything under a calibrated
threshold θ, and publishes the k best survivors.  A scorer is θ plus an
optional text model; without one it reads the forum_score column.  Both
builders calibrate θ alike: label the validation weeks, score the
labelled questions, and pass scores and labels to
:func:`calibrate_theta`.  A selection is an int64 array of positions:
the proposer strategies' into the pool, :func:`forum_select`'s into the
proposal.  Every ranking is :func:`~pubgame.nash_opt.top_k`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Question, RoundPool
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
    return top_k(np.array([q.u_g for q in pool.questions]), m)


def _check_rows(rows: TokenRows | None, questions: Sequence[Question]) -> None:
    if rows is None or len(rows) != len(questions):
        raise ValueError(
            f"scoring {len(questions)} questions needs their token rows, one "
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
    _check_rows(rows, pool.questions)
    u_g = np.array([q.u_g for q in pool.questions])
    return top_k(u_g * model.predict_proba(rows), m)


def strategy_g_random(pool: RoundPool, m: int, rng: random.Random) -> np.ndarray:
    """Positions of a uniform random batch of min(m, pool size)
    questions, in pool order."""
    n = len(pool.questions)
    return np.array(sorted(rng.sample(range(n), min(m, n))), dtype=np.int64)


def label_by_percentile(
    pools: Sequence[RoundPool],
) -> list[tuple[Question, int | None]]:
    """Weekly percentile labels on curator utility.

    Within each week, questions at or above the 60th percentile of
    ``u_f_norm`` are labeled 1, at or below the 40th labeled 0, and the
    middle band is excluded (None).  Percentile of a question is
    (average rank - 0.5) / n with average ranks over ties; comparisons
    are exact integer arithmetic, so boundary cases are stable.
    """
    out: list[tuple[Question, int | None]] = []
    for pool in pools:
        values = [q.u_f_norm for q in pool.questions]
        n = len(values)
        double_rank = _double_average_ranks(values)
        for i, q in enumerate(pool.questions):
            # pct >= 0.6  <=>  (2r - 1) * 5 >= 6n ; pct <= 0.4 mirrored
            lhs = (double_rank[i] - 1) * 5
            if lhs >= 6 * n:
                label: int | None = 1
            elif lhs <= 4 * n:
                label = 0
            else:
                label = None
            out.append((q, label))
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
        self, questions: Sequence[Question], rows: TokenRows | None
    ) -> np.ndarray:
        """One score per question: the model's over ``rows``, the
        questions tokenized in order, or without a model the
        forum_score column, for which ``rows`` may be None."""
        if self.model is None:
            return _forum_scores(questions)
        _check_rows(rows, questions)
        return self.model.predict_proba(rows)


def _forum_scores(questions: Sequence[Question]) -> np.ndarray:
    """The questions' forum_score column, which a scorer without a
    model reads; a question without one is an error."""
    for q in questions:
        if q.forum_score is None:
            raise ValueError(
                f"question {q.id!r} has no forum_score; the precomputed "
                f"scorer needs that column in the dataset"
            )
    return np.array([q.forum_score for q in questions], dtype=np.float64)


def forum_select(
    proposal: Sequence[Question],
    scorer: ForumScorer,
    k: int,
    rows: TokenRows | None,
) -> np.ndarray:
    """Positions in the proposal of the k best-scoring questions at or
    above theta.

    ``rows`` holds the proposal tokenized, as :meth:`ForumScorer.score`
    reads it.

    The positions are ordered by descending score, ties by proposal
    position; there may be fewer than k when few questions clear the
    threshold.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = scorer.score(proposal, rows)
    eligible = np.flatnonzero(scores >= scorer.theta)
    return eligible[top_k(scores[eligible], k)]


def _labeled(pools: Sequence[RoundPool]) -> tuple[list[Question], list[int]]:
    """The questions that carry a percentile label, and their labels."""
    labeled = [(q, lbl) for q, lbl in label_by_percentile(pools) if lbl is not None]
    return [q for q, _ in labeled], [lbl for _, lbl in labeled]


def _calibrated(
    val_pools: Sequence[RoundPool],
    theta: float | None,
    model: AcceptanceModel | None = None,
    table: TokenTable | None = None,
) -> ForumScorer:
    """The scorer over ``model``, calibrated on the labelled validation
    questions; an explicit ``theta`` replaces the calibrated one."""
    questions, labels = _labeled(val_pools)
    rows = None if model is None else tokenize_rows([q.text for q in questions], table)
    scores = ForumScorer(math.nan, model).score(questions, rows)
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
    questions, labels = _labeled(train_pools)
    model = train_acceptance(tokenize_rows([q.text for q in questions], table), labels)
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
