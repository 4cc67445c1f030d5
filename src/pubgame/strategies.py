"""Player policies: proposer batch strategies and the curator scorer.

The proposer ranks the week's pool and submits the top m questions;
the curator scores the submission, drops everything under a calibrated
threshold, and publishes the k best survivors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import Question, RoundPool
from .errors import CalibrationError
from .stats import _double_average_ranks
from .textmodel import AcceptanceModel, FeaturizerConfig, train_acceptance


def strategy_g_greedy(pool: RoundPool, m: int) -> list[Question]:
    """Top m questions by raw proposer utility; ties keep pool order."""
    order = sorted(
        range(len(pool.questions)), key=lambda i: (-pool.questions[i].u_g, i)
    )
    return [pool.questions[i] for i in order[:m]]


def strategy_g_utility(
    pool: RoundPool, m: int, model: AcceptanceModel
) -> list[Question]:
    """Top m by utility weighted with predicted acceptance probability.

    With an untrained model every probability is 1, so the ranking is
    identical to the greedy strategy's.
    """
    probs = model.predict_proba([q.text for q in pool.questions])
    order = sorted(
        range(len(pool.questions)),
        key=lambda i: (-pool.questions[i].u_g * probs[i], i),
    )
    return [pool.questions[i] for i in order[:m]]


def strategy_g_random(pool: RoundPool, m: int, rng: random.Random) -> list[Question]:
    """Uniform random batch of min(m, pool size) questions."""
    n = len(pool.questions)
    picked = sorted(rng.sample(range(n), min(m, n)))
    return [pool.questions[i] for i in picked]


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
        values = []
        for q in pool.questions:
            if q.u_f_norm is None:
                raise ValueError(
                    f"question {q.id!r}: u_f_norm not set; normalize the week first"
                )
            values.append(q.u_f_norm)
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


def calibrate_theta(scored: Sequence[tuple[float, int]]) -> CalibrationResult:
    """Pick the threshold minimizing |precision - 2 * recall|.

    Sweeps every observed score as a candidate threshold (predicting
    positive at score >= theta); ties resolve to the larger threshold.
    Needs at least one example of each label; fewer than two per label
    flags the result low-confidence.
    """
    n_pos = sum(1 for _, label in scored if label == 1)
    n_neg = sum(1 for _, label in scored if label == 0)
    if n_pos == 0 or n_neg == 0:
        raise CalibrationError(
            f"calibration needs both labels, got {n_pos} positive / "
            f"{n_neg} negative"
        )
    best: tuple[float, float, float, float] | None = None
    for theta in sorted({score for score, _ in scored}):
        tp = sum(1 for s, label in scored if s >= theta and label == 1)
        fp = sum(1 for s, label in scored if s >= theta and label == 0)
        if tp + fp == 0:
            continue
        precision = tp / (tp + fp)
        recall = tp / n_pos
        diff = abs(precision - 2.0 * recall)
        if best is None or diff <= best[0]:
            best = (diff, theta, precision, recall)
    assert best is not None
    return CalibrationResult(
        theta=best[1],
        precision=best[2],
        recall=best[3],
        low_confidence=min(n_pos, n_neg) < 2,
    )


@dataclass(frozen=True)
class ForumScorer:
    """The curator's scoring rule: a score per question plus the
    acceptance threshold theta.

    ``kind`` is "text" (trained model over title+body) or "precomputed"
    (scores read from the dataset's forum_score column).
    """

    kind: str
    theta: float
    model: AcceptanceModel | None = None
    calibration: CalibrationResult | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("text", "precomputed"):
            raise ValueError(f"unknown scorer kind {self.kind!r}")
        if self.kind == "text" and self.model is None:
            raise ValueError("text scorer needs a trained model")

    def score(self, questions: Sequence[Question]) -> np.ndarray:
        if self.kind == "text":
            return self.model.predict_proba([q.text for q in questions])
        scores = np.empty(len(questions), dtype=np.float64)
        for i, q in enumerate(questions):
            if q.forum_score is None:
                raise ValueError(
                    f"question {q.id!r} has no forum_score; the precomputed "
                    f"scorer needs that column in the dataset"
                )
            scores[i] = q.forum_score
        return scores


def forum_select(
    proposal: Sequence[Question], scorer: ForumScorer, k: int
) -> list[Question]:
    """Publish the k best-scoring questions at or above theta.

    The published list is ordered by descending score, ties by proposal
    position; it may be shorter than k when few questions clear the
    threshold.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = scorer.score(proposal)
    eligible = [i for i, s in enumerate(scores) if s >= scorer.theta]
    eligible.sort(key=lambda i: (-scores[i], i))
    return [proposal[i] for i in eligible[:k]]


def _labeled(pools: Sequence[RoundPool]) -> list[tuple[Question, int]]:
    return [(q, lbl) for q, lbl in label_by_percentile(pools) if lbl is not None]


def train_text_scorer(
    train_pools: Sequence[RoundPool],
    val_pools: Sequence[RoundPool],
    *,
    config: FeaturizerConfig = FeaturizerConfig(),
    theta: float | None = None,
) -> ForumScorer:
    """Fit the curator model on percentile labels and calibrate theta
    on the held-out validation weeks.

    An explicit ``theta`` skips nothing but the final choice: the sweep
    still runs so the operating point gets reported.
    """
    train_labeled = _labeled(train_pools)
    model = train_acceptance(train_labeled, config)
    if not model.trained:
        raise CalibrationError(
            "curator training collapsed: labels are single-class or the "
            "vocabulary is empty; widen the training window"
        )
    val_labeled = _labeled(val_pools)
    scores = model.predict_proba([q.text for q, _ in val_labeled])
    calibration = calibrate_theta(
        [(float(s), lbl) for s, (_, lbl) in zip(scores, val_labeled)]
    )
    return ForumScorer(
        kind="text",
        theta=calibration.theta if theta is None else theta,
        model=model,
        calibration=calibration,
    )


def make_precomputed_scorer(
    val_pools: Sequence[RoundPool], *, theta: float | None = None
) -> ForumScorer:
    """Curator scorer that reads scores from the forum_score column,
    calibrating theta on the validation weeks unless given."""
    if theta is not None:
        return ForumScorer(kind="precomputed", theta=theta)
    val_labeled = _labeled(val_pools)
    scored = []
    for q, lbl in val_labeled:
        if q.forum_score is None:
            raise ValueError(
                f"question {q.id!r} has no forum_score; the precomputed "
                f"scorer needs that column in the dataset"
            )
        scored.append((float(q.forum_score), lbl))
    calibration = calibrate_theta(scored)
    return ForumScorer(
        kind="precomputed", theta=calibration.theta, calibration=calibration
    )
