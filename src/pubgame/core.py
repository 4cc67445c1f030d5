"""Core domain types for the weekly proposer/curator selection game.

A round is one week.  The proposer (player G) submits a capped batch of
candidate questions, the curator (player F) publishes a capped subset of
them.  Both sides draw additive utility from the published set: the
proposer from a per-question quality score ``u_g``, the curator from
view counts normalized within the week.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import ConfigError

G_SIDE = "G"
F_SIDE = "F"

STRATEGIES_G = ("greedy", "utility", "random")
SCORERS_F = ("text", "precomputed")


@dataclass(frozen=True)
class Question:
    """One candidate question with both players' raw utility signals.

    The question's week is the week of the :class:`RoundPool` holding it.
    ``u_f_norm`` is the curator-side utility: the view count divided by
    the week's normalization statistic.  It is ``None`` until
    :func:`set_utility` has run for the question's week.
    ``forum_score`` is an optional externally supplied acceptance score,
    used only by the precomputed curator scorer.
    """

    id: str
    domain: str
    title: str
    body: str
    view_count: int
    u_g: float
    u_f_norm: float | None = None
    forum_score: float | None = None

    def __post_init__(self) -> None:
        if not (self.view_count >= 0 and self.view_count % 1 == 0):
            raise ValueError(
                f"question {self.id!r}: view_count must be a whole number >= 0"
            )
        if not (math.isfinite(self.u_g) and self.u_g >= 0):
            raise ValueError(f"question {self.id!r}: u_g must be finite and >= 0")
        if self.forum_score is not None and not math.isfinite(self.forum_score):
            raise ValueError(f"question {self.id!r}: forum_score must be finite")
        if self.u_f_norm is not None and not 0.0 <= self.u_f_norm <= 1.0:
            raise ValueError(f"question {self.id!r}: u_f_norm outside [0, 1]")

    @property
    def text(self) -> str:
        return f"{self.title} {self.body}"


@dataclass(frozen=True)
class RoundPool:
    """All questions available in one week.

    ``norm_stat`` is the per-week statistic (the maximum view count)
    used to normalize views into ``u_f_norm``.  It is set by the data
    layer before :func:`set_utility` runs.
    """

    week: int
    questions: tuple[Question, ...]
    norm_stat: float | None = None

    def __post_init__(self) -> None:
        if self.week < 0:
            raise ValueError(f"week {self.week}: week must be >= 0")
        if not self.questions:
            raise ValueError(f"week {self.week}: empty round pool")

    def __len__(self) -> int:
        return len(self.questions)


def set_utility(pool: RoundPool) -> RoundPool:
    """Populate ``u_f_norm`` on every question from the week's statistic.

    An all-zero week (``norm_stat == 0``) maps every question to 0
    rather than dividing by zero; the data layer flags such weeks.
    """
    if pool.norm_stat is None:
        raise ConfigError(
            f"week {pool.week}: normalization statistic missing; run the "
            f"weekly normalization step before computing curator utilities"
        )
    stat = pool.norm_stat
    questions = tuple(
        dataclasses.replace(q, u_f_norm=(q.view_count / stat if stat > 0 else 0.0))
        for q in pool.questions
    )
    return dataclasses.replace(pool, questions=questions)


def utility_of_set(questions: Iterable[Question], side: str) -> float:
    """Additive utility of a published set for one side, ``"G"`` or ``"F"``."""
    if side == G_SIDE:
        return sum(q.u_g for q in questions)
    if side == F_SIDE:
        total = 0.0
        for q in questions:
            if q.u_f_norm is None:
                raise ValueError(
                    f"question {q.id!r}: u_f_norm not set; normalize the week first"
                )
            total += q.u_f_norm
        return total
    raise ValueError(f"unknown side {side!r}; expected 'G' or 'F'")


@dataclass(frozen=True)
class GameConfig:
    """Run parameters for the asymmetric simulation.

    ``theta`` overrides the calibrated curator threshold when set.
    ``learn_acceptance`` disables proposer-side acceptance learning when
    False, pinning the predicted acceptance probability at 1.
    """

    m_cap: int = 100
    k_cap: int = 50
    rounds: int = 52
    retrain_period: int = 13
    theta: float | None = None
    seed: int = 0
    strategy_g: str = "greedy"
    scorer_f: str = "text"
    learn_acceptance: bool = True

    def __post_init__(self) -> None:
        if self.k_cap < 1:
            raise ConfigError("k_cap must be >= 1")
        if self.m_cap < self.k_cap:
            raise ConfigError(
                f"m_cap ({self.m_cap}) must be >= k_cap ({self.k_cap}); the "
                f"curator can never publish more than the proposer submits"
            )
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.retrain_period < 1:
            raise ConfigError("retrain_period must be >= 1")
        if self.theta is not None and not 0.0 <= self.theta <= 1.0:
            raise ConfigError(f"theta must lie in [0, 1], got {self.theta}")
        if self.strategy_g not in STRATEGIES_G:
            raise ConfigError(
                f"unknown proposer strategy {self.strategy_g!r}; "
                f"expected one of {', '.join(STRATEGIES_G)}"
            )
        if self.scorer_f not in SCORERS_F:
            raise ConfigError(
                f"unknown curator scorer {self.scorer_f!r}; "
                f"expected one of {', '.join(SCORERS_F)}"
            )


@dataclass(frozen=True)
class SelectionOutcome:
    """One round's result: what was proposed, what was published."""

    week: int
    proposed: tuple[str, ...]
    published: tuple[str, ...]
    u_g_realized: float
    u_f_realized: float

    def __post_init__(self) -> None:
        missing = set(self.published) - set(self.proposed)
        if missing:
            raise ValueError(
                f"week {self.week}: published ids not in the proposal: "
                f"{sorted(missing)}"
            )
        if len(set(self.published)) != len(self.published):
            raise ValueError(f"week {self.week}: duplicate published ids")


def running_total(values: Iterable[float]) -> tuple[float, ...]:
    """Left-to-right running sums from 0.0, so the last one equals the
    plain ``sum()`` of the values exactly."""
    return tuple(accumulate(values, initial=0.0))[1:]


@dataclass(frozen=True)
class GameLedger:
    """Per-round columns of one run, as the ledger CSV stores them.

    ``outcomes`` holds the rounds' :class:`SelectionOutcome` records,
    with question ids, when the run was played in memory; it is empty
    for a ledger read back from CSV.  Cumulative totals are plain
    left-to-right sums of the per-round realized utilities, so they
    match ``sum()`` over the rounds exactly.
    """

    weeks: tuple[int, ...]
    proposed_counts: tuple[int, ...]
    published_counts: tuple[int, ...]
    u_g: tuple[float, ...]
    u_f: tuple[float, ...]
    cum_u_g: tuple[float, ...]
    cum_u_f: tuple[float, ...]
    outcomes: tuple[SelectionOutcome, ...] = ()

    @classmethod
    def from_outcomes(cls, outcomes: Sequence[SelectionOutcome]) -> GameLedger:
        u_g = tuple(o.u_g_realized for o in outcomes)
        u_f = tuple(o.u_f_realized for o in outcomes)
        return cls(
            weeks=tuple(o.week for o in outcomes),
            proposed_counts=tuple(len(o.proposed) for o in outcomes),
            published_counts=tuple(len(o.published) for o in outcomes),
            u_g=u_g,
            u_f=u_f,
            cum_u_g=running_total(u_g),
            cum_u_f=running_total(u_f),
            outcomes=tuple(outcomes),
        )

    def __post_init__(self) -> None:
        columns = (
            self.proposed_counts,
            self.published_counts,
            self.u_g,
            self.u_f,
            self.cum_u_g,
            self.cum_u_f,
        )
        if any(len(c) != len(self.weeks) for c in columns):
            raise ValueError("ledger columns must all have one entry per round")
        if self.outcomes and len(self.outcomes) != len(self.weeks):
            raise ValueError("outcome count must match the round count")

    def __len__(self) -> int:
        return len(self.weeks)

    @property
    def total_u_g(self) -> float:
        return self.cum_u_g[-1] if self.weeks else 0.0

    @property
    def total_u_f(self) -> float:
        return self.cum_u_f[-1] if self.weeks else 0.0

    def weekly_u_g(self) -> list[float]:
        return list(self.u_g)

    def weekly_u_f(self) -> list[float]:
        return list(self.u_f)
