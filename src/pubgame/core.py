"""Core domain types for the weekly proposer/curator selection game.

A round is one week.  The proposer (player G) submits a capped batch of
candidate questions, the curator (player F) publishes a capped subset of
them.  Both sides draw additive utility from the published set: the
proposer from a per-question quality score ``u_g``, the curator from
view counts normalized within the week (:func:`set_utility`), which
every question carries from the moment its week is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import ConfigError

STRATEGIES_G = ("greedy", "utility", "random")


@dataclass(frozen=True)
class Question:
    """One candidate question with both players' raw utility signals.

    The question's week is the week of the :class:`RoundPool` holding it.
    ``u_f_norm`` is the curator-side utility: the view count divided by
    the week's maximum view count, as :func:`set_utility` gives it to
    whoever builds the week.
    ``forum_score`` is an optional externally supplied acceptance score,
    used only by the precomputed curator scorer.
    """

    id: str
    domain: str
    title: str
    body: str
    view_count: int
    u_g: float
    u_f_norm: float
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
        if not 0.0 <= self.u_f_norm <= 1.0:
            raise ValueError(f"question {self.id!r}: u_f_norm outside [0, 1]")

    @property
    def text(self) -> str:
        return f"{self.title} {self.body}"


@dataclass(frozen=True)
class RoundPool:
    """All questions available in one week."""

    week: int
    questions: tuple[Question, ...]

    def __post_init__(self) -> None:
        if self.week < 0:
            raise ValueError(f"week {self.week}: week must be >= 0")
        if not self.questions:
            raise ValueError(f"week {self.week}: empty round pool")

    def __len__(self) -> int:
        return len(self.questions)


def set_utility(view_counts: Sequence[int]) -> list[float]:
    """Curator utilities of one week's questions: each view count divided
    by the week's maximum view count.

    An all-zero week maps every question to 0.0 rather than dividing by
    zero; :func:`~pubgame.data.normalize_weekly` flags such weeks.
    """
    stat = float(max(view_counts))
    return [v / stat if stat > 0 else 0.0 for v in view_counts]


def utility_of_set(questions: Iterable[Question]) -> tuple[float, float]:
    """Additive utilities ``(u_g, u_f)`` of a published set to the
    proposer and the curator, each added left to right from 0.0: a loop,
    since ``sum()`` of floats compensates from Python 3.12."""
    u_g = u_f = 0.0
    for q in questions:
        u_g += q.u_g
        u_f += q.u_f_norm
    return u_g, u_f


@dataclass(frozen=True)
class GameConfig:
    """Run parameters for the asymmetric simulation.

    The curator's threshold and text model live on the
    :class:`~pubgame.strategies.ForumScorer` passed alongside.
    ``learn_acceptance`` disables proposer-side acceptance learning when
    False, pinning the predicted acceptance probability at 1.
    """

    m_cap: int = 100
    k_cap: int = 50
    rounds: int = 52
    retrain_period: int = 13
    seed: int = 0
    strategy_g: str = "greedy"
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
        if self.strategy_g not in STRATEGIES_G:
            raise ConfigError(
                f"unknown proposer strategy {self.strategy_g!r}; "
                f"expected one of {', '.join(STRATEGIES_G)}"
            )


@dataclass(frozen=True)
class SelectionOutcome:
    """One round's result: what was proposed, what was published."""

    week: int
    proposed: tuple[str, ...]
    published: tuple[str, ...]
    u_g_realized: float
    u_f_realized: float

    @classmethod
    def of(
        cls, week: int, proposed: Sequence[Question], published: Sequence[Question]
    ) -> SelectionOutcome:
        """The outcome of publishing ``published`` out of ``proposed``,
        with the realized utilities of the published set."""
        return cls(
            week,
            tuple(q.id for q in proposed),
            tuple(q.id for q in published),
            *utility_of_set(published),
        )

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
    """Left-to-right running sums from 0.0, so the last one equals a
    loop adding the values in order from 0.0 exactly."""
    return tuple(accumulate(values, initial=0.0))[1:]


@dataclass(frozen=True)
class GameLedger:
    """Per-round columns of one run, as the ledger CSV stores them.

    ``outcomes`` holds the rounds' :class:`SelectionOutcome` records,
    with question ids, when the run was played in memory; it is empty
    for a ledger read back from CSV.  Cumulative totals are
    left-to-right sums from 0.0 of the per-round realized utilities
    (:func:`running_total`).
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
