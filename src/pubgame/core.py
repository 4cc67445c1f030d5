"""Core domain types for the weekly proposer/curator selection game.

A round is one week.  The proposer (player G) submits a capped batch of
candidate questions, the curator (player F) publishes a capped subset of
them.  Both sides draw additive utility from the published set: the
proposer from a per-question quality score ``u_g``, the curator from
view counts normalized within the week (:func:`set_utility`).  A week
is a :class:`RoundPool` of columns, one entry per question, numbered by
its position in its dataset; a selection is a set of positions into it.
A run's :class:`GameLedger` numbers its rounds the same way, round t at
position t, and derives its running totals from the rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError

STRATEGIES_G = ("greedy", "utility", "random")


@dataclass(frozen=True)
class Question:
    """One question as a row: a copy of its entries in the columns of its
    pool (:attr:`RoundPool.questions`); a missing forum_score is None."""

    id: str
    domain: str
    title: str
    body: str
    view_count: int
    u_g: float
    u_f_norm: float
    forum_score: float | None = None


@dataclass(frozen=True)
class RoundPool:
    """All questions available in one week, as columns of one length.

    ``ids``, ``domains``, ``titles`` and ``bodies`` are str and
    ``view_counts`` exact ints; ``u_g`` (the proposer's utility),
    ``u_f_norm`` (the curator's, as :func:`set_utility` gives it) and
    ``forum_score`` (an optional externally supplied acceptance score,
    NaN where a question has none) are read-only float64 arrays.  The
    columns are checked once, as the pool is built, and each error
    names the first offending question: a TypeError for a value of the
    wrong type, else a ValueError.  The week is the pool's
    position in its :class:`~pubgame.data.Dataset`, not a field.
    """

    ids: tuple[str, ...]
    domains: tuple[str, ...]
    titles: tuple[str, ...]
    bodies: tuple[str, ...]
    view_counts: tuple[int, ...]
    u_g: np.ndarray
    u_f_norm: np.ndarray
    forum_score: np.ndarray

    def __init__(
        self, ids=(), domains=(), titles=(), bodies=(), view_counts=(), u_g=(),
        u_f_norm=(), forum_score=None, *, questions: Sequence[Question] | None = None,
    ) -> None:
        """The pool of the given columns or, when ``questions`` rows are
        given, of theirs; a missing forum_score column is all NaN."""
        columns = [ids, domains, titles, bodies, view_counts, u_g, u_f_norm, forum_score]
        if questions is not None:
            columns = [[getattr(q, f.name) for q in questions] for f in fields(Question)]
        n = len(columns[0])
        if columns[-1] is None:
            columns[-1] = np.full(n, np.nan)
        for j, f in enumerate(fields(self)):
            if j < 5:  # four text columns and the view counts
                columns[j] = tuple(columns[j])
            else:
                columns[j] = np.asarray(columns[j], dtype=np.float64)
                columns[j].flags.writeable = False
            object.__setattr__(self, f.name, columns[j])
        if not n:
            raise ValueError("empty round pool")
        if any(len(c) != n for c in columns):
            raise ValueError("columns of different lengths")
        for name, column in zip(("id", "domain", "title", "body"), columns):
            self._refuse_type(name, column, "a str", lambda kind: issubclass(kind, str))
        # exact ints: a bool, a NumPy int or 3.0 is not a view count
        self._refuse_type("view_count", self.view_counts, "an int", lambda kind: kind is int)
        # compared as ints: a count past float64's range is still a count
        if min(self.view_counts) < 0:
            nonnegative = np.array([v >= 0 for v in self.view_counts])
            self._refuse(nonnegative, "view_count must be a whole number >= 0")
        self._refuse(np.isfinite(self.u_g) & (self.u_g >= 0), "u_g must be finite and >= 0")
        self._refuse(~np.isinf(self.forum_score), "forum_score must be finite")
        self._refuse((self.u_f_norm >= 0) & (self.u_f_norm <= 1), "u_f_norm outside [0, 1]")

    def _refuse_type(self, name: str, column: tuple, want: str, ok) -> None:
        """Raise TypeError naming the first question whose ``name`` has a
        type that ``ok`` refuses."""
        if not all(map(ok, {*map(type, column)})):
            v, i = next((v, i) for i, v in enumerate(column) if not ok(type(v)))
            raise TypeError(
                f"question {self.ids[i]!r}: {name} must be {want}, not {type(v).__name__}"
            )

    def _refuse(self, ok: np.ndarray, what: str) -> None:
        """Raise naming the first question where ``ok`` is False."""
        if not ok.all():
            raise ValueError(f"question {self.ids[int(ok.argmin())]!r}: {what}")

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        """Same columns; forum scores that are both absent match."""
        if not isinstance(other, RoundPool):
            return NotImplemented
        return all(
            np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self._columns(), other._columns())
        )

    def _columns(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    @property
    def questions(self) -> tuple[Question, ...]:
        """The pool's questions as rows, built afresh on each read."""
        *text, views, u_g, u_f, scores = self._columns()
        scores = [None if s != s else s for s in scores.tolist()]
        return tuple(map(Question, *text, views, u_g.tolist(), u_f.tolist(), scores))

    def texts(self, positions: Iterable[int] | None = None) -> list[str]:
        """The scorers' text of the questions at ``positions`` (all by
        default): title and body joined by a space."""
        if positions is None:
            positions = range(len(self))
        return [f"{self.titles[i]} {self.bodies[i]}" for i in positions]


def set_utility(view_counts: Sequence[int]) -> np.ndarray:
    """Curator utilities of one week's questions: each view count divided
    by the week's maximum view count, as float64.

    Each equals ``v / float(max(view_counts))``: both divide the
    correctly rounded float images.  An all-zero week maps every
    question to 0.0 rather than dividing by zero.
    """
    views = np.array(view_counts, dtype=np.float64)
    top = views.max()
    return views / top if top > 0 else np.zeros(len(views))


def utility_of_set(pool: RoundPool, positions: Sequence[int]) -> tuple[float, float]:
    """Additive utilities ``(u_g, u_f)`` of the questions at ``positions``
    in ``pool`` to the proposer and the curator, each added left to right
    from 0.0: a loop, since ``sum()`` of floats compensates from Python
    3.12."""
    positions = np.asarray(positions, dtype=np.intp)
    u_g = u_f = 0.0
    for g, f in zip(pool.u_g[positions].tolist(), pool.u_f_norm[positions].tolist()):
        u_g += g
        u_f += f
    return u_g, u_f


@dataclass(frozen=True)
class GameConfig:
    """Run parameters for the asymmetric simulation.

    The curator's threshold and text model live on the
    :class:`~pubgame.strategies.ForumScorer` passed alongside.  The
    proposer learns which questions get accepted exactly when
    ``strategy_g`` is ``"utility"``.
    """

    m_cap: int = 100
    k_cap: int = 50
    rounds: int = 52
    retrain_period: int = 13
    seed: int = 0
    strategy_g: str = "greedy"

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
    """One round's result: what was proposed, what was published.  The
    round's week is its position in its ledger, not a field."""

    proposed: tuple[str, ...]
    published: tuple[str, ...]
    u_g_realized: float
    u_f_realized: float

    @classmethod
    def of(
        cls, pool: RoundPool, proposed: Sequence[int], published: Sequence[int]
    ) -> SelectionOutcome:
        """The outcome of publishing the questions at positions
        ``published`` in ``pool`` out of those at ``proposed``, with the
        realized utilities of the published set."""
        ids = pool.ids
        return cls(
            tuple(ids[i] for i in proposed),
            tuple(ids[i] for i in published),
            *utility_of_set(pool, published),
        )

    def __post_init__(self) -> None:
        missing = set(self.published) - set(self.proposed)
        if missing:
            raise ValueError(f"published ids not in the proposal: {sorted(missing)}")
        if len(set(self.published)) != len(self.published):
            raise ValueError("duplicate published ids")


def running_total(values: Iterable[float]) -> tuple[float, ...]:
    """Left-to-right running sums from 0.0, so the last one equals a
    loop adding the values in order from 0.0 exactly."""
    return tuple(accumulate(values, initial=0.0))[1:]


@dataclass(frozen=True)
class GameLedger:
    """Per-round columns of one run, as the ledger CSV stores them.

    Round t is week t: the week is the round's position, not a column.
    ``outcomes`` holds the rounds' :class:`SelectionOutcome` records,
    with question ids, when the run was played in memory; it is empty
    for a ledger read back from CSV.  The cumulative totals are derived,
    not given: left-to-right sums from 0.0 of the per-round realized
    utilities (:func:`running_total`).
    """

    proposed_counts: tuple[int, ...]
    published_counts: tuple[int, ...]
    u_g: tuple[float, ...]
    u_f: tuple[float, ...]
    outcomes: tuple[SelectionOutcome, ...] = ()
    cum_u_g: tuple[float, ...] = field(init=False)
    cum_u_f: tuple[float, ...] = field(init=False)

    @classmethod
    def from_outcomes(cls, outcomes: Sequence[SelectionOutcome]) -> GameLedger:
        return cls(
            proposed_counts=tuple(len(o.proposed) for o in outcomes),
            published_counts=tuple(len(o.published) for o in outcomes),
            u_g=tuple(o.u_g_realized for o in outcomes),
            u_f=tuple(o.u_f_realized for o in outcomes),
            outcomes=tuple(outcomes),
        )

    def __post_init__(self) -> None:
        n = len(self.proposed_counts)
        if any(len(c) != n for c in (self.published_counts, self.u_g, self.u_f)):
            raise ValueError("ledger columns must all have one entry per round")
        if self.outcomes and len(self.outcomes) != n:
            raise ValueError("outcome count must match the round count")
        object.__setattr__(self, "cum_u_g", running_total(self.u_g))
        object.__setattr__(self, "cum_u_f", running_total(self.u_f))

    def __len__(self) -> int:
        return len(self.u_g)

    @property
    def total_u_g(self) -> float:
        return self.cum_u_g[-1] if self.cum_u_g else 0.0

    @property
    def total_u_f(self) -> float:
        return self.cum_u_f[-1] if self.cum_u_f else 0.0

    def weekly_u_g(self) -> list[float]:
        # the u_g column as a list, as perfbench/workloads/season.py reads it
        return list(self.u_g)
