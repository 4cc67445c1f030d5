"""Round loops: the asymmetric game and full-information baselines.

The asymmetric loop plays proposer strategy against curator scorer
week by week, retraining the proposer's acceptance model on its own
submit/publish history every ``retrain_period`` rounds.  The
full-information loop selects directly from the whole weekly pool with
one of the joint heuristics, providing the denominators for estimated
utility recovery; :func:`exact_urr` computes the exact counterpart by
oracle enumeration where feasible.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .core import (
    F_SIDE,
    G_SIDE,
    GameConfig,
    GameLedger,
    Question,
    RoundPool,
    SelectionOutcome,
    running_total,
    utility_of_set,
)
from .data import Dataset
from .errors import ConfigError, SchemaError
from .nash_opt import (
    DEFAULT_ENUMERATION_BUDGET,
    BilinearInstance,
    HEURISTICS,
    heuristic_random,
    oracle_exact,
)
from .strategies import (
    ForumScorer,
    forum_select,
    strategy_g_greedy,
    strategy_g_random,
    strategy_g_utility,
)
from .textmodel import train_acceptance

EURR_NOTE = (
    "denominators are the best heuristic's cumulative utilities, which "
    "typically exceed the exact optimum's per-player utilities, so these "
    "ratios under-estimate exact recovery"
)


def _as_pools(source: Dataset | Sequence[RoundPool]) -> list[RoundPool]:
    pools = list(source.pools) if isinstance(source, Dataset) else list(source)
    if not pools:
        raise ConfigError("no weekly pools to simulate")
    for pool in pools:
        for q in pool.questions:
            if q.u_f_norm is None:
                raise ConfigError(
                    f"week {pool.week}: curator utilities missing; run weekly "
                    f"normalization before simulating"
                )
    return pools


def _pool_instance(pool: RoundPool, k: int) -> BilinearInstance:
    items = tuple((q.u_g, q.u_f_norm) for q in pool.questions)
    return BilinearInstance(items=items, k=min(k, len(items)))


def run_asymmetric(
    source: Dataset | Sequence[RoundPool],
    config: GameConfig,
    scorer: ForumScorer,
) -> GameLedger:
    """Play the weekly proposer/curator game over the simulation window.

    Only the first ``config.rounds`` pools are played; fewer available
    pools is an error.  The curator scorer stays frozen; the proposer's
    acceptance model retrains on accumulated history at rounds that are
    multiples of ``retrain_period`` (when the utility strategy and
    learning are active).  A retrain that would collapse (single-class
    history) keeps the previous model.
    """
    pools = _as_pools(source)
    if len(pools) < config.rounds:
        raise ConfigError(
            f"need {config.rounds} simulation weeks, dataset has {len(pools)}"
        )
    pools = pools[: config.rounds]

    rng = random.Random(f"{config.seed}:proposer")
    model = train_acceptance([])
    history: list[tuple[Question, bool]] = []
    outcomes = []
    for t, pool in enumerate(pools):
        if (
            config.strategy_g == "utility"
            and config.learn_acceptance
            and t > 0
            and t % config.retrain_period == 0
        ):
            candidate = train_acceptance(history)
            if candidate.trained:
                model = candidate

        if config.strategy_g == "greedy":
            proposal = strategy_g_greedy(pool, config.m_cap)
        elif config.strategy_g == "utility":
            proposal = strategy_g_utility(pool, config.m_cap, model)
        else:
            proposal = strategy_g_random(pool, config.m_cap, rng)

        published = forum_select(proposal, scorer, config.k_cap)
        published_ids = {q.id for q in published}
        outcomes.append(
            SelectionOutcome(
                week=pool.week,
                proposed=tuple(q.id for q in proposal),
                published=tuple(q.id for q in published),
                u_g_realized=utility_of_set(published, G_SIDE),
                u_f_realized=utility_of_set(published, F_SIDE),
            )
        )
        history.extend((q, q.id in published_ids) for q in proposal)
    return GameLedger.from_outcomes(outcomes)


def run_full_information(
    source: Dataset | Sequence[RoundPool],
    heuristic: str,
    k: int,
    seed: int = 0,
    rounds: int | None = None,
) -> GameLedger:
    """Select k jointly visible questions per week with one heuristic.

    The random heuristic reseeds per round from ``seed`` and the round
    index, so trajectories are reproducible and rounds independent.
    """
    if heuristic not in HEURISTICS:
        raise ConfigError(
            f"unknown heuristic {heuristic!r}; expected one of "
            f"{', '.join(HEURISTICS)}"
        )
    pools = _as_pools(source)
    if rounds is not None:
        if len(pools) < rounds:
            raise ConfigError(f"need {rounds} weeks, dataset has {len(pools)}")
        pools = pools[:rounds]
    outcomes = []
    for t, pool in enumerate(pools):
        instance = _pool_instance(pool, k)
        if heuristic == "random":
            chosen = heuristic_random(instance, f"{seed}-{t}")
        else:
            chosen = HEURISTICS[heuristic](instance)
        selected = [pool.questions[i] for i in chosen]
        ids = tuple(q.id for q in selected)
        outcomes.append(
            SelectionOutcome(
                week=pool.week,
                proposed=ids,
                published=ids,
                u_g_realized=utility_of_set(selected, G_SIDE),
                u_f_realized=utility_of_set(selected, F_SIDE),
            )
        )
    return GameLedger.from_outcomes(outcomes)


@dataclass(frozen=True)
class UrrReport:
    """Exact utility recovery: realized cumulative utility over the
    Nash-optimal trajectory's cumulative utility, per player."""

    star_u_g: float
    star_u_f: float
    realized_u_g: float
    realized_u_f: float
    urr_g: float
    urr_f: float


@dataclass(frozen=True)
class EurrReport:
    """Estimated utility recovery against the best heuristic per player."""

    tilde_u_g: float
    tilde_u_f: float
    realized_u_g: float
    realized_u_f: float
    eurr_g: float
    eurr_f: float
    best_heuristic_g: str
    best_heuristic_f: str
    note: str = EURR_NOTE


def exact_urr(
    ledger: GameLedger,
    source: Dataset | Sequence[RoundPool],
    k: int,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> UrrReport:
    """Recovery ratios against per-round oracle optima.

    Enumerates the exact Nash-product optimum per week, so it is only
    feasible at desk scale; the enumeration budget propagates to the
    oracle, whose error message points at the estimated-recovery path.
    """
    pools = _as_pools(source)
    if len(ledger) != len(pools):
        raise ConfigError(
            f"ledger covers {len(ledger)} rounds but the pool "
            f"window has {len(pools)}"
        )
    star_g = 0.0
    star_f = 0.0
    for pool in pools:
        instance = _pool_instance(pool, k)
        result = oracle_exact(instance, budget=budget)
        star_g += float(sum(instance.items[i][0] for i in result.indices))
        star_f += float(sum(instance.items[i][1] for i in result.indices))
    if star_g <= 0.0 or star_f <= 0.0:
        raise ValueError(
            "optimal trajectory has zero utility on one side; recovery "
            "ratios are undefined"
        )
    realized_g = ledger.total_u_g
    realized_f = ledger.total_u_f
    return UrrReport(
        star_u_g=star_g,
        star_u_f=star_f,
        realized_u_g=realized_g,
        realized_u_f=realized_f,
        urr_g=realized_g / star_g,
        urr_f=realized_f / star_f,
    )


def compute_eurr(
    ledger: GameLedger, full_runs: Mapping[str, GameLedger]
) -> EurrReport:
    """Recovery ratios against the best full-information heuristic.

    Each player's denominator is the maximum cumulative utility over
    the supplied heuristic ledgers (ties keep the first name in
    mapping order).
    """
    if not full_runs:
        raise ConfigError("no full-information runs supplied")
    best_g = best_f = None
    tilde_g = tilde_f = None
    for name, run in full_runs.items():
        if tilde_g is None or run.total_u_g > tilde_g:
            tilde_g, best_g = run.total_u_g, name
        if tilde_f is None or run.total_u_f > tilde_f:
            tilde_f, best_f = run.total_u_f, name
    if tilde_g <= 0.0 or tilde_f <= 0.0:
        raise ValueError(
            "best heuristic total is zero on one side; estimated recovery "
            "is undefined"
        )
    return EurrReport(
        tilde_u_g=tilde_g,
        tilde_u_f=tilde_f,
        realized_u_g=ledger.total_u_g,
        realized_u_f=ledger.total_u_f,
        eurr_g=ledger.total_u_g / tilde_g,
        eurr_f=ledger.total_u_f / tilde_f,
        best_heuristic_g=best_g,
        best_heuristic_f=best_f,
    )


LEDGER_COLUMNS = (
    "week",
    "proposed_count",
    "published_count",
    "u_g_realized",
    "u_f_realized",
    "cum_u_g",
    "cum_u_f",
)


def write_ledger_csv(
    ledger: GameLedger, path: str | Path, *, manifest_hash: str | None = None
) -> None:
    """One row per round; floats use repr so reads round-trip exactly."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        if manifest_hash is not None:
            fh.write(f"# manifest {manifest_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(LEDGER_COLUMNS)
        for row in zip(
            ledger.weeks,
            ledger.proposed_counts,
            ledger.published_counts,
            ledger.u_g,
            ledger.u_f,
            ledger.cum_u_g,
            ledger.cum_u_f,
        ):
            writer.writerow(row[:3] + tuple(repr(v) for v in row[3:]))


def read_ledger_csv(path: str | Path) -> GameLedger:
    """Parse a ledger CSV, checking the cumulative columns add up.

    The ledger has no outcomes: the CSV stores per-round counts and
    totals, not question ids.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path.name}: empty ledger")
    if tuple(header) != LEDGER_COLUMNS:
        raise SchemaError(
            f"{path.name}: unexpected columns {header}; expected "
            f"{list(LEDGER_COLUMNS)}"
        )
    rows = list(reader)
    for row in rows:
        if len(row) != len(LEDGER_COLUMNS):
            raise SchemaError(f"{path.name}: malformed row {row}")
    # the CSV columns are the ledger's fields in order: three counts,
    # then four utility columns
    columns = list(zip(*rows)) or [()] * len(LEDGER_COLUMNS)
    ledger = GameLedger(
        *(tuple(map(int if j < 3 else float, col)) for j, col in enumerate(columns))
    )
    expected = zip(running_total(ledger.u_g), running_total(ledger.u_f))
    stored = zip(ledger.cum_u_g, ledger.cum_u_f)
    for week, want, got in zip(ledger.weeks, expected, stored):
        if want != got:
            raise SchemaError(
                f"{path.name}: cumulative totals disagree with per-round "
                f"values at week {week}"
            )
    return ledger
