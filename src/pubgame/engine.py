"""Round loops: the asymmetric game and full-information baselines.

The asymmetric loop plays proposer strategy against curator scorer
week by week, retraining the proposer's acceptance model on its own
submit/publish history every ``retrain_period`` rounds.  Each round
runs one strategy, which returns positions into the pool, and the
curator's :func:`~pubgame.strategies.forum_select`, which returns
positions into the proposal.  A run tokenizes each text it scores once,
into one token table: the rows built for the proposer's scoring serve
the curator's scoring and the history every retrain fits on.  The
full-information loop selects directly from the whole weekly pool with
one of the joint heuristics, run once per band of pool sizes on a
zero-padded matrix of the weeks' ``u_g`` rows and one of their
``u_f_norm`` rows, providing the denominators for estimated utility
recovery; :func:`exact_urr` computes the exact counterpart by
oracle enumeration where feasible.  Both loops record a round with
:meth:`~pubgame.core.SelectionOutcome.of` from positions into the
pool, and every loop takes a :class:`~pubgame.data.Dataset`.  The
ledger CSV writes each round's position as its week, and its reader
refuses a week out of position.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import GameConfig, GameLedger, SelectionOutcome, utility_of_set
from .data import Dataset, _finite
from .errors import ConfigError, SchemaError
from .nash_opt import (
    DEFAULT_ENUMERATION_BUDGET,
    COLUMN_RULES,
    HEURISTICS,
    BilinearInstance,
    oracle_exact,
)
from .strategies import (
    ForumScorer,
    forum_select,
    strategy_g_greedy,
    strategy_g_random,
    strategy_g_utility,
)
from .textmodel import AcceptanceModel, TokenTable, tokenize_rows, train_acceptance

EURR_NOTE = (
    "denominators are the best heuristic's cumulative utilities, which "
    "typically exceed the exact optimum's per-player utilities, so these "
    "ratios under-estimate exact recovery"
)


def run_asymmetric(dataset: Dataset, config: GameConfig, scorer: ForumScorer) -> GameLedger:
    """Play the weekly proposer/curator game over the simulation window.

    Only the first ``config.rounds`` weeks are played; fewer available
    weeks is an error.  The curator scorer stays frozen; the proposer's
    acceptance model retrains on accumulated history at rounds that are
    multiples of ``retrain_period`` (when the utility strategy and
    learning are active).  A utility proposer that does not learn keeps
    an untrained model, whose probabilities are all 1, so it plays the
    greedy strategy.

    Each round tokenizes only the texts it scores: the whole pool when
    the proposer learns, otherwise the proposal when the curator scores
    text, and nothing when it reads the precomputed column.  The history
    keeps the proposal's rows, and only when the proposer learns.
    """
    if dataset.n_weeks < config.rounds:
        raise ConfigError(
            f"need {config.rounds} simulation weeks, dataset has {dataset.n_weeks}"
        )

    rng = random.Random(f"{config.seed}:proposer")
    learning = config.strategy_g == "utility" and config.learn_acceptance
    model = AcceptanceModel()
    table = TokenTable()
    history = tokenize_rows([], table)
    accepted: list[bool] = []
    outcomes = []
    for t, pool in enumerate(dataset.pools[: config.rounds]):
        if learning and t > 0 and t % config.retrain_period == 0:
            model = train_acceptance(history, accepted)

        rows = None
        if learning:
            pool_rows = tokenize_rows(pool.texts(), table)
            proposal = strategy_g_utility(pool, config.m_cap, model, pool_rows)
            rows = pool_rows.take(proposal)
        elif config.strategy_g == "random":
            proposal = strategy_g_random(pool, config.m_cap, rng)
        else:
            proposal = strategy_g_greedy(pool, config.m_cap)
        if rows is None and scorer.model is not None:
            rows = tokenize_rows(pool.texts(proposal.tolist()), table)

        published = proposal[forum_select(proposal, pool, scorer, config.k_cap, rows)]
        outcomes.append(SelectionOutcome.of(pool, proposal, published))
        if learning:
            history += rows
            accepted.extend(np.isin(proposal, published).tolist())
    return GameLedger.from_outcomes(outcomes)


def run_full_information(
    dataset: Dataset, heuristic: str, k: int, seed: int = 0, rounds: int | None = None
) -> GameLedger:
    """Select k jointly visible questions per week with one heuristic.

    The weeks are grouped by the bit length of their pool size, so the
    pools of a group lie within a factor of two of each other, and the
    rule runs once per group on a matrix of the group's ``u_g`` rows and
    one of its ``u_f_norm`` rows, in week order, each zero-padded to the
    group's largest pool; each week is then recorded in week order.  The
    random heuristic seeds each week from ``seed`` and the week's index,
    so trajectories are reproducible and rounds independent.
    """
    if heuristic not in HEURISTICS:
        raise ConfigError(
            f"unknown heuristic {heuristic!r}; expected one of "
            f"{', '.join(HEURISTICS)}"
        )
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if rounds is not None and dataset.n_weeks < rounds:
        raise ConfigError(f"need {rounds} weeks, dataset has {dataset.n_weeks}")
    rule = COLUMN_RULES[heuristic]
    pools = dataset.pools[:rounds]
    groups: dict[int, list[int]] = {}
    for t, pool in enumerate(pools):
        groups.setdefault(len(pool).bit_length(), []).append(t)
    chosen: list = [None] * len(pools)
    for weeks in groups.values():
        sizes = [len(pools[t]) for t in weeks]
        f, g = np.zeros((2, len(weeks), max(sizes)))
        for row, t in enumerate(weeks):
            f[row, : sizes[row]] = pools[t].u_g
            g[row, : sizes[row]] = pools[t].u_f_norm
        seeds = ([f"{seed}-{t}" for t in weeks],) if heuristic == "random" else ()
        for t, picks in zip(weeks, rule(f, g, k, *seeds, sizes=sizes)):
            chosen[t] = picks
    return GameLedger.from_outcomes(
        [SelectionOutcome.of(pool, picks, picks) for pool, picks in zip(pools, chosen)]
    )


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
    dataset: Dataset,
    k: int,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> UrrReport:
    """Recovery ratios against per-round oracle optima.

    Enumerates the exact Nash-product optimum per week, so it is only
    feasible at desk scale; the enumeration budget propagates to the
    oracle, whose error message points at the estimated-recovery path.
    """
    if len(ledger) != dataset.n_weeks:
        raise ConfigError(
            f"ledger covers {len(ledger)} rounds but the pool "
            f"window has {dataset.n_weeks}"
        )
    star_g = star_f = 0.0
    for pool in dataset.pools:
        items = tuple(zip(pool.u_g.tolist(), pool.u_f_norm.tolist()))
        result = oracle_exact(BilinearInstance(items, min(k, len(pool))), budget=budget)
        u_g, u_f = utility_of_set(pool, result.indices)
        star_g += u_g
        star_f += u_f
    if star_g <= 0.0 or star_f <= 0.0:
        raise ValueError(
            "optimal trajectory has zero utility on one side; recovery "
            "ratios are undefined"
        )
    return UrrReport(
        star_u_g=star_g,
        star_u_f=star_f,
        realized_u_g=ledger.total_u_g,
        realized_u_f=ledger.total_u_f,
        urr_g=ledger.total_u_g / star_g,
        urr_f=ledger.total_u_f / star_f,
    )


def compute_eurr(
    ledger: GameLedger, full_runs: Mapping[str, GameLedger]
) -> EurrReport:
    """Recovery ratios against the best full-information heuristic.

    Each player's denominator is the maximum cumulative utility over
    the supplied heuristic ledgers (ties keep the first name in
    mapping order), each of which must cover as many rounds as the
    asymmetric ledger.
    """
    if not full_runs:
        raise ConfigError("no full-information runs supplied")
    best_g = best_f = None
    tilde_g = tilde_f = None
    for name, run in full_runs.items():
        if len(run) != len(ledger):
            raise ConfigError(
                f"full-information ledger {name!r} covers {len(run)} rounds but "
                f"the asymmetric ledger covers {len(ledger)}"
            )
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
    """One row per round, its week the row's position; floats use repr
    so reads round-trip exactly."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        if manifest_hash is not None:
            fh.write(f"# manifest {manifest_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(LEDGER_COLUMNS)
        counts = zip(ledger.proposed_counts, ledger.published_counts)
        values = zip(ledger.u_g, ledger.u_f, ledger.cum_u_g, ledger.cum_u_f)
        for t, (n, v) in enumerate(zip(counts, values)):
            writer.writerow((t, *n, *map(repr, v)))


def read_ledger_csv(path: str | Path) -> GameLedger:
    """Parse a ledger CSV, checking its weeks and cumulative columns.

    Row t must hold week t, and the cumulative columns must equal the
    running totals that the ledger derives from the per-round columns.
    The ledger has no outcomes: the CSV stores per-round counts and
    totals, not question ids.  A malformed value raises SchemaError
    naming the file and line.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        lines = [
            (f"{path.name} line {lineno}", next(csv.reader([ln])))
            for lineno, ln in enumerate(fh, start=1)
            if not ln.startswith("#")
        ]
    if not lines:
        raise SchemaError(f"{path.name}: empty ledger")
    (_, header), *body = lines
    if tuple(header) != LEDGER_COLUMNS:
        raise SchemaError(
            f"{path.name}: unexpected columns {header}; expected "
            f"{list(LEDGER_COLUMNS)}"
        )
    rows = []
    for t, (where, row) in enumerate(body):
        if len(row) != len(LEDGER_COLUMNS):
            raise SchemaError(f"{where}: malformed row {row}")
        # a week and two counts in ASCII digits, then four utility columns
        for name, raw in zip(LEDGER_COLUMNS[:3], row):
            if not (raw.isascii() and raw.isdigit()):
                raise SchemaError(f"{where}: {name} {raw!r} is not an integer >= 0")
        if int(row[0]) != t:
            raise SchemaError(f"{where}: week {row[0]} is not the row's position, {t}")
        try:
            utilities = [_finite(v, n) for n, v in zip(LEDGER_COLUMNS[3:], row[3:])]
        except SchemaError as e:
            raise SchemaError(f"{where}: {e}") from None
        rows.append((*map(int, row[1:3]), *utilities))
    # each row after its week: two counts, two utilities, two totals
    columns = list(zip(*rows)) or [()] * 6
    ledger = GameLedger(*columns[:4])
    for (where, _), row, cum_g, cum_f in zip(body, rows, ledger.cum_u_g, ledger.cum_u_f):
        if row[4:] != (cum_g, cum_f):
            raise SchemaError(
                f"{where}: cumulative totals disagree with per-round values"
            )
    return ledger
