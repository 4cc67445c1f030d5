"""Misalignment correlations and formatted results tables."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import math

import numpy as np

from .core import running_total
from .data import Dataset
from .engine import EurrReport
from .errors import ConfigError
from .stats import CorrelationResult, spearman, weekly_ttest


@dataclass(frozen=True)
class MisalignmentRow:
    domain: str
    result: CorrelationResult


@dataclass(frozen=True)
class MisalignmentReport:
    """Per-domain Spearman correlations between curator and proposer
    utility signals, with the pooled mean/std across rows."""

    rows: tuple[MisalignmentRow, ...]
    mean_rho: float
    std_rho: float
    zero_view_weeks: tuple[int, ...]
    skipped: tuple[str, ...]


def misalignment_report(dataset: Dataset) -> MisalignmentReport:
    """Correlate weekly-normalized views against the proposer utility u_g.

    The dataset's u_g column is correlated per domain (plus "all" when
    several domains exist); groups under 3 points are skipped and named
    in the report, as are the weeks whose views are all zero.
    """
    pools = dataset.pools
    u_f = np.concatenate([pool.u_f_norm for pool in pools])
    u_g = np.concatenate([pool.u_g for pool in pools])
    domain_of = [domain for pool in pools for domain in pool.domains]

    domains = sorted(set(domain_of))
    groups = list(domains)
    if len(domains) > 1:
        groups.append("all")

    rows = []
    skipped = []
    for domain in groups:
        idx = [i for i, d in enumerate(domain_of) if domain == "all" or d == domain]
        label = f"u_g/{domain}"
        if len(idx) < 3:
            skipped.append(label)
            continue
        try:
            result = spearman(u_f[idx].tolist(), u_g[idx].tolist())
        except ValueError:
            skipped.append(label)
            continue
        rows.append(MisalignmentRow(domain=domain, result=result))
    if not rows:
        raise ConfigError("no group had enough points to correlate")
    # left-to-right sums from 0.0: sum() of floats compensates from Python 3.12
    rhos = [r.result.rho for r in rows]
    mean = running_total(rhos)[-1] / len(rhos)
    std = math.sqrt(running_total((v - mean) ** 2 for v in rhos)[-1] / len(rhos))
    return MisalignmentReport(
        rows=tuple(rows),
        mean_rho=mean,
        std_rho=std,
        zero_view_weeks=tuple(t for t, p in enumerate(pools) if not any(p.view_counts)),
        skipped=tuple(skipped),
    )


@dataclass(frozen=True)
class ResultsTable:
    """Pre-formatted result rows with text and CSV renderings."""

    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def to_text(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        def fmt(cells: Sequence[str]) -> str:
            return "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells)).rstrip()
        lines = [self.title, fmt(self.headers), fmt("-" * w for w in widths)]
        lines.extend(fmt(row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buf.getvalue()


def full_information_table(runs: Mapping[str, object]) -> ResultsTable:
    """Cumulative utilities per joint selection heuristic."""
    if not runs:
        raise ConfigError("no runs to tabulate")
    rows = tuple(
        (name, f"{run.total_u_g:.3f}", f"{run.total_u_f:.3f}")
        for name, run in runs.items()
    )
    return ResultsTable(
        title="full-information selection",
        headers=("heuristic", "cum_u_g", "cum_u_f"),
        rows=rows,
    )


def asymmetric_table(
    entries: Mapping[str, tuple[object, EurrReport]]
) -> ResultsTable:
    """Realized utilities and estimated recovery per proposer strategy."""
    if not entries:
        raise ConfigError("no runs to tabulate")
    rows = tuple(
        (
            name,
            f"{ledger.total_u_g:.3f}",
            f"{ledger.total_u_f:.3f}",
            f"{report.eurr_g:.3f}",
            f"{report.eurr_f:.3f}",
        )
        for name, (ledger, report) in entries.items()
    )
    return ResultsTable(
        title="asymmetric play with estimated recovery",
        headers=("strategy", "cum_u_g", "cum_u_f", "eurr_g", "eurr_f"),
        rows=rows,
    )


def misalignment_table(report: MisalignmentReport) -> ResultsTable:
    rows = [
        (
            "u_g",
            row.domain,
            str(row.result.n),
            f"{row.result.rho:.3f}",
            f"{row.result.p_value:.4g}",
        )
        for row in report.rows
    ]
    rows.append(("mean", "", "", f"{report.mean_rho:.3f}", ""))
    rows.append(("std", "", "", f"{report.std_rho:.3f}", ""))
    return ResultsTable(
        title="view/utility rank correlation",
        headers=("utility", "domain", "n", "spearman_rho", "p_value"),
        rows=tuple(rows),
    )


def significance_table(
    series: Mapping[str, Sequence[float]],
    *,
    paired: bool = True,
    alpha: float = 0.01,
    caption: str = "pairwise weekly t-tests",
) -> ResultsTable:
    """All-pairs weekly t-tests; significant pairs get an asterisk."""
    names = list(series)
    if len(names) < 2:
        raise ConfigError("need at least two series to compare")
    rows = []
    for a, b in combinations(names, 2):
        r = weekly_ttest(series[a], series[b], paired=paired)
        rows.append(
            (
                a,
                b,
                f"{r.mean_a:.4f}",
                f"{r.mean_b:.4f}",
                f"{r.t_stat:.3f}",
                f"{r.p_value:.4g}",
                "*" if r.p_value < alpha else "",
            )
        )
    kind = "paired" if paired else "welch"
    return ResultsTable(
        title=f"{caption} ({kind}, alpha={alpha:g})",
        headers=("series_a", "series_b", "mean_a", "mean_b", "t", "p", "sig"),
        rows=tuple(rows),
    )
