"""Dataset ingestion, weekly pooling, and synthetic data generation.

Input records (JSONL or CSV) carry: id, timestamp, domain, title, body,
view_count, u_g, and optionally forum_score.  Records are grouped into
round pools by ISO week of the timestamp; week indices run 0..W-1 in
chronological order.

The synthetic generator draws (view, utility) pairs from a Gaussian
copula with lognormal marginals, hitting a target Spearman correlation,
and writes two-topic text whose vocabulary mix drives the learnable
structure used by the text models.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import Question, RoundPool, set_utility
from .errors import ConfigError, SchemaError

REQUIRED_FIELDS = ("id", "timestamp", "domain", "title", "body", "view_count", "u_g")

# synthetic marginals and text mixture; view spread is deliberately much
# heavier than utility spread so per-item products are view-dominated,
# matching the skew real view-count data shows
VIEW_MU = 3.0
VIEW_SIGMA = 1.25
UG_MU = 4.0
UG_SIGMA = 0.8
TOPIC_VOCAB = 40
COMMON_VOCAB = 20
COMMON_TOKEN_P = 0.2
TOPIC_PURITY = 0.75

_SYNTH_EPOCH = date(2024, 1, 1)  # a Monday, ISO week 2024-W01


@dataclass(frozen=True)
class Dataset:
    """Ordered weekly pools plus bookkeeping.

    ``pretrain_window`` is the number of leading weeks reserved for
    curator training when the dataset is split.
    """

    pools: tuple[RoundPool, ...]
    pretrain_window: int = 0
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.pools:
            raise ValueError("dataset has no weeks")
        for t, pool in enumerate(self.pools):
            if pool.week != t:
                raise ValueError(
                    f"pool at position {t} carries week {pool.week}; weeks "
                    f"must be contiguous from 0"
                )
        if not 0 <= self.pretrain_window <= len(self.pools):
            raise ValueError("pretrain_window outside [0, weeks]")

    @property
    def n_weeks(self) -> int:
        return len(self.pools)

    def questions(self) -> Iterable[Question]:
        for pool in self.pools:
            yield from pool.questions


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic corpus.

    ``utility_correlation`` is the target Spearman correlation between
    view counts and proposer utility; ``topic_effect`` shifts the view
    latent by +/- effect/2 per topic, making views predictable from
    text.
    """

    weeks: int
    questions_per_week: int
    utility_correlation: float = 0.0
    topic_effect: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.weeks < 1:
            raise ValueError("weeks must be >= 1")
        if self.questions_per_week < 1:
            raise ValueError("questions_per_week must be >= 1")
        if not -1.0 <= self.utility_correlation <= 1.0:
            raise ValueError("utility_correlation must lie in [-1, 1]")
        if self.topic_effect < 0:
            raise ValueError("topic_effect must be >= 0")


def _parse_timestamp(raw: str, where: str) -> datetime:
    try:
        return datetime.fromisoformat(raw)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: bad timestamp {raw!r}; expected ISO-8601")


def _finite(raw, name: str, where: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: {name} {raw!r} is not a number")
    if not math.isfinite(value):
        raise SchemaError(f"{where}: {name} {raw!r} is not a finite number")
    return value


def _coerce_record(rec: dict, where: str) -> dict:
    for name in REQUIRED_FIELDS:
        if name not in rec or rec[name] is None or rec[name] == "":
            if name == "u_g":
                raise SchemaError(
                    f"{where}: missing proposer utility 'u_g'; supply the "
                    f"column or map one via the run configuration before "
                    f"ingesting"
                )
            raise SchemaError(f"{where}: missing required field {name!r}")
    out = dict(rec)
    out["timestamp"] = _parse_timestamp(str(rec["timestamp"]), where)
    views = rec["view_count"]
    try:
        if isinstance(views, float) and not views.is_integer():
            raise ValueError
        out["view_count"] = int(views)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: view_count {views!r} is not an integer")
    if out["view_count"] < 0:
        raise SchemaError(f"{where}: view_count must be >= 0")
    out["u_g"] = _finite(rec["u_g"], "u_g", where)
    if out["u_g"] < 0:
        raise SchemaError(f"{where}: u_g must be >= 0")
    score = rec.get("forum_score")
    if score is None or score == "":
        out["forum_score"] = None
    else:
        out["forum_score"] = _finite(score, "forum_score", where)
    out["id"] = str(rec["id"])
    out["domain"] = str(rec["domain"])
    out["title"] = str(rec["title"])
    out["body"] = str(rec["body"])
    return out


def _read_jsonl(path: Path) -> Iterator[tuple[str, dict]]:
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path.name} line {lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise SchemaError(f"{where}: bad JSON ({e.msg})")
            if not isinstance(rec, dict):
                raise SchemaError(f"{where}: expected an object")
            yield where, rec


def _read_csv(path: Path) -> Iterator[tuple[str, dict]]:
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path.name}: empty file")
        missing = [f for f in REQUIRED_FIELDS if f not in reader.fieldnames]
        if missing:
            if "u_g" in missing:
                raise SchemaError(
                    f"{path.name}: missing proposer utility column 'u_g'; "
                    f"supply the column or map one via the run configuration"
                )
            raise SchemaError(f"{path.name}: missing columns {missing}")
        for lineno, row in enumerate(reader, start=2):
            yield f"{path.name} line {lineno}", row


def ingest(path: str | Path, fmt: str | None = None) -> Dataset:
    """Read a JSONL or CSV dataset and pool it by ISO week.

    The format is inferred from the suffix unless given.  Duplicate
    ids, missing fields, and malformed values raise SchemaError with
    the offending line.
    """
    path = Path(path)
    if fmt is None:
        suffix = path.suffix.lower()
        if suffix in (".jsonl", ".ndjson"):
            fmt = "jsonl"
        elif suffix == ".csv":
            fmt = "csv"
        else:
            raise ConfigError(
                f"cannot infer format from {path.name!r}; pass jsonl or csv"
            )
    if fmt == "jsonl":
        rows = _read_jsonl(path)
    elif fmt == "csv":
        rows = _read_csv(path)
    else:
        raise ConfigError(f"unknown dataset format {fmt!r}; expected jsonl or csv")

    records: list[dict] = []
    seen: set[str] = set()
    for where, row in rows:
        rec = _coerce_record(row, where)
        if rec["id"] in seen:
            raise SchemaError(f"duplicate question id {rec['id']!r}")
        seen.add(rec["id"])
        # naive and offset-aware datetimes do not compare, so one file
        # holds one kind
        aware = rec["timestamp"].utcoffset() is not None
        if not records:
            first_where, first_aware = where, aware
        elif aware != first_aware:
            kinds = ("naive", "offset-aware")
            raise SchemaError(
                f"{where}: timestamp is {kinds[aware]} but {first_where}'s is "
                f"{kinds[first_aware]}; use one timestamp kind per file"
            )
        records.append(rec)
    if not records:
        raise SchemaError(f"{path.name}: no records")

    by_week: dict[tuple[int, int], list[dict]] = {}
    for rec in records:
        iso = rec["timestamp"].isocalendar()
        by_week.setdefault((iso[0], iso[1]), []).append(rec)
    week_keys = sorted(by_week)

    pools = []
    for t, key in enumerate(week_keys):
        questions = tuple(
            Question(
                id=rec["id"],
                domain=rec["domain"],
                title=rec["title"],
                body=rec["body"],
                view_count=rec["view_count"],
                u_g=rec["u_g"],
                forum_score=rec["forum_score"],
            )
            for rec in by_week[key]
        )
        pools.append(RoundPool(week=t, questions=questions))

    domains: dict[str, int] = {}
    for rec in records:
        domains[rec["domain"]] = domains.get(rec["domain"], 0) + 1
    timestamps = [rec["timestamp"] for rec in records]
    metadata = {
        "source": str(path),
        "format": fmt,
        "n_questions": len(records),
        "n_weeks": len(pools),
        "domains": domains,
        "span": [min(timestamps).isoformat(), max(timestamps).isoformat()],
        "iso_weeks": [list(k) for k in week_keys],
    }
    return Dataset(pools=tuple(pools), metadata=metadata)


def normalize_weekly(dataset: Dataset) -> Dataset:
    """Set each week's normalization statistic (the max view count) and
    populate curator utilities.  All-zero weeks normalize to zero and
    are flagged in metadata["zero_view_weeks"].  Idempotent."""
    pools = []
    zero_weeks = []
    for pool in dataset.pools:
        stat = float(max(q.view_count for q in pool.questions))
        if stat == 0.0:
            zero_weeks.append(pool.week)
        pools.append(set_utility(dataclasses.replace(pool, norm_stat=stat)))
    metadata = dict(dataset.metadata)
    metadata["zero_view_weeks"] = zero_weeks
    return dataclasses.replace(dataset, pools=tuple(pools), metadata=metadata)


def _reindex(pools: Sequence[RoundPool], metadata: dict) -> Dataset:
    """Renumber pools from week 0; the questions are shared, not copied."""
    pools = tuple(dataclasses.replace(pool, week=t) for t, pool in enumerate(pools))
    return Dataset(pools=pools, metadata=metadata)


def split_pretrain(
    dataset: Dataset, weeks: int | None = None
) -> tuple[Dataset, Dataset, Dataset]:
    """Partition into (train, validation, simulation) datasets.

    The first ``weeks`` pools form the pretraining window; its last
    ceil(20%) weeks are held out for threshold calibration.  Remaining
    pools are the simulation window.  Each split is reindexed from week
    0; original week indices land in metadata["source_weeks"].
    """
    if weeks is None:
        weeks = dataset.pretrain_window
    if weeks < 2:
        raise ConfigError("pretraining window needs at least 2 weeks (train + val)")
    if weeks >= dataset.n_weeks:
        raise ConfigError(
            f"pretraining window of {weeks} weeks leaves no simulation weeks "
            f"out of {dataset.n_weeks}"
        )
    n_val = -(-weeks // 5)  # ceil(0.2 * weeks)
    n_train = weeks - n_val
    if n_train < 1:
        raise ConfigError(f"pretraining window of {weeks} leaves no training weeks")

    def cut(lo: int, hi: int, name: str) -> Dataset:
        meta = {
            "split": name,
            "source_weeks": list(range(lo, hi)),
            "parent": dataset.metadata.get("source"),
        }
        return _reindex(dataset.pools[lo:hi], meta)

    return (
        cut(0, n_train, "train"),
        cut(n_train, weeks, "validation"),
        cut(weeks, dataset.n_weeks, "simulation"),
    )


def _topic_words(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{j:02d}" for j in range(n)]


_VOCAB = {
    0: _topic_words("alpha", TOPIC_VOCAB),
    1: _topic_words("beta", TOPIC_VOCAB),
    "common": _topic_words("plain", COMMON_VOCAB),
}


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw a synthetic corpus with controlled view/utility correlation.

    Views and utilities share a Gaussian copula: the latent Pearson
    correlation 2*sin(pi*rho/6) reproduces the target Spearman rho for
    normal marginals, and the topic shift on the view latent is
    compensated so the realized correlation stays on target.  Text is a
    per-token mixture of the question's own topic vocabulary, the other
    topic's, and topic-neutral filler.
    """
    r = 2.0 * math.sin(math.pi * spec.utility_correlation / 6.0)
    d = spec.topic_effect / 2.0
    r_latent = r * math.sqrt(1.0 + d * d)
    if abs(r_latent) > 1.0:
        raise ValueError(
            f"utility_correlation {spec.utility_correlation} is unreachable "
            f"with topic_effect {spec.topic_effect}: the compensated latent "
            f"correlation would be {r_latent:.3f}"
        )
    rng = np.random.default_rng(spec.seed)
    residual = math.sqrt(1.0 - r_latent * r_latent)

    pools = []
    for t in range(spec.weeks):
        q = spec.questions_per_week
        topic = rng.integers(0, 2, size=q)
        z1 = rng.standard_normal(q)
        z2 = r_latent * z1 + residual * rng.standard_normal(q)
        z1 = z1 + d * (2 * topic - 1)
        views = np.floor(np.exp(VIEW_MU + VIEW_SIGMA * z1)).astype(np.int64)
        u_g = np.exp(UG_MU + UG_SIGMA * z2)

        lengths = rng.integers(9, 15, size=q)
        total = int(lengths.sum())
        use_common = rng.random(total) < COMMON_TOKEN_P
        own_topic = rng.random(total) < TOPIC_PURITY
        topic_idx = rng.integers(0, TOPIC_VOCAB, size=total)
        common_idx = rng.integers(0, COMMON_VOCAB, size=total)

        questions = []
        cursor = 0
        for i in range(q):
            n_tok = int(lengths[i])
            tokens = []
            for j in range(cursor, cursor + n_tok):
                if use_common[j]:
                    tokens.append(_VOCAB["common"][common_idx[j]])
                else:
                    src = topic[i] if own_topic[j] else 1 - topic[i]
                    tokens.append(_VOCAB[int(src)][topic_idx[j]])
            cursor += n_tok
            questions.append(
                Question(
                    id=f"syn-{t:03d}-{i:04d}",
                    domain="synthetic",
                    title=" ".join(tokens[:3]),
                    body=" ".join(tokens[3:]),
                    view_count=int(views[i]),
                    u_g=float(u_g[i]),
                )
            )
        pools.append(RoundPool(week=t, questions=tuple(questions)))

    metadata = {
        "source": "synthetic",
        "generator": dataclasses.asdict(spec),
        "n_questions": spec.weeks * spec.questions_per_week,
        "n_weeks": spec.weeks,
        "domains": {"synthetic": spec.weeks * spec.questions_per_week},
    }
    return Dataset(pools=tuple(pools), metadata=metadata)


def write_jsonl(dataset: Dataset, path: str | Path) -> None:
    """Serialize a dataset to the documented JSONL schema.

    Week t maps to noon Monday of the t-th ISO week from a fixed epoch,
    so ingesting the file reproduces the same weekly pools.  Output is
    deterministic byte for byte.
    """
    path = Path(path)
    lines = []
    for pool in dataset.pools:
        stamp = datetime.combine(
            _SYNTH_EPOCH + timedelta(weeks=pool.week), datetime.min.time()
        ) + timedelta(hours=12)
        for q in pool.questions:
            rec = {
                "id": q.id,
                "timestamp": stamp.isoformat(),
                "domain": q.domain,
                "title": q.title,
                "body": q.body,
                "view_count": q.view_count,
                "u_g": q.u_g,
            }
            if q.forum_score is not None:
                rec["forum_score"] = q.forum_score
            lines.append(json.dumps(rec, sort_keys=True))
    path.write_text("\n".join(lines) + "\n")
