"""Dataset ingestion, weekly pooling, and synthetic data generation.

Input records (JSONL or CSV) carry: id, timestamp, domain, title, body,
view_count, u_g, and optionally forum_score.  Records are grouped into
round pools by ISO week of the timestamp, in chronological order; a
week's number is its pool's position in the dataset.  Each week is built
once, as the columns of a :class:`~pubgame.core.RoundPool`, with its
curator utilities set.

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
import sys
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import RoundPool, set_utility
from .errors import ConfigError, SchemaError

REQUIRED_FIELDS = ("id", "timestamp", "domain", "title", "body", "view_count", "u_g")
_required = itemgetter(*REQUIRED_FIELDS)
# a view count is divided as a float when its curator utility is set
_MAX_VIEWS = int(sys.float_info.max)
# the longest repr of a refused value that a message echoes whole
_ECHO_CHARS = 40

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

_SYNTH_EPOCH = datetime(2024, 1, 1, 12)  # noon on a Monday, ISO week 2024-W01


@dataclass(frozen=True)
class Dataset:
    """Ordered weekly pools, plus bookkeeping.  Week t is ``pools[t]``.

    ``metadata`` records where the pools came from; it takes no part
    in equality.
    """

    pools: tuple[RoundPool, ...]
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.pools:
            raise ValueError("dataset has no weeks")

    @property
    def n_weeks(self) -> int:
        return len(self.pools)


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
        if not (math.isfinite(self.topic_effect) and self.topic_effect >= 0):
            raise ValueError(f"topic_effect must be finite and >= 0, got {self.topic_effect}")


def _echo(value) -> str:
    """The repr of a value an error message names, cut after
    ``_ECHO_CHARS`` characters, then followed by its full length."""
    text = repr(value)
    if len(text) <= _ECHO_CHARS:
        return text
    return f"{text[:_ECHO_CHARS]}... ({len(text)} characters)"


def _finite(raw, name: str) -> float:
    try:
        # float(True) is 1.0: a JSON boolean is not a number here
        if isinstance(raw, bool):
            raise TypeError
        value = float(raw)
    except (TypeError, ValueError):
        raise SchemaError(f"{name} {_echo(raw)} is not a number")
    except OverflowError:  # an int past the float range, as a string past it reads inf
        value = math.inf
    if not math.isfinite(value):
        raise SchemaError(f"{name} {_echo(raw)} is not a finite number")
    return value


def _read_record(rec: dict) -> tuple[datetime, tuple]:
    """One record's timestamp and checked fields, in the order of a
    pool's columns less ``u_f_norm``.  Presence is checked first;
    then a value of the common type passes on type and range tests, and
    any other goes through the general conversion, which may raise a
    SchemaError (the caller adds the location)."""
    try:
        values = _required(rec)
    except KeyError:
        values = tuple(map(rec.get, REQUIRED_FIELDS))
    # a falsy value may be present (a view count of 0): look closer
    if not all(values):
        for name, value in zip(REQUIRED_FIELDS, values):
            if value is None or value == "":
                if name == "u_g":
                    raise SchemaError(
                        "missing proposer utility 'u_g'; supply the column or "
                        "map one via the run configuration before ingesting"
                    )
                raise SchemaError(f"missing required field {name!r}")
    qid, raw_stamp, domain, title, body, views, u_g = values
    try:
        stamp = datetime.fromisoformat(str(raw_stamp))
    except ValueError:
        raise SchemaError(f"bad timestamp {_echo(str(raw_stamp))}; expected ISO-8601")
    if type(views) is not int or not 0 <= views <= _MAX_VIEWS:
        try:
            # a string counts only in ASCII digits: int() would also take
            # signs, padding, underscores and other scripts' digits
            if (
                isinstance(views, bool)
                or (isinstance(views, float) and not views.is_integer())
                or (isinstance(views, str) and not (views.isascii() and views.isdigit()))
            ):
                raise ValueError
            views = int(views)
        except (TypeError, ValueError):
            raise SchemaError(f"view_count {_echo(views)} is not an integer")
        if views < 0:
            raise SchemaError("view_count must be >= 0")
        if views > _MAX_VIEWS:
            raise SchemaError(f"view_count {_echo(views)} is too large for a float")
    if type(u_g) is not float or not 0.0 <= u_g < math.inf:
        u_g = _finite(u_g, "u_g")
        if u_g < 0:
            raise SchemaError("u_g must be >= 0")
    score = rec.get("forum_score")
    if score is not None and (type(score) is not float or not -math.inf < score < math.inf):
        score = None if score == "" else _finite(score, "forum_score")
    return stamp, (str(qid), str(domain), str(title), str(body), views, u_g, score)


def _records(path: Path, fmt: str) -> Iterator[tuple[int, dict]]:
    """The records of a UTF-8 dataset file with their line numbers, read
    line by line.  Blank JSONL lines are skipped; CSV records are numbered
    from 2, the header being line 1."""
    with path.open(encoding="utf-8", newline="" if fmt == "csv" else None) as fh:
        if fmt == "csv":
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
            yield from enumerate(reader, start=2)
            return
        scan = json.JSONDecoder().scan_once
        for lineno, line in enumerate(fh, start=1):
            # a line the scanner takes whole, up to its newline, decodes
            # as json.loads would; any other goes through json.loads
            try:
                rec, end = scan(line, 0)
                whole = line[end:] in ("\n", "")
            except (StopIteration, ValueError):
                whole = False
            if not whole:
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    raise SchemaError(f"{path.name} line {lineno}: bad JSON ({e.msg})")
                except ValueError:  # int() refuses the integer's length
                    raise SchemaError(
                        f"{path.name} line {lineno}: bad JSON (an integer of more "
                        f"than {sys.get_int_max_str_digits()} digits)"
                    )
            if not isinstance(rec, dict):
                raise SchemaError(f"{path.name} line {lineno}: expected an object")
            yield lineno, rec


def ingest(path: str | Path, fmt: str | None = None) -> Dataset:
    """Read a UTF-8 JSONL or CSV dataset, line by line, and pool it by
    ISO week.

    The format is inferred from the suffix unless given.  Records are
    checked in file order: the first duplicate id, missing field or
    malformed value raises SchemaError, naming the file and line of a
    bad record.  A domain must be printable (``str.isprintable``: no line
    break, tab or other control or format character).  Each week's
    columns are built once the file is read, with their curator utilities
    set.
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
    if fmt not in ("jsonl", "csv"):
        raise ConfigError(f"unknown dataset format {fmt!r}; expected jsonl or csv")

    by_week: dict[tuple[int, int], list[tuple]] = {}
    per_domain: dict[str, int] = {}
    seen: set[str] = set()
    for lineno, rec in _records(path, fmt):
        try:
            stamp, fields = _read_record(rec)
        except SchemaError as e:
            raise SchemaError(f"{path.name} line {lineno}: {e}") from None
        qid, domain = fields[0], fields[1]
        # outputs print a domain by name, one to a line: each new one is
        # checked, once, for line breaks and other unprintable characters
        if domain not in per_domain and not domain.isprintable():
            raise SchemaError(
                f"{path.name} line {lineno}: domain {_echo(domain)} holds a "
                f"non-printable character"
            )
        if qid in seen:
            raise SchemaError(f"duplicate question id {_echo(qid)}")
        # naive and offset-aware datetimes do not compare, so one file
        # holds one kind; fromisoformat gives an offset with any tzinfo
        aware = stamp.tzinfo is not None
        if not seen:
            first_line, first_aware, first, last = lineno, aware, stamp, stamp
        elif aware != first_aware:
            kinds = ("naive", "offset-aware")
            raise SchemaError(
                f"{path.name} line {lineno}: timestamp is {kinds[aware]} but "
                f"{path.name} line {first_line}'s is {kinds[first_aware]}; use "
                f"one timestamp kind per file"
            )
        # strict comparisons keep the earliest-read of equal instants
        elif stamp < first:
            first = stamp
        elif stamp > last:
            last = stamp
        seen.add(qid)
        by_week.setdefault(stamp.isocalendar()[:2], []).append(fields)
        per_domain[domain] = per_domain.get(domain, 0) + 1
    if not seen:
        raise SchemaError(f"{path.name}: no records")

    week_keys = sorted(by_week)
    pools = []
    for key in week_keys:
        # a week's fields are dropped as its columns are built
        ids, domains, titles, bodies, views, u_g, scores = zip(*by_week.pop(key))
        pools.append(
            RoundPool(ids, domains, titles, bodies, views, u_g, set_utility(views), scores)
        )
    metadata = {
        "source": str(path),
        "format": fmt,
        "n_questions": len(seen),
        "n_weeks": len(pools),
        "domains": per_domain,
        "span": [first.isoformat(), last.isoformat()],
        "iso_weeks": [list(k) for k in week_keys],
    }
    return Dataset(pools=tuple(pools), metadata=metadata)


def normalize_weekly(dataset: Dataset) -> Dataset:
    """Flag the weeks whose view counts are all zero, and so whose
    curator utilities are all 0.0, in metadata["zero_view_weeks"].  The
    pools pass through unchanged.  Idempotent.  No run needs it: it is
    kept for the benchmark workloads under ``perfbench/``, which call it."""
    metadata = dict(dataset.metadata)
    metadata["zero_view_weeks"] = [
        t for t, p in enumerate(dataset.pools) if not any(p.view_counts)
    ]
    return dataclasses.replace(dataset, metadata=metadata)


def split_pretrain(dataset: Dataset, weeks: int) -> tuple[Dataset, Dataset, Dataset]:
    """Partition into (train, validation, simulation) datasets.

    The first ``weeks`` pools form the pretraining window; its last
    ceil(20%) weeks are held out for threshold calibration.  Remaining
    pools are the simulation window.  Each split holds the dataset's own
    pools; their weeks in the dataset land in metadata["source_weeks"].
    """
    if weeks < 2:
        raise ConfigError("pretraining window needs at least 2 weeks (train + val)")
    if weeks >= dataset.n_weeks:
        raise ConfigError(
            f"pretraining window of {weeks} weeks leaves no simulation weeks "
            f"out of {dataset.n_weeks}"
        )
    n_val = -(-weeks // 5)  # ceil(0.2 * weeks)
    n_train = weeks - n_val

    parent = dataset.metadata.get("source")

    def cut(lo: int, hi: int, name: str) -> Dataset:
        meta = {"split": name, "source_weeks": list(range(lo, hi)), "parent": parent}
        return Dataset(dataset.pools[lo:hi], meta)

    return (
        cut(0, n_train, "train"),
        cut(n_train, weeks, "validation"),
        cut(weeks, dataset.n_weeks, "simulation"),
    )


# topic 0 words, then topic 1 words, then topic-neutral filler
_WORDS = tuple(
    f"{prefix}{j:02d}"
    for prefix, n in (
        ("alpha", TOPIC_VOCAB),
        ("beta", TOPIC_VOCAB),
        ("plain", COMMON_VOCAB),
    )
    for j in range(n)
)


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
        with np.errstate(over="ignore"):  # a draw past the float range is inf, refused below
            views = np.floor(np.exp(VIEW_MU + VIEW_SIGMA * z1))
        if views.max() >= 2.0**63:
            raise ValueError(
                f"topic_effect {spec.topic_effect} is too large: week {t} draws "
                f"a view count >= 2**63, past int64"
            )
        views = views.astype(np.int64)
        u_g = np.exp(UG_MU + UG_SIGMA * z2)

        lengths = rng.integers(9, 15, size=q)
        total = int(lengths.sum())
        use_common = rng.random(total) < COMMON_TOKEN_P
        own_topic = rng.random(total) < TOPIC_PURITY
        topic_idx = rng.integers(0, TOPIC_VOCAB, size=total)
        common_idx = rng.integers(0, COMMON_VOCAB, size=total)

        # a token is filler, or from its question's own topic with
        # probability TOPIC_PURITY and from the other topic otherwise
        token_topic = np.repeat(topic, lengths)
        source = np.where(own_topic, token_topic, 1 - token_topic)
        word = np.where(
            use_common, 2 * TOPIC_VOCAB + common_idx, source * TOPIC_VOCAB + topic_idx
        )
        tokens = [_WORDS[w] for w in word.tolist()]

        titles, bodies = [], []
        cursor = 0
        for n_tok in lengths.tolist():
            titles.append(" ".join(tokens[cursor : cursor + 3]))
            bodies.append(" ".join(tokens[cursor + 3 : cursor + n_tok]))
            cursor += n_tok
        ids = [f"syn-{t:03d}-{i:04d}" for i in range(q)]
        columns = (("synthetic",) * q, titles, bodies, views.tolist(), u_g, set_utility(views))
        pools.append(RoundPool(ids, *columns))

    metadata = {
        "source": "synthetic",
        "generator": dataclasses.asdict(spec),
        "n_questions": spec.weeks * spec.questions_per_week,
        "n_weeks": spec.weeks,
        "domains": {"synthetic": spec.weeks * spec.questions_per_week},
    }
    return Dataset(pools=tuple(pools), metadata=metadata)


def write_jsonl(dataset: Dataset, path: str | Path) -> None:
    """Serialize a dataset to the documented JSONL schema, week by week.

    Each line is ``json.dumps(rec, sort_keys=True)`` of its record,
    formatted directly.  Week t maps to noon Monday of the t-th ISO week
    from a fixed epoch, so ingesting the file reproduces the same weekly
    pools.  Output is deterministic byte for byte: every pool already
    holds its view counts as exact ints and its texts as str.
    """
    with Path(path).open("w", encoding="ascii") as fh:
        for t, pool in enumerate(dataset.pools):
            stamp = _quote((_SYNTH_EPOCH + timedelta(weeks=t)).isoformat())
            scores = [  # NaN where the question has no forum_score
                f'"forum_score": {s!r}, ' if s == s else "" for s in pool.forum_score.tolist()
            ]
            fh.write("".join([
                f'{{"body": {_quote(body)}, "domain": {_quote(domain)}, {score}"id": '
                f'{_quote(qid)}, "timestamp": {stamp}, "title": {_quote(title)}, '
                f'"u_g": {u_g!r}, "view_count": {views}}}\n'
                for qid, domain, title, body, views, u_g, score in zip(
                    pool.ids, pool.domains, pool.titles, pool.bodies, pool.view_counts,
                    pool.u_g.tolist(), scores,
                )
            ]))
