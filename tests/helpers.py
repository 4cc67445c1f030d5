"""Small builders and reference implementations shared across test modules."""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
import re
from datetime import datetime
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator

import numpy as np

from pubgame import OracleResult, Question, RoundPool, set_utility
from pubgame.errors import ConfigError, SchemaError
from pubgame import data
from pubgame.strategies import CalibrationResult
from pubgame.textmodel import (
    ALPHA,
    MIN_DF,
    MIN_TOKEN_LEN,
    TextFeaturizer,
    TokenRows,
    TokenTable,
    tokenize_rows,
)


def mk_q(i, *, views=10, u_g=1.0, title=None, body="body text", u_f_norm=None, **kw):
    """A question row; ``u_f_norm`` defaults to that of a question alone
    in its week."""
    return Question(
        id=f"q{i}",
        domain=kw.pop("domain", "dom"),
        title=title if title is not None else f"title {i}",
        body=body,
        view_count=views,
        u_g=u_g,
        u_f_norm=set_utility([views]).tolist()[0] if u_f_norm is None else u_f_norm,
        **kw,
    )


def mk_week(specs):
    """A week pool of ``mk_q(i, **kw)`` questions from (i, kw) pairs, each
    given its curator utility within the week."""
    views = [kw.get("views", 10) for _, kw in specs]
    qs = tuple(
        mk_q(i, **kw, u_f_norm=u_f)
        for (i, kw), u_f in zip(specs, set_utility(views).tolist())
    )
    return RoundPool(questions=qs)


def rows_of(pool, positions=None):
    """The texts of the pool's questions at ``positions`` (all by
    default) tokenized into a new table, as the text scorers read them."""
    return tokenize_rows(pool.texts(positions))


def texts_labels(history):
    """(texts, labels) of (text, label) pairs, as ``train_acceptance``
    takes them."""
    return [text for text, _ in history], [label for _, label in history]


def count_tokenize(monkeypatch):
    """The texts passed to ``tokenize_rows`` from now on, in order, as a
    list that grows with each call.  It is counted where ``engine``,
    ``strategies`` and ``textmodel`` call it."""
    from pubgame import engine, strategies, textmodel

    calls = []
    tokenize_rows = textmodel.tokenize_rows

    def counting(texts, table=None):
        texts = list(texts)
        calls.extend(texts)
        return tokenize_rows(texts, table)

    for module in (engine, strategies, textmodel):
        monkeypatch.setattr(module, "tokenize_rows", counting)
    return calls


def count_utility_rounds(monkeypatch):
    """Per call of the engine's utility strategy from now on, whether the
    acceptance model it ranks with is trained, as a list that grows with
    each call."""
    from pubgame import engine

    calls = []
    strategy = engine.strategy_g_utility

    def counting(pool, m_cap, model, rows):
        calls.append(model.trained)
        return strategy(pool, m_cap, model, rows)

    monkeypatch.setattr(engine, "strategy_g_utility", counting)
    return calls


def mk_pool(week, specs):
    """A week pool from (views, u_g) pairs, its ids prefixed with ``week``."""
    return mk_week([(f"{week}-{i}", {"views": v, "u_g": g}) for i, (v, g) in enumerate(specs)])


# ---------------------------------------------------------------- references
# Per-document loops of the text layer and the quadratic threshold sweep,
# kept as the definition the vectorized code must reproduce bit for bit.


def ref_tokenize(text):
    tokens = re.findall(r"[a-z0-9]+", text.lower())
    return [t for t in tokens if len(t) >= MIN_TOKEN_LEN]


def ref_tokenize_rows(texts, table=None):
    """``tokenize_rows`` one text at a time, appending each text's tokens
    to ``table`` (a new one if None) in text order."""
    table = TokenTable() if table is None else table
    lookup = table.__getitem__
    lengths = [0]
    ids = []
    for text in texts:
        tokens = ref_tokenize(text)
        lengths.append(len(tokens))
        ids += map(lookup, tokens)
    return TokenRows(table, np.cumsum(lengths), np.array(ids, dtype=np.int32))


def ref_fit(corpus):
    """(vocabulary, idf) of ``TextFeaturizer.fit``, one dict update per token."""
    df = {}
    for doc in corpus:
        for token in set(ref_tokenize(doc)):
            df[token] = df.get(token, 0) + 1
    kept = sorted(t for t, c in df.items() if c >= MIN_DF)
    n = len(corpus)
    idf = np.array([math.log((1 + n) / (1 + df[t])) + 1.0 for t in kept], dtype=np.float64)
    return {t: i for i, t in enumerate(kept)}, idf


def ref_transform(featurizer, texts):
    """One {column: weight} dict per text, columns in first-appearance order."""
    out = []
    for text in texts:
        counts = {}
        for token in ref_tokenize(text):
            idx = featurizer.vocabulary.get(token)
            if idx is not None:
                counts[idx] = counts.get(idx, 0) + 1
        weights = {i: c * featurizer.idf[i] for i, c in counts.items()}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        if norm > 0:
            weights = {i: w / norm for i, w in weights.items()}
        out.append(weights)
    return out


def rows_as_dicts(rows):
    """``CsrRows`` as ``ref_transform``'s dicts, in the same column order."""
    indptr, indices, data = rows
    return [
        dict(zip(indices[a:b].tolist(), data[a:b].tolist()))
        for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())
    ]


def ref_predict_proba(model, texts):
    if not model.trained:
        return np.ones(len(texts), dtype=np.float64)
    out = np.empty(len(texts), dtype=np.float64)
    fll = model.feature_log_lik
    for d, weights in enumerate(ref_transform(model.featurizer, texts)):
        s0 = model.class_log_prior[0]
        s1 = model.class_log_prior[1]
        for i, w in weights.items():
            s0 += w * fll[0, i]
            s1 += w * fll[1, i]
        out[d] = 1.0 / (1.0 + math.exp(s0 - s1))
    return out


def ref_train_acceptance(history):
    """(class_log_prior, feature_log_lik) of ``train_acceptance`` over the
    reference featurizer, or None where it yields an untrained model."""
    texts = [getattr(q, "text", q) for q, _ in history]
    labels = [1 if accepted else 0 for _, accepted in history]
    if not history or len(set(labels)) < 2:
        return None
    vocabulary, idf = ref_fit(texts)
    if not vocabulary:
        return None
    featurizer = TextFeaturizer(vocabulary, idf)
    v = len(vocabulary)
    counts = np.zeros((2, v), dtype=np.float64)
    n_class = [0, 0]
    for weights, label in zip(ref_transform(featurizer, texts), labels):
        n_class[label] += 1
        row = counts[label]
        for i, w in weights.items():
            row[i] += w
    totals = counts.sum(axis=1)
    feature_log_lik = np.log((ALPHA + counts) / (ALPHA * v + totals)[:, None])
    class_log_prior = np.log(np.array(n_class, dtype=np.float64) / len(labels))
    return class_log_prior, feature_log_lik


def ref_calibrate_theta(scored):
    """``calibrate_theta`` by rescanning every score for each candidate θ."""
    n_pos = sum(1 for _, label in scored if label == 1)
    n_neg = sum(1 for _, label in scored if label == 0)
    best = None
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
    return CalibrationResult(
        theta=best[1],
        precision=best[2],
        recall=best[3],
        low_confidence=min(n_pos, n_neg) < 2,
    )


# ---------------------------------------------------------------- oracle
# The enumeration oracle as tuples from itertools.combinations, every
# subset scored: NumPy sums added left to right from zero while int64 or
# float64 holds the values, a Python loop over big integers past that.
# The pruned block enumerator must pick the same subset and value.


def ref_oracle_exact(instance):
    fs, gs, k = instance.fs, instance.gs, instance.k
    if all(isinstance(v, (int, Fraction)) for v in fs + gs):
        scale_f = math.lcm(*(Fraction(v).denominator for v in fs))
        scale_g = math.lcm(*(Fraction(v).denominator for v in gs))
        sf = [int(v * scale_f) for v in fs]
        sg = [int(v * scale_g) for v in gs]
        if sum(sorted(sf)[-k:]) * sum(sorted(sg)[-k:]) < 2**62:
            combo, val = _ref_enumerate_numpy(np.array(sf, dtype=np.int64), np.array(sg, dtype=np.int64), k)
            val = int(val)
        else:
            combo, val = _ref_enumerate_objects(sf, sg, k)
        if scale_f * scale_g != 1:
            val = Fraction(val, scale_f * scale_g)
        return OracleResult(combo, val)
    combo, val = _ref_enumerate_numpy(np.asarray(fs, dtype=np.float64), np.asarray(gs, dtype=np.float64), k)
    return OracleResult(combo, float(val))


def _ref_enumerate_numpy(fs, gs, k):
    combos = np.array(list(itertools.combinations(range(len(fs)), k)), dtype=np.intp)
    f_sums, g_sums = np.zeros(len(combos), fs.dtype), np.zeros(len(combos), gs.dtype)
    for column in combos.T:  # each subset's values added left to right from zero
        f_sums, g_sums = f_sums + fs[column], g_sums + gs[column]
    products = f_sums * g_sums
    i = int(np.argmax(products))
    return tuple(int(j) for j in combos[i]), products[i]


def _ref_enumerate_objects(fs, gs, k):
    best = None
    for combo in itertools.combinations(range(len(fs)), k):
        v = sum(fs[i] for i in combo) * sum(gs[i] for i in combo)
        if best is None or v > best[1]:
            best = (combo, v)
    return best


# The DP oracle as a dict over (size, f-sum) states, rebuilt item by
# item, with g added in Python arithmetic.  The table oracle must pick
# the same indices and, where the g column needs no conversion (all
# ints, all Fractions or all floats), the same value bit for bit.


def ref_oracle_dp(instance):
    fs, gs, k = instance.fs, instance.gs, instance.k
    for i, f in enumerate(fs):
        if not isinstance(f, int):
            raise ValueError(f"item {i}: DP oracle needs integer f values, got {f!r}")

    base = {(0, 0): 0}
    layers: list[dict[tuple[int, int], float]] = []
    dp = base
    for f, g in instance.items:
        new = dict(dp)
        for (size, f_sum), g_best in dp.items():
            if size == k:
                continue
            key = (size + 1, f_sum + f)
            cand = g_best + g
            cur = new.get(key)
            if cur is None or cand > cur:
                new[key] = cand
        layers.append(new)
        dp = new

    best_val = None
    best_state = None
    for (size, f_sum), g_best in dp.items():
        if size != k:
            continue
        v = f_sum * g_best
        if best_val is None or v > best_val or (v == best_val and f_sum < best_state[1]):
            best_val = v
            best_state = (size, f_sum, g_best)
    assert best_state is not None

    # walk back, preferring to skip late items so early indices stay chosen
    chosen: list[int] = []
    size, f_sum, g_best = best_state
    for i in reversed(range(instance.n)):
        prev = layers[i - 1] if i > 0 else base
        if prev.get((size, f_sum)) == g_best:
            continue
        chosen.append(i)
        size, f_sum = size - 1, f_sum - fs[i]
        # read the g-sum from the layer before: with float g, g_best - g
        # need not undo the addition that reached g_best
        g_best = prev[(size, f_sum)]
    assert (size, f_sum) == (0, 0)
    return OracleResult(tuple(reversed(chosen)), best_val)


# The synthetic generator with one Python step per token: the same RNG
# draws in the same order, each token looked up in its topic's word list.


def _ref_first_argmax(scores, taken):
    """The first index of the largest score outside ``taken``."""
    best = None
    for i, score in enumerate(scores):
        if i not in taken and (best is None or score > scores[best]):
            best = i
    return best


def ref_heuristic_mpp(fs, gs, k):
    """Alternating turns, f first: each side takes its largest untaken
    value."""
    taken = []
    for turn in range(k):
        taken.append(_ref_first_argmax(gs if turn % 2 else fs, taken))
    return tuple(sorted(taken))


def ref_heuristic_maxsp(fs, gs, k):
    """k turns, each taking the largest untaken product f * g."""
    products = [f * g for f, g in zip(fs, gs)]
    taken = []
    for _ in range(k):
        taken.append(_ref_first_argmax(products, taken))
    return tuple(sorted(taken))


def ref_heuristic_greedy_np(fs, gs, k):
    """k turns, each taking the untaken item with the largest product of
    sums after it is added; sums run left to right from 0.0."""
    taken = []
    f_sum = g_sum = 0.0
    for _ in range(k):
        i = _ref_first_argmax([(f_sum + f) * (g_sum + g) for f, g in zip(fs, gs)], taken)
        taken.append(i)
        f_sum += fs[i]
        g_sum += gs[i]
    return tuple(sorted(taken))


def ref_generate_synthetic(spec):
    """Pools of ``generate_synthetic(spec)``."""
    r = 2.0 * math.sin(math.pi * spec.utility_correlation / 6.0)
    d = spec.topic_effect / 2.0
    r_latent = r * math.sqrt(1.0 + d * d)
    if abs(r_latent) > 1.0:
        raise ValueError("utility_correlation unreachable with this topic_effect")
    vocab = {
        0: [f"alpha{j:02d}" for j in range(data.TOPIC_VOCAB)],
        1: [f"beta{j:02d}" for j in range(data.TOPIC_VOCAB)],
        "common": [f"plain{j:02d}" for j in range(data.COMMON_VOCAB)],
    }
    rng = np.random.default_rng(spec.seed)
    residual = math.sqrt(1.0 - r_latent * r_latent)
    pools = []
    for t in range(spec.weeks):
        q = spec.questions_per_week
        topic = rng.integers(0, 2, size=q)
        z1 = rng.standard_normal(q)
        z2 = r_latent * z1 + residual * rng.standard_normal(q)
        z1 = z1 + d * (2 * topic - 1)
        views = np.floor(np.exp(data.VIEW_MU + data.VIEW_SIGMA * z1)).astype(np.int64)
        u_g = np.exp(data.UG_MU + data.UG_SIGMA * z2)
        lengths = rng.integers(9, 15, size=q)
        total = int(lengths.sum())
        use_common = rng.random(total) < data.COMMON_TOKEN_P
        own_topic = rng.random(total) < data.TOPIC_PURITY
        topic_idx = rng.integers(0, data.TOPIC_VOCAB, size=total)
        common_idx = rng.integers(0, data.COMMON_VOCAB, size=total)
        u_f = set_utility(views).tolist()
        questions = []
        cursor = 0
        for i in range(q):
            n_tok = int(lengths[i])
            tokens = []
            for j in range(cursor, cursor + n_tok):
                if use_common[j]:
                    tokens.append(vocab["common"][common_idx[j]])
                else:
                    src = topic[i] if own_topic[j] else 1 - topic[i]
                    tokens.append(vocab[int(src)][topic_idx[j]])
            cursor += n_tok
            questions.append(
                Question(
                    id=f"syn-{t:03d}-{i:04d}",
                    domain="synthetic",
                    title=" ".join(tokens[:3]),
                    body=" ".join(tokens[3:]),
                    view_count=int(views[i]),
                    u_g=float(u_g[i]),
                    u_f_norm=u_f[i],
                )
            )
        pools.append(RoundPool(questions=tuple(questions)))
    return tuple(pools)


# The dataset reader with one helper call per check and each record's
# location built before it is checked.


def _ref_echo(value) -> str:
    """A value as a message names it: its repr, or past 40 characters
    the first 40 and the full length."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + f"... ({len(text)} characters)"


def _ref_parse_timestamp(raw: str, where: str) -> datetime:
    try:
        return datetime.fromisoformat(raw)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: bad timestamp {_ref_echo(raw)}; expected ISO-8601")


def _ref_finite(raw, name: str, where: str) -> float:
    try:
        # float(True) is 1.0: a JSON boolean is not a number here
        if isinstance(raw, bool):
            raise TypeError
        value = float(raw)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: {name} {_ref_echo(raw)} is not a number")
    if not math.isfinite(value):
        raise SchemaError(f"{where}: {name} {_ref_echo(raw)} is not a finite number")
    return value


def _ref_read_record(rec: dict, where: str) -> tuple[datetime, tuple]:
    """One record's timestamp and checked fields, in the order of
    :class:`Question`'s less ``u_f_norm``, which needs the whole week;
    SchemaError names ``where``."""
    for name in data.REQUIRED_FIELDS:
        if name not in rec or rec[name] is None or rec[name] == "":
            if name == "u_g":
                raise SchemaError(
                    f"{where}: missing proposer utility 'u_g'; supply the "
                    f"column or map one via the run configuration before "
                    f"ingesting"
                )
            raise SchemaError(f"{where}: missing required field {name!r}")
    timestamp = _ref_parse_timestamp(str(rec["timestamp"]), where)
    views = rec["view_count"]
    try:
        if isinstance(views, bool) or (
            isinstance(views, float) and not views.is_integer()
        ):
            raise ValueError
        if isinstance(views, str) and not re.fullmatch("[0-9]+", views):
            raise ValueError
        view_count = int(views)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: view_count {_ref_echo(views)} is not an integer")
    if view_count < 0:
        raise SchemaError(f"{where}: view_count must be >= 0")
    u_g = _ref_finite(rec["u_g"], "u_g", where)
    if u_g < 0:
        raise SchemaError(f"{where}: u_g must be >= 0")
    score = rec.get("forum_score")
    if score is None or score == "":
        forum_score = None
    else:
        forum_score = _ref_finite(score, "forum_score", where)
    return timestamp, (
        str(rec["id"]),
        str(rec["domain"]),
        str(rec["title"]),
        str(rec["body"]),
        view_count,
        u_g,
        forum_score,
    )


def _ref_read_jsonl(path: Path) -> Iterator[tuple[str, dict]]:
    with path.open(encoding="utf-8") as fh:
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


def _ref_read_csv(path: Path) -> Iterator[tuple[str, dict]]:
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path.name}: empty file")
        missing = [f for f in data.REQUIRED_FIELDS if f not in reader.fieldnames]
        if missing:
            if "u_g" in missing:
                raise SchemaError(
                    f"{path.name}: missing proposer utility column 'u_g'; "
                    f"supply the column or map one via the run configuration"
                )
            raise SchemaError(f"{path.name}: missing columns {missing}")
        for lineno, row in enumerate(reader, start=2):
            yield f"{path.name} line {lineno}", row


def ref_ingest(path: str | Path, fmt: str | None = None) -> tuple[list, dict]:
    """``data.ingest`` as it read records one helper call per check,
    building each record's location before checking it: the definition
    the record reader must reproduce, pools, metadata and SchemaError
    messages alike.  Files are read as UTF-8.  The pools come back as
    one list per week of row tuples, in the field order of
    ``pubgame.Question``, with each ``u_f_norm`` the view count over the
    week's largest as Python divides them.

    The format is inferred from the suffix unless given.  Duplicate
    ids, missing fields, and malformed values raise SchemaError with
    the offending line.  Each week's questions are built once the file
    is read, with their curator utilities set.
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
        rows = _ref_read_jsonl(path)
    elif fmt == "csv":
        rows = _ref_read_csv(path)
    else:
        raise ConfigError(f"unknown dataset format {fmt!r}; expected jsonl or csv")

    by_week: dict[tuple[int, int], list[tuple]] = {}
    domains: dict[str, int] = {}
    seen: set[str] = set()
    for where, row in rows:
        stamp, fields = _ref_read_record(row, where)
        qid, domain = fields[:2]
        if qid in seen:
            raise SchemaError(f"duplicate question id {_ref_echo(qid)}")
        # naive and offset-aware datetimes do not compare, so one file
        # holds one kind
        aware = stamp.utcoffset() is not None
        if not seen:
            first_where, first_aware, first, last = where, aware, stamp, stamp
        elif aware != first_aware:
            kinds = ("naive", "offset-aware")
            raise SchemaError(
                f"{where}: timestamp is {kinds[aware]} but {first_where}'s is "
                f"{kinds[first_aware]}; use one timestamp kind per file"
            )
        seen.add(qid)
        # min and max keep the earliest-read of equal instants
        first, last = min(first, stamp), max(last, stamp)
        by_week.setdefault(stamp.isocalendar()[:2], []).append(fields)
        domains[domain] = domains.get(domain, 0) + 1
    if not seen:
        raise SchemaError(f"{path.name}: no records")

    week_keys = sorted(by_week)
    pools = []
    for key in week_keys:
        rows = by_week.pop(key)
        top = float(max(row[4] for row in rows))
        pools.append([(*row[:6], row[4] / top if top > 0 else 0.0, row[6]) for row in rows])
    metadata = {
        "source": str(path),
        "format": fmt,
        "n_questions": len(seen),
        "n_weeks": len(pools),
        "domains": domains,
        "span": [first.isoformat(), last.isoformat()],
        "iso_weeks": [list(k) for k in week_keys],
    }
    return pools, metadata


# ---------------------------------------------------------------- game
# The two round loops with one Python step per question.  They read a
# pool only through its ``questions`` rows, rank by sorting positions on
# the negated key (a stable sort, so ties keep pool order), and add every
# sum left to right from 0.0.  Nothing in pubgame.strategies or
# pubgame.engine is called: the text model is the reference one above.


def _ref_text(q):
    return f"{q.title} {q.body}"


def _ref_model(texts, accepted):
    """The acceptance model over (texts, accepted) as ``ref_predict_proba``
    reads it, or None where training collapses."""
    fitted = ref_train_acceptance(list(zip(texts, accepted)))
    if fitted is None:
        return None
    vocabulary, idf = ref_fit(texts)
    return SimpleNamespace(
        trained=True,
        featurizer=SimpleNamespace(vocabulary=vocabulary, idf=idf),
        class_log_prior=fitted[0],
        feature_log_lik=fitted[1],
    )


def _ref_ledger(rounds):
    """Ledger fields of (week, proposed ids, published ids, u_g, u_f) rounds."""
    cum_g, cum_f = [], []
    total_g = total_f = 0.0
    for _, _, _, u_g, u_f in rounds:
        total_g += u_g
        total_f += u_f
        cum_g.append(total_g)
        cum_f.append(total_f)
    return {
        "weeks": tuple(r[0] for r in rounds),
        "proposed_counts": tuple(len(r[1]) for r in rounds),
        "published_counts": tuple(len(r[2]) for r in rounds),
        "u_g": tuple(r[3] for r in rounds),
        "u_f": tuple(r[4] for r in rounds),
        "cum_u_g": tuple(cum_g),
        "cum_u_f": tuple(cum_f),
        "outcomes": tuple(rounds),
    }


def _ref_published(questions):
    """Realized (u_g, u_f) of published questions, added from 0.0."""
    u_g = u_f = 0.0
    for q in questions:
        u_g += q.u_g
        u_f += q.u_f_norm
    return u_g, u_f


def ref_run_asymmetric(dataset, config, scorer):
    """Ledger fields of ``run_asymmetric(dataset, config, scorer)``.

    The proposer ranks the pool by u_g, times the predicted acceptance
    when it learns; a random proposer draws from the same stream.  The
    curator publishes the k best-scoring proposals at or above theta.  A
    learning proposer retrains on its whole history every
    ``retrain_period`` rounds and keeps the previous model when the
    retrain collapses.
    """
    rng = random.Random(f"{config.seed}:proposer")
    learning = config.strategy_g == "utility"
    model = SimpleNamespace(trained=False)
    texts, accepted, rounds = [], [], []
    for t, pool in enumerate(dataset.pools[: config.rounds]):
        if learning and t > 0 and t % config.retrain_period == 0:
            retrained = _ref_model(texts, accepted)
            if retrained is not None:
                model = retrained
        qs = pool.questions
        n = len(qs)
        if config.strategy_g == "random":
            chosen = sorted(rng.sample(range(n), min(config.m_cap, n)))
        else:
            key = [q.u_g for q in qs]
            if learning:
                p = ref_predict_proba(model, [_ref_text(q) for q in qs])
                key = [u * float(pi) for u, pi in zip(key, p)]
            chosen = sorted(range(n), key=lambda i: -key[i])[: config.m_cap]
        proposal = [qs[i] for i in chosen]
        if scorer.model is None:
            scores = [q.forum_score for q in proposal]
        else:
            scores = ref_predict_proba(scorer.model, [_ref_text(q) for q in proposal]).tolist()
        eligible = [j for j in range(len(proposal)) if scores[j] >= scorer.theta]
        published = sorted(eligible, key=lambda j: -scores[j])[: config.k_cap]
        rounds.append(
            (
                t,
                tuple(q.id for q in proposal),
                tuple(proposal[j].id for j in published),
                *_ref_published(proposal[j] for j in published),
            )
        )
        if learning:
            texts.extend(_ref_text(q) for q in proposal)
            accepted.extend(j in published for j in range(len(proposal)))
    return _ref_ledger(rounds)


def ref_run_full_information(dataset, heuristic, k, seed=0, rounds=None):
    """Ledger fields of ``run_full_information``: each week the rule picks
    min(k, pool size) positions from the rows' u_g and u_f_norm, and the
    picks, in pool order, are both proposed and published."""
    rules = {
        "mpp": ref_heuristic_mpp,
        "maxsp": ref_heuristic_maxsp,
        "greedy_np": ref_heuristic_greedy_np,
    }
    out = []
    for t, pool in enumerate(dataset.pools[:rounds]):
        qs = pool.questions
        n = min(k, len(qs))
        if heuristic == "random":
            chosen = sorted(random.Random(f"{seed}-{t}").sample(range(len(qs)), n))
        else:
            chosen = rules[heuristic]([q.u_g for q in qs], [q.u_f_norm for q in qs], n)
        ids = tuple(qs[i].id for i in chosen)
        out.append((t, ids, ids, *_ref_published(qs[i] for i in chosen)))
    return _ref_ledger(out)
