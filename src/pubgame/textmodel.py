"""TF-IDF features and a multinomial Naive Bayes acceptance model.

The same stack serves two roles: the curator's publication scorer
(trained on weekly view-percentile labels) and the proposer's learned
acceptance predictor (trained on its own submit/publish history).

The stack reads tokenized documents: :func:`tokenize_rows` tokenizes
each text once into int32 token-id rows (:class:`TokenRows`) over an
append-only :class:`TokenTable`, and fitting, transforming and scoring
all work on those rows.  It works a slice of texts at a time, by one
byte translation and one split of the slice joined; a slice holds about
``_SLICE_CHARS`` characters, so token strings are held for one slice at
most.  :func:`tokenize` is its one-text case.  A game run keeps one
table, so a question it plays is tokenized once however often it is
scored or retrained on, and a featurizer maps each table entry to its
column once.  ``fit``, ``transform``, ``predict_proba`` and
``train_acceptance`` also take a list of texts, which they tokenize into
a new table on entry.

The recipe is fixed by the module constants ``MIN_TOKEN_LEN``, ``MIN_DF``
and ``ALPHA``.  :meth:`AcceptanceModel.to_payload` is a model as JSON
recording its format, version and recipe and, if trained, the vocabulary
in column order, the idf weights, the class log priors and the per-class
feature log-likelihoods.  ``simulate`` writes it as
``forum_scorer_model.json``, a record of the run; nothing reads it back.
"""

from __future__ import annotations

import math
import weakref
from itertools import islice, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

MODEL_FORMAT = "pubgame-acceptance-model"
MODEL_VERSION = 1

MIN_TOKEN_LEN = 2
MIN_DF = 2
ALPHA = 1.0

# every byte but [a-z0-9] to a space; a character of the lower-cased
# text outside ASCII is encoded as "?" first, so it separates tokens too
_SEPARATE = bytes(c if c in b"abcdefghijklmnopqrstuvwxyz0123456789" else 32 for c in range(256))
# a slice of texts is tokenized at once, by one join, encode, translate
# and split; it ends at the text that brings it to this many characters,
# so the token strings held at once do not grow with the texts' length
_SLICE_CHARS = 32768


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric runs of at least ``MIN_TOKEN_LEN`` chars."""
    rows = tokenize_rows([text])
    tokens = list(rows.table)
    return [tokens[i] for i in rows.ids.tolist()]


class TokenTable(dict):
    """Token -> id, the ids 0, 1, 2, ... in insertion order.  Looking up
    a token the table lacks appends it, so ids are never reassigned.
    ``columns`` holds each live featurizer's column of every entry."""

    def __init__(self):
        super().__init__()
        self.columns = weakref.WeakKeyDictionary()

    def __missing__(self, token: str) -> int:
        self[token] = index = len(self)
        return index


class TokenRows:
    """Tokenized documents over a shared :class:`TokenTable`: document r
    is the token ids ``ids[indptr[r]:indptr[r + 1]]`` (int32) in text
    order.  ``len()`` is the number of documents."""

    __slots__ = ("table", "indptr", "ids")

    def __init__(self, table: TokenTable, indptr: np.ndarray, ids: np.ndarray):
        self.table = table
        self.indptr = indptr
        self.ids = ids

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def take(self, rows: Sequence[int]) -> "TokenRows":
        """The documents at positions ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        # token j of output row r is ids[starts[r] + j]
        at = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return TokenRows(self.table, indptr, self.ids[at])

    def __add__(self, other: "TokenRows") -> "TokenRows":
        """These documents followed by ``other``'s."""
        if other.table is not self.table:
            raise ValueError("token rows over different tables cannot be joined")
        indptr = np.concatenate([self.indptr, other.indptr[1:] + self.indptr[-1]])
        return TokenRows(self.table, indptr, np.concatenate([self.ids, other.ids]))


def _lowered_slices(texts: Iterable[str]) -> Iterator[list[str]]:
    """The texts lower-cased, in slices of about ``_SLICE_CHARS``
    characters: each slice ends at the text that reaches that many."""
    lowered, size = [], 0
    for text in texts:
        text = text.lower()
        lowered.append(text)
        size += len(text)
        if size >= _SLICE_CHARS:
            yield lowered
            lowered, size = [], 0
    if lowered:
        yield lowered


def tokenize_rows(texts: Iterable[str], table: TokenTable | None = None) -> TokenRows:
    """Tokenize each text once into ``table`` (a new one if None),
    appending the tokens it lacks, a slice of texts at a time."""
    table = TokenTable() if table is None else table
    lookup = table.__getitem__
    counts = [np.zeros(1, dtype=np.int64)]
    ids = [np.zeros(0, dtype=np.int32)]
    for lowered in _lowered_slices(texts):
        # the slice joined by spaces, one byte per character, so text i
        # ends at ends[i] and no token spans two texts
        ends = np.cumsum(list(map(len, lowered))) + np.arange(len(lowered))
        joined = " ".join(lowered).encode("ascii", "replace").translate(_SEPARATE)
        # the [a-z0-9] runs start at the even edges and stop at the odd
        word = np.frombuffer(joined, dtype=np.uint8) != 32
        edges = np.flatnonzero(np.diff(word, prepend=False, append=False))
        starts, lengths = edges[0::2], edges[1::2] - edges[0::2]
        short = lengths < MIN_TOKEN_LEN
        if short.any():
            joined = bytearray(joined)
            view = np.frombuffer(joined, dtype=np.uint8)
            for j in range(MIN_TOKEN_LEN - 1):
                view[starts[short & (lengths > j)] + j] = 32
        tokens = joined.decode("ascii").split()
        # the tokens that start before a text's end are its and those before
        counts.append(np.diff(np.searchsorted(starts[~short], ends), prepend=0))
        ids.append(np.fromiter(map(lookup, tokens), dtype=np.int32, count=len(tokens)))
    # ids are taken in text order, and token strings are held for one slice
    return TokenRows(table, np.cumsum(np.concatenate(counts)), np.concatenate(ids))


def _as_rows(docs: TokenRows | Sequence[str]) -> TokenRows:
    """``docs`` as token rows: itself, or its texts tokenized."""
    return docs if isinstance(docs, TokenRows) else tokenize_rows(docs)


class CsrRows(NamedTuple):
    """Sparse rows in compressed form: row r holds the columns
    ``indices[indptr[r]:indptr[r + 1]]`` with weights ``data[...]``, in
    the order the tokens first appear in the document."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _row_sums(values: np.ndarray, indptr: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Per-row sums of ``values`` (shape (m, nnz)), each added left to
    right onto ``start`` (shape (m,)), giving shape (m, rows).

    The sums are the ones a Python loop over each row's terms gives, bit
    for bit.  A grid of up to 256 rows whose term counts lie in [2**(e-1),
    2**e) has a column per row: its start, its terms, then -0.0 (x + -0.0
    is x), reduced down the columns; it is at most about twice the terms.
    """
    nnz = np.diff(indptr)
    out = np.repeat(start[:, None], len(nnz), axis=1)
    group = np.frexp(nnz)[1] + 64 * (np.arange(len(nnz)) >> 8)
    for g in np.flatnonzero(np.bincount(group[nnz > 0])).tolist():
        rows = np.flatnonzero(group == g)
        # an empty last column keeps the rows NumPy's fast axis, so it adds
        # down each column in order (not pairwise), from -0.0, not 0.0
        lengths = np.append(nnz[rows], 0)
        j = np.arange(-1, lengths.max())[:, None]
        grid = values.take(np.append(indptr[rows], 0) + j, axis=1, mode="clip")
        grid[:, j >= lengths] = -0.0
        grid[:, 0] = start[:, None]
        out[:, rows] = np.add.reduce(grid, axis=1, initial=-0.0)[:, :-1]
    return out


def _first_occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``keys`` in order of first occurrence, with
    their counts.

    np.unique gives the same with more temporaries the size of ``keys``;
    here each is dropped as soon as it is used, since ``keys`` can hold
    every token of a retrain's whole history.
    """
    perm = np.argsort(keys)
    ordered = keys[perm]
    head = np.ones(len(keys), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    del ordered
    starts = np.flatnonzero(head)
    # a value's first occurrence is the least position in its run; each
    # run's count is put there, then read in position order
    first = np.minimum.reduceat(perm, starts)
    del perm, head
    runs = np.diff(starts, append=len(keys))
    del starts
    counts = np.zeros(len(keys), dtype=np.int64)
    counts[first] = runs
    del first, runs
    first = counts > 0
    return keys[first], counts[first]


class TextFeaturizer:
    """Maps tokenized documents to L2-normalized tf-idf weight vectors.

    idf(t) = ln((1 + N) / (1 + df_t)) + 1 over the fitted corpus; the
    vocabulary is sorted alphabetically so indices are reproducible.
    Transforms are returned as :class:`CsrRows`, one row per document.
    """

    def __init__(self, vocabulary: dict[str, int], idf: np.ndarray):
        self.vocabulary = vocabulary
        self.idf = idf

    @classmethod
    def fit(cls, corpus: TokenRows | Sequence[str]) -> "TextFeaturizer":
        rows = _as_rows(corpus)
        t = max(len(rows.table), 1)
        # one key per (document, token id); sorted in place, the distinct
        # keys are the heads of runs of equal keys
        keys = np.repeat(np.arange(len(rows), dtype=np.int64) * t, np.diff(rows.indptr))
        keys += rows.ids
        keys.sort()
        head = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        df = np.bincount(keys[head] % t, minlength=t).tolist()
        del keys, head
        # table order is id order; tokens are distinct, so no count is compared
        kept = sorted((tok, c) for tok, c in zip(rows.table, df) if c >= MIN_DF)
        vocabulary = {tok: i for i, (tok, _) in enumerate(kept)}
        n = len(rows)
        idf = np.array([math.log((1 + n) / (1 + c)) + 1.0 for _, c in kept], dtype=np.float64)
        return cls(vocabulary, idf)

    @property
    def size(self) -> int:
        return len(self.vocabulary)

    def transform(self, docs: TokenRows | Sequence[str]) -> CsrRows:
        rows = _as_rows(docs)
        # each table entry's column, -1 outside the vocabulary; a table only
        # grows, so its map for this featurizer is extended, never rebuilt
        columns = rows.table.columns.get(self, np.empty(0, np.int32))
        if len(columns) < len(rows.table):
            added = islice(rows.table, len(columns), None)
            added = np.fromiter(map(self.vocabulary.get, added, repeat(-1)), np.int32)
            columns = rows.table.columns[self] = np.concatenate([columns, added])
        flat = columns[rows.ids]
        # one key per (row, column) token, in document order; an empty
        # vocabulary keeps no token, and v = 1 keeps the arithmetic defined
        v = max(self.size, 1)
        known = flat >= 0
        keys = np.repeat(np.arange(len(rows), dtype=np.int64), np.diff(rows.indptr))
        keys = keys[known] * v
        keys += flat[known]
        del flat, known
        # in order of first occurrence, the distinct keys run by row, then
        # by first appearance in the document
        keys, counts = _first_occurrences(keys)
        indices = keys % v
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // v, minlength=len(rows)), out=indptr[1:])
        del keys
        data = counts * self.idf[indices]
        norms = np.sqrt(_row_sums((data * data)[None, :], indptr, np.zeros(1))[0])
        # every stored weight is >= 1, so a row with terms has a norm > 0
        data /= np.repeat(norms, np.diff(indptr))
        return CsrRows(indptr, indices, data)

    def to_payload(self) -> dict:
        tokens = sorted(self.vocabulary, key=self.vocabulary.get)
        return {
            "vocabulary": tokens,
            "idf": [float(v) for v in self.idf],
            "min_df": MIN_DF,
            "min_token_len": MIN_TOKEN_LEN,
        }


class AcceptanceModel:
    """Two-class multinomial Naive Bayes over tf-idf weights.

    tf-idf weights act as fractional counts with Laplace smoothing
    ``ALPHA``.  An untrained model predicts probability 1 for every
    input, which makes utility-weighted ranking collapse to plain
    utility ranking.
    """

    def __init__(
        self,
        featurizer: TextFeaturizer | None = None,
        class_log_prior: np.ndarray | None = None,
        feature_log_lik: np.ndarray | None = None,
    ):
        self.featurizer = featurizer
        self.class_log_prior = class_log_prior
        self.feature_log_lik = feature_log_lik

    @property
    def trained(self) -> bool:
        return self.feature_log_lik is not None

    def predict_proba(self, docs: TokenRows | Sequence[str]) -> np.ndarray:
        """P(label == 1) per document; all ones when untrained."""
        if not self.trained:
            return np.ones(len(docs), dtype=np.float64)
        assert self.featurizer is not None
        indptr, indices, data = self.featurizer.transform(docs)
        s0, s1 = _row_sums(data * self.feature_log_lik[:, indices], indptr, self.class_log_prior)
        # math.exp, not np.exp, whose last bit can differ
        return np.array(
            [1.0 / (1.0 + math.exp(d)) for d in (s0 - s1).tolist()], dtype=np.float64
        )

    def to_payload(self) -> dict:
        payload = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "trained": self.trained,
            "alpha": ALPHA,
        }
        if self.trained:
            payload["featurizer"] = self.featurizer.to_payload()
            payload["class_log_prior"] = [float(v) for v in self.class_log_prior]
            payload["feature_log_lik"] = [
                [float(v) for v in row] for row in self.feature_log_lik
            ]
        return payload


def train_acceptance(
    history: TokenRows | Sequence[str], accepted: Sequence[bool | int]
) -> AcceptanceModel:
    """Fit the acceptance model on documents and whether each was accepted.

    ``history`` is token rows or texts; texts are tokenized once, for
    both the fit and the transform.  Degenerate histories (empty,
    single-class, or an empty surviving vocabulary) yield an untrained
    model.  A history that only grows, as a run's does, never turns
    degenerate again: once it holds both labels and a token in two
    documents, so does every longer history.
    """
    if len(accepted) != len(history):
        raise ValueError(
            f"{len(history)} documents but {len(accepted)} acceptance labels"
        )
    labels = [1 if a else 0 for a in accepted]
    if not history or len(set(labels)) < 2:
        return AcceptanceModel()
    rows = _as_rows(history)
    featurizer = TextFeaturizer.fit(rows)
    if featurizer.size == 0:
        return AcceptanceModel()

    v = featurizer.size
    indptr, indices, data = featurizer.transform(rows)
    row_labels = np.repeat(np.array(labels, dtype=np.int64), np.diff(indptr))
    # bincount adds the weights in document order, as a per-document loop does
    counts = np.bincount(
        row_labels * v + indices, weights=data, minlength=2 * v
    ).reshape(2, v)
    n_class = [labels.count(0), labels.count(1)]
    totals = counts.sum(axis=1)
    feature_log_lik = np.log((ALPHA + counts) / (ALPHA * v + totals)[:, None])
    class_log_prior = np.log(np.array(n_class, dtype=np.float64) / len(labels))
    return AcceptanceModel(featurizer, class_log_prior, feature_log_lik)
