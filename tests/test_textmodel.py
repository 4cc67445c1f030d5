import gc
import json
import math
import random
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pubgame import (
    AcceptanceModel,
    TextFeaturizer,
    TokenTable,
    tokenize,
    tokenize_rows,
    train_acceptance,
)
from pubgame import textmodel
from pubgame.cli import _write_json
from pubgame.textmodel import MODEL_FORMAT, MODEL_VERSION

from helpers import (
    ref_fit,
    ref_predict_proba,
    ref_tokenize,
    ref_tokenize_rows,
    ref_train_acceptance,
    ref_transform,
    rows_as_dicts,
    texts_labels,
)

# every token in two documents, so the vocabulary keeps them all
CORPUS = ["aa bb", "aa bb cc", "aa cc"]
HISTORY = [
    ("great question", True),
    ("bad question", False),
    ("great spam", True),
    ("bad spam", False),
    ("great stuff", True),
]


def test_tokenize_lowercases_and_filters():
    assert tokenize("Sort a List, fast!") == ["sort", "list", "fast"]
    assert tokenize("I am OK") == ["am", "ok"]
    assert tokenize("x2 y") == ["x2"]
    assert tokenize("") == []


def test_featurizer_idf_known_values():
    feat = TextFeaturizer.fit(CORPUS)
    assert list(feat.vocabulary) == ["aa", "bb", "cc"]
    assert feat.idf[0] == 1.0
    assert feat.idf[1] == pytest.approx(math.log(4 / 3) + 1, abs=1e-15)
    assert feat.idf[1] == pytest.approx(1.2876820724517808, abs=1e-15)


def test_featurizer_everywhere_token_has_unit_idf():
    feat = TextFeaturizer.fit(["xx common", "yy common", "xx yy common"])
    assert feat.idf[feat.vocabulary["common"]] == 1.0
    assert all(v >= 1.0 for v in feat.idf)


def test_featurizer_min_df_drops_rare_tokens():
    feat = TextFeaturizer.fit(["aa bb", "aa cc"])
    assert list(feat.vocabulary) == ["aa"]


def test_transform_is_l2_normalized_and_sparse():
    feat = TextFeaturizer.fit(CORPUS)
    (weights,) = rows_as_dicts(feat.transform(["aa bb bb unknown"]))
    norm = math.sqrt(sum(w * w for w in weights.values()))
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert set(weights) == {0, 1}
    assert weights[1] > weights[0]


def test_transform_empty_document():
    feat = TextFeaturizer.fit(CORPUS)
    (weights,) = rows_as_dicts(feat.transform(["zzz unseen"]))
    assert weights == {}


def test_untrained_model_predicts_ones():
    model = AcceptanceModel()
    assert not model.trained
    probs = model.predict_proba(["anything", "at all"])
    assert list(probs) == [1.0, 1.0]


def test_nb_hand_example():
    model = train_acceptance(*texts_labels(HISTORY))
    assert model.trained
    (p,) = model.predict_proba(["great"])
    assert p > 0.5
    assert p == pytest.approx(0.8111351630357269, abs=1e-12)


def test_nb_class_probabilities_sum_to_one():
    model = train_acceptance(*texts_labels(HISTORY))
    rng = random.Random(0)
    vocab = ["great", "question", "bad", "spam", "stuff", "zzz"]
    for _ in range(20):
        doc = " ".join(rng.choices(vocab, k=rng.randint(0, 6)))
        (p,) = model.predict_proba([doc])
        assert 0.0 < p < 1.0


def test_train_acceptance_takes_rows_or_texts():
    texts, labels = texts_labels(HISTORY)
    by_text = train_acceptance(texts, labels)
    by_rows = train_acceptance(tokenize_rows(texts), labels)
    assert by_rows.predict_proba(["great"]) == by_text.predict_proba(["great"])
    with pytest.raises(ValueError, match="5 documents but 4 acceptance labels"):
        train_acceptance(texts, labels[:4])


def test_degenerate_histories_yield_untrained_models():
    assert not train_acceptance([], []).trained
    assert not train_acceptance(tokenize_rows([]), []).trained
    assert not train_acceptance(["only one class"] * 4, [True] * 4).trained
    # tokens all filtered out by the document frequency, then by length
    assert not train_acceptance(["aaa", "bbb"], [True, False]).trained
    assert not train_acceptance(["a b", "a b"], [True, False]).trained


MODEL_V1 = Path(__file__).parent / "data" / "acceptance_model_v1.json"


def test_model_file_of_earlier_build_is_saved_bit_identically(tmp_path):
    # saved, and its predictions printed with float.hex, by the build that
    # still took the recipe as FeaturizerConfig and alpha parameters; written
    # here as simulate writes forum_scorer_model.json
    model = train_acceptance(*texts_labels(HISTORY))
    docs = ["great", "spam and stuff", "question bad", "zzz", "Great great SPAM"]
    assert [p.hex() for p in model.predict_proba(docs).tolist()] == [
        "0x1.9f4d1babbf86cp-1",
        "0x1.26e4526dbdd01p-1",
        "0x1.9f0371d6a0153p-2",
        "0x1.3333333333333p-1",
        "0x1.8e737576a44c4p-1",
    ]
    _write_json(tmp_path / "trained.json", model.to_payload())
    assert (tmp_path / "trained.json").read_bytes() == MODEL_V1.read_bytes()


@pytest.mark.parametrize("trained", [True, False], ids=["trained", "untrained"])
def test_saved_model_file_holds_the_model_fields(tmp_path, trained):
    model = train_acceptance(*texts_labels(HISTORY + [("nice question", True)]))
    model = model if trained else AcceptanceModel()
    assert model.trained is trained
    path = tmp_path / "model.json"
    _write_json(path, model.to_payload())
    payload = json.loads(path.read_text())

    want = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "trained": trained,
        "alpha": textmodel.ALPHA,
    }
    if trained:
        feat = model.featurizer
        vocabulary = payload["featurizer"]["vocabulary"]
        # the vocabulary in id order: token i has column i
        assert {token: i for i, token in enumerate(vocabulary)} == feat.vocabulary
        want["featurizer"] = {
            "vocabulary": vocabulary,
            "idf": feat.idf.tolist(),
            "min_df": textmodel.MIN_DF,
            "min_token_len": textmodel.MIN_TOKEN_LEN,
        }
        want["class_log_prior"] = model.class_log_prior.tolist()
        want["feature_log_lik"] = model.feature_log_lik.tolist()
    # the floats equal the model's exactly, and nothing else is saved
    assert payload == want
    assert type(payload["alpha"]) is float and type(payload["version"]) is int


def test_separable_corpus_classifies_cleanly():
    rng = random.Random(13)
    pos_vocab = [f"alpha{i}" for i in range(12)]
    neg_vocab = [f"beta{i}" for i in range(12)]
    history = []
    for i in range(120):
        vocab = pos_vocab if i % 2 == 0 else neg_vocab
        doc = " ".join(rng.choices(vocab, k=8))
        history.append((doc, i % 2 == 0))
    model = train_acceptance(*texts_labels(history))
    held_out = []
    for i in range(40):
        vocab = pos_vocab if i % 2 == 0 else neg_vocab
        held_out.append((" ".join(rng.choices(vocab, k=8)), i % 2 == 0))
    probs = model.predict_proba([d for d, _ in held_out])
    accuracy = sum((p >= 0.5) == label for p, (_, label) in zip(probs, held_out)) / 40
    assert accuracy == 1.0


# Words mixing case, digits, one-letter tokens, punctuation and non-ASCII
# letters that lower-case to ASCII ("\u212a" is the Kelvin sign, "k").
_WORDS = [
    "Sort", "sort", "a", "B", "x2", "42", "\u212aey", "key",
    "it's", "e-mail", "\u00e9t\u00e9", "ok!", "Zz9",
]
_OOV = ["qqq", "Q7Q", "w"]


@st.composite
def _docs(draw, words=_WORDS):
    """A document of drawn words (repeats likely) or of arbitrary characters."""
    if draw(st.booleans()):
        return draw(st.text(alphabet="aAbB19 ,.-\u212a\u00e9", max_size=20))
    parts = draw(st.lists(st.sampled_from(words), max_size=8))
    seps = st.sampled_from([" ", ", ", "\n", "..", ""])
    seps = draw(st.lists(seps, min_size=len(parts), max_size=len(parts)))
    return "".join(w + s for w, s in zip(parts, seps))


_score_batches = st.lists(st.one_of(_docs(), _docs(_OOV), st.just("")), max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.lists(_docs(), max_size=10), _score_batches)
def test_featurizer_matches_per_document_reference(corpus, texts):
    for doc in corpus:
        assert tokenize(doc) == ref_tokenize(doc)
    feat = TextFeaturizer.fit(corpus)
    vocabulary, idf = ref_fit(corpus)
    assert list(feat.vocabulary.items()) == list(vocabulary.items())
    assert np.array_equal(feat.idf, idf)
    for batch in (corpus, texts):
        assert [list(d.items()) for d in rows_as_dicts(feat.transform(batch))] == [
            list(d.items()) for d in ref_transform(feat, batch)
        ]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_docs(), st.booleans()), max_size=12), _score_batches)
def test_acceptance_model_matches_per_document_reference(history, texts):
    model = train_acceptance(*texts_labels(history))
    ref = ref_train_acceptance(history)
    assert model.trained == (ref is not None)
    if ref is not None:
        assert np.array_equal(model.class_log_prior, ref[0])
        assert np.array_equal(model.feature_log_lik, ref[1])
    probs = model.predict_proba(texts)
    assert probs.dtype == np.float64
    assert np.array_equal(probs, ref_predict_proba(model, texts))


def _same_rows(a, b):
    return (
        len(a) == len(b)
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.ids, b.ids)
        and a.ids.dtype == np.int32
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_docs(), st.booleans()), max_size=12), _score_batches)
def test_token_rows_match_the_string_path_and_the_reference(history, texts):
    # the scored batch is tokenized into the table first, so the table
    # holds tokens the history lacks, and the other way round
    table = TokenTable()
    scored = tokenize_rows(texts, table)
    train_texts, labels = texts_labels(history)
    rows = tokenize_rows(train_texts, table)
    tokens = list(table)
    for batch, batch_rows in ((texts, scored), (train_texts, rows)):
        assert [
            [tokens[i] for i in batch_rows.ids[a:b]]
            for a, b in zip(batch_rows.indptr[:-1], batch_rows.indptr[1:])
        ] == [ref_tokenize(text) for text in batch]

    feat = TextFeaturizer.fit(rows)
    vocabulary, idf = ref_fit(train_texts)
    assert list(feat.vocabulary.items()) == list(vocabulary.items())
    assert np.array_equal(feat.idf, idf)
    for batch, batch_rows in ((texts, scored), (train_texts, rows)):
        got = feat.transform(batch_rows)
        for a, b in zip(got, feat.transform(batch)):
            assert np.array_equal(a, b)
        assert [list(d.items()) for d in rows_as_dicts(got)] == [
            list(d.items()) for d in ref_transform(feat, batch)
        ]

    model = train_acceptance(rows, labels)
    by_text = train_acceptance(train_texts, labels)
    ref = ref_train_acceptance(history)
    assert model.trained == by_text.trained == (ref is not None)
    if ref is not None:
        for got in (model, by_text):
            assert np.array_equal(got.class_log_prior, ref[0])
            assert np.array_equal(got.feature_log_lik, ref[1])
    probs = model.predict_proba(scored)
    assert np.array_equal(probs, model.predict_proba(texts))
    assert np.array_equal(probs, ref_predict_proba(model, texts))


@settings(max_examples=200, deadline=None)
@given(st.lists(_docs(), max_size=8), st.lists(_docs(), max_size=8), st.data())
def test_row_subsets_and_appends_equal_rows_of_the_chosen_texts(first, second, data):
    table = TokenTable()
    a = tokenize_rows(first, table)
    b = tokenize_rows(second, table)
    # every token is in the table now, so rebuilding appends none
    size = len(table)
    joined = a + b
    assert joined.table is table
    assert _same_rows(joined, tokenize_rows(first + second, table))
    everything = first + second
    picks = data.draw(st.lists(st.integers(0, max(len(everything) - 1, 0)), max_size=10))
    picks = picks if everything else []
    subset = joined.take(picks)
    assert subset.table is table
    assert _same_rows(subset, tokenize_rows([everything[i] for i in picks], table))
    assert _same_rows(a.take(range(len(a))) + b.take([]), a)
    assert len(table) == size
    with pytest.raises(ValueError, match="different tables"):
        a + tokenize_rows(second)


def test_an_empty_batch_is_falsy_and_scores_nothing():
    rows = tokenize_rows([])
    assert not rows and len(rows) == 0
    model = train_acceptance(*texts_labels(HISTORY))
    assert model.predict_proba(rows).shape == (0,)
    assert AcceptanceModel().predict_proba(rows).shape == (0,)


# Characters whose lower case or encoding trips a byte-level tokenizer:
# the Kelvin sign (lower-cases to "k"), dotted capital I (to "i" and a
# combining dot), sharp s, capital sigma, fullwidth A, dotless i, an
# emoji and a lone surrogate.
_TRICKY = "KİßΣＡı\U0001f600\ud800"


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=st.sampled_from(_TRICKY + "aZ9 _-.\t\n"))))
def test_tokenize_matches_the_reference_over_any_text(text):
    assert tokenize(text) == ref_tokenize(text)


def test_tokenize_of_the_tricky_characters():
    assert tokenize("Key İd straße Σx Ａbc ıx ok\U0001f600ok a\ud800bc") == [
        "key", "stra", "bc", "ok", "ok", "bc",
    ]
    # the Kelvin sign and the i of the dotted capital make one token
    assert tokenize(_TRICKY) == ["ki"]


# Characters for batches: alphanumerics that join across a text boundary
# if the texts are run together, separators (NUL and newline among them),
# and the tricky ones, "\u0130" (two characters once lower-cased) too.
_BATCH_CHARS = st.sampled_from(_TRICKY + "aZ9 \x00\n.\u0130")
_batch_texts = st.one_of(
    st.text(alphabet=_BATCH_CHARS, max_size=6), st.sampled_from(["", "a", "\u0130", "9"])
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_batch_texts, max_size=4),
    st.lists(_batch_texts, max_size=40),
    st.sampled_from([1, 2, 3, 7, 16, textmodel._SLICE_CHARS]),
)
@example([], ["ab", "cd\u0130", "a", "", "\u212a", "\x00x\ny", "\u03a3", "\ud800"], 2)
def test_tokenize_rows_matches_the_per_text_loop(before, batch, slice_chars):
    # small slices, so that a batch spans many, into a table that
    # already holds tokens
    table, ref_table = TokenTable(), TokenTable()
    with mock.patch.object(textmodel, "_SLICE_CHARS", slice_chars):
        tokenize_rows(before, table)
        got = tokenize_rows(batch, table)
    ref_tokenize_rows(before, ref_table)
    ref = ref_tokenize_rows(batch, ref_table)
    assert got.indptr.dtype == np.int64 and got.ids.dtype == np.int32
    assert np.array_equal(got.indptr, ref.indptr) and np.array_equal(got.ids, ref.ids)
    assert list(table.items()) == list(ref_table.items())


def _ref_row_sums(values, indptr, start):
    """The per-row sums of ``textmodel._row_sums`` by a Python loop."""
    out = np.empty((len(start), len(indptr) - 1))
    for i, s in enumerate(start.tolist()):
        for r, (a, b) in enumerate(zip(indptr[:-1].tolist(), indptr[1:].tolist())):
            acc = s
            for term in values[i, a:b].tolist():
                acc = acc + term
            out[i, r] = acc
    return out


# magnitudes far apart, so the order of the additions shows in the sums
_terms = st.one_of(
    st.floats(-1e16, 1e16), st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 1e-300])
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2), st.lists(st.integers(0, 12), max_size=9), st.data())
def test_row_sums_match_a_python_loop_bit_for_bit(m, lengths, data):
    # an empty batch, rows without terms, one row, and rows of different
    # powers of two, each summed for m = 1 or 2
    nnz = sum(lengths)
    terms = st.lists(_terms, min_size=nnz, max_size=nnz)
    values = np.array(data.draw(st.lists(terms, min_size=m, max_size=m)), dtype=np.float64)
    values = values.reshape(m, nnz)
    start = np.array(data.draw(st.lists(_terms, min_size=m, max_size=m)), dtype=np.float64)
    indptr = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
    got = textmodel._row_sums(values, indptr, start)
    assert got.shape == (m, len(lengths))
    assert got.tobytes() == _ref_row_sums(values, indptr, start).tobytes()


def test_row_sums_keep_the_sign_of_zero():
    # -0.0 + -0.0 is -0.0, and 0.0 anywhere in the sum would make it 0.0;
    # the rows of 2 and 3 terms share a grid, so the first is padded
    indptr = np.array([0, 0, 1, 3, 6])
    values = np.full((2, 6), -0.0)
    start = np.array([-0.0, 0.0])
    got = textmodel._row_sums(values, indptr, start)
    assert got.tobytes() == _ref_row_sums(values, indptr, start).tobytes()
    assert np.signbit(got).tolist() == [[True] * 4, [False] * 4]


def test_row_sums_of_long_rows_and_many_rows():
    # rows past one grid's 256 and term counts across several powers of two
    rng = np.random.default_rng(3)
    lengths = rng.integers(0, 300, 600)
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    values = rng.standard_normal((2, indptr[-1])) * 10.0 ** rng.integers(-8, 8, (2, indptr[-1]))
    start = np.array([-0.5, -2.0])
    assert textmodel._row_sums(values, indptr, start).tobytes() == (
        _ref_row_sums(values, indptr, start).tobytes()
    )


def _ref_first_occurrences(keys):
    counts = {}
    for key in keys.tolist():
        counts[key] = counts.get(key, 0) + 1
    return np.array(list(counts), dtype=np.int64), np.array(list(counts.values()), dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(0, 3), max_size=60),
        st.lists(st.integers(-(2**63), 2**63 - 1), max_size=30),
        st.lists(st.sampled_from([-(2**63), -1, 0, 7, 2**63 - 1]), max_size=40),
    )
)
def test_first_occurrences_match_a_dict_bit_for_bit(keys):
    keys = np.array(keys, dtype=np.int64)
    distinct, counts = textmodel._first_occurrences(keys)
    ref_distinct, ref_counts = _ref_first_occurrences(keys)
    assert distinct.dtype == counts.dtype == np.int64
    assert np.array_equal(distinct, ref_distinct) and np.array_equal(counts, ref_counts)


def _same_csr(a, b):
    return all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(a, b))


@settings(max_examples=100, deadline=None)
@given(st.lists(_docs(), min_size=1, max_size=8), st.lists(_score_batches, min_size=1, max_size=4))
def test_a_featurizer_never_serves_stale_columns(corpus, batches):
    # a table that grows between calls, and a second table used by turns
    feat = TextFeaturizer.fit(corpus)
    grown, other = TokenTable(), TokenTable()
    for batch in batches:
        for table in (grown, other):
            rows = tokenize_rows(batch[::-1] if table is other else batch, table)
            fresh = TextFeaturizer(feat.vocabulary, feat.idf)
            assert _same_csr(feat.transform(rows), fresh.transform(rows))
            assert _same_csr(feat.transform(rows), feat.transform(rows.take(range(len(rows)))))
    assert len(grown.columns.get(feat, ())) == len(grown)


def test_a_column_map_lives_no_longer_than_its_table_or_featurizer():
    feat = TextFeaturizer.fit(CORPUS)
    table = TokenTable()
    feat.transform(tokenize_rows(["aa zz", "bb"], table))
    assert table.columns[feat].tolist() == [0, -1, 1]
    ref = weakref.ref(table)
    del table
    gc.collect()
    assert ref() is None
    table = TokenTable()
    feat.transform(tokenize_rows(["cc"], table))
    del feat
    gc.collect()
    assert len(table.columns) == 0
