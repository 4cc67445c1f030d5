import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pubgame import AcceptanceModel, FeaturizerConfig, TextFeaturizer, tokenize, train_acceptance
from pubgame.errors import SchemaError
from pubgame.textmodel import MODEL_FORMAT, MODEL_VERSION

from helpers import (
    ref_fit,
    ref_predict_proba,
    ref_tokenize,
    ref_train_acceptance,
    ref_transform,
    rows_as_dicts,
)

LOOSE = FeaturizerConfig(min_df=1, min_token_len=1)


def test_tokenize_lowercases_and_filters():
    assert tokenize("Sort a List, fast!") == ["sort", "list", "fast"]
    assert tokenize("Sort a List", min_token_len=1) == ["sort", "a", "list"]
    assert tokenize("x2 y", min_token_len=2) == ["x2"]
    assert tokenize("") == []


def test_featurizer_idf_known_values():
    feat = TextFeaturizer.fit(["a b", "a c"], LOOSE)
    assert list(feat.vocabulary) == ["a", "b", "c"]
    assert feat.idf[0] == 1.0
    assert feat.idf[1] == pytest.approx(math.log(3 / 2) + 1, abs=1e-15)
    assert feat.idf[1] == pytest.approx(1.4054651081081644, abs=1e-15)


def test_featurizer_everywhere_token_has_unit_idf():
    feat = TextFeaturizer.fit(["x common", "y common", "z common"], LOOSE)
    assert feat.idf[feat.vocabulary["common"]] == 1.0
    assert all(v >= 1.0 for v in feat.idf)


def test_featurizer_min_df_drops_rare_tokens():
    feat = TextFeaturizer.fit(["a b", "a c"], FeaturizerConfig(min_df=2, min_token_len=1))
    assert list(feat.vocabulary) == ["a"]


def test_transform_is_l2_normalized_and_sparse():
    feat = TextFeaturizer.fit(["a b", "a c"], LOOSE)
    (weights,) = rows_as_dicts(feat.transform(["a b b unknown"]))
    norm = math.sqrt(sum(w * w for w in weights.values()))
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert set(weights) == {0, 1}
    assert weights[1] > weights[0]


def test_transform_empty_document():
    feat = TextFeaturizer.fit(["a b", "a c"], LOOSE)
    (weights,) = rows_as_dicts(feat.transform(["zzz unseen"]))
    assert weights == {}


def test_featurizer_payload_round_trip():
    feat = TextFeaturizer.fit(["sorting lists", "sorting dicts fast"], FeaturizerConfig(min_df=1))
    clone = TextFeaturizer.from_payload(feat.to_payload())
    assert clone.vocabulary == feat.vocabulary
    assert rows_as_dicts(clone.transform(["sorting dicts"])) == rows_as_dicts(
        feat.transform(["sorting dicts"])
    )


def test_untrained_model_predicts_ones():
    model = AcceptanceModel()
    assert not model.trained
    probs = model.predict_proba(["anything", "at all"])
    assert list(probs) == [1.0, 1.0]


def test_nb_hand_example():
    model = train_acceptance(
        [("great question", True), ("bad spam", False)], LOOSE
    )
    assert model.trained
    (p,) = model.predict_proba(["great"])
    assert p > 0.5
    assert p == pytest.approx(0.6306019374818708, abs=1e-12)


def test_nb_class_probabilities_sum_to_one():
    model = train_acceptance(
        [("great question", True), ("bad spam", False), ("great stuff", True)], LOOSE
    )
    rng = random.Random(0)
    vocab = ["great", "question", "bad", "spam", "stuff", "zzz"]
    for _ in range(20):
        doc = " ".join(rng.choices(vocab, k=rng.randint(0, 6)))
        (p,) = model.predict_proba([doc])
        assert 0.0 < p < 1.0


def test_train_acceptance_accepts_text_objects():
    class Doc:
        def __init__(self, text):
            self.text = text

    by_str = train_acceptance([("great question", True), ("bad spam", False)], LOOSE)
    by_obj = train_acceptance([(Doc("great question"), True), (Doc("bad spam"), False)], LOOSE)
    assert by_obj.predict_proba(["great"]) == by_str.predict_proba(["great"])


def test_degenerate_histories_yield_untrained_models():
    assert not train_acceptance([]).trained
    assert not train_acceptance([("only one class", True)] * 4, LOOSE).trained
    # tokens all filtered out by min_df
    assert not train_acceptance(
        [("aaa", True), ("bbb", False)], FeaturizerConfig(min_df=2)
    ).trained


def test_model_save_load_round_trip(tmp_path):
    model = train_acceptance(
        [("great question", True), ("bad spam", False), ("nice question", True)], LOOSE
    )
    path = tmp_path / "model.json"
    model.save(path)
    clone = AcceptanceModel.load(path)
    docs = ["great", "spam and stuff", "question bad"]
    assert list(clone.predict_proba(docs)) == list(model.predict_proba(docs))

    payload = json.loads(path.read_text())
    assert payload["format"] == MODEL_FORMAT
    assert payload["version"] == MODEL_VERSION


def test_untrained_model_round_trips(tmp_path):
    path = tmp_path / "untrained.json"
    AcceptanceModel().save(path)
    assert not AcceptanceModel.load(path).trained


def test_model_load_rejects_foreign_payloads(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(SchemaError):
        AcceptanceModel.load(path)
    path.write_text(json.dumps({"format": MODEL_FORMAT, "version": 99}))
    with pytest.raises(SchemaError):
        AcceptanceModel.load(path)


def test_separable_corpus_classifies_cleanly():
    rng = random.Random(13)
    pos_vocab = [f"alpha{i}" for i in range(12)]
    neg_vocab = [f"beta{i}" for i in range(12)]
    history = []
    for i in range(120):
        vocab = pos_vocab if i % 2 == 0 else neg_vocab
        doc = " ".join(rng.choices(vocab, k=8))
        history.append((doc, i % 2 == 0))
    model = train_acceptance(history, FeaturizerConfig(min_df=1))
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


_configs = st.builds(
    FeaturizerConfig,
    min_df=st.sampled_from([1, 2]),
    min_token_len=st.sampled_from([1, 3]),
)
_score_batches = st.lists(st.one_of(_docs(), _docs(_OOV), st.just("")), max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.lists(_docs(), max_size=10), _configs, _score_batches)
def test_featurizer_matches_per_document_reference(corpus, config, texts):
    for doc in corpus:
        assert tokenize(doc, config.min_token_len) == ref_tokenize(doc, config.min_token_len)
    feat = TextFeaturizer.fit(corpus, config)
    vocabulary, idf = ref_fit(corpus, config)
    assert list(feat.vocabulary.items()) == list(vocabulary.items())
    assert np.array_equal(feat.idf, idf)
    for batch in (corpus, texts):
        assert [list(d.items()) for d in rows_as_dicts(feat.transform(batch))] == [
            list(d.items()) for d in ref_transform(feat, batch)
        ]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_docs(), st.booleans()), max_size=12), _configs, _score_batches
)
def test_acceptance_model_matches_per_document_reference(history, config, texts):
    model = train_acceptance(history, config)
    ref = ref_train_acceptance(history, config)
    assert model.trained == (ref is not None)
    if ref is not None:
        assert np.array_equal(model.class_log_prior, ref[0])
        assert np.array_equal(model.feature_log_lik, ref[1])
    probs = model.predict_proba(texts)
    assert probs.dtype == np.float64
    assert np.array_equal(probs, ref_predict_proba(model, texts))
