import numpy as np
import pytest

from triagelab.errors import ValidationError
from triagelab.suitability import (
    LinearModel,
    predict_suitability,
    train_classifier,
)
from triagelab.textprep import TokenizedDoc, build_vocabulary, tfidf_transform

from conftest import models_around, round_trip


def _separable_fixture():
    """Dev 1 fixes 'render' bugs, dev 2 fixes 'socket' bugs."""
    docs = [
        TokenizedDoc(1, ("render", "canvas", "pixel")),
        TokenizedDoc(2, ("render", "pixel", "glyph")),
        TokenizedDoc(3, ("canvas", "glyph", "render")),
        TokenizedDoc(4, ("socket", "timeout", "packet")),
        TokenizedDoc(5, ("socket", "packet", "proxy")),
        TokenizedDoc(6, ("timeout", "proxy", "socket")),
    ]
    vocab = build_vocabulary(docs, min_df=1)
    X = np.array([tfidf_transform(d, vocab) for d in docs])
    return docs, vocab, X, [1, 1, 1, 2, 2, 2]


def test_separable_fixture_learned():
    docs, vocab, X, labels = _separable_fixture()
    model = train_classifier(X, labels)
    assert model.weights.shape[1] == len(vocab)
    S = predict_suitability(model, np.array([tfidf_transform(doc, vocab) for doc in docs]))
    assert S.shape == (len(docs), 2)
    for row, label in zip(S, labels):
        assert model.dev_ids[row.argmax()] == label
        assert row.max() == 1.0
        assert row.min() >= 0.0


def test_training_deterministic():
    _, _, X, labels = _separable_fixture()
    a = train_classifier(X, labels)
    b = train_classifier(X, labels)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)
    assert (a.dev_ids, a.weights.shape) == (b.dev_ids, b.weights.shape)


def test_model_json_roundtrip_preserves_decisions():
    docs, vocab, X, labels = _separable_fixture()
    model = train_classifier(X, labels, C=1000.0)
    again = round_trip(models_around(vocab=vocab, linear_model=model)).linear_model
    assert (again.dev_ids, again.weights.shape) == (model.dev_ids, model.weights.shape)
    assert np.array_equal(again.weights, model.weights)
    assert np.array_equal(again.bias, model.bias)
    row = tfidf_transform(docs[0], vocab)
    assert np.array_equal(model.decision_values(row), again.decision_values(row))


def test_requires_two_labels():
    _, _, X, labels = _separable_fixture()
    with pytest.raises(ValidationError):
        train_classifier(X, [1] * len(labels))


def test_all_equal_scores_normalize_to_one():
    model = LinearModel(
        dev_ids=[1, 2, 3],
        weights=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        bias=np.zeros(3),
    )
    # the second row's decision values are all 0.0; the first's are not
    S = predict_suitability(model, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert S.tolist() == [[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]]


def test_no_rows_give_an_empty_matrix():
    model = LinearModel([1, 2], np.zeros((2, 3)), np.zeros(2))
    assert predict_suitability(model, np.zeros((0, 3))).shape == (0, 2)


def test_argmax_tie_breaks_to_smallest_dev():
    # raw decision values: dev 3 -> 1.0, dev 5 -> 1.0, dev 9 -> 0.2
    model = LinearModel(
        dev_ids=[3, 5, 9],
        weights=np.zeros((3, 2)),
        bias=np.array([1.0, 1.0, 0.2]),
    )
    row = predict_suitability(model, np.zeros((1, 2)))[0]  # columns in model.dev_ids order
    assert row.tolist() == [1.0, 1.0, 0.0]
    assert model.dev_ids[row.argmax()] == 3
