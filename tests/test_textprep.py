import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from triagelab.errors import ValidationError
from triagelab.textprep import (
    TokenizedDoc,
    build_vocabulary,
    preprocess_text,
    tfidf_transform,
    _strip_suffix,
)

from conftest import models_around, round_trip


@pytest.mark.parametrize(
    "token,stem",
    [
        ("running", "run"),       # exception table
        ("classes", "class"),     # exception table
        ("stopped", "stop"),      # -ed with gemination undoubling
        ("crashed", "crash"),
        ("bosses", "boss"),       # -sses -> -ss
        ("queries", "query"),     # -ies -> -y
        ("parsers", "parser"),    # plain plural
        ("address", "address"),   # -ss guard
        ("status", "status"),     # -us guard
        ("quickly", "quick"),     # -ly
        ("render", "render"),     # nothing to strip
        ("as", "as"),             # too short to strip
    ],
)
def test_suffix_stripping(token, stem):
    assert _strip_suffix(token) == stem


def test_preprocess_merges_and_filters():
    doc = preprocess_text(
        "Crash 123 in the Parser", "parsers CRASHED badly " + "x" * 30, bug_id=7
    )
    assert doc.bug_id == 7
    assert doc.tokens == ("crash", "parser", "parser", "crash", "bad")


def test_preprocess_drops_pure_digits_keeps_mixed():
    doc = preprocess_text("error 404 utf8", "")
    assert doc.tokens == ("error", "utf8")


def test_build_vocabulary_min_df_and_order():
    docs = [
        TokenizedDoc(1, ("zebra", "apple")),
        TokenizedDoc(2, ("apple", "mango")),
        TokenizedDoc(3, ("mango", "zebra", "once")),
    ]
    vocab = build_vocabulary(docs, min_df=2)
    assert vocab.terms == ["apple", "mango", "zebra"]  # lexicographic
    assert vocab.index == {"apple": 0, "mango": 1, "zebra": 2}
    assert vocab.doc_freq == {"apple": 2, "mango": 2, "zebra": 2}
    assert vocab.n_docs == 3


def test_build_vocabulary_empty_rejected():
    with pytest.raises(ValidationError):
        build_vocabulary([TokenizedDoc(1, ("lonely",))], min_df=2)


def test_vocabulary_json_roundtrip():
    docs = [TokenizedDoc(1, ("a1", "b2")), TokenizedDoc(2, ("a1", "b2"))]
    vocab = build_vocabulary(docs)
    assert round_trip(models_around(vocab=vocab)).vocab == vocab


def test_tfidf_hand_example():
    docs = [TokenizedDoc(1, ("cat", "dog")), TokenizedDoc(2, ("cat", "cat", "fish"))]
    vocab = build_vocabulary(docs, min_df=1)
    row = tfidf_transform(docs[1], vocab)
    # idf(cat) = ln(3/3) + 1 = 1; idf(fish) = ln(3/2) + 1
    w_cat = 2 * 1.0
    w_fish = 1 * (math.log(3 / 2) + 1.0)
    norm = math.hypot(w_cat, w_fish)
    expected = {vocab.index["cat"]: w_cat / norm, vocab.index["fish"]: w_fish / norm}
    assert row.shape == (len(vocab),)
    assert {i: row[i] for i in np.nonzero(row)[0]} == pytest.approx(expected, abs=1e-12)
    assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-12)


def test_tfidf_norm_is_the_left_fold_of_the_squares():
    docs = [TokenizedDoc(1, ("alpha", "beta", "gamma")), TokenizedDoc(2, ("beta", "gamma")),
            TokenizedDoc(3, ("gamma",))]
    vocab = build_vocabulary(docs, min_df=1)
    doc = TokenizedDoc(4, ("alpha",) + ("beta",) * 3 + ("gamma",) * 4)
    weights = [tf * (math.log(4 / (1 + df)) + 1.0) for tf, df in ((1, 1), (3, 2), (4, 3))]
    squares = [w * w for w in weights]
    left_fold = 0.0
    for square in squares:
        left_fold += square
    # a compensated sum, as the builtin sum is from Python 3.12, differs here
    assert left_fold != math.fsum(squares)
    norm = math.sqrt(left_fold)
    assert tfidf_transform(doc, vocab).tolist() == [w / norm for w in weights]


def test_tfidf_oov_only_doc_is_zero_vector():
    docs = [TokenizedDoc(1, ("cat", "dog")), TokenizedDoc(2, ("cat", "dog"))]
    vocab = build_vocabulary(docs)
    row = tfidf_transform(TokenizedDoc(3, ("unseen",)), vocab)
    assert row.tolist() == [0.0] * len(vocab)


@given(
    st.lists(
        st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"]),
        min_size=1,
        max_size=30,
    )
)
def test_tfidf_unit_norm_property(tokens):
    base = [
        TokenizedDoc(1, ("alpha", "beta", "gamma")),
        TokenizedDoc(2, ("alpha", "beta", "gamma", "delta", "epsilon")),
    ]
    vocab = build_vocabulary(base, min_df=1)
    row = tfidf_transform(TokenizedDoc(9, tuple(tokens)), vocab)
    assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-12)
    assert set(np.nonzero(row)[0]) == {vocab.index[t] for t in tokens}


def test_preprocess_deterministic():
    a = preprocess_text("Crashes when saving files", "The editor crashed again")
    b = preprocess_text("Crashes when saving files", "The editor crashed again")
    assert a.tokens == b.tokens
