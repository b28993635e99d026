import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from triagelab import costmodel, pipeline
from triagelab.corpus import split_train_test
from triagelab.costmodel import (
    BETA_LDA,
    DEFAULT_INFER_SWEEPS,
    GLOBAL_TOPIC,
    _draw,
    arun_measure,
    build_cost_matrix,
    fill_missing_cf,
    fit_lda,
    infer_topic,
    select_topic_count,
)
from triagelab.errors import ValidationError
from triagelab.textprep import TokenizedDoc, build_vocabulary, preprocess_text

from conftest import MINI_BOUNDARY, MINI_END, make_bug, models_around, round_trip


def reference_fit_lda(docs, vocab, K, seed, iters):
    """(phi, doc_topic) of collapsed Gibbs in numpy, drawing with
    ``rng.choice``, as fit_lda did before its sweep became scalar Python;
    the exactness reference."""
    word_ids = [[vocab.index[t] for t in d.tokens if t in vocab.index] for d in docs]
    V = len(vocab)
    alpha = 50.0 / K
    beta = BETA_LDA
    rng = np.random.default_rng(seed)
    n_dk = np.zeros((len(docs), K))
    n_kw = np.zeros((K, V))
    n_k = np.zeros(K)
    assignments = []
    for d, ids in enumerate(word_ids):
        z = rng.integers(0, K, size=len(ids))
        assignments.append(z)
        for w, k in zip(ids, z):
            n_dk[d, k] += 1
            n_kw[k, w] += 1
            n_k[k] += 1
    for _ in range(iters):
        for d, ids in enumerate(word_ids):
            z = assignments[d]
            row = n_dk[d]
            for j, w in enumerate(ids):
                k = z[j]
                row[k] -= 1
                n_kw[k, w] -= 1
                n_k[k] -= 1
                p = (row + alpha) * (n_kw[:, w] + beta) / (n_k + V * beta)
                p /= p.sum()
                k = int(rng.choice(K, p=p))
                z[j] = k
                row[k] += 1
                n_kw[k, w] += 1
                n_k[k] += 1
    phi = (n_kw + beta) / (n_k + V * beta)[:, None]
    theta = (n_dk + alpha) / (n_dk.sum(axis=1) + K * alpha)[:, None]
    return phi, theta


def reference_infer_topic(model, doc, vocab, sweeps):
    """Fold-in Gibbs drawing with ``rng.choice``; the exactness reference."""
    ids = [vocab.index[t] for t in doc.tokens if t in vocab.index]
    if not ids:
        return GLOBAL_TOPIC
    rng = np.random.default_rng(model.seed)
    K = model.K
    z = rng.integers(0, K, size=len(ids))
    counts = np.bincount(z, minlength=K).astype(float)
    for _ in range(sweeps):
        for j, w in enumerate(ids):
            counts[z[j]] -= 1
            p = (counts + model.alpha_lda) * model.phi[:, w]
            p /= p.sum()
            k = int(rng.choice(K, p=p))
            z[j] = k
            counts[k] += 1
    return int(np.argmax(counts))

TOPIC_A = ["render", "pixel", "canvas", "glyph", "font", "redraw"]
TOPIC_B = ["socket", "timeout", "packet", "proxy", "stream", "buffer"]


def _planted_docs(n_per_topic=15, seed=3):
    rng = np.random.default_rng(seed)
    docs, labels = [], []
    for label, pool in enumerate((TOPIC_A, TOPIC_B)):
        for i in range(n_per_topic):
            tokens = tuple(rng.choice(pool, size=12))
            docs.append(TokenizedDoc(len(docs) + 1, tokens))
            labels.append(label)
    return docs, labels


def test_lda_recovers_planted_topics():
    docs, labels = _planted_docs()
    vocab = build_vocabulary(docs, min_df=1)
    model = fit_lda(docs, vocab, K=2, seed=0, iters=120)
    assert np.allclose(model.phi.sum(axis=1), 1.0, atol=1e-9)
    dominant = model.doc_topic.argmax(axis=1)
    # cluster purity against the planted split (label names arbitrary)
    agreement = np.mean(dominant == labels)
    assert max(agreement, 1 - agreement) >= 0.9


def test_lda_deterministic_given_seed():
    docs, _ = _planted_docs()
    vocab = build_vocabulary(docs, min_df=1)
    a = fit_lda(docs, vocab, K=2, seed=5, iters=40)
    b = fit_lda(docs, vocab, K=2, seed=5, iters=40)
    assert np.array_equal(a.phi, b.phi)


def test_lda_rejects_k_below_two():
    docs, _ = _planted_docs(3)
    vocab = build_vocabulary(docs, min_df=1)
    with pytest.raises(ValidationError):
        fit_lda(docs, vocab, K=1)


@pytest.mark.parametrize("iters", [0, -5])
def test_lda_rejects_iters_below_one(iters):
    docs, _ = _planted_docs(3)
    vocab = build_vocabulary(docs, min_df=1)
    with pytest.raises(ValidationError, match="at least 1"):
        fit_lda(docs, vocab, K=2, iters=iters)


def test_lda_rejects_negative_seed():
    docs, _ = _planted_docs(3)
    vocab = build_vocabulary(docs, min_df=1)
    with pytest.raises(ValidationError, match="non-negative"):
        fit_lda(docs, vocab, K=2, seed=-1)


_BIG = st.floats(min_value=1e-6, max_value=1.0)
_TINY = st.floats(min_value=1e-300, max_value=1e-200)


# Zero weights (a phi entry may be 0) repeat a cumulative value: the draw
# must land past the whole run of equal values, as choice does.
@given(
    weights=st.lists(st.one_of(_BIG, _TINY, st.just(0.0)), min_size=2, max_size=60).filter(
        lambda w: max(w) >= 1e-6
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_draw_matches_generator_choice(weights, seed):
    p = np.array(weights)
    p /= p.sum()
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    cdf = np.full_like(p, np.nan)  # one work buffer for every draw, as in infer_topic
    for _ in range(200):
        assert _draw(ours.random(), p, cdf) == int(theirs.choice(len(p), p=p))
    # both consumed the stream identically
    assert ours.random() == theirs.random()


def test_draw_normalizes_a_cdf_that_ends_below_one():
    p = np.full(7, 0.3)
    p /= p.sum()
    assert p.cumsum()[-1] < 1.0  # rounding leaves a gap below 1
    cdf = np.empty_like(p)
    # as in choice, the largest uniform below 1 lands on the last index
    assert _draw(np.nextafter(1.0, 0.0), p, cdf) == 6
    assert _draw(0.0, p, cdf) == 0
    # a uniform equal to a cumulative value goes right, as in choice
    assert _draw(0.25, np.array([0.25, 0.75]), np.empty(2)) == 1
    # past the whole run of equal values that zero weights leave
    assert _draw(0.25, np.array([0.25, 0.0, 0.0, 0.75]), np.empty(4)) == 3


@pytest.fixture(scope="module")
def mini_training_docs(mini_records):
    """The docs and vocabulary train_models fits LDA on, for the mini corpus."""
    cleaned, _, _ = pipeline.prepare(mini_records, MINI_BOUNDARY)
    train, _ = split_train_test(cleaned, MINI_BOUNDARY)
    docs = [preprocess_text(r.summary, r.description, r.bug_id) for r in train]
    return docs, build_vocabulary(docs)


@pytest.mark.parametrize(
    "K,iters",
    [(4, 3), (4, 20), (50, 2), (2, 3), (3, 2), (7, 1), (8, 2), (9, 1), (16, 1), (129, 1)],
)
def test_gibbs_bitwise_equal_to_choice_reference(mini_training_docs, K, iters):
    docs, vocab = mini_training_docs
    model = fit_lda(docs, vocab, K, seed=0, iters=iters)
    phi, theta = reference_fit_lda(docs, vocab, K, seed=0, iters=iters)
    assert model.phi.tobytes() == phi.tobytes()
    assert model.doc_topic.tobytes() == theta.tobytes()
    topics = [infer_topic(model, doc, vocab, sweeps=3) for doc in docs]
    assert topics == [reference_infer_topic(model, doc, vocab, 3) for doc in docs]


@pytest.fixture(scope="module")
def mini_test_docs(mini_records):
    """The docs a mini replay to day 730 folds in, in bug-id order."""
    cleaned, _, _ = pipeline.prepare(mini_records, MINI_BOUNDARY)
    return [
        preprocess_text(r.summary, r.description, r.bug_id)
        for r in sorted(cleaned, key=lambda r: r.bug_id)
        if MINI_BOUNDARY < r.reported_at <= MINI_END
    ]


# K=4 at 20 iterations is the README and benchmark model; from K=8 on,
# numpy sums p eight lanes at a time instead of left to right.
# alpha = 50/K is 25 at K=2 and 50/3, not representable, at K=3.
@pytest.mark.parametrize(
    "K,iters,step",
    [(4, 20, 4), (8, 1, 50), (9, 1, 50), (16, 1, 50), (50, 1, 50), (2, 1, 50), (3, 1, 50)],
)
def test_fold_in_at_default_sweeps_bitwise_equal_to_choice_reference(
    mini_training_docs, mini_test_docs, K, iters, step
):
    docs, vocab = mini_training_docs
    terms = vocab.terms
    edge_docs = [
        TokenizedDoc(-1, (terms[5],)),  # a single token
        TokenizedDoc(-2, (terms[7],) * 40),  # one word repeated
        TokenizedDoc(-3, (terms[0], terms[-1]) * 3),  # vocabulary indices 0 and V-1
    ]
    probes = mini_test_docs[::step] + edge_docs
    model = fit_lda(docs, vocab, K, seed=0, iters=iters)
    topics = [infer_topic(model, doc, vocab) for doc in probes]
    assert topics == [reference_infer_topic(model, doc, vocab, DEFAULT_INFER_SWEEPS) for doc in probes]
    # no sweep: the dominant topic of the initial draw
    assert [infer_topic(model, doc, vocab, sweeps=0) for doc in probes] == [
        reference_infer_topic(model, doc, vocab, 0) for doc in probes
    ]


def test_topic_count_selection_prefers_planted_count():
    docs, _ = _planted_docs()
    vocab = build_vocabulary(docs, min_df=1)
    model = select_topic_count(docs, vocab, (2, 8), seed=0, iters=120)
    assert model.K == 2
    # the selected model is the fit of its K, not a refit
    again = fit_lda(docs, vocab, 2, seed=0, iters=120)
    assert (model.K, model.alpha_lda, model.seed, model.phi.shape) == (
        again.K, again.alpha_lda, again.seed, again.phi.shape)
    assert np.array_equal(model.phi, again.phi)
    assert np.array_equal(model.doc_topic, again.doc_topic)


@pytest.mark.parametrize("grid", [(2,), (2, 8)])
def test_topic_count_is_measured_only_when_there_is_a_choice(monkeypatch, grid):
    docs, _ = _planted_docs()
    vocab = build_vocabulary(docs, min_df=1)
    measured = []
    measure = costmodel.arun_measure
    monkeypatch.setattr(costmodel, "arun_measure",
                        lambda model, lengths: measured.append(model.K) or measure(model, lengths))
    model = select_topic_count(docs, vocab, grid, seed=0, iters=120)
    assert measured == ([] if len(grid) == 1 else list(grid))
    assert model.K == 2
    assert np.array_equal(model.phi, fit_lda(docs, vocab, 2, seed=0, iters=120).phi)


def test_arun_measure_finite_and_deterministic():
    docs, _ = _planted_docs(8)
    vocab = build_vocabulary(docs, min_df=1)
    model = fit_lda(docs, vocab, K=3, seed=1, iters=40)
    lengths = [len(d.tokens) for d in docs]
    m = arun_measure(model, lengths)
    assert m == arun_measure(model, lengths)
    assert np.isfinite(m) and m >= 0.0


def test_topic_count_selection_over_a_grid_past_the_vocabulary_size():
    # above K = V, phi (K x V) has only V singular values; the rest are zeros
    docs, _ = _planted_docs(8)
    vocab = build_vocabulary(docs, min_df=1)
    V = len(vocab)
    lengths = [len(d.tokens) for d in docs]
    for K in (V, V + 1, 2 * V):
        m = arun_measure(fit_lda(docs, vocab, K=K, seed=1, iters=5), lengths)
        assert np.isfinite(m) and m >= 0.0
    model = select_topic_count(docs, vocab, (2, V + 1, 2 * V), seed=1, iters=5)
    assert model.K in (2, V + 1, 2 * V)


def test_infer_topic_deterministic_and_oov_sentinel():
    docs, labels = _planted_docs()
    vocab = build_vocabulary(docs, min_df=1)
    model = fit_lda(docs, vocab, K=2, seed=0, iters=120)
    probe = TokenizedDoc(99, ("render", "canvas", "pixel", "glyph"))
    t1 = infer_topic(model, probe, vocab)
    assert t1 == infer_topic(model, probe, vocab)
    assert infer_topic(model, TokenizedDoc(100, ("unseen",)), vocab) == GLOBAL_TOPIC
    # the visual-topic probe and a network probe land on different topics
    t2 = infer_topic(model, TokenizedDoc(101, ("socket", "packet", "proxy")), vocab)
    assert t1 != t2


def reference_fill_missing_cf(observed: dict, dev_ids, K):
    """(filled, global mean) of the filler over per-developer dicts that
    recomputes a cosine for every (missing cell, other developer), as
    fill_missing_cf did before the cost matrix became one grid; the
    exactness reference."""
    by_dev = {d: {} for d in dev_ids}
    for (d, k), v in observed.items():
        by_dev[d][k] = v
    global_mean = float(np.mean(list(observed.values())))

    def similarity(obs_a, obs_b):
        shared = sorted(set(obs_a) & set(obs_b))
        if not shared:
            return None
        a = np.array([obs_a[k] for k in shared])
        b = np.array([obs_b[k] for k in shared])
        denom = np.sqrt(np.add.reduce(a * a)) * np.sqrt(np.add.reduce(b * b))
        return None if denom == 0 else float(np.add.reduce(a * b) / denom)

    filled = np.zeros((len(dev_ids), K))
    for i, d in enumerate(dev_ids):
        for k in range(K):
            if (d, k) in observed:
                filled[i, k] = observed[(d, k)]
                continue
            num = den = 0.0
            for other in dev_ids:
                if other == d or k not in by_dev[other]:
                    continue
                sim = similarity(by_dev[d], by_dev[other])
                if sim is None or sim <= 0:
                    continue
                num += sim * by_dev[other][k]
                den += sim
            if den > 0:
                filled[i, k] = num / den
                continue
            column = [by_dev[o][k] for o in dev_ids if k in by_dev[o]]
            filled[i, k] = float(np.mean(column)) if column else global_mean
    return filled, global_mean


def _grid(rows):
    """A cost grid from nested lists, with None for an unobserved cell."""
    return np.array(rows, dtype=float)


_COST = st.one_of(st.integers(1, 30).map(float), st.floats(min_value=0.5, max_value=100.0))


@st.composite
def _sparse_grids(draw):
    """(observed grid, sorted dev_ids), D and K from 1 to 8, with some
    developers and topics observed nowhere and at least one observed cell."""
    D, K = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    dev_ids = sorted(draw(st.lists(st.integers(0, 99), min_size=D, max_size=D, unique=True)))
    cells = draw(st.lists(st.one_of(st.none(), _COST), min_size=D * K, max_size=D * K))
    grid = _grid([cells[i * K:(i + 1) * K] for i in range(D)])
    grid[sorted(draw(st.sets(st.integers(0, D - 1), max_size=D - 1))), :] = np.nan
    grid[:, sorted(draw(st.sets(st.integers(0, K - 1), max_size=K - 1)))] = np.nan
    assume(not np.isnan(grid).all())
    return grid, dev_ids


@settings(max_examples=400, deadline=None)
@given(case=_sparse_grids())
def test_fill_matches_the_per_cell_reference_bit_for_bit(case):
    grid, dev_ids = case
    observed = {(d, k): float(grid[i, k]) for i, d in enumerate(dev_ids)
                for k in range(grid.shape[1]) if not np.isnan(grid[i, k])}
    filled, global_mean = reference_fill_missing_cf(observed, dev_ids, grid.shape[1])
    got, got_mean = fill_missing_cf(grid)
    assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in filled.ravel().tolist()]
    assert got_mean.hex() == global_mean.hex()
    assert got.shape == grid.shape


def test_build_cost_matrix_hand_means():
    records = [
        make_bug(1, reported=1, assigned=1, resolved=2, dev=1),   # 2 days
        make_bug(2, reported=1, assigned=1, resolved=4, dev=1),   # 4 days
        make_bug(3, reported=1, assigned=1, resolved=6, dev=2),   # 6 days
        make_bug(4, reported=1, assigned=1, resolved=9, dev=2),   # no topic: no cell
    ]
    observed = build_cost_matrix(records, [0, 0, 1, GLOBAL_TOPIC], [1, 2], K=3)
    assert np.array_equal(observed, _grid([[3.0, None, None], [None, 6.0, None]]),
                          equal_nan=True)
    filled, global_mean = fill_missing_cf(observed)
    assert (filled[0, 0], filled[1, 1]) == (3.0, 6.0)
    assert global_mean == pytest.approx(4.5)


def test_cf_fill_similarity_weighted_hand_value():
    observed = _grid([[2.0, 4.0], [2.0, None], [4.0, 8.0]])
    filled, _ = fill_missing_cf(observed)
    # dev 2 topic 1: 1-D overlaps give cosine 1 to both dev 1 and dev 3
    # -> (4 + 8) / 2 = 6
    assert filled[1, 1] == pytest.approx(6.0)
    # observed cells untouched
    seen = ~np.isnan(observed)
    assert np.array_equal(filled[seen], observed[seen])


def test_cf_fill_column_mean_and_global_fallbacks():
    filled, global_mean = fill_missing_cf(_grid([[3.0, 5.0, None], [None, None, None]]))
    # dev 2 has no observations: no similarity, column-mean fallback
    assert filled[1, 0] == pytest.approx(3.0)
    # topic 2 observed nowhere: global mean for every developer
    assert global_mean == pytest.approx(4.0)
    assert filled[:, 2].tolist() == [global_mean, global_mean]
    assert np.all(filled > 0)


def test_cost_global_topic_sentinel_maps_to_global_mean():
    _, global_mean = fill_missing_cf(_grid([[2.0, 6.0]]))
    # feature_table gives a GLOBAL_TOPIC bug this cost for every developer
    assert global_mean == pytest.approx(4.0)


def test_empty_matrix_rejected():
    with pytest.raises(ValidationError):
        fill_missing_cf(_grid([[None, None]]))


def test_cost_matrix_json_roundtrip():
    cost = _grid([[2.0, None], [None, 3.0]])
    models = models_around(cost=cost)
    text = pipeline.models_to_json(models)
    loaded = pipeline.models_from_json(text)
    assert loaded.linear_model.dev_ids == models.linear_model.dev_ids
    assert loaded.cost.tobytes() == cost.tobytes()  # NaN where null
    assert pipeline.models_to_json(loaded) == text
    obj = json.loads(text)
    assert list(obj) == list(pipeline.MODEL_SCHEMA.of)
    assert obj["cost"] == [[2.0, None], [None, 3.0]]
    # the global mean reads the observed cells, so a grid needs one
    with pytest.raises(ValidationError, match="cost: no observed cell"):
        pipeline.models_from_json(json.dumps(dict(obj, cost=[[None, None], [None, None]])))
    # what the file once held besides the measured grid is refused
    for key, value in (("provenance", [["OBSERVED", "CF"], ["CF", "OBSERVED"]]),
                       ("alpha_lda", 25.0), ("observed", [[1, 0, 2.0], [2, 1, 3.0]])):
        with pytest.raises(ValidationError, match=f"unknown key '{key}'"):
            pipeline.models_from_json(json.dumps({**obj, key: value}))


def test_topic_model_json_roundtrip():
    docs, _ = _planted_docs(5)
    vocab = build_vocabulary(docs, min_df=1)
    model = fit_lda(docs, vocab, K=2, seed=2, iters=30)
    models = models_around(vocab=vocab, topic_model=model)
    again = round_trip(models).topic_model
    assert (again.K, again.alpha_lda, again.seed, again.phi.shape) == (
        model.K, model.alpha_lda, model.seed, model.phi.shape)
    assert np.array_equal(again.phi, model.phi)
    probe = TokenizedDoc(1, ("render", "pixel"))
    assert infer_topic(again, probe, vocab) == infer_topic(model, probe, vocab)
    # keys that were dropped from the file, or never in it, are refused
    obj = json.loads(pipeline.models_to_json(models))
    for key, value in (("iters", 30), ("beta_lda", 0.01), ("K", 2),
                       ("vocab_size", len(vocab)), ("extra", None)):
        with pytest.raises(ValidationError, match=f"unknown key '{key}'"):
            pipeline.models_from_json(json.dumps({**obj, key: value}))
