"""Fixing-cost estimation: LDA topics + per-topic developer averages.

Bugs are grouped into topics with collapsed-Gibbs LDA (topic count
picked by the singular-value / document-mixture divergence criterion).
A training bug's topic is its dominant topic in the fitted mixture
(``fitted_topics``); only a bug the fit never saw is folded in
(``infer_topic``).  The cost model is one (developer, topic) grid:
``build_cost_matrix`` gives each cell the arithmetic mean of the
developer's training fixing times on that topic, NaN where they have
none.  ``model.json`` holds that grid, ``null`` for NaN, and nothing
computed from it: ``fill_missing_cf`` fills the NaN cells when
``pipeline.feature_table`` builds a replay's costs, by a user-based
cosine collaborative filter with deterministic fallbacks (topic column
mean, then global mean).

Every Gibbs draw takes one uniform ``u`` from the generator, as
``Generator.choice`` does; both samplers draw the uniforms of a sweep
(fit) or of a doc (fold-in) in one ``rng.random`` call, which returns
the values the per-draw calls would.  The fit's sweep is scalar Python
over lists of counts; each draw is a plain inverse-CDF draw on the
unnormalised weights: the first index whose running sum exceeds ``u``
times their total.  The fold-in reads ``phi`` by rows (``phi.T[ids]``,
once per doc), keeps the doc's topic counts in a list and ``counts +
alpha`` in an array whose one changed entry is recomputed after each
move, computes ``p`` and its running sum in numpy into two work buffers
made once per doc, and bisects that sum as a list (``_draw``) with the
division and test of ``choice``, without its per-call overhead.
tests/test_costmodel.py keeps numpy + ``choice`` loops as references.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ValidationError

GLOBAL_TOPIC = -1  # sentinel for docs with no in-vocabulary tokens

DEFAULT_GIBBS_ITERS = 1000
DEFAULT_INFER_SWEEPS = 50
BETA_LDA = 0.01


@dataclass
class TopicModel:
    phi: np.ndarray  # (K, V); rows sum to 1
    seed: int
    # (D, K) training mixture, for selection and the training bugs' topics
    doc_topic: np.ndarray | None = None

    @property
    def K(self) -> int:
        return len(self.phi)

    @property
    def alpha_lda(self) -> float:
        return 50.0 / self.K  # the fit's own expression


def _doc_word_ids(doc, vocab):
    return [vocab.index[t] for t in doc.tokens if t in vocab.index]


def _draw(u, p, cdf) -> int:
    """The index ``rng.choice(len(p), p=p)`` returns when its single
    ``rng.random()`` draw is ``u``: ``cumsum`` into the buffer ``cdf``,
    then the first ``c_i`` with ``u < c_i / c[-1]``, ``choice``'s test
    (``u * c[-1] < c_i`` can round otherwise), without its validation."""
    np.add.accumulate(p, out=cdf)
    c = cdf.tolist()
    return bisect_right(c, u, key=c[-1].__rtruediv__)


def fit_lda(docs, vocab, K: int, seed: int = 0, iters: int = DEFAULT_GIBBS_ITERS) -> TopicModel:
    """Collapsed Gibbs sampling; alpha = 50/K, beta = 0.01.

    Deterministic given the seed.  Docs with no in-vocabulary tokens
    contribute nothing but keep their row in the mixture.

    The sweep is scalar Python over lists.  A token's weights are
    ``p[k] = (n_dk[d][k] + alpha) * (n_kw[k][w] + beta) / (n_k[k] +
    V * beta)``; it takes the first ``k`` whose left-to-right running
    sum of ``p`` exceeds ``u * sum(p)``, for the next uniform ``u`` in
    [0, 1).  ``u * total < total``, so ``k < K``; a tie goes right, as
    in ``Generator.choice``.
    """
    if K < 2:
        raise ValidationError("topic count must be at least 2")
    if iters < 1:
        raise ValidationError(f"LDA iterations must be at least 1, got {iters}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    word_ids = [_doc_word_ids(d, vocab) for d in docs]
    n_tokens = sum(len(ids) for ids in word_ids)
    if n_tokens == 0:
        raise ValidationError("corpus has no in-vocabulary tokens")
    V = len(vocab)
    alpha = 50.0 / K
    beta = BETA_LDA
    v_beta = V * beta
    rng = np.random.default_rng(seed)

    # float counts, as in numpy (exact: they stay far below 2**53)
    n_dk = [[0.0] * K for _ in docs]
    n_wk = [[0.0] * K for _ in range(V)]  # word-major: a token touches one list
    n_k = [0.0] * K
    assignments = []
    for ids, row in zip(word_ids, n_dk):
        z = rng.integers(0, K, size=len(ids)).tolist()
        assignments.append(z)
        for w, k in zip(ids, z):
            row[k] += 1.0
            n_wk[w][k] += 1.0
            n_k[k] += 1.0

    for _ in range(iters):
        # the values n_tokens successive rng.random() calls would give
        uniforms = iter(rng.random(n_tokens).tolist())
        for ids, z, row in zip(word_ids, assignments, n_dk):
            for j, w in enumerate(ids):
                col = n_wk[w]
                k = z[j]
                row[k] -= 1.0
                col[k] -= 1.0
                n_k[k] -= 1.0
                p = [(a + alpha) * (b + beta) / (c + v_beta)
                     for a, b, c in zip(row, col, n_k)]
                cdf = list(accumulate(p))
                k = bisect_right(cdf, next(uniforms) * cdf[-1])
                z[j] = k
                row[k] += 1.0
                col[k] += 1.0
                n_k[k] += 1.0

    n_kw = np.array(n_wk).T.copy()  # (K, V), C order
    n_k = np.array(n_k)
    n_dk = np.array(n_dk)
    phi = (n_kw + beta) / (n_k + V * beta)[:, None]
    theta = (n_dk + alpha) / (n_dk.sum(axis=1) + K * alpha)[:, None]
    return TopicModel(phi=phi, seed=seed, doc_topic=theta)


def _symmetric_kl(p, q):
    eps = 1e-12
    p = np.maximum(p, eps)
    q = np.maximum(q, eps)
    return float(np.sum(p * np.log(p / q)) + np.sum(q * np.log(q / p)))


def arun_measure(model: TopicModel, doc_lengths) -> float:
    """Divergence between topic-word singular values and the
    length-weighted document-topic mixture (both sorted descending).
    ``phi`` has rank at most V, so above K = V its missing singular values
    are zeros."""
    sv = np.linalg.svd(model.phi, compute_uv=False)
    sv = np.pad(sv, (0, model.K - len(sv)))
    cm1 = np.sort(sv / sv.sum())[::-1]
    lengths = np.asarray(doc_lengths, dtype=float)
    mix = lengths @ model.doc_topic
    cm2 = np.sort(mix / mix.sum())[::-1]
    return _symmetric_kl(cm1, cm2)


def select_topic_count(docs, vocab, candidate_Ks, seed: int = 0, iters: int = DEFAULT_GIBBS_ITERS) -> TopicModel:
    """Fit each candidate K and return the fitted model minimizing the
    divergence measure (its ``K`` is the chosen count); ties break
    toward the smaller K."""
    candidates = sorted(set(candidate_Ks))
    if not candidates:
        raise ValidationError("empty candidate grid")
    lengths = [len(_doc_word_ids(d, vocab)) for d in docs]
    best = None
    best_measure = None
    for K in candidates:
        model = fit_lda(docs, vocab, K, seed=seed, iters=iters)
        measure = arun_measure(model, lengths)
        if best_measure is None or measure < best_measure:
            best, best_measure = model, measure
    return best


def fitted_topics(model: TopicModel, docs, vocab) -> list:
    """The dominant topic of each doc ``model`` was fitted on, read off its
    mixture ``doc_topic`` (argmax takes the smallest tied index, as
    ``infer_topic`` does); a doc with no in-vocabulary tokens gets the
    GLOBAL_TOPIC sentinel."""
    return [
        int(k) if _doc_word_ids(doc, vocab) else GLOBAL_TOPIC
        for doc, k in zip(docs, model.doc_topic.argmax(axis=1))
    ]


def infer_topic(model: TopicModel, doc, vocab, sweeps: int = DEFAULT_INFER_SWEEPS) -> int:
    """Fold-in Gibbs for a single doc; returns the dominant topic.

    Deterministic: a fresh generator is seeded from the model seed, so
    the same doc always lands on the same topic.  A doc with zero
    in-vocabulary tokens gets the GLOBAL_TOPIC sentinel.

    The doc's uniforms come from one ``rng.random(sweeps * n)`` after the
    initial topics, the values ``sweeps * n`` per-token ``rng.random()``
    calls would give; token ``j``'s ``phi`` column is read once, as row
    ``j`` of ``phi.T[ids]``.  A token allocates no array: ``shifted``
    holds ``counts + alpha``, and when a count moves by one only its
    entry is recomputed as ``counts[k] + alpha`` (never stepped by one,
    which would give other bits, as ``50/K`` need not be a binary
    fraction); ``p`` and the draw's ``cdf`` are written into two ``(K,)``
    buffers made once per doc, by the ufuncs of ``(counts + alpha) *
    column``, ``p /= p.sum()`` and ``cumsum``, in their order; with
    ``_draw``'s division and test, every draw is ``choice``'s to the bit.
    """
    ids = _doc_word_ids(doc, vocab)
    if not ids:
        return GLOBAL_TOPIC
    rng = np.random.default_rng(model.seed)
    n = len(ids)
    z = rng.integers(0, model.K, size=n)
    counts = np.bincount(z, minlength=model.K).astype(float)
    z = z.tolist()
    uniforms = iter(rng.random(sweeps * n).tolist())
    columns = list(model.phi.T[ids])  # (n, K) rows: token j's phi[:, w]
    alpha = model.alpha_lda
    shifted = counts + alpha
    counts = counts.tolist()
    p = np.empty_like(shifted)  # work buffers, reused by every token
    cdf = np.empty_like(shifted)
    multiply, divide, total = np.multiply, np.divide, np.add.reduce
    for _ in range(sweeps):
        for j, column in enumerate(columns):
            k = z[j]
            counts[k] -= 1.0
            shifted[k] = counts[k] + alpha
            multiply(shifted, column, out=p)
            divide(p, total(p), out=p)
            k = _draw(next(uniforms), p, cdf)
            z[j] = k
            counts[k] += 1.0
            shifted[k] = counts[k] + alpha
    return int(np.argmax(counts))  # argmax takes the smallest tied index


def build_cost_matrix(train_records, topics, dev_ids, K: int) -> np.ndarray:
    """(D, K) mean fixing days of each of the sorted ``dev_ids`` on each
    topic; NaN where the developer fixed no training bug of that topic.

    ``topics`` holds each record's topic, aligned with
    ``train_records``; every record has an assignee in ``dev_ids`` and a
    fixing time.  GLOBAL_TOPIC records have no cell.  A cell is one
    ``np.mean`` of its times in record order.
    """
    row = {d: i for i, d in enumerate(dev_ids)}
    samples: dict[tuple, list] = {}
    for rec, topic in zip(train_records, topics):
        if topic != GLOBAL_TOPIC:
            samples.setdefault((row[rec.actual_assignee], topic), []).append(rec.fixing_time)
    observed = np.full((len(row), K), np.nan)
    for cell, times in samples.items():
        observed[cell] = np.mean(times)
    return observed


def _similarities(observed: np.ndarray, mask: np.ndarray) -> list:
    """(D, D) nested lists: the cosine of two developers' costs over the
    topics both observed; NaN on the diagonal and for a pair with no
    shared topic or a zero norm."""
    D = len(observed)
    sim = [[np.nan] * D for _ in range(D)]
    for i in range(D):
        for j in range(i + 1, D):
            shared = mask[i] & mask[j]
            if shared.any():
                a, b = observed[i, shared], observed[j, shared]
                denom = np.linalg.norm(a) * np.linalg.norm(b)
                if denom != 0:
                    sim[i][j] = sim[j][i] = float(a @ b / denom)
    return sim


def fill_missing_cf(observed: np.ndarray) -> tuple[np.ndarray, float]:
    """(filled, global mean): the complete cost grid from the ``observed``
    grid of ``build_cost_matrix``, rows in its developer order, and the
    mean of its observed cells, the cost of a bug without a topic;
    observed cells are never altered.

    Missing (d, k): similarity-weighted average of other developers'
    observed topic-k costs, summed in developer order; falls back to the
    topic column mean (the uniform-weight degenerate case), then to the
    global mean.
    """
    mask = ~np.isnan(observed)
    if not mask.any():
        raise ValidationError("cannot fill a matrix with no observed cells")
    global_mean = float(np.mean(observed[mask]))
    sim = _similarities(observed, mask)
    costs = observed.tolist()
    filled = observed.copy()
    for i, k in zip(*np.nonzero(~mask)):
        num = den = 0.0
        for j in np.flatnonzero(mask[:, k]):
            if sim[i][j] > 0:
                num += sim[i][j] * costs[j][k]
                den += sim[i][j]
        if den > 0:
            filled[i, k] = num / den
        elif mask[:, k].any():
            filled[i, k] = np.mean(observed[mask[:, k], k])
        else:
            filled[i, k] = global_mean
    if not np.all(filled > 0):
        raise ValidationError("filled cost matrix must be strictly positive")
    return filled, global_mean
