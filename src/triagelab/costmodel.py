"""Fixing-cost estimation: LDA topics + per-topic developer averages.

Bugs are grouped into topics with collapsed-Gibbs LDA (topic count
picked by the singular-value / document-mixture divergence criterion).
A training bug's topic is its dominant topic in the fitted mixture
(``fitted_topics``); only a bug the fit never saw is folded in
(``infer_topic``).  Each developer's cost for a topic is the arithmetic
mean of their training fixing times on that topic; missing cells are
filled by a user-based cosine collaborative filter with deterministic
fallbacks (topic column mean, then global mean).

Every Gibbs draw takes one uniform ``u`` from the generator, as
``Generator.choice`` does.  The fit's sweep is scalar Python over lists
of counts; each draw is a plain inverse-CDF draw on the unnormalised
weights: the first index whose running sum exceeds ``u`` times their
total.  The fold-in computes ``p`` in numpy and repeats ``choice``'s
arithmetic (``_draw``) without its per-call overhead.
tests/test_costmodel.py keeps numpy + ``choice`` loops as references.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ValidationError
from .schema import Spec

GLOBAL_TOPIC = -1  # sentinel for docs with no in-vocabulary tokens

DEFAULT_GIBBS_ITERS = 1000
DEFAULT_INFER_SWEEPS = 50
BETA_LDA = 0.01

OBSERVED = "OBSERVED"
CF = "CF"
GLOBAL_MEAN = "GLOBAL_MEAN"
PROVENANCE = (OBSERVED, CF, GLOBAL_MEAN)  # how a cost cell was filled


@dataclass
class TopicModel:
    K: int
    phi: np.ndarray  # (K, V); rows sum to 1
    alpha_lda: float
    seed: int
    vocab_size: int
    # (D, K) training mixture, for selection and the training bugs' topics
    doc_topic: np.ndarray | None = None

    SCHEMA = Spec("obj", {
        "K": Spec("int", min=1),
        "alpha_lda": Spec("num", above=0),
        "seed": Spec("int", min=0),
        "vocab_size": Spec("int", min=1),
        "phi": Spec("list", Spec("list", Spec("num", min=0), length="vocab_size"), length="K"),
    })

    def to_json(self) -> str:
        return json.dumps({"K": self.K, "alpha_lda": self.alpha_lda, "seed": self.seed,
                           "vocab_size": self.vocab_size, "phi": self.phi.tolist()}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TopicModel":
        obj = cls.SCHEMA.parse(text)
        phi = np.array(obj["phi"], dtype=float)
        if not ((phi.sum(axis=1) > 0).all() and (phi.sum(axis=0) > 0).all()):
            raise ValidationError("every phi row and column must have a positive sum")
        return cls(**dict(obj, phi=phi))


def _doc_word_ids(doc, vocab):
    return [vocab.index[t] for t in doc.tokens if t in vocab.index]


def _draw(rng, p) -> int:
    """The index ``rng.choice(len(p), p=p)`` returns, from the same single
    ``rng.random()`` draw and the same arithmetic, without ``choice``'s
    per-call validation."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


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
    return TopicModel(
        K=K,
        phi=phi,
        alpha_lda=alpha,
        seed=seed,
        vocab_size=V,
        doc_topic=theta,
    )


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
    """
    ids = _doc_word_ids(doc, vocab)
    if not ids:
        return GLOBAL_TOPIC
    rng = np.random.default_rng(model.seed)
    K = model.K
    alpha = model.alpha_lda
    z = rng.integers(0, K, size=len(ids))
    counts = np.bincount(z, minlength=K).astype(float)
    for _ in range(sweeps):
        for j, w in enumerate(ids):
            counts[z[j]] -= 1
            p = (counts + alpha) * model.phi[:, w]
            p /= p.sum()
            k = _draw(rng, p)
            z[j] = k
            counts[k] += 1
    return int(np.argmax(counts))  # argmax takes the smallest tied index


@dataclass
class CostMatrix:
    dev_ids: list  # sorted
    K: int
    observed: dict  # (dev_id, k) -> mean fixing days
    filled: np.ndarray  # (D, K), complete and positive
    provenance: dict  # (dev_id, k) -> OBSERVED, CF or GLOBAL_MEAN

    @property
    def global_mean(self) -> float:
        return float(np.mean(list(self.observed.values())))

    # a cell is [dev_id, topic, value]; fill_missing_cf needs an observed one
    _CELL = Spec("int", one_of="dev_ids"), Spec("int", min=0, below="K")
    SCHEMA = Spec("obj", {
        "dev_ids": Spec("list", Spec("int"), unique=(None,)),
        "K": Spec("int", min=1),
        "observed": Spec("list", Spec("list", (*_CELL, Spec("num", above=0))),
                         unique=((0, 1),), min=1),
        "filled": Spec("list", Spec("list", Spec("num", above=0), length="K"), length="dev_ids"),
        "provenance": Spec("list", Spec("list", (*_CELL, Spec("str", one_of=PROVENANCE))),
                           unique=((0, 1),)),
    })

    def to_json(self) -> str:
        return json.dumps({
            "dev_ids": self.dev_ids,
            "K": self.K,
            "observed": [[d, k, v] for (d, k), v in sorted(self.observed.items())],
            "filled": self.filled.tolist(),
            "provenance": [[d, k, p] for (d, k), p in sorted(self.provenance.items())],
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CostMatrix":
        obj = cls.SCHEMA.parse(text)
        return cls(**dict(
            obj,
            observed={(d, k): v for d, k, v in obj["observed"]},
            filled=np.array(obj["filled"], dtype=float),
            provenance={(d, k): p for d, k, p in obj["provenance"]},
        ))


def build_cost_matrix(train_records, topics) -> dict:
    """Observed cells: (developer, topic) -> mean fixing days.

    ``topics`` holds each record's topic, aligned with
    ``train_records``; every record has an assignee and a fixing time.
    GLOBAL_TOPIC records have no cell.
    """
    samples: dict[tuple, list] = {}
    for rec, topic in zip(train_records, topics):
        if topic != GLOBAL_TOPIC:
            samples.setdefault((rec.actual_assignee, topic), []).append(rec.fixing_time)
    return {cell: float(np.mean(times)) for cell, times in sorted(samples.items())}


def _dev_similarity(obs_a: dict, obs_b: dict) -> float | None:
    """Cosine over commonly observed topics; None without overlap."""
    shared = sorted(set(obs_a) & set(obs_b))
    if not shared:
        return None
    a = np.array([obs_a[k] for k in shared])
    b = np.array([obs_b[k] for k in shared])
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0:
        return None
    return float(a @ b / denom)


def fill_missing_cf(observed: dict, dev_ids, K: int) -> CostMatrix:
    """The complete (developer, topic) matrix over sorted ``dev_ids``;
    observed cells are never altered.

    Missing (d, k): similarity-weighted average of other developers'
    observed topic-k costs; falls back to the topic column mean (tagged
    CF, the uniform-weight degenerate case), then to the global mean.
    """
    if not observed:
        raise ValidationError("cannot fill a matrix with no observed cells")
    dev_ids = list(dev_ids)
    by_dev: dict[int, dict] = {d: {} for d in dev_ids}
    for (d, k), v in observed.items():
        by_dev[d][k] = v
    global_mean = float(np.mean(list(observed.values())))

    filled = np.zeros((len(dev_ids), K))
    provenance = {}
    for i, d in enumerate(dev_ids):
        for k in range(K):
            if (d, k) in observed:
                filled[i, k] = observed[(d, k)]
                provenance[(d, k)] = OBSERVED
                continue
            num = den = 0.0
            for other in dev_ids:
                if other == d or k not in by_dev[other]:
                    continue
                sim = _dev_similarity(by_dev[d], by_dev[other])
                if sim is None or sim <= 0:
                    continue
                num += sim * by_dev[other][k]
                den += sim
            if den > 0:
                filled[i, k] = num / den
                provenance[(d, k)] = CF
                continue
            column = [by_dev[o][k] for o in dev_ids if k in by_dev[o]]
            if column:
                filled[i, k] = float(np.mean(column))
                provenance[(d, k)] = CF
            else:
                filled[i, k] = global_mean
                provenance[(d, k)] = GLOBAL_MEAN
    if not np.all(filled > 0):
        raise ValidationError("filled cost matrix must be strictly positive")
    return CostMatrix(
        dev_ids=dev_ids, K=K, observed=dict(observed), filled=filled, provenance=provenance
    )
