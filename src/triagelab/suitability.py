"""Developer-suitability scoring from bug text.

A one-vs-rest linear max-margin classifier maps a TF-IDF row to a
raw score per active developer.  Raw scores are min-max normalized per
bug, so each row has max 1 and only the within-bug ordering matters.
Training is full-batch subgradient descent on the hinge loss with a
fixed epoch budget, which makes identical inputs give identical
weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DEFAULT_C = 1000.0
EPOCHS = 200


@dataclass
class LinearModel:
    dev_ids: list  # sorted; row order of weights
    weights: np.ndarray  # (n_devs, n_terms) finite
    bias: np.ndarray  # (n_devs,)

    def decision_values(self, row: np.ndarray) -> np.ndarray:
        return self.weights @ row + self.bias


def train_classifier(X: np.ndarray, labels, C: float = DEFAULT_C) -> LinearModel:
    """Fit one-vs-rest hinge-loss linear separators.

    ``X`` holds one TF-IDF row per training bug and ``labels`` its
    developer.  Requires at least two distinct labels.  Deterministic:
    ``EPOCHS`` full-batch updates, no shuffling.
    """
    if not C > 0:
        raise ValidationError(f"C must be positive, got {C}")
    dev_ids = sorted(set(labels))
    if len(dev_ids) < 2:
        raise ValidationError("need at least two developer labels to train")
    n, n_terms = X.shape
    X = np.hstack([X, np.ones((n, 1))])  # last column: constant bias feature
    labels = np.array(labels)
    lam = 1.0 / (C * n)
    if not 0.0 < lam < math.inf:  # C = inf gives 0; a subnormal C overflows to inf
        raise ValidationError(
            f"C={C} gives regularization 1/(C*n) = {lam} for n={n} bugs; "
            "it must be finite and positive"
        )
    weights = np.zeros((len(dev_ids), n_terms))
    bias = np.zeros(len(dev_ids))
    for row, dev in enumerate(dev_ids):
        y = np.where(labels == dev, 1.0, -1.0)
        w = np.zeros(n_terms + 1)
        for t in range(1, EPOCHS + 1):
            margins = y * (X @ w)
            violating = margins < 1.0
            grad = lam * np.concatenate([w[:-1], [0.0]])  # bias unregularized
            grad -= (y[violating] @ X[violating]) / n
            w -= grad / (lam * t)
        if not np.all(np.isfinite(w)):
            raise ValidationError("training diverged to non-finite weights")
        weights[row] = w[:-1]
        bias[row] = w[-1]
    return LinearModel(dev_ids=dev_ids, weights=weights, bias=bias)


def predict_suitability(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """Min-max normalized decision values of the TF-IDF rows ``X``, one
    row per bug and one column per developer in ``model.dev_ids`` order.

    A row whose decision values are all equal normalizes to all 1.0 (no
    information: every developer equally suitable).
    """
    # one product per row: a single X @ W.T rounds differently
    values = np.array([model.decision_values(row) for row in X])
    values = values.reshape(len(X), len(model.dev_ids))
    lo = values.min(axis=1, keepdims=True)
    span = values.max(axis=1, keepdims=True) - lo
    return np.divide(values - lo, span, out=np.ones_like(values), where=span != 0)
