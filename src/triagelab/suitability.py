"""Developer-suitability scoring from bug text.

A one-vs-rest linear max-margin classifier maps a TF-IDF row to a
raw score per active developer.  Raw scores are min-max normalized per
bug, so each row has max 1 and only the within-bug ordering matters.
Training is full-batch subgradient descent on the hinge loss with a
fixed epoch budget, which makes identical inputs give identical
weights.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DEFAULT_C = 1000.0
DEFAULT_EPOCHS = 200


@dataclass
class LinearModel:
    dev_ids: list  # sorted; row order of weights
    weights: np.ndarray  # (n_devs, n_features) finite
    bias: np.ndarray  # (n_devs,)
    n_features: int
    C: float = DEFAULT_C
    epochs: int = DEFAULT_EPOCHS

    def decision_values(self, row: np.ndarray) -> np.ndarray:
        return self.weights @ row + self.bias

    def to_json(self) -> str:
        per_dev = []
        for row, dev in enumerate(self.dev_ids):
            nz = np.nonzero(self.weights[row])[0]
            per_dev.append(
                {
                    "dev_id": dev,
                    "bias": float(self.bias[row]),
                    "weights": [[int(i), float(self.weights[row, i])] for i in nz],
                }
            )
        return json.dumps(
            {
                "n_features": self.n_features,
                "C": self.C,
                "epochs": self.epochs,
                "developers": per_dev,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "LinearModel":
        obj = json.loads(text)
        dev_ids = [d["dev_id"] for d in obj["developers"]]
        n_features = obj["n_features"]
        weights = np.zeros((len(dev_ids), n_features))
        bias = np.zeros(len(dev_ids))
        for row, d in enumerate(obj["developers"]):
            bias[row] = d["bias"]
            for idx, w in d["weights"]:
                weights[row, idx] = w
        return cls(
            dev_ids=dev_ids,
            weights=weights,
            bias=bias,
            n_features=n_features,
            C=obj["C"],
            epochs=obj["epochs"],
        )


def train_classifier(
    X: np.ndarray,
    labels,
    C: float = DEFAULT_C,
    epochs: int = DEFAULT_EPOCHS,
) -> LinearModel:
    """Fit one-vs-rest hinge-loss linear separators.

    ``X`` holds one TF-IDF row per training bug and ``labels`` its
    developer.  Requires at least two distinct labels.  Deterministic:
    fixed epoch count, full-batch updates, no shuffling.
    """
    if not C > 0:
        raise ValidationError(f"C must be positive, got {C}")
    dev_ids = sorted(set(labels))
    if len(dev_ids) < 2:
        raise ValidationError("need at least two developer labels to train")
    n, n_features = X.shape
    X = np.hstack([X, np.ones((n, 1))])  # last column: constant bias feature
    labels = np.array(labels)
    lam = 1.0 / (C * n)
    if not 0.0 < lam < math.inf:  # C = inf gives 0; a subnormal C overflows to inf
        raise ValidationError(
            f"C={C} gives regularization 1/(C*n) = {lam} for n={n} bugs; "
            "it must be finite and positive"
        )
    weights = np.zeros((len(dev_ids), n_features))
    bias = np.zeros(len(dev_ids))
    for row, dev in enumerate(dev_ids):
        y = np.where(labels == dev, 1.0, -1.0)
        w = np.zeros(n_features + 1)
        for t in range(1, epochs + 1):
            margins = y * (X @ w)
            violating = margins < 1.0
            grad = lam * np.concatenate([w[:-1], [0.0]])  # bias unregularized
            grad -= (y[violating] @ X[violating]) / n
            w -= grad / (lam * t)
        if not np.all(np.isfinite(w)):
            raise ValidationError("training diverged to non-finite weights")
        weights[row] = w[:-1]
        bias[row] = w[-1]
    return LinearModel(
        dev_ids=dev_ids,
        weights=weights,
        bias=bias,
        n_features=n_features,
        C=C,
        epochs=epochs,
    )


def predict_suitability(model: LinearModel, row: np.ndarray, developers) -> np.ndarray:
    """Min-max normalized decision values of a TF-IDF ``row``, one per
    developer in sorted ``developers`` order.

    All-equal decision values normalize to all 1.0 (no information:
    every developer equally suitable).
    """
    developers = sorted(developers)
    if not developers:
        raise ValidationError("empty developer set")
    decisions = model.decision_values(row)
    row_index = {dev: i for i, dev in enumerate(model.dev_ids)}
    try:
        values = decisions[[row_index[d] for d in developers]]
    except KeyError as exc:
        raise ValidationError(f"developer {exc.args[0]} not in model") from exc
    lo, hi = values.min(), values.max()
    if hi - lo == 0.0:
        return np.ones(len(developers))
    return (values - lo) / (hi - lo)
