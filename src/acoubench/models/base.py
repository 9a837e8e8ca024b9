"""Uniform train / predict / predict-proba contract for all learners."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError, checked

MODEL_KINDS = ("knn", "svm", "rf", "gbt", "mlp", "ensemble")


class Classifier:
    """Base class: subclasses implement ``_fit`` and ``predict_proba``.

    A fitted model is immutable in use; ``class_count`` and
    ``training_seconds`` are set by ``fit``. ``predict`` breaks
    probability ties toward the lowest class index.
    """

    kind = "base"

    def __init__(self, seed: int = 0):
        self.seed = checked("seed", seed, int)
        self.class_count: int | None = None
        self.training_seconds: float | None = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
            raise ParameterError("X must be [n, d] with one label per row")
        if y.min() < 0:
            raise ParameterError("labels must be non-negative integers 0..C-1")
        self.class_count = int(y.max()) + 1
        start = time.perf_counter()
        self._fit(X, y)
        self.training_seconds = time.perf_counter() - start
        return self

    def _fit(self, X, y):
        raise NotImplementedError

    def predict_proba(self, X) -> np.ndarray:
        raise NotImplementedError

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)

    def _check_fitted(self):
        if self.class_count is None:
            raise ParameterError(f"{self.kind} model is not fitted")


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by each row's maximum."""
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared euclidean distances [rows of A, rows of B], floored at 0 against round-off."""
    sq = (
        np.sum(A ** 2, axis=1)[:, None]
        + np.sum(B ** 2, axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    return np.maximum(sq, 0.0)


@dataclass(frozen=True)
class ModelSpec:
    """Declarative model description: kind, hyperparameters and seed."""

    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ParameterError(f"unknown model kind {self.kind!r}; known: {MODEL_KINDS}")

    def build(self) -> Classifier:
        from . import make_model

        return make_model(self)


def validate_probabilities(probs: np.ndarray, class_count: int, atol: float = 1e-9) -> None:
    """Assert the ProbabilityVector contract: bounds and unit sums."""
    probs = np.asarray(probs)
    if probs.shape[-1] != class_count:
        raise ParameterError("probability vector length must equal class_count")
    if np.any(probs < -atol) or np.any(probs > 1 + atol):
        raise ParameterError("probabilities out of [0, 1]")
    sums = probs.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > atol):
        raise ParameterError("probabilities must sum to 1")
