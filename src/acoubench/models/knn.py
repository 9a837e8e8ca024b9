"""k-nearest-neighbour classifier with three distance metrics."""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError, checked
from .base import Classifier, squared_distances

_CHUNK = 256  # queries per distance block, bounds peak memory


def cosine_distance(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """1 - cosine similarity; any zero vector is at distance 1 from everything."""
    qn = np.linalg.norm(queries, axis=1)
    pn = np.linalg.norm(points, axis=1)
    dots = queries @ points.T
    denom = np.outer(qn, pn)
    sim = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
    return 1.0 - sim


def _distances(queries, points, metric):
    if metric == "euclidean":
        return np.sqrt(squared_distances(queries, points))
    if metric == "manhattan":
        return np.abs(queries[:, None, :] - points[None, :, :]).sum(axis=2)
    if metric == "cosine":
        return cosine_distance(queries, points)
    raise ParameterError(f"unknown metric {metric!r}")


class KNNClassifier(Classifier):
    """Stores the training set; probabilities are neighbour vote shares.

    Ties at the k-th distance resolve toward the lowest training index,
    so predictions are deterministic.
    """

    kind = "knn"

    def __init__(self, k: int = 7, metric: str = "euclidean", seed: int = 0):
        super().__init__(seed=seed)
        if metric not in ("euclidean", "manhattan", "cosine"):
            raise ParameterError(f"unknown metric {metric!r}")
        self.k = checked("k", k, int, "[1, inf)")
        self.metric = metric

    def _fit(self, X, y):
        if self.k > len(X):
            raise ParameterError(f"k={self.k} exceeds training size {len(X)}")
        self.X_ = X.copy()
        self.y_ = y.copy()

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty((len(X), self.class_count))
        for start in range(0, len(X), _CHUNK):
            block = X[start : start + _CHUNK]
            dist = _distances(block, self.X_, self.metric)
            # stable sort: equal distances keep ascending training index
            nearest = np.argsort(dist, axis=1, kind="stable")[:, : self.k]
            labels = self.y_[nearest]
            for row, lab in enumerate(labels):
                out[start + row] = np.bincount(lab, minlength=self.class_count) / self.k
        return out
