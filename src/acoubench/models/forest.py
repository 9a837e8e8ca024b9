"""Random forest built on Gini decision trees with per-node feature draws."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterError
from .base import Classifier
from .tree import Tree, pick_split, sorted_prefix_sums


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.sum(p * p))


def _best_split(X, y, n_classes, feature_ids):
    """Best (feature, threshold, gain) over candidate features, or None.

    Thresholds are midpoints between consecutive distinct sorted values;
    gain is the decrease in Gini impurity weighted by child sizes. Each
    feature's best boundary is the first at the minimum weighted Gini;
    features compete in draw order.
    """
    n = len(y)
    parent_counts = np.bincount(y, minlength=n_classes).astype(float)
    parent_gini = _gini(parent_counts)
    xs, boundary, left_counts = sorted_prefix_sums(X[:, feature_ids], np.eye(n_classes)[y])
    left_n = np.arange(1.0, n)[:, None]
    right_n = n - left_n
    right_counts = parent_counts - left_counts
    pl = left_counts / left_n[..., None]
    pr = right_counts / right_n[..., None]
    gini_l = 1.0 - np.sum(pl * pl, axis=-1)
    gini_r = 1.0 - np.sum(pr * pr, axis=-1)
    weighted = np.where(boundary, (left_n * gini_l + right_n * gini_r) / n, np.inf)
    found = pick_split(xs, np.argmin(weighted, axis=0), parent_gini - weighted.min(axis=0))
    if found is None:
        return None
    j, threshold, gain = found
    return int(feature_ids[j]), threshold, gain


class DecisionTree:
    """Single CART-style classification tree; leaves hold class counts."""

    def __init__(self, max_depth: int = 16, min_samples_split: int = 2,
                 max_features: int | None = None, seed: int = 0):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed

    def fit(self, X, y, n_classes: int):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        d = X.shape[1]
        self.feature_importance = np.zeros(d)
        rng = np.random.default_rng(self.seed)
        m = min(self.max_features or d, d)

        def node(Xn, rows, depth):
            yn = y[rows]
            counts = np.bincount(yn, minlength=n_classes).astype(float)
            if (
                depth >= self.max_depth
                or len(yn) < self.min_samples_split
                or np.count_nonzero(counts) <= 1
            ):
                return counts, None
            feature_ids = rng.choice(d, size=m, replace=False)
            found = _best_split(Xn, yn, n_classes, feature_ids)
            if found is None:
                return counts, None
            feature, threshold, gain = found
            self.feature_importance[feature] += gain * len(yn) / len(y)
            return counts, (feature, threshold)

        self.tree_ = Tree.grow(X, node)
        return self

    def predict_class(self, X) -> np.ndarray:
        return np.argmax(self.tree_.predict(X), axis=1)


def default_max_features(n_features: int) -> int:
    """Per-node feature draw: floor of the square root of the feature count."""
    return max(1, int(math.isqrt(n_features)))


class RandomForestClassifier(Classifier):
    """Bagged Gini trees; probabilities are the per-class vote fractions."""

    kind = "rf"

    def __init__(self, n_trees: int = 60, max_depth: int = 16,
                 min_samples_split: int = 2, seed: int = 0):
        super().__init__(seed=seed)
        if n_trees < 1:
            raise ParameterError("n_trees must be >= 1")
        self.n_trees = int(n_trees)
        self.max_depth = int(max_depth)
        self.min_samples_split = int(min_samples_split)

    def _fit(self, X, y):
        n, d = X.shape
        m_try = default_max_features(d)
        seeds = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        self.trees_ = []
        for t in range(self.n_trees):
            rng = np.random.default_rng(seeds[t])
            sample = rng.integers(0, n, size=n)  # bootstrap of size n
            tree = DecisionTree(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                max_features=m_try,
                seed=rng.integers(2 ** 31),
            )
            tree.fit(X[sample], y[sample], self.class_count)
            self.trees_.append(tree)

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=float))
        votes = np.zeros((len(X), self.class_count))
        for tree in self.trees_:
            votes[np.arange(len(X)), tree.predict_class(X)] += 1.0
        return votes / self.n_trees

    def feature_importances(self) -> np.ndarray:
        """Mean impurity decrease per feature, normalized to sum to 1."""
        self._check_fitted()
        total = np.mean([tree.feature_importance for tree in self.trees_], axis=0)
        s = total.sum()
        if s == 0:
            return np.full_like(total, 1.0 / len(total))
        return total / s
