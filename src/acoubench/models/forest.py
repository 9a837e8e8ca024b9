"""Random forest built on Gini decision trees with per-node feature draws."""

from __future__ import annotations

import math

import numpy as np

from ..errors import checked
from .base import Classifier
from .tree import Tree, pick_split


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.sum(p * p))


def sorted_prefix_sums(cols, targets):
    """Sort a node's candidate columns once; accumulate its targets in that order.

    ``cols`` is [k, n], one candidate column per row, and ``targets``
    [n, m]. Returns ``(xs, boundary, prefix)``: the columns sorted
    (stably, so equal values keep their row order); a mask [k, n-1], true
    where a column's value rises between sorted rows i and i+1, so a
    threshold fits there; and ``prefix`` [k, n-1, m], the target sums over
    the i+1 smallest rows per column.
    """
    order = np.argsort(cols, axis=1, kind="stable")
    xs = np.take_along_axis(cols, order, axis=1)
    return xs, xs[:, :-1] < xs[:, 1:], np.cumsum(targets[order], axis=1)[:, :-1]


def _best_split(cols, onehot, counts, feature_ids):
    """Best (feature, threshold, gain) over candidate features, or None.

    ``cols`` [k, n] holds the node's values of ``feature_ids``, one row
    per candidate in draw order; ``onehot`` [n, C] holds its rows'
    classes and ``counts`` their sum per class. Thresholds are midpoints
    between consecutive distinct sorted values; gain is the decrease in
    Gini impurity weighted by child sizes. Each feature's best boundary
    is the first at the minimum weighted Gini; features compete in draw
    order.
    """
    n = len(onehot)
    xs, boundary, left_counts = sorted_prefix_sums(cols, onehot)
    left_n = np.arange(1.0, n)
    right_n = n - left_n
    pl = left_counts / left_n[:, None]
    pr = (counts - left_counts) / right_n[:, None]
    gini_l = 1.0 - (pl * pl).sum(axis=-1)
    gini_r = 1.0 - (pr * pr).sum(axis=-1)
    weighted = np.where(boundary, (left_n * gini_l + right_n * gini_r) / n, np.inf)
    found = pick_split(xs, np.argmin(weighted, axis=1), _gini(counts) - weighted.min(axis=1))
    if found is None:
        return None
    j, threshold, gain = found
    return int(feature_ids[j]), threshold, gain


def _grow_tree(tree, X, y, n_classes, max_depth, min_samples_split, max_features, rng):
    """Append one CART tree on ``X``, ``y`` to ``tree``; its leaves hold class counts.

    Each node draws ``max_features`` candidate features from ``rng``.
    Returns the tree's impurity decrease per feature, each node's gain
    weighted by its share of the rows.
    """
    d = X.shape[1]
    importance = np.zeros(d)
    XT = np.ascontiguousarray(X.T)
    onehot = np.eye(n_classes)[y]

    def node(rows, depth):
        counts = np.bincount(y[rows], minlength=n_classes).astype(float)
        if depth >= max_depth or len(rows) < min_samples_split or np.count_nonzero(counts) <= 1:
            return counts, None
        ids = rng.choice(d, size=max_features, replace=False)
        found = _best_split(XT[ids[:, None], rows], onehot[rows], counts, ids)
        if found is None:
            return counts, None
        feature, threshold, gain = found
        importance[feature] += gain * len(rows) / len(y)
        return counts, (feature, threshold)

    tree.grow(X, node)
    return importance


def default_max_features(n_features: int) -> int:
    """Per-node feature draw: floor of the square root of the feature count."""
    return max(1, int(math.isqrt(n_features)))


class RandomForestClassifier(Classifier):
    """Bagged Gini trees; probabilities are the per-class vote fractions."""

    kind = "rf"

    def __init__(self, n_trees: int = 60, max_depth: int = 16,
                 min_samples_split: int = 2, seed: int = 0):
        super().__init__(seed=seed)
        self.n_trees = checked("n_trees", n_trees, int, "[1, inf)")
        self.max_depth = checked("max_depth", max_depth, int, "[1, inf)")
        self.min_samples_split = checked("min_samples_split", min_samples_split, int, "[2, inf)")

    def _fit(self, X, y):
        n, d = X.shape
        m_try = default_max_features(d)
        seeds = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        self.tree_ = Tree()
        self.importances_ = np.zeros((self.n_trees, d))
        for t in range(self.n_trees):
            rng = np.random.default_rng(seeds[t])
            sample = rng.integers(0, n, size=n)  # bootstrap of size n
            self.importances_[t] = _grow_tree(
                self.tree_, X[sample], y[sample], self.class_count, self.max_depth,
                self.min_samples_split, m_try, np.random.default_rng(rng.integers(2 ** 31)),
            )

    def predict_proba(self, X) -> np.ndarray:
        """Vote fractions; each tree votes for its leaf's majority class, the lowest on a tie."""
        self._check_fitted()
        leaves = self.tree_.apply(X)
        winners = np.argmax(self.tree_.value[leaves], axis=2)
        n, C = len(leaves), self.class_count
        votes = np.bincount((np.arange(n)[:, None] * C + winners).ravel(), minlength=n * C)
        return votes.reshape(n, C) / self.n_trees

    def feature_importances(self) -> np.ndarray:
        """Mean impurity decrease per feature, normalized to sum to 1."""
        self._check_fitted()
        total = self.importances_.mean(axis=0)
        s = total.sum()
        if s == 0:
            return np.full_like(total, 1.0 / len(total))
        return total / s
