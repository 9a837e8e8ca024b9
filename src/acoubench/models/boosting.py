"""Gradient-boosted regression trees with a second-order multiclass objective.

Each round fits one tree per class to the softmax gradients and
hessians. Leaf weights take the closed-form second-order optimum
w* = -G / (H + lambda); a split is kept only when its gain
0.5 * (GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l)) exceeds the per-leaf
penalty gamma. The recorded training loss includes the regularizer
gamma * T + lambda/2 * sum(w^2) over the shrunken weights actually
applied.

The split search is exact and greedy over a column block (Chen &
Guestrin, XGBoost, 2016): a fit sorts each feature's values once, and
every node of every tree takes its sorted order from its parent's, so
a node's work is gathers and prefix sums, not a sort.
"""

from __future__ import annotations

import numpy as np

from ..errors import checked
from .base import Classifier, softmax
from .tree import Tree, pick_split


def leaf_weight(grad_sum: float, hess_sum: float, lambda_l2: float) -> float:
    """Closed-form minimizer of the second-order leaf objective."""
    return -grad_sum / (hess_sum + lambda_l2)


def _leaf_score(g: float, h: float, lambda_l2: float) -> float:
    return g * g / (h + lambda_l2)


def presort(X):
    """Sort a training matrix's columns once: ``(order, xs, boundary)``, each [features, rows].

    ``order[f]`` lists the rows by their value of feature ``f``, ties in
    row order (a stable sort); ``xs`` holds those values and ``boundary``
    [features, rows-1] is true where the value rises between sorted rows
    i and i+1, so a threshold fits there. Every tree of a fit starts its
    root from this block.
    """
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable")
    xs = np.take_along_axis(XT, order, axis=1)
    return order, xs, xs[:, :-1] < xs[:, 1:]


def _build_tree(tree, X, root, g, h, max_depth, gamma_split, lambda_l2) -> np.ndarray:
    """Append a regression tree on gradients ``g`` and hessians ``h`` to ``tree``.

    ``root`` is ``presort(X)``. A child's sorted order is its parent's,
    filtered to the child's rows, so no node sorts. Leaves hold weights.
    Every feature is a candidate at every node, compared in index order;
    each feature's best boundary is the first at its maximum gain.
    Returns the leaf each row of ``X`` reaches.
    """
    sorted_at = [root]  # (order, xs, boundary) of the latest node searched at each depth

    def node(rows, depth):
        G, H = float(g[rows].sum()), float(h[rows].sum())
        weight = leaf_weight(G, H, lambda_l2)
        if depth >= max_depth or len(rows) < 2:
            return weight, None
        if depth:
            # preorder: the latest node searched one level up is this node's parent
            parent_order, parent_xs, _ = sorted_at[depth - 1]
            inside = np.zeros(len(X), dtype=bool)
            inside[rows] = True
            keep = np.flatnonzero(inside[parent_order])
            shape = (len(parent_order), len(rows))
            order = parent_order.take(keep).reshape(shape)
            xs = parent_xs.take(keep).reshape(shape)
            sorted_at[depth:] = [(order, xs, xs[:, :-1] < xs[:, 1:])]
        order, xs, boundary = sorted_at[depth]
        gl = np.cumsum(g[order], axis=1)[:, :-1]
        hl = np.cumsum(h[order], axis=1)[:, :-1]
        gains = 0.5 * (
            gl ** 2 / (hl + lambda_l2)
            + (G - gl) ** 2 / (H - hl + lambda_l2)
            - _leaf_score(G, H, lambda_l2)
        ) - gamma_split
        gains = np.where(boundary, gains, -np.inf)
        found = pick_split(xs, np.argmax(gains, axis=1), gains.max(axis=1))
        return weight, None if found is None else found[:2]

    return tree.grow(X, node)


class GradientBoostedTrees(Classifier):
    """Multiclass softmax boosting with shrinkage."""

    kind = "gbt"

    def __init__(
        self,
        n_rounds: int = 60,
        learning_rate: float = 0.3,
        max_depth: int = 3,
        gamma_split: float = 0.0,
        lambda_l2: float = 1.0,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        self.n_rounds = checked("n_rounds", n_rounds, int, "[1, inf)")
        self.learning_rate = checked("learning_rate", learning_rate, float, "(0, 1]")
        self.max_depth = checked("max_depth", max_depth, int, "[1, inf)")
        self.gamma_split = checked("gamma_split", gamma_split, float, "[0, inf)")
        self.lambda_l2 = checked("lambda_l2", lambda_l2, float, "[0, inf)")

    def _regularized_loss(self, scores, onehot):
        probs = softmax(scores)
        ce = -float(np.sum(onehot * np.log(np.maximum(probs, 1e-12))))
        return ce + self._omega

    def _fit(self, X, y):
        """Tree ``t`` of ``tree_`` is round ``t // C``'s tree for class ``t % C``."""
        n, _ = X.shape
        C = self.class_count
        onehot = np.eye(C)[y]
        scores = np.zeros((n, C))
        root = presort(X)
        self.tree_ = Tree()
        self._omega = 0.0
        self.loss_history_ = [self._regularized_loss(scores, onehot)]
        for _ in range(self.n_rounds):
            probs = softmax(scores)
            for c in range(C):
                g = probs[:, c] - onehot[:, c]
                h = probs[:, c] * (1.0 - probs[:, c])
                leaf = _build_tree(
                    self.tree_, X, root, g, h, self.max_depth, self.gamma_split, self.lambda_l2
                )
                scores[:, c] += self.learning_rate * self.tree_.value[leaf]
                grown = slice(self.tree_.roots[-1], None)
                weights = self.tree_.value[grown][self.tree_.feature[grown] < 0]
                shrunk = self.learning_rate * weights
                self._omega += self.gamma_split * len(weights)
                self._omega += 0.5 * self.lambda_l2 * float(np.sum(shrunk ** 2))
            self.loss_history_.append(self._regularized_loss(scores, onehot))

    def _raw_scores(self, X) -> np.ndarray:
        """Shrunken leaf weights summed tree by tree in fit order, round then class."""
        values = self.tree_.value[self.tree_.apply(X)]
        C = self.class_count
        scores = np.zeros((len(values), C))
        for r in range(self.n_rounds):
            scores += self.learning_rate * values[:, r * C : (r + 1) * C]
        return scores

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        return softmax(self._raw_scores(X))
