"""Binary decision tree stored as flat node arrays, shared by the forest and boosting.

Nodes are numbered in depth-first preorder. Node ``i`` sends a row with
``x[feature[i]] <= threshold[i]`` to ``left[i]`` and every other row,
NaN included, to ``right[i]``. A leaf has feature -1 and children -1.
``value[i]`` is the node's payload: class counts in the forest, the
weight in boosting.
"""

from __future__ import annotations

import numpy as np


class Tree:
    """Flat-array tree: ``feature``, ``threshold``, ``left``, ``right``, ``value``."""

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=float)

    @classmethod
    def grow(cls, X, node) -> "Tree":
        """Grow depth first, left subtree before right.

        ``node(Xn, rows, depth)`` is called once per node, in preorder,
        with the node's rows ``Xn = X[rows]`` (in input order) and
        returns ``(value, split)``: the node's payload and either a
        ``(feature, threshold)`` pair or None for a leaf.
        """
        nodes = []  # one [feature, threshold, left, right, value] per node, in preorder

        def visit(Xn, rows, depth):
            i = len(nodes)
            value, split = node(Xn, rows, depth)
            nodes.append([-1, 0.0, -1, -1, value])
            if split is not None:
                f, t = split
                mask = Xn[:, f] <= t
                left = visit(Xn[mask], rows[mask], depth + 1)
                right = visit(Xn[~mask], rows[~mask], depth + 1)
                nodes[i][:4] = f, t, left, right
            return i

        visit(X, np.arange(len(X)), 0)
        return cls(*zip(*nodes))

    def apply(self, X) -> np.ndarray:
        """Leaf index of each row, moving all rows down one level per step."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        node = np.zeros(len(X), dtype=np.intp)
        rows = np.flatnonzero(self.feature[node] >= 0)
        while rows.size:
            at = node[rows]
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
            rows = rows[self.feature[node[rows]] >= 0]
        return node

    def predict(self, X) -> np.ndarray:
        """Payload of the leaf each row reaches."""
        return self.value[self.apply(X)]


def sorted_prefix_sums(cols, targets):
    """Sort a node's candidate columns once; accumulate its targets in that order.

    ``cols`` is [n, k], ``targets`` [n, m]. Returns ``(xs, boundary,
    prefix)``: the columns sorted (stably, so equal values keep their row
    order); a mask [n-1, k], true where a column's value rises between
    sorted rows i and i+1, so a threshold fits there; and ``prefix``
    [n-1, k, m], the target sums over the i+1 smallest rows per column.
    """
    order = np.argsort(cols, axis=0, kind="stable")
    xs = np.take_along_axis(cols, order, axis=0)
    return xs, xs[:-1] < xs[1:], np.cumsum(targets[order], axis=0)[:-1]


def pick_split(xs, rows, gains):
    """Winner of a scan over the columns in order: ``(column, threshold, gain)`` or None.

    Column j's best gain ``gains[j]`` lies between its sorted rows
    ``rows[j]`` and ``rows[j] + 1``, and the threshold is their midpoint.
    A column wins only if it beats the best so far by more than 1e-15,
    so of two near-equal columns the earlier one is kept.
    """
    best, best_gain = None, 0.0
    for j, gain in enumerate(gains):
        if gain > best_gain + 1e-15:
            best, best_gain = j, gain
    if best is None:
        return None
    i = rows[best]
    return best, float(0.5 * (xs[i, best] + xs[i + 1, best])), float(best_gain)
