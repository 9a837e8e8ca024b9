"""Every tree of one model in one set of flat node arrays, shared by the forest and boosting.

Each tree's nodes are numbered in depth-first preorder, one tree after
another in fit order, and ``roots[t]`` is the root of tree ``t``. Node
``i`` sends a row with ``x[feature[i]] <= threshold[i]`` to ``left[i]``
and every other row, NaN included, to ``right[i]``. A leaf has feature
-1 and children -1. ``value[i]`` is the node's payload: class counts in
the forest, the weight in boosting.
"""

from __future__ import annotations

import numpy as np


class Tree:
    """Node arrays ``feature``, ``threshold``, ``left``, ``right``, ``value``; tree roots ``roots``."""

    def __init__(self, feature=(), threshold=(), left=(), right=(), value=(), roots=()):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=float)
        self.roots = np.asarray(roots, dtype=np.intp)

    def grow(self, X, node) -> np.ndarray:
        """Append one tree, grown depth first, left subtree before right.

        ``node(Xn, rows, depth)`` is called once per node, in preorder,
        with the node's rows ``Xn = X[rows]`` (in input order) and
        returns ``(value, split)``: the node's payload and either a
        ``(feature, threshold)`` pair or None for a leaf. Returns the
        leaf each row of ``X`` reaches.
        """
        base = len(self.feature)
        nodes = []  # one [feature, threshold, left, right, value] per node, in preorder
        leaf = np.empty(len(X), dtype=np.intp)

        def visit(Xn, rows, depth):
            i = base + len(nodes)
            value, split = node(Xn, rows, depth)
            nodes.append([-1, 0.0, -1, -1, value])
            if split is None:
                leaf[rows] = i
            else:
                f, t = split
                mask = Xn[:, f] <= t
                left = visit(Xn[mask], rows[mask], depth + 1)
                right = visit(Xn[~mask], rows[~mask], depth + 1)
                nodes[i - base][:4] = f, t, left, right
            return i

        visit(X, np.arange(len(X)), 0)
        arrays = (self.feature, self.threshold, self.left, self.right, self.value)
        self.feature, self.threshold, self.left, self.right, self.value = (
            np.concatenate([old, new]) if base else np.asarray(new)
            for old, new in zip(arrays, zip(*nodes))
        )
        self.roots = np.append(self.roots, base)
        return leaf

    def apply(self, X) -> np.ndarray:
        """Leaf index of each row in each tree, [rows, trees].

        Every (row, tree) pair moves down one level per step, so the
        walk takes as many steps as the deepest tree has levels.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        node = np.tile(self.roots, len(X))
        row = np.repeat(np.arange(len(X)), len(self.roots))
        live = np.flatnonzero(self.feature[node] >= 0)
        while live.size:
            at = node[live]
            go_left = X[row[live], self.feature[at]] <= self.threshold[at]
            node[live] = np.where(go_left, self.left[at], self.right[at])
            live = live[self.feature[node[live]] >= 0]
        return node.reshape(len(X), len(self.roots))


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
