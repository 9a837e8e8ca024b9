"""Every tree of one model in one set of flat node arrays, shared by the forest and boosting.

Each tree's nodes are numbered in depth-first preorder, one tree after
another in fit order, and ``roots[t]`` is the root of tree ``t``. Node
``i`` sends a row with ``x[feature[i]] <= threshold[i]`` to ``left[i]``
and every other row, NaN included, to ``right[i]``. A leaf has feature
-1 and children -1. ``value[i]`` is the node's payload: class counts in
the forest, the weight in boosting.

``grow`` hands each node its rows and leaves the split search to the
model: boosting filters a presorted block (``boosting.presort``), the
forest sorts its few drawn columns per node. Both pick the winning
column with ``pick_split``.
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

        ``node(rows, depth)`` is called once per node, in preorder, with
        the indices of the node's rows of ``X`` (ascending) and returns
        ``(value, split)``: the node's payload and either a
        ``(feature, threshold)`` pair or None for a leaf. Returns the
        leaf each row of ``X`` reaches.
        """
        base = len(self.feature)
        nodes = []  # one [feature, threshold, left, right, value] per node, in preorder
        leaf = np.empty(len(X), dtype=np.intp)

        def visit(rows, depth):
            i = base + len(nodes)
            value, split = node(rows, depth)
            nodes.append([-1, 0.0, -1, -1, value])
            if split is None:
                leaf[rows] = i
            else:
                f, t = split
                mask = X[rows, f] <= t
                left = visit(rows[mask], depth + 1)
                right = visit(rows[~mask], depth + 1)
                nodes[i - base][:4] = f, t, left, right
            return i

        visit(np.arange(len(X)), 0)
        del visit  # visit's closure refers to visit: free it, and what node holds, now
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


def pick_split(xs, rows, gains):
    """Winner of a scan over the columns in order: ``(column, threshold, gain)`` or None.

    ``xs`` holds each column's values sorted, [columns, rows]. Column
    j's best gain ``gains[j]`` lies between its sorted rows ``rows[j]``
    and ``rows[j] + 1``, and the threshold is their midpoint. A column
    wins only if it beats the best so far by more than 1e-15, so of two
    near-equal columns the earlier one is kept.
    """
    best, best_gain = None, 0.0
    for j, gain in enumerate(gains.tolist()):
        if gain > best_gain + 1e-15:
            best, best_gain = j, gain
    if best is None:
        return None
    i = rows[best]
    return best, float(0.5 * (xs[best, i] + xs[best, i + 1])), best_gain
