import numpy as np
import pytest

from acoubench.models.boosting import _build_tree, _leaf_score
from acoubench.models.forest import _best_split, _gini
from acoubench.models.tree import Tree


def _scan_gini(X, y, n_classes, feature_ids):
    """Reference: one feature at a time, in draw order."""
    n = len(y)
    parent_counts = np.bincount(y, minlength=n_classes).astype(float)
    best = None
    best_gain = 0.0
    for f in feature_ids:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        boundaries = np.where(xs[:-1] < xs[1:])[0]
        if len(boundaries) == 0:
            continue
        left = np.cumsum(np.eye(n_classes)[y][order], axis=0)[boundaries]
        left_n = boundaries + 1.0
        weighted = np.array(
            [
                (ln * _gini(lc) + (n - ln) * _gini(parent_counts - lc)) / n
                for lc, ln in zip(left, left_n)
            ]
        )
        k = int(np.argmin(weighted))
        gain = _gini(parent_counts) - weighted[k]
        if gain > best_gain + 1e-15:
            best_gain = gain
            best = (int(f), 0.5 * (xs[boundaries[k]] + xs[boundaries[k] + 1]))
    return best


def _scan_gain(X, g, h, lam):
    """Reference: one feature at a time, in index order."""
    G, H = g.sum(), h.sum()
    best = None
    best_gain = 0.0
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        boundaries = np.where(xs[:-1] < xs[1:])[0]
        if len(boundaries) == 0:
            continue
        gl = np.cumsum(g[order])[boundaries]
        hl = np.cumsum(h[order])[boundaries]
        parent = _leaf_score(G, H, lam)
        gains = 0.5 * (gl ** 2 / (hl + lam) + (G - gl) ** 2 / (H - hl + lam) - parent)
        k = int(np.argmax(gains))
        if gains[k] > best_gain + 1e-15:
            best_gain = gains[k]
            best = (f, 0.5 * (xs[boundaries[k]] + xs[boundaries[k] + 1]))
    return best


@pytest.mark.parametrize("seed", range(8))
def test_vectorised_search_matches_feature_scan(seed):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(50, 6)), 1)  # many ties within columns
    X[:, 3] = X[:, 1]  # and two identical columns
    y = rng.integers(0, 4, size=50)
    ids = rng.permutation(6)
    found = _best_split(X, y, 4, ids)
    assert (found and found[:2]) == _scan_gini(X, y, 4, ids)

    g = rng.normal(size=50)
    h = rng.uniform(0.05, 0.25, size=50)
    tree = Tree()
    _build_tree(tree, X, g, h, 1, 0.0, 1.0)
    want = _scan_gain(X, g, h, 1.0)
    got = None if tree.feature[0] < 0 else (int(tree.feature[0]), tree.threshold[0])
    assert got == want


def test_identical_columns_split_on_the_earlier_feature():
    col = np.array([0.0, 1.0, 2.0, 3.0])
    X = np.column_stack([col, col])
    y = np.array([0, 0, 1, 1])
    assert _best_split(X, y, 2, np.array([0, 1]))[:2] == (0, 1.5)
    assert _best_split(X, y, 2, np.array([1, 0]))[:2] == (1, 1.5)  # draw order, not index
    g = np.array([-0.5, -0.5, 0.5, 0.5])
    tree = Tree()
    _build_tree(tree, X, g, np.full(4, 0.25), 1, 0.0, 1.0)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 1.5


def test_apply_sends_rows_at_the_threshold_left():
    tree = Tree(
        feature=[0, -1, -1],
        threshold=[0.5, 0.0, 0.0],
        left=[1, -1, -1],
        right=[2, -1, -1],
        value=[0.0, -1.0, 1.0],
        roots=[0],
    )
    X = np.array([[0.5], [0.4], [np.nextafter(0.5, 1.0)], [np.nan]])
    leaves = tree.apply(X)
    np.testing.assert_array_equal(leaves, [[1], [1], [2], [2]])
    np.testing.assert_array_equal(tree.value[leaves[:, 0]], [-1.0, -1.0, 1.0, 1.0])


def _walk(tree, root, x):
    """Reference: one row down one tree, a node at a time."""
    i = root
    while tree.feature[i] >= 0:
        i = tree.left[i] if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return i


def test_apply_walks_every_tree_like_a_per_row_walk():
    # tree 0 is a lone leaf, tree 1 a stump, tree 2 two levels deep on both features
    tree = Tree(
        feature=[-1, 1, -1, -1, 0, 1, -1, -1, -1],
        threshold=[0.0, 0.25, 0.0, 0.0, -1.0, 2.0, 0.0, 0.0, 0.0],
        left=[-1, 2, -1, -1, 5, 6, -1, -1, -1],
        right=[-1, 3, -1, -1, 8, 7, -1, -1, -1],
        value=np.arange(9.0),
        roots=[0, 1, 4],
    )
    rng = np.random.default_rng(3)
    X = np.vstack([
        rng.normal(size=(20, 2)) * 2.0,
        [[-1.0, 2.0], [-1.0, 0.25], [np.nan, 0.0], [-2.0, np.nan], [np.nan, np.nan]],
    ])
    want = [[_walk(tree, root, x) for root in tree.roots] for x in X]
    np.testing.assert_array_equal(tree.apply(X), want)
    assert tree.apply(X[:1]).shape == (1, 3)
    # the rows at a threshold went left, the NaN rows right
    np.testing.assert_array_equal(want[-5:], [[0, 3, 6], [0, 2, 6], [0, 2, 8], [0, 3, 7], [0, 3, 8]])


def test_grow_appends_a_tree_and_returns_each_rows_leaf():
    rng = np.random.default_rng(4)
    X = np.round(rng.normal(size=(40, 3)), 1)
    tree = Tree()
    for depth in (2, 3):
        g = rng.normal(size=40)
        leaves = _build_tree(tree, X, g, np.full(40, 0.25), depth, 0.0, 1.0)
        np.testing.assert_array_equal(leaves, tree.apply(X)[:, -1])
    second = tree.roots[1]
    assert tree.roots.tolist() == [0, second]
    # the second tree's children point into the second tree
    split = tree.feature[second:] >= 0
    assert split[0]
    assert np.all(tree.left[second:][split] > second)
    assert np.all(tree.right[second:][split] > second)
