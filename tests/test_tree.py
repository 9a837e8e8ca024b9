import numpy as np
import pytest

from acoubench.models.boosting import _build_tree, _leaf_score, presort
from acoubench.models.forest import _best_split, _gini, sorted_prefix_sums
from acoubench.models.tree import Tree, pick_split


def _node_split(X, y, n_classes, feature_ids):
    """``_best_split`` on every row of ``X``, as a forest node calls it."""
    counts = np.bincount(y, minlength=n_classes).astype(float)
    return _best_split(X[:, feature_ids].T, np.eye(n_classes)[y], counts, feature_ids)


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
    found = _node_split(X, y, 4, ids)
    assert (found and found[:2]) == _scan_gini(X, y, 4, ids)

    g = rng.normal(size=50)
    h = rng.uniform(0.05, 0.25, size=50)
    tree = Tree()
    _build_tree(tree, X, presort(X), g, h, 1, 0.0, 1.0)
    want = _scan_gain(X, g, h, 1.0)
    got = None if tree.feature[0] < 0 else (int(tree.feature[0]), tree.threshold[0])
    assert got == want


def test_identical_columns_split_on_the_earlier_feature():
    col = np.array([0.0, 1.0, 2.0, 3.0])
    X = np.column_stack([col, col])
    y = np.array([0, 0, 1, 1])
    assert _node_split(X, y, 2, np.array([0, 1]))[:2] == (0, 1.5)
    assert _node_split(X, y, 2, np.array([1, 0]))[:2] == (1, 1.5)  # draw order, not index
    g = np.array([-0.5, -0.5, 0.5, 0.5])
    tree = Tree()
    _build_tree(tree, X, presort(X), g, np.full(4, 0.25), 1, 0.0, 1.0)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 1.5


def _grow_sorting_every_node(tree, X, g, h, max_depth, lam):
    """Reference: every node sorts its own rows, as a tree without a presort would."""
    gh = np.column_stack([g, h])

    def node(rows, depth):
        G, H = float(g[rows].sum()), float(h[rows].sum())
        if depth >= max_depth or len(rows) < 2:
            return -G / (H + lam), None
        xs, boundary, sums = sorted_prefix_sums(X[rows].T, gh[rows])
        gl, hl = sums[..., 0], sums[..., 1]
        parent = _leaf_score(G, H, lam)
        gains = 0.5 * (gl ** 2 / (hl + lam) + (G - gl) ** 2 / (H - hl + lam) - parent)
        gains = np.where(boundary, gains, -np.inf)
        found = pick_split(xs, np.argmax(gains, axis=1), gains.max(axis=1))
        return -G / (H + lam), None if found is None else found[:2]

    return tree.grow(X, node)


@pytest.mark.parametrize("seed", range(4))
def test_presorted_trees_equal_trees_that_sort_every_node(seed):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(60, 5)), 1)  # ties within columns
    X[:, 4] = X[:, 2]
    root = presort(X)
    got, want = Tree(), Tree()
    for depth in (4, 2, 5):  # several trees share one presort
        g = rng.normal(size=60)
        h = rng.uniform(0.05, 0.25, size=60)
        leaves = _build_tree(got, X, root, g, h, depth, 0.0, 1.0)
        np.testing.assert_array_equal(leaves, _grow_sorting_every_node(want, X, g, h, depth, 1.0))
    for name in ("feature", "threshold", "left", "right", "value", "roots"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert len(got.feature) > 20


def test_presort_orders_ties_by_row():
    X = np.round(np.random.default_rng(5).normal(size=(80, 4)), 1)
    order, xs, boundary = presort(X)
    for f in range(4):
        want = np.lexsort((np.arange(80), X[:, f]))  # by value, then by row
        np.testing.assert_array_equal(order[f], want)
        np.testing.assert_array_equal(xs[f], X[want, f])
        np.testing.assert_array_equal(boundary[f], np.diff(X[want, f]) > 0)


def test_pick_split_needs_a_margin_and_keeps_the_first_column_on_a_tie():
    xs = np.array([[0.0, 1.0, 2.0], [0.0, 3.0, 4.0], [0.0, 5.0, 6.0]])
    rows = np.array([0, 1, 0])
    # column 1 beats column 0 by no more than 1e-15 and does not win; column 2 by more and wins
    gains = np.array([0.5, 0.5 + 1e-15, 0.5 + 4e-15])
    assert gains[1] - gains[0] <= 1e-15 < gains[2] - gains[0]
    assert pick_split(xs, rows, gains) == (2, 2.5, 0.5 + 4e-15)
    assert pick_split(xs, rows, gains[:2]) == (0, 0.5, 0.5)
    # equal gains: the first column wins
    assert pick_split(xs, rows, np.array([0.25, 0.25, 0.25])) == (0, 0.5, 0.25)
    # a gain must beat 0 by more than 1e-15; -inf marks a column with no boundary
    assert pick_split(xs, rows, np.array([1e-15, 0.0, -np.inf])) is None
    assert pick_split(xs, rows, np.array([-np.inf, 2e-15, 0.0])) == (1, 3.5, 2e-15)


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
        leaves = _build_tree(tree, X, presort(X), g, np.full(40, 0.25), depth, 0.0, 1.0)
        np.testing.assert_array_equal(leaves, tree.apply(X)[:, -1])
    second = tree.roots[1]
    assert tree.roots.tolist() == [0, second]
    # the second tree's children point into the second tree
    split = tree.feature[second:] >= 0
    assert split[0]
    assert np.all(tree.left[second:][split] > second)
    assert np.all(tree.right[second:][split] > second)
