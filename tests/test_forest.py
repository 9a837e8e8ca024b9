import numpy as np
import pytest

from acoubench.errors import ParameterError
from acoubench.models import RandomForestClassifier, default_max_features
from acoubench.models.forest import _grow_tree
from acoubench.models.tree import Tree


def _tally(tree, root, x):
    """Reference vote of one tree for one row: walk it node by node, take the leaf's majority."""
    i = root
    while tree.feature[i] >= 0:
        i = tree.left[i] if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return int(np.argmax(tree.value[i]))


class TestGrowTree:
    def test_full_purity_on_duplicate_free_data(self, rng):
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, size=40)
        tree = Tree()
        _grow_tree(tree, X, y, 3, 64, 2, 3, np.random.default_rng(0))
        assert (np.argmax(tree.value[tree.apply(X)[:, 0]], axis=1) == y).mean() == 1.0

    def test_pure_node_stops_growing(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        tree = Tree()
        importance = _grow_tree(tree, X, y, 2, 16, 2, 1, np.random.default_rng(0))
        assert tree.feature.tolist() == [-1]
        assert tree.value.tolist() == [[0.0, 3.0]]
        assert tree.roots.tolist() == [0]
        assert importance.tolist() == [0.0]


class TestRandomForest:
    def test_feature_subset_size(self):
        assert default_max_features(127) == 11
        assert default_max_features(4) == 2
        assert default_max_features(1) == 1

    def test_hand_tallied_majority_vote(self, rng):
        X = rng.normal(size=(20, 2))
        y = (X[:, 0] > 0).astype(int)
        model = RandomForestClassifier(n_trees=3, seed=1).fit(X, y)
        queries = rng.normal(size=(6, 2))
        probs = model.predict_proba(queries)
        votes = np.zeros((6, 2))
        for root in model.tree_.roots:
            for i, x in enumerate(queries):
                votes[i, _tally(model.tree_, root, x)] += 1
        assert len(model.tree_.roots) == 3
        np.testing.assert_allclose(probs, votes / 3)

    def test_probabilities_are_vote_fractions(self, rng):
        X = rng.normal(size=(60, 4))
        y = rng.integers(0, 3, size=60)
        model = RandomForestClassifier(n_trees=7, seed=2).fit(X, y)
        probs = model.predict_proba(rng.normal(size=(10, 4)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        # every entry is a multiple of 1/7
        np.testing.assert_allclose(np.round(probs * 7), probs * 7, atol=1e-12)

    def test_importances_nonnegative_and_normalized(self, rng):
        X = rng.normal(size=(80, 6))
        y = (X[:, 2] > 0).astype(int)
        model = RandomForestClassifier(n_trees=10, seed=3).fit(X, y)
        imp = model.feature_importances()
        assert np.all(imp >= 0)
        assert imp.sum() == pytest.approx(1.0)
        # the split feature should dominate
        assert np.argmax(imp) == 2

    def test_deterministic_given_seed(self, rng):
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, size=50)
        q = rng.normal(size=(8, 4))
        a = RandomForestClassifier(n_trees=5, seed=9).fit(X, y)
        b = RandomForestClassifier(n_trees=5, seed=9).fit(X, y)
        np.testing.assert_array_equal(a.predict_proba(q), b.predict_proba(q))

    def test_invalid_tree_count(self):
        with pytest.raises(ParameterError):
            RandomForestClassifier(n_trees=0)

    @pytest.mark.parametrize("value", [-3, 0, 1])
    def test_a_split_needs_two_rows(self, value):
        with pytest.raises(ParameterError, match=r"'min_samples_split' must be an integer >= 2"):
            RandomForestClassifier(min_samples_split=value)
