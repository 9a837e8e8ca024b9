import numpy as np
import pytest

from acoubench.errors import ParameterError
from acoubench.models import GradientBoostedTrees
from acoubench.models.boosting import _build_tree, leaf_weight, presort
from acoubench.models.tree import Tree


class TestLeafWeights:
    def test_closed_form_matches_grid_search(self):
        # one round, depth 1, tiny 1-D two-class set: each leaf weight must
        # minimize the second-order objective sum(g*w + h*w^2/2) + lambda*w^2/2
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        lam = 1.5
        probs = np.full(4, 0.5)  # uniform start for the binary softmax
        g = probs - (y == 1)
        h = probs * (1 - probs)
        tree = Tree()
        _build_tree(tree, X, presort(X), g, h, 1, 0.0, lam)
        assert tree.feature[0] == 0
        threshold = tree.threshold[0]
        grid = np.arange(-5.0, 5.0, 1e-4)
        for mask in (X[:, 0] <= threshold, X[:, 0] > threshold):
            gs, hs = g[mask].sum(), h[mask].sum()
            objective = gs * grid + 0.5 * hs * grid ** 2 + 0.5 * lam * grid ** 2
            want = grid[np.argmin(objective)]
            got = leaf_weight(gs, hs, lam)
            assert got == pytest.approx(want, abs=1e-4)

    def test_huge_lambda_freezes_predictions_at_prior(self, rng):
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        model = GradientBoostedTrees(n_rounds=5, lambda_l2=1e12, seed=0).fit(X, y)
        probs = model.predict_proba(X)
        np.testing.assert_allclose(probs, 0.5, atol=1e-9)

    def test_huge_gamma_yields_stump_roots(self, rng):
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        model = GradientBoostedTrees(n_rounds=3, gamma_split=1e9, seed=1).fit(X, y)
        tree = model.tree_
        assert len(tree.feature) == 3 * 2  # n_rounds x C nodes: one per tree
        assert tree.roots.tolist() == list(range(6))
        assert np.all(tree.feature[tree.roots] == -1)


class TestTraining:
    def test_loss_non_increasing_over_fifty_rounds(self, rng):
        X = rng.normal(size=(120, 8))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int) + (X[:, 2] > 1).astype(int)
        model = GradientBoostedTrees(n_rounds=50, seed=2).fit(X, y)
        history = np.array(model.loss_history_)
        assert len(history) == 51
        assert np.all(np.diff(history) <= 1e-9)

    def test_fits_separable_data(self, rng):
        X = rng.normal(size=(60, 4))
        y = (X[:, 0] > 0).astype(int)
        model = GradientBoostedTrees(n_rounds=20, seed=3).fit(X, y)
        assert (model.predict(X) == y).mean() == 1.0

    def test_probabilities_normalized(self, rng):
        X = rng.normal(size=(40, 4))
        y = rng.integers(0, 4, size=40)
        model = GradientBoostedTrees(n_rounds=8, seed=4).fit(X, y)
        probs = model.predict_proba(rng.normal(size=(25, 4)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)

    def test_deterministic_given_seed(self, rng):
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 3, size=50)
        q = rng.normal(size=(8, 4))
        a = GradientBoostedTrees(n_rounds=6, seed=5).fit(X, y)
        b = GradientBoostedTrees(n_rounds=6, seed=5).fit(X, y)
        np.testing.assert_array_equal(a.predict_proba(q), b.predict_proba(q))

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            GradientBoostedTrees(n_rounds=0)
        with pytest.raises(ParameterError):
            GradientBoostedTrees(learning_rate=1.5)
        with pytest.raises(ParameterError, match=r"'gamma_split' must be a finite number >= 0"):
            GradientBoostedTrees(gamma_split=-1.0)
