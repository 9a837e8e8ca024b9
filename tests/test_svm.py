import warnings

import numpy as np
import pytest

from acoubench.errors import ParameterError
from acoubench.models import SVMClassifier
from acoubench.models.base import validate_probabilities
from acoubench.models.svm import kernel_matrix


class TestKernels:
    def test_rbf_self_similarity_is_one(self):
        x = np.array([[0.3, -2.0, 5.0]])
        assert kernel_matrix(x, x, "rbf", 0.7, 0.0, 3)[0, 0] == pytest.approx(1.0)

    def test_linear_is_dot_product(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, 4.0]])
        assert kernel_matrix(a, b, "linear", 1.0, 0.0, 3)[0, 0] == pytest.approx(11.0)

    def test_poly_formula(self):
        a = np.array([[1.0, 1.0]])
        b = np.array([[2.0, 0.0]])
        # (gamma * (a.b) + r)^d = (0.5 * 2 + 1)^2 = 4
        assert kernel_matrix(a, b, "poly", 0.5, 1.0, 2)[0, 0] == pytest.approx(4.0)


class TestSVM:
    def test_separable_pair_linear(self):
        X = np.array([[-1.0, 0.0], [1.0, 0.0]])
        y = np.array([0, 1])
        model = SVMClassifier(kernel="linear", C=1.0, seed=0).fit(X, y)
        assert (model.predict(X) == y).all()
        assert model.predict([[0.2, 0.0]])[0] == 1
        assert model.predict([[-0.2, 0.0]])[0] == 0

    def test_xor_with_rbf(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        model = SVMClassifier(kernel="rbf", gamma=1.0, C=10.0, seed=1).fit(X, y)
        scores = model.decision_function(X)[:, 0]
        signs = np.where(scores >= 0, 0, 1)
        np.testing.assert_array_equal(signs, y)
        assert (model.predict(X) == y).mean() == 1.0

    def test_dual_feasibility_through_training(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        model = SVMClassifier(kernel="rbf", C=2.5, seed=3).fit(X, y)
        for machine in model.machines_.values():
            assert machine.alpha_bounds_history, "expected at least one recorded sweep"
            for low, high in machine.alpha_bounds_history:
                assert low >= 0.0
                assert high <= model.C + 1e-12

    def test_multiclass_vote_share_probabilities(self):
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(loc=c * 4.0, size=(15, 2)) for c in range(3)])
        y = np.repeat(np.arange(3), 15)
        model = SVMClassifier(kernel="rbf", C=5.0, seed=5).fit(X, y)
        probs = model.predict_proba(X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)
        assert (model.predict(X) == y).mean() > 0.95

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 3))
        y = (X[:, 0] > 0).astype(int)
        a = SVMClassifier(seed=7).fit(X, y)
        b = SVMClassifier(seed=7).fit(X, y)
        ma, mb = a.machines_[(0, 1)], b.machines_[(0, 1)]
        np.testing.assert_array_equal(ma.rows, mb.rows)
        np.testing.assert_array_equal(ma.coef, mb.coef)
        assert ma.bias == mb.bias
        np.testing.assert_array_equal(a.support_X_, b.support_X_)

    def test_one_kernel_block_matches_per_machine_reference(self):
        rng = np.random.default_rng(8)
        X = np.vstack([rng.normal(loc=c * 1.5, size=(20, 3)) for c in range(4)])
        y = np.repeat(np.arange(4), 20)
        model = SVMClassifier(kernel="rbf", C=2.0, seed=9).fit(X, y)
        queries = rng.normal(loc=2.0, scale=2.0, size=(50, 3))
        scores = model.decision_function(queries)
        assert scores.shape == (50, 6)
        for column, machine in enumerate(model.machines_.values()):
            K = kernel_matrix(queries, model.support_X_[machine.rows], "rbf", model.gamma_, 0.0, 3)
            reference = K @ machine.coef + machine.bias
            np.testing.assert_allclose(scores[:, column], reference, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(scores[:, column] >= 0, reference >= 0)
        # each supporting training row is stored once, however many machines it serves
        assert len(np.unique(model.support_X_, axis=0)) == len(model.support_X_)
        assert len(model.support_X_) < sum(len(m.rows) for m in model.machines_.values())

    def test_machine_with_no_support_rows_votes_by_bias(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0]])
        y = np.array([0, 1])
        model = SVMClassifier(kernel="rbf", gamma=1.0, C=1.0, seed=0).fit(X, y)
        machine = model.machines_[(0, 1)]
        assert len(machine.rows) == 0
        assert model.support_X_.shape == (0, 2)
        queries = np.array([[0.0, 0.0], [5.0, -3.0]])
        np.testing.assert_array_equal(model.decision_function(queries)[:, 0], machine.bias)
        winner = 0 if machine.bias >= 0 else 1
        np.testing.assert_array_equal(model.predict(queries), [winner, winner])

    def test_single_class_fit_gives_valid_probabilities(self):
        X = np.random.default_rng(4).normal(size=(6, 3))
        model = SVMClassifier(seed=0).fit(X, np.zeros(6, dtype=int))
        assert model.machines_ == {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = model.predict_proba(X[:4])
        validate_probabilities(probs, model.class_count)
        np.testing.assert_array_equal(model.predict(X), np.zeros(6))

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            SVMClassifier(C=-1.0)
        with pytest.raises(ParameterError):
            SVMClassifier(kernel="sigmoid")
