import numpy as np
import pytest

from acoubench.errors import DivergenceError, ParameterError
from acoubench.models import MLPClassifier


def central_difference_gradients(model, X, y, eps=1e-6):
    """Finite-difference oracle over every parameter."""
    grads = []
    for w in model.weights_:
        g = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + eps
            lp, _ = model.loss_and_gradients(X, y)
            w[idx] = orig - eps
            lm, _ = model.loss_and_gradients(X, y)
            w[idx] = orig
            g[idx] = (lp - lm) / (2 * eps)
        grads.append(g)
    return grads


class TestMLP:
    def test_zero_weights_give_uniform_output(self, rng):
        model = MLPClassifier(hidden=(6, 5), epochs=1, seed=0)
        X = rng.normal(size=(10, 4))
        y = rng.integers(0, 3, size=10)
        model.fit(X, y)
        for w in model.weights_:
            w *= 0.0
        probs = model.predict_proba(X)
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_probabilities_sum_to_one_for_random_weights(self, rng):
        model = MLPClassifier(hidden=(8, 4), epochs=1, seed=1)
        X = rng.normal(size=(20, 5))
        y = rng.integers(0, 4, size=20)
        model.fit(X, y)
        for w in model.weights_:
            w += rng.normal(size=w.shape)
        probs = model.predict_proba(rng.normal(size=(50, 5)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_analytic_gradients_match_finite_differences(self, activation, rng):
        model = MLPClassifier(hidden=(4, 3), activation=activation, epochs=1, seed=2)
        X = rng.normal(size=(3, 5))
        y = np.array([0, 1, 2])
        model.fit(X, y)
        loss, analytic = model.loss_and_gradients(X, y)
        numeric = central_difference_gradients(model, X, y)
        for a, n in zip(analytic, numeric):
            scale = np.maximum(np.abs(n), np.abs(a))
            mask = scale > 1e-8
            if mask.any():
                rel = np.abs(a - n)[mask] / scale[mask]
                assert rel.max() < 1e-4

    def test_learns_separable_data(self, rng):
        X = rng.normal(size=(80, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        model = MLPClassifier(hidden=(16, 8), epochs=60, learning_rate=0.2, seed=3)
        model.fit(X, y)
        assert (model.predict(X) == y).mean() > 0.95

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_diagnostics(self):
        # inputs large enough to overflow the forward pass produce a
        # non-finite loss, which must abort instead of training silently
        X = np.full((8, 3), 1e200)
        y = np.array([0, 1] * 4)
        model = MLPClassifier(hidden=(4, 4), epochs=3, learning_rate=1.0, seed=4)
        with pytest.raises(DivergenceError, match="epoch"):
            model.fit(X, y)

    def test_loss_history_recorded(self, rng):
        X = rng.normal(size=(30, 3))
        y = (X[:, 0] > 0).astype(int)
        model = MLPClassifier(hidden=(8, 4), epochs=10, seed=5).fit(X, y)
        assert len(model.loss_history_) == 10
        assert model.loss_history_[-1] < model.loss_history_[0]

    def test_loss_history_is_the_row_weighted_mean_of_batch_losses(self, rng, monkeypatch):
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 3, size=50)
        seen = []
        step = MLPClassifier._loss_and_gradients

        def recorded(model, Xb, onehot, weights):
            loss, grads = step(model, Xb, onehot, weights)
            seen.append((loss, len(Xb)))
            return loss, grads

        monkeypatch.setattr(MLPClassifier, "_loss_and_gradients", recorded)
        model = MLPClassifier(hidden=(8, 4), epochs=3, batch_size=16, seed=2).fit(X, y)
        epochs = [seen[i : i + 4] for i in range(0, 12, 4)]  # batches of 16, 16, 16 and 2 rows
        assert len(seen) == 12 and all([n for _, n in e] == [16, 16, 16, 2] for e in epochs)
        assert model.loss_history_ == [sum(loss * n for loss, n in e) / 50 for e in epochs]

    def test_deterministic_given_seed(self, rng):
        X = rng.normal(size=(30, 3))
        y = (X[:, 0] > 0).astype(int)
        a = MLPClassifier(epochs=5, seed=6).fit(X, y)
        b = MLPClassifier(epochs=5, seed=6).fit(X, y)
        for wa, wb in zip(a.weights_, b.weights_):
            np.testing.assert_array_equal(wa, wb)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            MLPClassifier(hidden=(0, 4))
        with pytest.raises(ParameterError):
            MLPClassifier(activation="gelu")
