"""Two-hidden-layer perceptron with a softmax head and cross-entropy loss."""

from __future__ import annotations

import numpy as np

from ..errors import DivergenceError, ParameterError, checked
from .base import Classifier, softmax

_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(float)),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
}


def _cross_entropy(probs, onehot) -> float:
    """Mean cross-entropy of softmax outputs against one-hot labels."""
    return -float(np.mean(np.sum(onehot * np.log(np.maximum(probs, 1e-15)), axis=1)))


class MLPClassifier(Classifier):
    """Mini-batch gradient descent on x -> act(W1x+b1) -> act(W2.+b2) -> softmax."""

    kind = "mlp"

    def __init__(
        self,
        hidden: tuple = (64, 32),
        activation: str = "relu",
        epochs: int = 80,
        learning_rate: float = 0.05,
        batch_size: int = 32,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        if not isinstance(hidden, (list, tuple)) or len(hidden) != 2:
            raise ParameterError(f"'hidden' must be two layer sizes, got {hidden!r}")
        if activation not in _ACTIVATIONS:
            raise ParameterError(f"unknown activation {activation!r}")
        self.hidden = tuple(
            checked(f"hidden[{i}]", h, int, "[1, inf)") for i, h in enumerate(hidden)
        )
        self.activation = activation
        self.epochs = checked("epochs", epochs, int, "[1, inf)")
        self.learning_rate = checked("learning_rate", learning_rate, float, "(0, 1]")
        self.batch_size = checked("batch_size", batch_size, int, "[1, inf)")

    def _init_weights(self, n_features: int, rng) -> list:
        sizes = [n_features, self.hidden[0], self.hidden[1], self.class_count]
        gain = 2.0 if self.activation == "relu" else 1.0
        weights = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            weights.append(rng.normal(0.0, np.sqrt(gain / fan_in), size=(fan_in, fan_out)))
            weights.append(np.zeros(fan_out))
        return weights

    def _forward(self, X, weights):
        act, _ = _ACTIVATIONS[self.activation]
        W1, b1, W2, b2, W3, b3 = weights
        z1 = X @ W1 + b1
        a1 = act(z1)
        z2 = a1 @ W2 + b2
        a2 = act(z2)
        z3 = a2 @ W3 + b3
        return z1, a1, z2, a2, softmax(z3)

    def loss_and_gradients(self, X, y, weights=None):
        """Mean cross-entropy and its gradients w.r.t. every parameter."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        onehot = np.eye(self.class_count)[np.asarray(y, dtype=int)]
        weights = weights if weights is not None else self.weights_
        return self._loss_and_gradients(X, onehot, weights)

    def _loss_and_gradients(self, X, onehot, weights):
        """One forward and one backward pass over the rows of ``X``."""
        _, dact = _ACTIVATIONS[self.activation]
        W1, b1, W2, b2, W3, b3 = weights
        z1, a1, z2, a2, probs = self._forward(X, weights)
        n = len(X)
        loss = _cross_entropy(probs, onehot)

        d3 = (probs - onehot) / n
        gW3 = a2.T @ d3
        gb3 = d3.sum(axis=0)
        d2 = (d3 @ W3.T) * dact(z2)
        gW2 = a1.T @ d2
        gb2 = d2.sum(axis=0)
        d1 = (d2 @ W2.T) * dact(z1)
        gW1 = X.T @ d1
        gb1 = d1.sum(axis=0)
        return loss, [gW1, gb1, gW2, gb2, gW3, gb3]

    def _fit(self, X, y):
        """``loss_history_[e]`` is the mean of epoch e's batch losses, weighted by batch rows."""
        rng = np.random.default_rng(self.seed)
        self.weights_ = self._init_weights(X.shape[1], rng)
        n = len(X)
        onehot = np.eye(self.class_count)[y]
        self.loss_history_ = []
        for epoch in range(self.epochs):
            order = rng.permutation(n)
            total = 0.0
            for start in range(0, n, self.batch_size):
                batch = order[start : start + self.batch_size]
                loss, grads = self._loss_and_gradients(X[batch], onehot[batch], self.weights_)
                if not np.isfinite(loss):
                    raise DivergenceError(
                        f"training loss became non-finite at epoch {epoch}; "
                        f"lower the learning rate (currently {self.learning_rate})"
                    )
                total += loss * len(batch)
                for w, g in zip(self.weights_, grads):
                    w -= self.learning_rate * g
            self.loss_history_.append(total / n)

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self._forward(X, self.weights_)[-1]
