"""Kernel SVM trained by simplified sequential minimal optimization.

Binary subproblems are solved one-vs-one; multiclass probabilities are
normalized vote shares. Dual variables stay inside [0, C] at every
step by construction, and the per-sweep bound trace is kept so tests
can assert feasibility.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import ConvergenceWarning, ParameterError
from .base import Classifier

KKT_TOL = 1e-3
MAX_SWEEPS = 10_000
STABLE_SWEEPS = 3
MIN_ALPHA_STEP = 1e-7


def kernel_matrix(A, B, kernel: str, gamma: float, coef0: float, degree: int) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if kernel == "linear":
        return A @ B.T
    if kernel == "rbf":
        sq = (
            np.sum(A ** 2, axis=1)[:, None]
            + np.sum(B ** 2, axis=1)[None, :]
            - 2.0 * A @ B.T
        )
        return np.exp(-gamma * np.maximum(sq, 0.0))
    if kernel == "poly":
        return (gamma * (A @ B.T) + coef0) ** degree
    raise ParameterError(f"unknown kernel {kernel!r}")


class _BinarySVM:
    """One soft-margin machine over labels in {-1, +1}."""

    def __init__(self, C, kernel, gamma, coef0, degree, tol, seed):
        self.C = C
        self.kernel = kernel
        self.gamma = gamma
        self.coef0 = coef0
        self.degree = degree
        self.tol = tol
        self.seed = seed
        self.alpha_bounds_history = []

    def fit(self, X, y):
        n = len(X)
        rng = np.random.default_rng(self.seed)
        K = kernel_matrix(X, X, self.kernel, self.gamma, self.coef0, self.degree)
        alpha = np.zeros(n)
        b = 0.0
        # error cache: E[i] = f(x_i) - y_i, kept incrementally up to date
        errors = -y.astype(float)
        stable = 0
        sweeps = 0
        while stable < STABLE_SWEEPS and sweeps < MAX_SWEEPS:
            changed = 0
            for i in range(n):
                e_i = errors[i]
                r = e_i * y[i]
                if not ((r < -self.tol and alpha[i] < self.C) or (r > self.tol and alpha[i] > 0)):
                    continue
                j = int(rng.integers(n - 1))
                if j >= i:
                    j += 1
                e_j = errors[j]
                a_i_old, a_j_old = alpha[i], alpha[j]
                if y[i] != y[j]:
                    low = max(0.0, a_j_old - a_i_old)
                    high = min(self.C, self.C + a_j_old - a_i_old)
                else:
                    low = max(0.0, a_i_old + a_j_old - self.C)
                    high = min(self.C, a_i_old + a_j_old)
                if low == high:
                    continue
                eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
                if eta >= 0:
                    continue
                a_j = np.clip(a_j_old - y[j] * (e_i - e_j) / eta, low, high)
                if abs(a_j - a_j_old) < MIN_ALPHA_STEP:
                    continue
                # in exact arithmetic the companion update stays inside
                # [0, C]; clip to keep float round-off from leaking out
                a_i = np.clip(a_i_old + y[i] * y[j] * (a_j_old - a_j), 0.0, self.C)
                d_i = a_i - a_i_old
                d_j = a_j - a_j_old
                b1 = b - e_i - y[i] * d_i * K[i, i] - y[j] * d_j * K[i, j]
                b2 = b - e_j - y[i] * d_i * K[i, j] - y[j] * d_j * K[j, j]
                if 0 < a_i < self.C:
                    b_new = b1
                elif 0 < a_j < self.C:
                    b_new = b2
                else:
                    b_new = 0.5 * (b1 + b2)
                errors += y[i] * d_i * K[i] + y[j] * d_j * K[j] + (b_new - b)
                alpha[i], alpha[j] = a_i, a_j
                b = b_new
                changed += 1
            self.alpha_bounds_history.append((float(alpha.min()), float(alpha.max())))
            stable = stable + 1 if changed == 0 else 0
            sweeps += 1
        self.converged = stable >= STABLE_SWEEPS
        if not self.converged:
            margins = y * (errors + y)
            violation = float(np.max(np.where(alpha < self.C, 1.0 - margins, 0.0)))
            warnings.warn(
                f"SMO stopped at the {MAX_SWEEPS}-sweep cap "
                f"(worst KKT violation {violation:.3e}); model kept as-is",
                ConvergenceWarning,
            )
        keep = alpha > 0
        self.support_vectors = X[keep].copy()
        self.support_coef = (alpha * y)[keep]
        self.bias = b
        self.n_support = int(keep.sum())
        return self

    def decision_function(self, X) -> np.ndarray:
        if self.n_support == 0:
            return np.full(len(np.atleast_2d(X)), self.bias)
        K = kernel_matrix(X, self.support_vectors, self.kernel, self.gamma, self.coef0, self.degree)
        return K @ self.support_coef + self.bias


class SVMClassifier(Classifier):
    """One-vs-one kernel SVM; probabilities are normalized vote shares."""

    kind = "svm"

    def __init__(
        self,
        kernel: str = "rbf",
        C: float = 10.0,
        gamma: float | None = None,
        coef0: float = 0.0,
        degree: int = 3,
        tol: float = KKT_TOL,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        if C <= 0:
            raise ParameterError("C must be positive")
        if kernel not in ("linear", "rbf", "poly"):
            raise ParameterError(f"unknown kernel {kernel!r}")
        self.kernel = kernel
        self.C = float(C)
        self.gamma = gamma
        self.coef0 = float(coef0)
        self.degree = int(degree)
        self.tol = float(tol)

    def _resolved_gamma(self, X) -> float:
        if self.gamma is not None:
            return float(self.gamma)
        var = float(X.var())
        return 1.0 / (X.shape[1] * var) if var > 0 else 1.0 / X.shape[1]

    def _fit(self, X, y):
        gamma = self._resolved_gamma(X)
        self.gamma_ = gamma
        self.machines_ = {}
        pairs = [
            (a, b)
            for a in range(self.class_count)
            for b in range(a + 1, self.class_count)
        ]
        for index, (a, b) in enumerate(pairs):
            mask = (y == a) | (y == b)
            if not mask.any():
                continue
            Xp = X[mask]
            yp = np.where(y[mask] == a, 1.0, -1.0)
            machine = _BinarySVM(
                C=self.C,
                kernel=self.kernel,
                gamma=gamma,
                coef0=self.coef0,
                degree=self.degree,
                tol=self.tol,
                seed=self.seed + index,
            )
            self.machines_[(a, b)] = machine.fit(Xp, yp)

    @property
    def feasibility_trace_(self):
        """Per-sweep (min alpha, max alpha, C) across all binary machines."""
        return [
            (lo, hi, self.C)
            for machine in self.machines_.values()
            for lo, hi in machine.alpha_bounds_history
        ]

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=float))
        votes = np.zeros((len(X), self.class_count))
        for (a, b), machine in self.machines_.items():
            score = machine.decision_function(X)
            winner = np.where(score >= 0, a, b)
            votes[np.arange(len(X)), winner] += 1.0
        return votes / votes.sum(axis=1, keepdims=True)
