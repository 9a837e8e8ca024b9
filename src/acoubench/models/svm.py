"""Kernel SVM trained by simplified sequential minimal optimization.

Binary subproblems are solved one-vs-one; multiclass probabilities are
normalized vote shares. The training rows that support any machine are
stored once, in ``support_X_``; each machine holds its columns there, so
predict builds one kernel block for all machines. Dual variables stay
inside [0, C] at every step by construction; each machine keeps its
per-sweep bound history so tests can assert feasibility.
"""

from __future__ import annotations

import itertools
import warnings
from typing import NamedTuple

import numpy as np

from ..errors import ConvergenceWarning, ParameterError, checked
from .base import Classifier, squared_distances

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
        return np.exp(-gamma * squared_distances(A, B))
    if kernel == "poly":
        return (gamma * (A @ B.T) + coef0) ** degree
    raise ParameterError(f"unknown kernel {kernel!r}")


class Machine(NamedTuple):
    """One fitted one-vs-one machine; its score >= 0 votes for the pair's first class."""

    rows: np.ndarray  # columns of its support vectors in ``support_X_``
    coef: np.ndarray  # alpha * y per support vector
    bias: float
    alpha_bounds_history: list  # (min alpha, max alpha) after each sweep
    converged: bool


def _smo(K, y, C, tol, rng):
    """Soft-margin dual over kernel block ``K`` and labels ``y`` in {-1, +1}.

    Returns ``(alpha, bias, alpha_bounds_history, converged)``. The inner
    loop reads scalars as Python floats; the arithmetic is the same.
    """
    n = len(y)
    labels = y.tolist()
    diag = K.diagonal().tolist()
    alpha = [0.0] * n
    b = 0.0
    # error cache: E[i] = f(x_i) - y_i, kept incrementally up to date
    errors = -y
    history = []
    stable = sweeps = 0
    while stable < STABLE_SWEEPS and sweeps < MAX_SWEEPS:
        changed = 0
        for i in range(n):
            e_i, y_i, a_i_old = errors.item(i), labels[i], alpha[i]
            r = e_i * y_i
            if not ((r < -tol and a_i_old < C) or (r > tol and a_i_old > 0)):
                continue
            j = int(rng.integers(n - 1))
            if j >= i:
                j += 1
            e_j, y_j, a_j_old = errors.item(j), labels[j], alpha[j]
            if y_i != y_j:
                low = max(0.0, a_j_old - a_i_old)
                high = min(C, C + a_j_old - a_i_old)
            else:
                low = max(0.0, a_i_old + a_j_old - C)
                high = min(C, a_i_old + a_j_old)
            if low == high:
                continue
            k_ij = K.item(i, j)
            eta = 2.0 * k_ij - diag[i] - diag[j]
            if eta >= 0:
                continue
            a_j = min(max(a_j_old - y_j * (e_i - e_j) / eta, low), high)
            if abs(a_j - a_j_old) < MIN_ALPHA_STEP:
                continue
            # in exact arithmetic the companion update stays inside
            # [0, C]; clip to keep float round-off from leaking out
            a_i = min(max(a_i_old + y_i * y_j * (a_j_old - a_j), 0.0), C)
            d_i = a_i - a_i_old
            d_j = a_j - a_j_old
            b1 = b - e_i - y_i * d_i * diag[i] - y_j * d_j * k_ij
            b2 = b - e_j - y_i * d_i * k_ij - y_j * d_j * diag[j]
            if 0 < a_i < C:
                b_new = b1
            elif 0 < a_j < C:
                b_new = b2
            else:
                b_new = 0.5 * (b1 + b2)
            errors += y_i * d_i * K[i] + y_j * d_j * K[j] + (b_new - b)
            alpha[i], alpha[j] = a_i, a_j
            b = b_new
            changed += 1
        history.append((min(alpha), max(alpha)))
        stable = stable + 1 if changed == 0 else 0
        sweeps += 1
    alpha = np.array(alpha)
    converged = stable >= STABLE_SWEEPS
    if not converged:
        margins = y * (errors + y)
        violation = float(np.max(np.where(alpha < C, 1.0 - margins, 0.0)))
        warnings.warn(
            f"SMO stopped at the {MAX_SWEEPS}-sweep cap "
            f"(worst KKT violation {violation:.3e}); model kept as-is",
            ConvergenceWarning,
        )
    return alpha, b, history, converged


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
        if kernel not in ("linear", "rbf", "poly"):
            raise ParameterError(f"unknown kernel {kernel!r}")
        self.kernel = kernel
        self.C = checked("C", C, float, "(0, inf)")
        self.gamma = None if gamma is None else checked("gamma", gamma, float, "(0, inf)")
        self.coef0 = checked("coef0", coef0)
        self.degree = checked("degree", degree, int, "[1, inf)")
        self.tol = checked("tol", tol)

    def _resolved_gamma(self, X) -> float:
        if self.gamma is not None:
            return float(self.gamma)
        var = float(X.var())
        return 1.0 / (X.shape[1] * var) if var > 0 else 1.0 / X.shape[1]

    def _kernel(self, A, B) -> np.ndarray:
        return kernel_matrix(A, B, self.kernel, self.gamma_, self.coef0, self.degree)

    def _fit(self, X, y):
        self.gamma_ = self._resolved_gamma(X)
        machines = {}
        pairs = itertools.combinations(range(self.class_count), 2)
        for index, (a, b) in enumerate(pairs):
            rows = np.flatnonzero((y == a) | (y == b))
            if not len(rows):
                continue
            yp = np.where(y[rows] == a, 1.0, -1.0)
            Xp = X[rows]
            # one array for both sides: numpy then takes the symmetric
            # product, whose values SMO's branches depend on
            K = self._kernel(Xp, Xp)
            rng = np.random.default_rng(self.seed + index)
            alpha, bias, history, converged = _smo(K, yp, self.C, self.tol, rng)
            keep = alpha > 0
            machines[(a, b)] = Machine(rows[keep], (alpha * yp)[keep], bias, history, converged)
        # store each supporting training row once; machines index into it
        used = np.zeros(len(X), dtype=bool)
        for machine in machines.values():
            used[machine.rows] = True
        column = np.cumsum(used) - 1
        self.support_X_ = X[used]
        self.machines_ = {
            pair: machine._replace(rows=column[machine.rows])
            for pair, machine in machines.items()
        }

    def decision_function(self, X) -> np.ndarray:
        """Machine scores ``[rows, machines]``, columns in ``machines_`` order."""
        self._check_fitted()
        K = self._kernel(X, self.support_X_)
        scores = np.empty((len(K), len(self.machines_)))
        for column, machine in enumerate(self.machines_.values()):
            scores[:, column] = K[:, machine.rows] @ machine.coef + machine.bias
        return scores

    def predict_proba(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        rows = np.arange(len(scores))
        votes = np.zeros((len(scores), self.class_count))
        if not self.machines_:  # one class, so no pair to vote on
            votes[:, 0] = 1.0
        for column, (a, b) in enumerate(self.machines_):
            votes[rows, np.where(scores[:, column] >= 0, a, b)] += 1.0
        return votes / votes.sum(axis=1, keepdims=True)
