"""Soft-voting ensemble over fitted probability classifiers."""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError, checked
from .base import Classifier


def _checked_weights(weights, n_members: int) -> np.ndarray:
    """One finite, non-negative weight per member, not all zero, as floats."""
    if not n_members:
        raise ParameterError("ensemble needs at least one member")
    if not isinstance(weights, (list, tuple, np.ndarray)) or len(weights) != n_members:
        raise ParameterError(f"'weights' must be one number per member, got {weights!r}")
    weights = np.array(
        [checked(f"weights[{i}]", w, float, "[0, inf)") for i, w in enumerate(weights)]
    )
    if not np.any(weights > 0):
        raise ParameterError(f"'weights' must not all be zero, got {weights.tolist()}")
    return weights


def ensemble_predict_proba(members, weights, X) -> np.ndarray:
    """Weighted sum of member probability vectors, renormalized to sum 1."""
    weights = _checked_weights(weights, len(members))
    class_counts = {m.class_count for m in members}
    if len(class_counts) != 1:
        raise ParameterError(f"members disagree on class count: {sorted(class_counts)}")
    combined = None
    for weight, member in zip(weights, members):
        contribution = weight * member.predict_proba(X)
        combined = contribution if combined is None else combined + contribution
    return combined / combined.sum(axis=1, keepdims=True)


class SoftVotingEnsemble(Classifier):
    """Fits its member models on the same training data and soft-votes them.

    The default roster pairs the forest's noise resistance with the
    boosted trees' non-linear fit and the SVM's handling of
    high-dimensional features. Members fitted elsewhere on the same rows
    can be handed over with ``adopt``; ``fit`` then trains only the rest.
    """

    kind = "ensemble"

    def __init__(self, member_specs=None, weights=None, seed: int = 0):
        super().__init__(seed=seed)
        from .base import ModelSpec

        if member_specs is None:
            member_specs = [
                ModelSpec(kind="svm", seed=seed),
                ModelSpec(kind="rf", seed=seed + 1),
                ModelSpec(kind="gbt", seed=seed + 2),
            ]
        self.member_specs = list(member_specs)
        n_members = len(self.member_specs)
        self.weights = _checked_weights(np.ones(n_members) if weights is None else weights, n_members)
        self.adopted = [None] * n_members

    def adopt(self, fitted) -> "SoftVotingEnsemble":
        """Vote with already-fitted models in place of training those members.

        ``fitted`` lines up with the member specs: a model fitted on the
        rows this ensemble will be fitted on, or None for a member that
        ``fit`` trains from its spec. Every later ``fit`` uses them as they are.
        """
        fitted = list(fitted)
        if len(fitted) != len(self.member_specs):
            raise ParameterError("adopt needs one entry per member spec")
        self.adopted = fitted
        return self

    def fit(self, X, y):
        """Fit the members not adopted; training_seconds includes the adopted members' fits."""
        super().fit(X, y)
        self.training_seconds += sum(m.training_seconds for m in self.adopted if m is not None)
        return self

    def _fit(self, X, y):
        for member in self.adopted:
            if member is not None and member.class_count != self.class_count:
                raise ParameterError(
                    f"adopted {member.kind} has class count {member.class_count}, "
                    f"the training labels have {self.class_count}"
                )
        self.members_ = [
            spec.build().fit(X, y) if member is None else member
            for spec, member in zip(self.member_specs, self.adopted)
        ]

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        return ensemble_predict_proba(self.members_, self.weights, X)
