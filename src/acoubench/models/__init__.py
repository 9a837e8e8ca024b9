"""Six from-scratch classifiers plus a soft-voting ensemble."""

from __future__ import annotations

import inspect

from ..errors import ParameterError
from .base import MODEL_KINDS, Classifier, ModelSpec, validate_probabilities
from .boosting import GradientBoostedTrees
from .ensemble import SoftVotingEnsemble, ensemble_predict_proba
from .forest import RandomForestClassifier, default_max_features
from .knn import KNNClassifier, cosine_distance
from .mlp import MLPClassifier
from .svm import SVMClassifier
from .timing import TimingReport, measure_timing

__all__ = [
    "MODEL_KINDS",
    "Classifier",
    "ModelSpec",
    "validate_probabilities",
    "KNNClassifier",
    "SVMClassifier",
    "RandomForestClassifier",
    "default_max_features",
    "GradientBoostedTrees",
    "MLPClassifier",
    "SoftVotingEnsemble",
    "ensemble_predict_proba",
    "cosine_distance",
    "measure_timing",
    "TimingReport",
    "make_model",
    "resolved_params",
]

_CLASSES = {
    "knn": KNNClassifier,
    "svm": SVMClassifier,
    "rf": RandomForestClassifier,
    "gbt": GradientBoostedTrees,
    "mlp": MLPClassifier,
}


def make_model(spec: ModelSpec) -> Classifier:
    """Instantiate an unfitted model from its declarative spec."""
    if spec.kind == "ensemble":
        params = dict(spec.params)
        member_specs = params.pop("members", None)
        if member_specs is not None:
            member_specs = [
                m if isinstance(m, ModelSpec) else ModelSpec(**m) for m in member_specs
            ]
        weights = params.pop("weights", None)
        return SoftVotingEnsemble(
            member_specs=member_specs, weights=weights, seed=spec.seed, **params
        )
    return _CLASSES[spec.kind](seed=spec.seed, **spec.params)


def resolved_params(spec: ModelSpec) -> dict:
    """The spec's hyperparameters with the constructor defaults filled in, seed left out.

    Two specs with equal kind and resolved params build the same model up
    to its seed. Ensembles are not resolved: their members are specs. A
    param the constructor does not take, seed included, is rejected.
    """
    if spec.kind not in _CLASSES:
        raise ParameterError(f"cannot resolve the params of a {spec.kind!r} spec")
    try:
        bound = inspect.signature(_CLASSES[spec.kind]).bind_partial(seed=spec.seed, **spec.params)
    except TypeError as exc:
        raise ParameterError(f"{spec.kind} params: {exc}") from None
    bound.apply_defaults()
    bound.arguments.pop("seed")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in bound.arguments.items()}
