"""Versioned JSON dump/restore for fitted models.

The format is deliberately self-contained and not interoperable with
external ML tooling: one JSON object with a format tag, a format
version, the model kind and a kind-specific parameter payload.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import ParameterError
from ..registry import REGISTRY_VERSION

FORMAT_TAG = "acoubench-model"
FORMAT_VERSION = 2


def _kind_map():
    from .boosting import GradientBoostedTrees
    from .ensemble import SoftVotingEnsemble
    from .forest import RandomForestClassifier
    from .knn import KNNClassifier
    from .mlp import MLPClassifier
    from .svm import SVMClassifier

    return {
        "knn": KNNClassifier,
        "svm": SVMClassifier,
        "rf": RandomForestClassifier,
        "gbt": GradientBoostedTrees,
        "mlp": MLPClassifier,
        "ensemble": SoftVotingEnsemble,
    }


def model_to_dict(model) -> dict:
    return {"kind": model.kind, "payload": model.to_dict()}


def model_from_dict(d: dict):
    kinds = _kind_map()
    if d["kind"] not in kinds:
        raise ParameterError(f"unknown model kind {d['kind']!r}")
    return kinds[d["kind"]].from_dict(d["payload"])


def save_model(model, path) -> None:
    if model.class_count is None:
        raise ParameterError("only fitted models can be saved")
    blob = {
        "format": FORMAT_TAG,
        "format_version": FORMAT_VERSION,
        "registry_version": REGISTRY_VERSION,
        **model_to_dict(model),
    }
    Path(path).write_text(json.dumps(blob), encoding="utf-8")


def load_model(path):
    blob = json.loads(Path(path).read_text(encoding="utf-8"))
    if blob.get("format") != FORMAT_TAG:
        raise ParameterError(f"{path}: not an {FORMAT_TAG} file")
    if blob.get("format_version") != FORMAT_VERSION:
        raise ParameterError(f"{path}: unsupported format version {blob.get('format_version')}")
    return model_from_dict(blob)
