"""Dataset container shared by the generator, extractor and learners."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError


@dataclass
class Dataset:
    """Labels, feature matrix, where each clip comes from, and provenance.

    A dataset holds no waveforms. Each clip is known by its generator
    seed (``seeds``, a synthetic corpus) or by its file name within
    ``provenance["directory"]`` (``filenames``, a WAV corpus), so a clip
    can be made or read again when it is needed. ``features`` is None for
    a synthetic corpus index whose clips have not been extracted yet.
    """

    labels: np.ndarray
    features: np.ndarray | None = None
    seeds: np.ndarray | None = None
    filenames: list | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.ndim != 1:
            raise ParameterError("labels must be a 1-D integer sequence")
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=float)
            if self.features.shape[0] != len(self.labels):
                raise ParameterError("feature rows must match label count")
        for name in ("seeds", "filenames"):
            if getattr(self, name) is not None and len(getattr(self, name)) != len(self.labels):
                raise ParameterError(f"{name} must match label count")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    def with_features(self, features) -> "Dataset":
        return replace(self, features=features)


@dataclass(frozen=True)
class Scaler:
    """Per-feature centering and scaling fitted on a training split."""

    mean: np.ndarray
    scale: np.ndarray

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=float) - self.mean) / self.scale


def fit_scaler(features: np.ndarray) -> Scaler:
    features = np.asarray(features, dtype=float)
    if len(features) == 0:
        raise ParameterError("cannot fit a scaler on an empty feature matrix")
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std = np.where(std == 0, 1.0, std)  # constant columns pass through as zeros
    return Scaler(mean=mean, scale=std)
