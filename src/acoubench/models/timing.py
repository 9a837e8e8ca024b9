"""Wall-clock timing of training and per-sample prediction."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError


@dataclass(frozen=True)
class TimingReport:
    training_seconds: float  # median over the recorded fits
    training_cv: float  # coefficient of variation across the recorded fits
    prediction_ms_per_sample: float  # median over the prediction repetitions
    prediction_cv: float
    repetitions: int  # prediction repetitions


def _cv(values: np.ndarray) -> float:
    mean = values.mean()
    return float(values.std() / mean) if mean > 0 else 0.0


def measure_timing(fit_seconds, model, X_query, repetitions: int = 3) -> TimingReport:
    """Training cost from recorded fits, and the median cost of batch prediction.

    ``fit_seconds`` holds the ``training_seconds`` that ``Classifier.fit``
    recorded for fits of this model; nothing is refitted. ``model`` is a
    fitted model whose ``predict_proba`` is timed ``repetitions`` times on
    ``X_query``.
    """
    if repetitions < 3:
        raise ParameterError("need at least 3 repetitions for a meaningful median")
    train_times = np.asarray(fit_seconds, dtype=float)
    if train_times.size == 0:
        raise ParameterError("need at least one recorded fit")
    X_query = np.atleast_2d(np.asarray(X_query, dtype=float))
    predict_times = np.empty(repetitions)
    for r in range(repetitions):
        start = time.perf_counter()
        model.predict_proba(X_query)
        predict_times[r] = time.perf_counter() - start
    return TimingReport(
        training_seconds=float(np.median(train_times)),
        training_cv=_cv(train_times),
        prediction_ms_per_sample=float(np.median(predict_times)) * 1000.0 / len(X_query),
        prediction_cv=_cv(predict_times),
        repetitions=repetitions,
    )
