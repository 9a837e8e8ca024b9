import numpy as np
import pytest

from acoubench.errors import ParameterError
from acoubench.models import KNNClassifier, ModelSpec, SoftVotingEnsemble, measure_timing


def _fit_seconds(model, X, y, fits=3):
    seconds = []
    for _ in range(fits):
        seconds.append(model.fit(X, y).training_seconds)
    return seconds


def test_timings_are_positive(rng):
    X = rng.normal(size=(100, 8))
    y = rng.integers(0, 2, size=100)
    model = KNNClassifier(k=3)
    report = measure_timing(_fit_seconds(model, X, y), model, X[:20], repetitions=3)
    assert report.training_seconds > 0
    assert report.prediction_ms_per_sample > 0
    assert report.repetitions == 3


def test_dispersion_reported(rng):
    X = rng.normal(size=(60, 4))
    y = rng.integers(0, 2, size=60)
    model = KNNClassifier(k=3)
    report = measure_timing(_fit_seconds(model, X, y, fits=5), model, X[:10], repetitions=5)
    assert report.training_cv >= 0
    assert report.prediction_cv >= 0


def test_training_figures_are_those_of_the_recorded_fits():
    report = measure_timing([0.1, 0.3, 0.2, 0.2, 0.2], KNNClassifier(k=1).fit([[0.0]], [0]),
                            [[0.0]], repetitions=3)
    assert report.training_seconds == pytest.approx(0.2)
    assert report.training_cv == pytest.approx(np.std([0.1, 0.3, 0.2, 0.2, 0.2]) / 0.2)


def test_knn_prediction_grows_with_training_size(rng):
    # brute-force neighbour search: 4x the training set must take longer
    queries = rng.normal(size=(200, 16))
    y_small = rng.integers(0, 2, size=2000)
    X_small = rng.normal(size=(2000, 16))
    X_large = rng.normal(size=(8000, 16))
    y_large = rng.integers(0, 2, size=8000)
    small_model = KNNClassifier(k=5)
    large_model = KNNClassifier(k=5)
    small = measure_timing(_fit_seconds(small_model, X_small, y_small), small_model, queries,
                           repetitions=5)
    large = measure_timing(_fit_seconds(large_model, X_large, y_large), large_model, queries,
                           repetitions=5)
    assert large.prediction_ms_per_sample > small.prediction_ms_per_sample


def test_too_few_repetitions_rejected(rng):
    X = rng.normal(size=(10, 2))
    y = rng.integers(0, 2, size=10)
    model = KNNClassifier(k=1)
    with pytest.raises(ParameterError):
        measure_timing(_fit_seconds(model, X, y), model, X, repetitions=2)


def test_ensemble_training_seconds_cover_adopted_members(rng):
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(int)
    specs = [ModelSpec("knn", {"k": 3}), ModelSpec("rf", {"n_trees": 5}, seed=1)]
    members = [spec.build().fit(X, y) for spec in specs]
    ensemble = SoftVotingEnsemble(member_specs=specs).adopt(members).fit(X, y)
    assert ensemble.members_[0] is members[0] and ensemble.members_[1] is members[1]
    assert ensemble.training_seconds >= sum(m.training_seconds for m in members)
