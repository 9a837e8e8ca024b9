import json

import numpy as np
import pytest

from acoubench.errors import ParameterError
from acoubench.models import ModelSpec, load_model, make_model, save_model


@pytest.fixture(scope="module")
def training_data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 5))
    y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 1).astype(int)
    return X, y, rng.normal(size=(15, 5))


@pytest.mark.parametrize("kind", ["knn", "svm", "rf", "gbt", "mlp", "ensemble"])
def test_round_trip_preserves_predictions(kind, training_data, tmp_path):
    X, y, queries = training_data
    params = {}
    if kind == "mlp":
        params = {"epochs": 5}
    if kind == "gbt":
        params = {"n_rounds": 5}
    if kind == "rf":
        params = {"n_trees": 5}
    model = make_model(ModelSpec(kind, params=params, seed=3)).fit(X, y)
    path = tmp_path / f"{kind}.json"
    save_model(model, path)
    restored = load_model(path)
    np.testing.assert_array_equal(
        model.predict_proba(queries), restored.predict_proba(queries)
    )


def test_unfitted_model_rejected(tmp_path):
    model = make_model(ModelSpec("knn"))
    with pytest.raises(ParameterError):
        save_model(model, tmp_path / "x.json")


def test_wrong_format_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ParameterError):
        load_model(path)


def test_dump_is_versioned(training_data, tmp_path):
    X, y, _ = training_data
    model = make_model(ModelSpec("knn", seed=1)).fit(X, y)
    path = tmp_path / "m.json"
    save_model(model, path)
    blob = json.loads(path.read_text())
    assert blob["format"] == "acoubench-model"
    assert blob["format_version"] == 2
    assert blob["kind"] == "knn"


def test_version_one_file_rejected(training_data, tmp_path):
    X, y, _ = training_data
    model = make_model(ModelSpec("gbt", params={"n_rounds": 2}, seed=1)).fit(X, y)
    path = tmp_path / "m.json"
    save_model(model, path)
    blob = json.loads(path.read_text())
    blob["format_version"] = 1
    path.write_text(json.dumps(blob))
    with pytest.raises(ParameterError, match="unsupported format version"):
        load_model(path)
