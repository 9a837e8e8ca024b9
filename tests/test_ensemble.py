import numpy as np
import pytest

from acoubench.errors import ParameterError
from acoubench.models import (
    Classifier,
    ModelSpec,
    SoftVotingEnsemble,
    ensemble_predict_proba,
    make_model,
    validate_probabilities,
)


class FixedModel(Classifier):
    """Test stub that always answers with a fixed probability row."""

    kind = "fixed"

    def __init__(self, row):
        super().__init__()
        self.row = np.asarray(row, dtype=float)
        self.class_count = len(self.row)

    def predict_proba(self, X):
        return np.tile(self.row, (len(np.atleast_2d(X)), 1))


class TestEnsemblePredictProba:
    def test_one_hot_weights_select_that_member(self):
        members = [FixedModel([0.9, 0.1]), FixedModel([0.3, 0.7])]
        out = ensemble_predict_proba(members, [0.0, 1.0], np.zeros((3, 2)))
        np.testing.assert_allclose(out, [[0.3, 0.7]] * 3)

    def test_hand_case_equal_weights(self):
        # members (0.6, 0.4) and (0.2, 0.8): sums (0.8, 1.2) -> second class
        members = [FixedModel([0.6, 0.4]), FixedModel([0.2, 0.8])]
        out = ensemble_predict_proba(members, [1.0, 1.0], np.zeros((1, 2)))
        np.testing.assert_allclose(out[0], [0.4, 0.6])
        assert np.argmax(out[0]) == 1

    def test_identical_members_are_idempotent(self):
        members = [FixedModel([0.25, 0.75])] * 3
        out = ensemble_predict_proba(members, [1.0, 1.0, 1.0], np.zeros((1, 2)))
        np.testing.assert_allclose(out[0], [0.25, 0.75])

    def test_class_count_mismatch_rejected(self):
        members = [FixedModel([0.5, 0.5]), FixedModel([0.2, 0.3, 0.5])]
        with pytest.raises(ParameterError, match="class count"):
            ensemble_predict_proba(members, [1.0, 1.0], np.zeros((1, 2)))

    def test_all_zero_weights_rejected(self):
        members = [FixedModel([0.5, 0.5])]
        with pytest.raises(ParameterError):
            ensemble_predict_proba(members, [0.0], np.zeros((1, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_weight_rejected(self, bad):
        # NaN fails both `w < 0` and `w > 0`, so a sign test alone lets it through
        members = [FixedModel([0.6, 0.4]), FixedModel([0.2, 0.8])]
        with pytest.raises(ParameterError, match=r"'weights\[0\]' must be a finite number >= 0"):
            ensemble_predict_proba(members, [bad, 1.0], np.zeros((1, 2)))

    def test_output_renormalized(self):
        members = [FixedModel([0.6, 0.4]), FixedModel([0.2, 0.8])]
        out = ensemble_predict_proba(members, [2.0, 0.5], np.zeros((1, 2)))
        assert out.sum() == pytest.approx(1.0)


class TestSoftVotingEnsemble:
    def test_default_roster_trains_and_predicts(self, rng):
        X = rng.normal(size=(60, 5))
        y = (X[:, 0] > 0).astype(int)
        model = SoftVotingEnsemble(seed=0).fit(X, y)
        assert [m.kind for m in model.members_] == ["svm", "rf", "gbt"]
        probs = model.predict_proba(X)
        validate_probabilities(probs, 2)
        assert (model.predict(X) == y).mean() > 0.9

    def test_configurable_members(self, rng):
        X = rng.normal(size=(40, 3))
        y = (X[:, 1] > 0).astype(int)
        spec = ModelSpec(
            "ensemble",
            params={
                "members": [
                    {"kind": "knn", "params": {"k": 3}},
                    {"kind": "rf", "params": {"n_trees": 5}},
                ],
                "weights": [2.0, 1.0],
            },
            seed=1,
        )
        model = make_model(spec).fit(X, y)
        assert [m.kind for m in model.members_] == ["knn", "rf"]
        validate_probabilities(model.predict_proba(X), 2)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ParameterError):
            SoftVotingEnsemble(weights=[0.0, 0.0, 0.0])

    def test_adopted_member_must_share_the_class_count(self, rng):
        X = rng.normal(size=(30, 3))
        specs = [ModelSpec("knn", {"k": 3}), ModelSpec("knn", {"k": 5})]
        three_class = specs[0].build().fit(X, np.arange(30) % 3)
        ensemble = SoftVotingEnsemble(member_specs=specs).adopt([three_class, None])
        with pytest.raises(ParameterError, match="adopted knn has class count 3"):
            ensemble.fit(X, np.arange(30) % 2)


class TestProbabilityContract:
    """Every model's output must be a valid probability vector, at scale."""

    def test_all_models_on_random_inputs(self, rng):
        X = rng.normal(size=(60, 6))
        y = rng.integers(0, 3, size=60)
        queries = rng.normal(size=(1000, 6))
        for kind in ("knn", "svm", "rf", "gbt", "mlp", "ensemble"):
            params = {"epochs": 5} if kind == "mlp" else {}
            if kind == "gbt":
                params = {"n_rounds": 5}
            if kind == "rf":
                params = {"n_trees": 5}
            model = make_model(ModelSpec(kind, params=params, seed=2)).fit(X, y)
            probs = model.predict_proba(queries)
            validate_probabilities(probs, 3)

    def test_argmax_tie_breaks_to_lowest_index(self):
        model = FixedModel([0.5, 0.5])
        assert model.predict(np.zeros((1, 2)))[0] == 0
