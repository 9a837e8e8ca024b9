import math

import numpy as np
import pytest

from acoubench.errors import ParameterError
from acoubench.evaluation import (
    ConfusionMatrix,
    auc_roc,
    chi_square_sf,
    classification_metrics,
    confusion_from_predictions,
    friedman,
    mcc,
    mcnemar,
    nemenyi_critical_difference,
    significance_report,
    stratified_kfold,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def pairwise_concordance_auc(scores, positives):
    """O(n^2) enumeration of positive/negative pairs; ties count one half."""
    pos = scores[positives]
    neg = scores[~positives]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def gorodkin_mcc(y_true, y_pred, n_classes):
    """Multiclass MCC as the Pearson correlation of one-hot indicator matrices."""
    T = np.eye(n_classes)[y_true]
    P = np.eye(n_classes)[y_pred]
    Tc = T - T.mean(axis=0)
    Pc = P - P.mean(axis=0)
    cov_tp = np.sum(Tc * Pc)
    cov_tt = np.sum(Tc * Tc)
    cov_pp = np.sum(Pc * Pc)
    if cov_tt == 0 or cov_pp == 0:
        return 0.0
    return cov_tp / math.sqrt(cov_tt * cov_pp)


def chi2_sf_by_quadrature(x, dof, upper=2000.0, steps=4_000_001):
    """Simpson integration of the chi-square density over [x, upper]."""
    grid = np.linspace(x, upper, steps)
    log_pdf = (
        (dof / 2 - 1) * np.log(np.maximum(grid, 1e-300))
        - grid / 2
        - (dof / 2) * np.log(2)
        - math.lgamma(dof / 2)
    )
    pdf = np.exp(log_pdf)
    h = grid[1] - grid[0]
    return float(h / 3 * (pdf[0] + pdf[-1] + 4 * pdf[1::2].sum() + 2 * pdf[2:-1:2].sum()))


# ---------------------------------------------------------------------------
# confusion-matrix metrics
# ---------------------------------------------------------------------------

class TestClassificationMetrics:
    def test_perfect_diagonal(self):
        cm = ConfusionMatrix(np.diag([10, 20, 30]))
        m = classification_metrics(cm)
        assert m.accuracy == m.precision == m.recall == m.f1 == 1.0

    def test_binary_hand_case(self):
        # TP=50, FP=10, FN=5, TN=35 (class 1 positive):
        # precision 50/60 = 0.8333, recall 50/55 = 0.9091, F1 0.8696
        cm = ConfusionMatrix(np.array([[35, 10], [5, 50]]))
        m = classification_metrics(cm)
        assert m.per_class_precision[1] == pytest.approx(0.8333, abs=1e-4)
        assert m.per_class_recall[1] == pytest.approx(0.9091, abs=1e-4)
        assert m.per_class_f1[1] == pytest.approx(0.8696, abs=1e-4)
        assert m.accuracy == pytest.approx(85 / 100)

    def test_never_predicted_class_scores_zero_not_nan(self):
        # class 2 never predicted
        cm = confusion_from_predictions([0, 1, 2, 2], [0, 1, 0, 1], n_classes=3)
        m = classification_metrics(cm)
        assert m.per_class_precision[2] == 0.0
        assert np.all(np.isfinite(m.per_class_f1))

    def test_permutation_invariance(self, rng):
        y_true = rng.integers(0, 4, size=60)
        y_pred = rng.integers(0, 4, size=60)
        perm = rng.permutation(60)
        a = classification_metrics(confusion_from_predictions(y_true, y_pred, 4))
        b = classification_metrics(
            confusion_from_predictions(y_true[perm], y_pred[perm], 4)
        )
        assert (a.accuracy, a.precision, a.recall, a.f1) == (
            b.accuracy,
            b.precision,
            b.recall,
            b.f1,
        )
        np.testing.assert_array_equal(a.per_class_f1, b.per_class_f1)

    def test_macro_f1_matches_loop_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(5, 30))
            y_true = rng.integers(0, 3, size=n)
            y_pred = rng.integers(0, 3, size=n)
            m = classification_metrics(confusion_from_predictions(y_true, y_pred, 3))
            f1s = []
            for c in range(3):
                tp = np.sum((y_true == c) & (y_pred == c))
                fp = np.sum((y_true != c) & (y_pred == c))
                fn = np.sum((y_true == c) & (y_pred != c))
                prec = tp / (tp + fp) if tp + fp else 0.0
                rec = tp / (tp + fn) if tp + fn else 0.0
                f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
            assert m.f1 == pytest.approx(np.mean(f1s), abs=1e-9)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ParameterError):
            classification_metrics(ConfusionMatrix(np.zeros((2, 2), dtype=int)))


class TestMCC:
    def test_perfect_agreement(self):
        assert mcc(ConfusionMatrix(np.array([[50, 0], [0, 50]]))) == 1.0

    def test_perfect_disagreement(self):
        assert mcc(ConfusionMatrix(np.array([[0, 50], [50, 0]]))) == -1.0

    def test_hand_value(self):
        # TP=45, FN=5, FP=10, TN=40 -> 0.7035
        cm = ConfusionMatrix(np.array([[40, 10], [5, 45]]))
        assert mcc(cm) == pytest.approx(0.7035, abs=1e-4)

    def test_zero_denominator(self):
        assert mcc(ConfusionMatrix(np.array([[3, 2], [0, 0]]))) == 0.0

    def test_multiclass_reduces_to_binary(self, rng):
        for _ in range(100):
            counts = rng.integers(0, 20, size=(2, 2))
            if counts.sum() == 0:
                continue
            binary = mcc(ConfusionMatrix(counts))
            # embed as a 3-class matrix with an empty third class; the
            # generalized form must agree with the binary formula
            y_true, y_pred = [], []
            for t in range(2):
                for p in range(2):
                    y_true += [t] * counts[t, p]
                    y_pred += [p] * counts[t, p]
            general = gorodkin_mcc(np.array(y_true), np.array(y_pred), 2)
            assert binary == pytest.approx(general, abs=1e-12)

    def test_multiclass_matches_gorodkin_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(6, 30))
            y_true = rng.integers(0, 4, size=n)
            y_pred = rng.integers(0, 4, size=n)
            got = mcc(confusion_from_predictions(y_true, y_pred, 4))
            want = gorodkin_mcc(y_true, y_pred, 4)
            assert got == pytest.approx(want, abs=1e-9)


class TestAUC:
    def test_perfect_ordering(self):
        scores = np.array([[0.1, 0.9], [0.2, 0.8], [0.9, 0.1], [0.8, 0.2]])
        y = np.array([1, 1, 0, 0])
        assert auc_roc(scores, y) == pytest.approx(1.0)

    def test_identical_scores_give_half(self):
        scores = np.full((6, 2), 0.5)
        y = np.array([0, 0, 0, 1, 1, 1])
        assert auc_roc(scores, y) == pytest.approx(0.5)

    def test_six_sample_binary_case_matches_oracle(self):
        scores = np.array([0.9, 0.4, 0.4, 0.35, 0.2, 0.1])
        y = np.array([1, 1, 0, 1, 0, 0])
        mat = np.column_stack([1 - scores, scores])
        got = auc_roc(mat, y)
        want_pos = pairwise_concordance_auc(scores, y == 1)
        want_neg = pairwise_concordance_auc(1 - scores, y == 0)
        assert got == pytest.approx((want_pos + want_neg) / 2, abs=1e-9)

    def test_matches_concordance_oracle_on_random_instances(self, rng):
        for _ in range(200):
            n = int(rng.integers(4, 30))
            n_classes = int(rng.integers(2, 4))
            y = rng.integers(0, n_classes, size=n)
            if len(np.unique(y)) < 2:
                continue
            scores = np.round(rng.random((n, n_classes)), 2)  # force some ties
            per_class = []
            for c in range(n_classes):
                positives = y == c
                if positives.all() or not positives.any():
                    continue
                per_class.append(pairwise_concordance_auc(scores[:, c], positives))
            with np.errstate(all="ignore"):
                import warnings

                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    got = auc_roc(scores, y)
            assert got == pytest.approx(np.mean(per_class), abs=1e-9)

    def test_single_class_skipped_with_warning(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]])
        y = np.array([0, 0, 0])
        with pytest.raises(ParameterError):
            with pytest.warns(UserWarning):
                auc_roc(scores, y)

    def test_missing_class_warns_but_averages_rest(self):
        scores = np.array([[0.9, 0.05, 0.05], [0.1, 0.85, 0.05], [0.2, 0.7, 0.1]])
        y = np.array([0, 1, 1])
        with pytest.warns(UserWarning, match="class 2"):
            value = auc_roc(scores, y)
        assert 0.0 <= value <= 1.0


class TestStratifiedKFold:
    def test_balanced_100_samples(self):
        y = np.repeat(np.arange(5), 20)
        plan = stratified_kfold(y, 5, seed=1)
        for fold in range(5):
            _, test_idx = plan.fold_indices(fold)
            assert len(test_idx) == 20
            np.testing.assert_array_equal(np.bincount(y[test_idx], minlength=5), [4] * 5)

    def test_singleton_class_rejected(self):
        y = np.array([0, 0, 0, 1])
        with pytest.raises(ParameterError):
            stratified_kfold(y, 3, seed=2)

    def test_same_seed_same_plan(self):
        y = np.repeat(np.arange(3), 10)
        a = stratified_kfold(y, 5, seed=3)
        b = stratified_kfold(y, 5, seed=3)
        np.testing.assert_array_equal(a.fold_assignments, b.fold_assignments)

    def test_proportions_within_one_sample(self, rng):
        for _ in range(20):
            y = rng.integers(0, 4, size=int(rng.integers(40, 120)))
            if np.bincount(y, minlength=4).min() < 3:
                continue
            plan = stratified_kfold(y, 3, seed=4)
            global_counts = np.bincount(y, minlength=4)
            for fold in range(3):
                _, test_idx = plan.fold_indices(fold)
                counts = np.bincount(y[test_idx], minlength=4)
                expected = global_counts / 3
                assert np.all(np.abs(counts - expected) <= 1.0)

    def test_holdout_and_validation_carving(self):
        y = np.repeat(np.arange(5), 20)
        plan = stratified_kfold(y, 5, seed=5, holdout_fraction=0.2, validation_fraction=0.1)
        assert plan.holdout_mask.sum() == 20
        assert plan.validation_mask.sum() == 10
        assert plan.cv_mask.sum() == 70
        # carved samples never appear in folds
        assert np.all(plan.fold_assignments[plan.holdout_mask] == -1)
        assert np.all(plan.fold_assignments[plan.validation_mask] == -1)
        # stratified: each class contributes equally to the hold-out
        np.testing.assert_array_equal(np.bincount(y[plan.holdout_mask]), [4] * 5)

    @pytest.mark.parametrize(
        "holdout, validation", [(0.2, -0.1), (-0.2, 0.0), (1.0, 0.0), (0.0, 1.5)]
    )
    def test_fraction_outside_unit_interval_rejected(self, holdout, validation):
        y = np.repeat(np.arange(5), 10)
        with pytest.raises(ParameterError, match=r"_fraction must lie in \[0, 1\)"):
            stratified_kfold(y, 5, seed=1, holdout_fraction=holdout, validation_fraction=validation)

    def test_folds_partition_cv_data(self):
        y = np.repeat(np.arange(2), 25)
        plan = stratified_kfold(y, 5, seed=6, holdout_fraction=0.2)
        seen = np.concatenate([plan.fold_indices(f)[1] for f in range(5)])
        assert sorted(seen) == sorted(np.where(plan.cv_mask)[0])


class TestChiSquareSF:
    def test_zero_statistic(self):
        assert chi_square_sf(0.0, 3) == 1.0

    def test_standard_quantile(self):
        assert chi_square_sf(3.841, 1) == pytest.approx(0.05, abs=1e-3)

    def test_two_dof_closed_form(self):
        for x in (0.5, 2.0, 10.0):
            assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)

    def test_matches_quadrature_oracle(self):
        for x, dof in [(1.0, 1), (3.841, 1), (5.991, 2), (7.815, 3), (15.0, 5), (30.0, 10)]:
            want = chi2_sf_by_quadrature(x, dof)
            assert chi_square_sf(x, dof) == pytest.approx(want, abs=1e-8)

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            chi_square_sf(-1.0, 1)
        with pytest.raises(ParameterError):
            chi_square_sf(1.0, 0)
        with pytest.raises(ParameterError, match="integer"):
            chi_square_sf(1.0, 1.5)


class TestMcNemar:
    def test_balanced_disagreements(self):
        # b = c = 10 -> chi2 = (|0| - 1)^2 / 20 = 0.05
        c1 = np.array([True] * 10 + [False] * 10 + [True] * 30)
        c2 = np.array([False] * 10 + [True] * 10 + [True] * 30)
        res = mcnemar(c1, c2)
        assert res.chi2 == pytest.approx(0.05)
        assert (res.b, res.c) == (10, 10)

    def test_one_sided_disagreements(self):
        # b = 20, c = 0 -> chi2 = 19^2 / 20 = 18.05, p < 0.001
        c1 = np.array([True] * 20 + [True] * 30)
        c2 = np.array([False] * 20 + [True] * 30)
        res = mcnemar(c1, c2)
        assert res.chi2 == pytest.approx(18.05)
        assert res.p_value < 0.001

    def test_identical_predictions_degenerate(self):
        c = np.array([True, False, True])
        res = mcnemar(c, c)
        assert res.degenerate
        assert res.p_value == 1.0

    def test_symmetry(self, rng):
        c1 = rng.random(50) > 0.3
        c2 = rng.random(50) > 0.5
        a, b = mcnemar(c1, c2), mcnemar(c2, c1)
        assert a.chi2 == b.chi2
        assert a.p_value == b.p_value


class TestFriedman:
    def test_all_tied(self):
        res = friedman(np.ones((4, 3)))
        assert res.chi2 == 0.0
        np.testing.assert_array_equal(res.avg_ranks, [2.0, 2.0, 2.0])

    def test_perfectly_ordered_hand_case(self):
        # N=3, k=3, identical ordering: ranks (1,2,3), sum R^2 = 14,
        # chi2 = (12*3)/(3*4) * (14 - 3*16/4) = 3 * 2 = 6
        perf = np.array([[0.9, 0.8, 0.7]] * 3)
        res = friedman(perf)
        assert res.chi2 == pytest.approx(6.0)
        np.testing.assert_allclose(res.avg_ranks, [1.0, 2.0, 3.0])
        assert res.p_value == pytest.approx(math.exp(-3.0), abs=1e-12)

    def test_tied_scores_share_average_rank(self):
        res = friedman(np.array([[0.5, 0.5, 0.1], [0.5, 0.5, 0.1]]))
        np.testing.assert_allclose(res.avg_ranks, [1.5, 1.5, 3.0])

    def test_round_off_does_not_break_a_tie(self):
        # fold F1 of knn, svm, rf, gbt, mlp, ensemble on perfbench's `bench`
        # config at seed 866: knn and mlp have the same fold-0 macro-F1 up to
        # the last bit, and must share rank 5.5 there
        perf = np.array([
            [0.7866666666666666, 1.0, 1.0, 0.8933333333333333, 0.7866666666666667, 1.0],
            [0.7333333333333333, 1.0, 1.0, 1.0, 0.7999999999999999, 1.0],
            [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            [0.7333333333333333, 1.0, 1.0, 1.0, 0.7333333333333333, 1.0],
        ])
        res = friedman(perf)
        # fold ranks: (5.5 2 2 4 5.5 2), (6 2.5 2.5 2.5 5 2.5), (3.5 x6) twice, (5.5 2.5 2.5 2.5 5.5 2.5)
        np.testing.assert_allclose(res.avg_ranks, [4.8, 2.8, 2.8, 3.2, 4.6, 2.8], rtol=0, atol=1e-12)
        # 12 * 5 / 42 * (77.96 - 73.5)
        assert res.chi2 == pytest.approx(60 / 42 * 4.46, abs=1e-9)

    def test_too_small_rejected(self):
        with pytest.raises(ParameterError):
            friedman(np.ones((1, 3)))
        with pytest.raises(ParameterError):
            friedman(np.ones((3, 1)))


class TestNemenyi:
    def test_formula(self):
        # q * sqrt(k(k+1) / 6N) with k=6, N=4, q=2.85:
        # 2.85 * sqrt(42 / 24) = 2.85 * 1.3229 = 3.770
        cd = nemenyi_critical_difference(6, 4, 2.85)
        assert cd == pytest.approx(2.85 * math.sqrt(42 / 24), abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            nemenyi_critical_difference(1, 4, 2.85)
        with pytest.raises(ParameterError):
            nemenyi_critical_difference(6, 4, 0.0)


class TestSignificanceReport:
    def test_matrix_shape_and_symmetry(self, rng):
        correctness = rng.random((3, 40)) > 0.3
        perf = rng.random((5, 3))
        report = significance_report(["a", "b", "c"], correctness, perf)
        assert report.mcnemar_p.shape == (3, 3)
        np.testing.assert_array_equal(report.mcnemar_p, report.mcnemar_p.T)
        np.testing.assert_array_equal(np.diag(report.mcnemar_p), np.ones(3))
        assert np.all(report.avg_ranks >= 1.0)
        assert np.all(report.avg_ranks <= 3.0)
