"""Metrics, cross-validation planning and statistical model comparison.

Covers the full scoring surface: confusion-matrix metrics with
macro averaging, Matthews correlation in its multiclass form,
one-vs-rest AUC-ROC by threshold sweep, stratified k-fold planning
with optional hold-out and validation carving, McNemar's paired test
with continuity correction, the Friedman rank test, and the chi-square
survival function both rely on.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


# ---------------------------------------------------------------------------
# confusion matrix and basic metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts[true, predicted] over C classes."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1] or counts.shape[0] == 0:
            raise ParameterError("confusion matrix must be a non-empty square matrix")
        if np.any(counts < 0):
            raise ParameterError("confusion matrix entries must be non-negative")

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion_from_predictions(y_true, y_pred, n_classes: int | None = None) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if y_true.shape != y_pred.shape:
        raise ParameterError("prediction and truth vectors must have the same length")
    if n_classes is None:
        n_classes = int(max(y_true.max(), y_pred.max())) + 1
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    return ConfusionMatrix(counts=counts)


@dataclass(frozen=True)
class MetricSet:
    """Macro-averaged scores plus the per-class vectors they come from."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    per_class_precision: np.ndarray
    per_class_recall: np.ndarray
    per_class_f1: np.ndarray


def classification_metrics(cm: ConfusionMatrix) -> MetricSet:
    """Accuracy plus macro precision/recall/F1; zero denominators score 0."""
    counts = cm.counts.astype(float)
    if counts.sum() == 0:
        raise ParameterError("confusion matrix holds no samples")
    tp = np.diag(counts)
    pred_totals = counts.sum(axis=0)
    true_totals = counts.sum(axis=1)
    precision = np.where(pred_totals > 0, tp / np.where(pred_totals > 0, pred_totals, 1), 0.0)
    recall = np.where(true_totals > 0, tp / np.where(true_totals > 0, true_totals, 1), 0.0)
    denom = precision + recall
    f1 = np.where(denom > 0, 2 * precision * recall / np.where(denom > 0, denom, 1), 0.0)
    return MetricSet(
        accuracy=float(tp.sum() / counts.sum()),
        precision=float(precision.mean()),
        recall=float(recall.mean()),
        f1=float(f1.mean()),
        per_class_precision=precision,
        per_class_recall=recall,
        per_class_f1=f1,
    )


def mcc(cm: ConfusionMatrix) -> float:
    """Matthews correlation coefficient.

    The generalized covariance form (Gorodkin 2004), which for C = 2 is
    the classic TP/TN/FP/FN formula. A zero denominator scores 0.
    """
    counts = cm.counts.astype(float)
    s = counts.sum()
    c = np.trace(counts)
    t = counts.sum(axis=1)  # true-class totals
    p = counts.sum(axis=0)  # predicted-class totals
    numer = c * s - float(t @ p)
    denom = math.sqrt((s ** 2 - float(p @ p)) * (s ** 2 - float(t @ t)))
    if denom == 0:
        return 0.0
    return float(numer / denom)


# ---------------------------------------------------------------------------
# AUC-ROC
# ---------------------------------------------------------------------------

def _binary_auc(scores: np.ndarray, is_positive: np.ndarray) -> float:
    """ROC area by descending threshold sweep with trapezoidal integration.

    Tied scores advance TPR and FPR together, which values each tied
    pair at one half.
    """
    order = np.argsort(-scores, kind="stable")
    pos = is_positive[order].astype(float)
    n_pos = pos.sum()
    n_neg = len(pos) - n_pos
    tps = np.cumsum(pos)
    fps = np.cumsum(1.0 - pos)
    sorted_scores = scores[order]
    boundary = np.append(np.diff(sorted_scores) != 0, True)
    tpr = np.concatenate([[0.0], tps[boundary] / n_pos])
    fpr = np.concatenate([[0.0], fps[boundary] / n_neg])
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))


def auc_roc(scores, y_true) -> float:
    """Macro one-vs-rest AUC over the classes present on both sides.

    ``scores`` is an [n, C] matrix of per-class scores. A class without
    both a positive and a negative example is skipped with a warning.
    """
    scores = np.asarray(scores, dtype=float)
    y_true = np.asarray(y_true, dtype=int)
    if scores.ndim != 2 or scores.shape[0] != len(y_true):
        raise ParameterError("scores must be [n_samples, n_classes]")
    aucs = []
    for cls in range(scores.shape[1]):
        positives = y_true == cls
        if positives.all() or not positives.any():
            warnings.warn(f"class {cls} lacks positives or negatives; skipped in AUC")
            continue
        aucs.append(_binary_auc(scores[:, cls], positives))
    if not aucs:
        raise ParameterError("no class had both positive and negative examples")
    return float(np.mean(aucs))


# ---------------------------------------------------------------------------
# cross-validation planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CVPlan:
    """Stratified fold assignment with optional hold-out/validation carving.

    ``fold_assignments`` maps each sample to a fold id, or -1 for
    samples carved into the hold-out or validation splits.
    """

    fold_assignments: np.ndarray
    n_folds: int
    holdout_mask: np.ndarray
    validation_mask: np.ndarray
    seed: int

    def fold_indices(self, fold: int):
        test = np.where(self.fold_assignments == fold)[0]
        train = np.where((self.fold_assignments >= 0) & (self.fold_assignments != fold))[0]
        return train, test

    def iter_folds(self):
        for fold in range(self.n_folds):
            yield self.fold_indices(fold)

    @property
    def cv_mask(self) -> np.ndarray:
        return self.fold_assignments >= 0


def stratified_kfold(
    y,
    n_folds: int,
    seed: int,
    holdout_fraction: float = 0.0,
    validation_fraction: float = 0.0,
) -> CVPlan:
    """Per-class shuffle and round-robin assignment into ``n_folds`` folds.

    When requested, a stratified hold-out and validation split (both
    fractions of the total, each in [0, 1)) are carved off before
    folding; carved samples get fold id -1 and the corresponding mask set.
    """
    y = np.asarray(y, dtype=int)
    if n_folds < 2:
        raise ParameterError("n_folds must be >= 2")
    fractions = {"holdout_fraction": holdout_fraction, "validation_fraction": validation_fraction}
    for name, value in fractions.items():
        if not 0.0 <= value < 1.0:
            raise ParameterError(f"{name} must lie in [0, 1), got {value!r}")
    if holdout_fraction + validation_fraction >= 1.0:
        raise ParameterError("hold-out plus validation must leave data to fold")
    rng = np.random.default_rng(seed)
    assignments = np.full(len(y), -1, dtype=int)
    holdout = np.zeros(len(y), dtype=bool)
    validation = np.zeros(len(y), dtype=bool)
    for cls in np.unique(y):
        idx = rng.permutation(np.where(y == cls)[0])
        n_hold = round(holdout_fraction * len(idx))
        n_val = round(validation_fraction * len(idx))
        if len(idx) - n_hold - n_val < n_folds:
            raise ParameterError(
                f"class {cls} has {len(idx) - n_hold - n_val} foldable samples, "
                f"fewer than {n_folds} folds"
            )
        holdout[idx[:n_hold]] = True
        validation[idx[n_hold : n_hold + n_val]] = True
        foldable = idx[n_hold + n_val :]
        assignments[foldable] = np.arange(len(foldable)) % n_folds
    return CVPlan(
        fold_assignments=assignments,
        n_folds=n_folds,
        holdout_mask=holdout,
        validation_mask=validation,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# chi-square survival function
# ---------------------------------------------------------------------------

def chi_square_sf(x: float, dof: int) -> float:
    """Upper-tail probability of the chi-square distribution, for integer ``dof``.

    The closed form of Q(dof/2, x/2), with Q the regularized upper
    incomplete gamma: from Q(1/2, h) = erfc(sqrt(h)) for odd dof, or
    Q(0, h) = 0 for even dof, each step Q(s + 1, h) = Q(s, h) +
    h**s e**-h / Gamma(s + 1) adds one term, computed in log space so that
    no term underflows before it is summed.
    """
    if x < 0:
        raise ParameterError("chi-square statistic must be non-negative")
    if not isinstance(dof, numbers.Integral) or dof < 1:
        raise ParameterError(f"degrees of freedom must be an integer >= 1, got {dof!r}")
    if x == 0:
        return 1.0
    h = x / 2.0
    odd = dof % 2
    total = math.erfc(math.sqrt(h)) if odd else 0.0
    for j in range(dof // 2):
        s = j + odd / 2.0
        total += math.exp(s * math.log(h) - h - math.lgamma(s + 1.0))
    return total


# ---------------------------------------------------------------------------
# statistical model comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McNemarResult:
    chi2: float
    p_value: float
    b: int  # first classifier correct, second wrong
    c: int  # first classifier wrong, second correct
    degenerate: bool  # no disagreements at all


def mcnemar(correct1, correct2) -> McNemarResult:
    """Continuity-corrected McNemar test on paired correctness vectors."""
    correct1 = np.asarray(correct1, dtype=bool)
    correct2 = np.asarray(correct2, dtype=bool)
    if correct1.shape != correct2.shape:
        raise ParameterError("correctness vectors must cover the same samples")
    b = int(np.count_nonzero(correct1 & ~correct2))
    c = int(np.count_nonzero(~correct1 & correct2))
    if b + c == 0:
        return McNemarResult(chi2=0.0, p_value=1.0, b=b, c=c, degenerate=True)
    chi2 = (abs(b - c) - 1) ** 2 / (b + c)
    return McNemarResult(chi2=chi2, p_value=chi_square_sf(chi2, 1), b=b, c=c, degenerate=False)


# scores closer than this share a Friedman rank
RANK_TIE = 1e-12


def _average_ranks_desc(values: np.ndarray) -> np.ndarray:
    """Ranks with 1 = largest value; tied values share the average rank.

    Values within ``RANK_TIE`` of each other tie: scores such as macro-F1
    are ratios of counts, and round-off must not break their ties.
    """
    gap = values[:, None] - values[None, :]
    above = np.sum(gap < -RANK_TIE, axis=1)
    tied = np.sum(np.abs(gap) <= RANK_TIE, axis=1)
    return above + (tied + 1) / 2.0


@dataclass(frozen=True)
class FriedmanResult:
    chi2: float
    p_value: float
    avg_ranks: np.ndarray


def friedman(performance) -> FriedmanResult:
    """Friedman rank test over a [datasets x algorithms] score matrix.

    chi2 = 12N / (k(k+1)) * (sum R_j^2 - k(k+1)^2 / 4) with R_j the
    average rank of algorithm j (rank 1 = best score).
    """
    perf = np.asarray(performance, dtype=float)
    if perf.ndim != 2:
        raise ParameterError("performance must be a [datasets, algorithms] matrix")
    n, k = perf.shape
    if n < 2 or k < 2:
        raise ParameterError("need at least 2 datasets and 2 algorithms")
    ranks = np.vstack([_average_ranks_desc(row) for row in perf])
    avg = ranks.mean(axis=0)
    chi2 = 12.0 * n / (k * (k + 1)) * (float(np.sum(avg ** 2)) - k * (k + 1) ** 2 / 4.0)
    chi2 = max(chi2, 0.0)  # guards tiny negative round-off on tied inputs
    return FriedmanResult(chi2=chi2, p_value=chi_square_sf(chi2, k - 1), avg_ranks=avg)


def nemenyi_critical_difference(n_algorithms: int, n_datasets: int, q_alpha: float) -> float:
    """Rank gap below which two algorithms are not post-hoc distinguishable.

    CD = q_alpha * sqrt(k(k+1) / (6N)). The studentized-range constant
    ``q_alpha`` is not bundled; callers supply it from a published table
    for their k and significance level.
    """
    if n_algorithms < 2 or n_datasets < 1:
        raise ParameterError("need at least 2 algorithms and 1 dataset")
    if q_alpha <= 0:
        raise ParameterError("q_alpha must be positive")
    return q_alpha * math.sqrt(n_algorithms * (n_algorithms + 1) / (6.0 * n_datasets))


@dataclass(frozen=True)
class SignificanceReport:
    """Pairwise McNemar p-values plus the Friedman ranking summary."""

    model_names: tuple
    mcnemar_p: np.ndarray
    friedman_chi2: float
    friedman_p: float
    avg_ranks: np.ndarray


def significance_report(model_names, correctness, performance) -> SignificanceReport:
    """Assemble the full significance analysis.

    ``correctness`` is an [n_models, n_samples] boolean matrix of
    per-sample correctness; ``performance`` is the
    [datasets x algorithms] score matrix fed to the Friedman test.
    """
    names = tuple(model_names)
    correctness = np.asarray(correctness, dtype=bool)
    k = len(names)
    if correctness.shape[0] != k:
        raise ParameterError("one correctness row per model is required")
    p = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            p[i, j] = p[j, i] = mcnemar(correctness[i], correctness[j]).p_value
    fr = friedman(performance)
    return SignificanceReport(
        model_names=names,
        mcnemar_p=p,
        friedman_chi2=fr.chi2,
        friedman_p=fr.p_value,
        avg_ranks=fr.avg_ranks,
    )
