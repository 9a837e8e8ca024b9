"""Acceptance gate: one test (or group) per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. The desk-scale benchmark (criterion 6) runs once as
a session fixture and is shared by the criteria that inspect its output.
"""

import math
import time
import warnings

import numpy as np
import pytest

from acoubench.bench import METRIC_COLUMNS, ExperimentConfig, run_experiment, write_bundle
from acoubench.dsp import dwt_energies
from acoubench.evaluation import (
    auc_roc,
    chi_square_sf,
    classification_metrics,
    confusion_from_predictions,
    friedman,
    mcc,
    mcnemar,
)
from acoubench.features import extract_all, full_spectrum
from acoubench.models import (
    GradientBoostedTrees,
    MLPClassifier,
    ModelSpec,
    SVMClassifier,
    make_model,
    validate_probabilities,
)
from acoubench.registry import REGISTRY, feature_names
from acoubench.synth import FaultClass, GeneratorConfig, generate_sample, robustness_index

from conftest import SR
from test_evaluation import gorodkin_mcc, pairwise_concordance_auc
from test_mlp import central_difference_gradients

DESK_SEED = 42


def report(criterion: str, detail: str):
    print(f"[criterion {criterion}] PASS: {detail}")


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    """Desk-scale benchmark: 5 classes x 200 samples, 1 s @ 16 kHz, 5-fold CV."""
    cfg = ExperimentConfig.from_dict(
        {
            "data": {
                "source": "synthetic",
                "samples_per_class": 200,
                "duration_s": 1.0,
                "sample_rate_hz": 16000.0,
            },
            "cv": {"n_folds": 5, "holdout_fraction": 0.2},
            "noise": {"levels_db": [40.0, 30.0, 20.0, 10.0]},
            "timing": {"enabled": True, "repetitions": 3},
        },
        seed=DESK_SEED,
    )
    start = time.perf_counter()
    bundle = run_experiment(cfg)
    runtime = time.perf_counter() - start
    out = tmp_path_factory.mktemp("desk")
    write_bundle(bundle, out)
    return out, bundle, runtime


# ---------------------------------------------------------------------------
# criterion 1: DSP correctness
# ---------------------------------------------------------------------------

def _direct_dft_batch(X: np.ndarray) -> np.ndarray:
    """O(n^2) DFT by definition for a batch of same-length rows.

    Each 256-row block of the DFT matrix is materialized from a length-n
    twiddle table and applied to every input at once.
    """
    m, n = X.shape
    idx = np.arange(n)
    table = np.exp(-2j * np.pi * idx / n)
    out = np.empty((m, n), dtype=complex)
    for lo in range(0, n, 256):
        k = np.arange(lo, min(lo + 256, n))
        block = table[(k[:, None] * idx[None, :]) % n]
        out[:, k] = X @ block.T
    return out


def test_criterion_1_dsp_correctness():
    rng = np.random.default_rng(1)
    start = time.perf_counter()

    lengths = rng.choice([64, 128, 256, 512, 1024, 2048, 4096], size=100)
    inputs = [rng.normal(size=int(n)) for n in lengths]
    for n in sorted(set(int(v) for v in lengths)):
        batch = np.vstack([x for x in inputs if len(x) == n])
        want = _direct_dft_batch(batch)
        for row, x in enumerate(batch):
            # the one-sided power spectrum the extractor takes of a whole clip
            got, _ = full_spectrum(x, SR)
            power = np.abs(want[row][: n // 2 + 1]) ** 2
            assert np.linalg.norm(got - power) <= 1e-9 * np.linalg.norm(power)
            e_time = np.sum(x ** 2)
            e_freq = (got.sum() + got[1:-1].sum()) / n  # bins 1..n/2-1 stand for two
            assert abs(e_time - e_freq) <= 1e-9 * e_time

    for _ in range(100):
        n = int(rng.integers(64, 4096))
        sig = rng.normal(size=n)
        total = dwt_energies(sig).sum()
        energy = np.sum(sig ** 2)
        assert abs(total - energy) <= 1e-6 * energy

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"DSP correctness block took {elapsed:.1f}s"
    report("1", f"FFT vs direct DFT, Parseval, DWT conservation in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: feature contract
# ---------------------------------------------------------------------------

def test_criterion_2_feature_contract():
    cfg = GeneratorConfig(duration_s=0.5)
    impulse = np.zeros(8000)
    impulse[4000] = 1.0
    corpus = [
        (np.zeros(8000), SR),           # silence
        (np.full(8000, 0.5), SR),       # constant
        (impulse, SR),                  # impulse
    ]
    corpus += [generate_sample(cls, 7, cfg) for cls in FaultClass]

    for sig in corpus:
        vec = extract_all(*sig)
        assert vec.shape == (127,)
        assert np.all(np.isfinite(vec))

    counts = {"time": 0, "frequency": 0, "time-frequency": 0}
    for entry in REGISTRY:
        counts[entry.domain] += 1
    assert counts == {"time": 35, "frequency": 45, "time-frequency": 47}

    published_top_features = {
        "Spectral Centroid": "frequency",
        "MFCC-1": "frequency",
        "RMS Energy": "time",
        "Zero Crossing Rate": "time",
        "Spectral Rolloff": "frequency",
        "MFCC-2": "frequency",
        "Spectral Bandwidth": "frequency",
        "Crest Factor": "time",
        "MFCC-3": "frequency",
        "Spectral Flux": "frequency",
        "Wavelet energy (D4)": "time-frequency",
        "Temporal Centroid": "time",
        "Spectral Contrast": "frequency",
        "MFCC-4": "frequency",
        "Chroma Mean": "frequency",
    }
    for name, domain in published_top_features.items():
        assert REGISTRY[feature_names().index(name)].domain == domain
    report("2", "127 finite features, 35/45/47 domains, all published names resolve")


# ---------------------------------------------------------------------------
# criterion 3: metric oracles
# ---------------------------------------------------------------------------

def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(3)
    checked_auc = 0
    for _ in range(200):
        n = int(rng.integers(4, 30))
        n_classes = int(rng.integers(2, 5))
        y_true = rng.integers(0, n_classes, size=n)
        y_pred = rng.integers(0, n_classes, size=n)

        cm = confusion_from_predictions(y_true, y_pred, n_classes)
        got_mcc = mcc(cm)
        want_mcc = gorodkin_mcc(y_true, y_pred, n_classes)
        assert got_mcc == pytest.approx(want_mcc, abs=1e-9)

        got_f1 = classification_metrics(cm)[3]
        f1s = []
        for c in range(n_classes):
            tp = np.sum((y_true == c) & (y_pred == c))
            fp = np.sum((y_true != c) & (y_pred == c))
            fn = np.sum((y_true == c) & (y_pred != c))
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        assert got_f1 == pytest.approx(np.mean(f1s), abs=1e-9)

        scores = np.round(rng.random((n, n_classes)), 2)
        per_class = [
            pairwise_concordance_auc(scores[:, c], y_true == c)
            for c in range(n_classes)
            if 0 < np.sum(y_true == c) < n
        ]
        if per_class:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert auc_roc(scores, y_true) == pytest.approx(
                    np.mean(per_class), abs=1e-9
                )
            checked_auc += 1
    assert checked_auc >= 150

    assert mcc(np.array([[50, 0], [0, 50]])) == 1.0
    assert mcc(np.array([[0, 50], [50, 0]])) == -1.0
    assert mcc(np.array([[40, 10], [5, 45]])) == pytest.approx(
        0.7035, abs=1e-4
    )
    report("3", "MCC/F1/AUC match brute-force oracles; binary MCC hand values hold")


# ---------------------------------------------------------------------------
# criterion 4: statistical tests
# ---------------------------------------------------------------------------

def test_criterion_4_statistical_tests():
    chi2, _ = mcnemar(
        np.array([True] * 10 + [False] * 10), np.array([False] * 10 + [True] * 10)
    )
    assert chi2 == pytest.approx(0.05)
    chi2, _ = mcnemar(np.array([True] * 20), np.array([False] * 20))
    assert chi2 == pytest.approx(18.05)

    ordered_chi2, _, _ = friedman(np.array([[0.9, 0.8, 0.7]] * 3))
    assert ordered_chi2 == pytest.approx(6.0)
    tied_chi2, _, _ = friedman(np.ones((3, 3)))
    assert tied_chi2 == 0.0

    assert chi_square_sf(3.841, 1) == pytest.approx(0.05, abs=1e-3)
    assert chi_square_sf(5.991, 2) == pytest.approx(0.05, abs=1e-3)
    assert chi_square_sf(7.815, 3) == pytest.approx(0.05, abs=1e-3)
    report("4", "McNemar and Friedman hand cases; chi-square quantiles within 1e-3")


# ---------------------------------------------------------------------------
# criterion 5: learner sanity
# ---------------------------------------------------------------------------

def test_criterion_5_learner_sanity():
    rng = np.random.default_rng(5)

    # MLP gradients vs central finite differences; tanh keeps the check
    # away from relu kinks, where two-sided differences are ill-posed
    mlp = MLPClassifier(hidden=(4, 3), activation="tanh", epochs=1, seed=1)
    Xg = rng.normal(size=(3, 5))
    yg = np.array([0, 1, 2])
    mlp.fit(Xg, yg)
    _, analytic = mlp.loss_and_gradients(Xg, yg)
    numeric = central_difference_gradients(mlp, Xg, yg)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        scale = np.maximum(np.abs(a), np.abs(n))
        mask = scale > 1e-8
        if mask.any():
            worst = max(worst, float((np.abs(a - n)[mask] / scale[mask]).max()))
    assert worst < 1e-4

    # GBT regularized loss non-increasing over 50 rounds
    X = rng.normal(size=(150, 10))
    y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0.5).astype(int)
    gbt = GradientBoostedTrees(n_rounds=50, seed=2).fit(X, y)
    assert np.all(np.diff(gbt.loss_history_) <= 1e-9)

    # SVM dual feasibility and the XOR case
    svm = SVMClassifier(kernel="rbf", C=3.0, seed=3).fit(X, y)
    for machine in svm.machines_.values():
        for low, high in machine.alpha_bounds_history:
            assert 0.0 <= low and high <= svm.C + 1e-12
    xor_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    xor_y = np.array([0, 1, 1, 0])
    xor = SVMClassifier(kernel="rbf", gamma=1.0, C=10.0, seed=4).fit(xor_X, xor_y)
    assert (xor.predict(xor_X) == xor_y).mean() == 1.0

    # probability normalization across every model kind
    queries = rng.normal(size=(200, 10))
    for kind in ("knn", "svm", "rf", "gbt", "mlp", "ensemble"):
        params = {}
        if kind == "mlp":
            params = {"epochs": 5}
        if kind == "gbt":
            params = {"n_rounds": 5}
        if kind == "rf":
            params = {"n_trees": 5}
        model = make_model(ModelSpec(kind, params=params, seed=6)).fit(X, y)
        validate_probabilities(model.predict_proba(queries), 3, atol=1e-9)
    report("5", "gradcheck, monotone GBT loss, SVM feasibility + XOR, proba contract")


# ---------------------------------------------------------------------------
# criterion 6: desk-scale trend reproduction
# ---------------------------------------------------------------------------

def _mean_f1(bundle):
    """Each model's cross-validated macro-F1, averaged over the folds."""
    return bundle.scores[:, :, METRIC_COLUMNS.index("f1")].mean(axis=0)


def test_criterion_6a_ensemble_superiority(desk_run):
    _, bundle, _ = desk_run
    f1 = dict(zip(bundle.model_names, _mean_f1(bundle)))
    individual = {k: v for k, v in f1.items() if k != "ensemble"}
    assert f1["ensemble"] >= max(individual.values()) - 0.02
    report("6a", f"ensemble F1 {f1['ensemble']:.4f} vs best individual {max(individual.values()):.4f}")


def test_criterion_6b_every_model_above_080(desk_run):
    _, bundle, _ = desk_run
    for name, f1 in zip(bundle.model_names, _mean_f1(bundle)):
        assert f1 >= 0.80, name
    report("6b", "all six models reach macro-F1 >= 0.80 on the desk corpus")


def test_criterion_6c_noise_degradation_monotone(desk_run):
    _, bundle, _ = desk_run
    for name in bundle.model_names:
        values = bundle.noise_table[name]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 0.02, (name, values)
    report("6c", "per-model F1 non-increasing across clean,40,30,20,10 dB (0.02 slack)")


def test_criterion_6d_index_is_exact_mean(desk_run):
    _, bundle, _ = desk_run
    for name in bundle.model_names:
        values = bundle.noise_table[name]
        assert robustness_index(values) == pytest.approx(np.mean(values), abs=0)
    report("6d-i", "robustness index equals the exact mean of the five condition F1s")


PUBLISHED_ENSEMBLE_INDEX = 0.831


def test_criterion_6d_published_row_value():
    """Footnote definition applied to the published ensemble row.

    The robustness index is the arithmetic mean of the clean and noisy
    F1 values, so the published ensemble row sums to 4.354 and its index
    is 4.354 / 5 = 0.8708. The table's printed index of 0.831 sits 0.040
    below that mean; no nearby reading of the definition (noise-only
    mean, trapezoid area, geometric or harmonic mean, any sub-average)
    reaches it. The test checks both facts: the implementation returns
    the definitional mean, and the published figure is inconsistent
    with it by the recorded gap.
    """
    row = (0.942, 0.931, 0.902, 0.834, 0.745)  # clean, 40, 30, 20, 10 dB
    value = robustness_index(row)
    assert value == pytest.approx(math.fsum(row) / len(row), abs=5e-4)
    assert value == pytest.approx(0.8708, abs=5e-4)
    gap = value - PUBLISHED_ENSEMBLE_INDEX
    assert gap == pytest.approx(0.040, abs=5e-4)
    report(
        "6d-ii",
        f"published ensemble row has index {value:.4f} by the footnote mean; "
        f"the published {PUBLISHED_ENSEMBLE_INDEX:.3f} is {gap:.4f} below it",
    )


def test_criterion_6_runtime(desk_run):
    _, _, runtime = desk_run
    assert runtime < 600.0
    report("6", f"desk-scale pipeline completed in {runtime:.0f}s (< 10 min)")


# ---------------------------------------------------------------------------
# criterion 7: determinism
# ---------------------------------------------------------------------------

def test_criterion_7_byte_identical_runs(tmp_path):
    config = {
        "data": {"source": "synthetic", "samples_per_class": 15},
        "cv": {"n_folds": 3, "holdout_fraction": 0.2},
        "noise": {"levels_db": [30.0]},
        "timing": {"enabled": True, "repetitions": 3},
    }
    outputs = []
    for sub in ("run1", "run2"):
        cfg = ExperimentConfig.from_dict(config, seed=11)
        write_bundle(run_experiment(cfg), tmp_path / sub)
        outputs.append(tmp_path / sub)
    deterministic = (
        "metrics.csv",
        "significance.csv",
        "friedman.csv",
        "noise.csv",
        "importance.csv",
        "domain_importance.csv",
        "predictions.csv",
        "manifest.txt",
    )
    for rel in deterministic:
        assert (outputs[0] / rel).read_bytes() == (outputs[1] / rel).read_bytes(), rel
    report("7", "metric CSVs and manifests byte-identical across reruns")


# ---------------------------------------------------------------------------
# criterion 8: feature-domain attribution
# ---------------------------------------------------------------------------

def test_criterion_8_domain_attribution(desk_run):
    out, bundle, _ = desk_run
    importance = bundle.importance
    assert importance is not None
    assert np.all(importance >= 0)
    assert importance.sum() == pytest.approx(1.0, abs=1e-9)

    shares = {}
    for domain in ("time", "frequency", "time-frequency"):
        ids = [e.id for e in REGISTRY if e.domain == domain]
        shares[domain] = float(importance[ids].sum())
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)

    domain_csv = out / "domain_importance.csv"
    assert domain_csv.is_file()
    # the published 58/25/17 split is NOT an acceptance target; only the
    # grouping mechanics are verified here
    report(
        "8",
        "RF importances grouped by domain: "
        + ", ".join(f"{k} {v * 100:.0f}%" for k, v in shares.items()),
    )
