"""Output checks computed apart from the program.

Nothing here imports ``acoubench``: every figure is recomputed from the
files a command wrote (and, for ``extract``, from the WAV clips read
with the standard library), with the formulas the README and the
program's docstrings state. Each check function returns a list of
failure messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import math
import wave
from pathlib import Path

import numpy as np

# relative tolerance for values recomputed with numpy's own FFT instead
# of the program's; the two transforms agree to about 1e-15
SPECTRAL_RTOL = 1e-9
# tolerance for time-domain values, which use the same arithmetic
TIME_RTOL, TIME_ATOL = 1e-9, 1e-12
# files whose bytes legitimately differ between identical runs
NONDETERMINISTIC = {"timing.csv", "figs/fig4_prediction_time.csv"}


def _rows(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _printed_match(value: float, printed: str, decimals: int) -> bool:
    """True when ``value`` rounds to the printed figure."""
    return abs(value - float(printed)) <= 0.5 * 10.0 ** -decimals + 1e-9


# ---------------------------------------------------------------------------
# statistics, written out from their textbook definitions
# ---------------------------------------------------------------------------

def macro_scores(y_true, y_pred, n_classes: int) -> tuple[float, float]:
    """(accuracy, macro-F1); a class with no support and no predictions scores 0."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    f1 = []
    for c in range(n_classes):
        tp = int(np.sum((y_true == c) & (y_pred == c)))
        predicted = int(np.sum(y_pred == c))
        actual = int(np.sum(y_true == c))
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return float(np.mean(y_true == y_pred)), float(np.mean(f1))


def mcnemar_p(correct_a, correct_b) -> float:
    """Continuity-corrected McNemar p-value; chi-square with 1 dof is erfc(sqrt(x/2))."""
    b = int(np.sum(correct_a & ~correct_b))
    c = int(np.sum(~correct_a & correct_b))
    if b + c == 0:
        return 1.0
    chi2 = (abs(b - c) - 1) ** 2 / (b + c)
    return math.erfc(math.sqrt(chi2 / 2.0))


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail of the chi-square distribution in closed form (integer dof)."""
    if x <= 0:
        return 1.0
    if dof % 2 == 0:
        term = total = math.exp(-x / 2.0)
        for j in range(1, dof // 2):
            term *= (x / 2.0) / j
            total += term
        return total
    total = math.erfc(math.sqrt(x / 2.0))
    term = math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0)
    for j in range(1, (dof + 1) // 2):
        total += term
        term *= x / (2 * j + 1)
    return total


def average_ranks(scores) -> np.ndarray:
    """Rank 1 = highest score; ties (within 1e-12) share their mean rank."""
    scores = np.asarray(scores, dtype=float)
    ranks = np.empty(len(scores))
    for i, s in enumerate(scores):
        above = np.sum(scores > s + 1e-12)
        tied = np.sum(np.abs(scores - s) <= 1e-12)
        ranks[i] = above + (tied + 1) / 2.0
    return ranks


def friedman(fold_scores) -> tuple[float, np.ndarray]:
    """Friedman chi-square over a [folds, models] score matrix, and the mean ranks."""
    fold_scores = np.asarray(fold_scores, dtype=float)
    n, k = fold_scores.shape
    avg = np.mean([average_ranks(row) for row in fold_scores], axis=0)
    chi2 = 12.0 * n / (k * (k + 1)) * (float(np.sum(avg ** 2)) - k * (k + 1) ** 2 / 4.0)
    return max(chi2, 0.0), avg


def p_value_cell(p: float) -> str:
    if p < 0.001:
        return "<0.001***"
    if p < 0.05:
        return f"{p:.3f}*"
    return f"{p:.3f}"


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def read_wav(path) -> tuple[np.ndarray, int]:
    with wave.open(str(path), "rb") as wf:
        rate = wf.getframerate()
        raw = wf.readframes(wf.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0, rate


def check_extract(features_csv, corpus_dir, labels_csv) -> list:
    failures = []
    features_csv = Path(features_csv)
    registry = _rows(features_csv.with_name("registry.csv"))
    names = [row[1] for row in registry[2:]]
    rows = _rows(features_csv)
    header, body = rows[0], rows[1:]
    if len(names) != 127 or len(set(names)) != len(names):
        failures.append(f"registry lists {len(names)} names, {len(set(names))} distinct; expected 127")
    if header != names + ["label"]:
        failures.append("features header is not the registry names plus 'label'")
    listed = _rows(labels_csv)
    col = {name: i for i, name in enumerate(listed[0])}
    listed = listed[1:]
    if len(body) != len(listed):
        return failures + [f"{len(body)} feature rows for {len(listed)} listed files"]
    values = np.array([[float(v) for v in row[:-1]] for row in body])
    if not np.all(np.isfinite(values)):
        failures.append(f"{int(np.sum(~np.isfinite(values)))} non-finite feature values")
    raw_labels = [int(row[col["label"]]) for row in listed]
    dense = {c: i for i, c in enumerate(sorted(set(raw_labels)))}
    if [int(row[-1]) for row in body] != [dense[c] for c in raw_labels]:
        failures.append("feature labels do not match labels.csv")
    index = {name: header.index(name) for name in (
        "Mean", "RMS Energy", "Peak Amplitude", "Zero Crossing Rate",
        "Spectral Centroid", "Dominant Frequency",
    ) if name in header}
    if len(index) < 6:
        return failures + ["recomputed feature columns missing from the header"]
    for r, row in enumerate(listed):
        x, rate = read_wav(Path(corpus_dir) / row[col["filename"]])
        got = values[r]
        signs = np.where(x >= 0, 1.0, -1.0)  # a zero sample counts as positive
        expected = {
            "Mean": float(np.mean(x)),
            "RMS Energy": float(np.sqrt(np.mean(x ** 2))),
            "Peak Amplitude": float(np.max(np.abs(x))),
            "Zero Crossing Rate": float(np.count_nonzero(signs[1:] != signs[:-1])) / (len(x) - 1),
        }
        for name, value in expected.items():
            if not math.isclose(got[index[name]], value, rel_tol=TIME_RTOL, abs_tol=TIME_ATOL):
                failures.append(f"{row[col['filename']]}: {name} {float(got[index[name]])!r} != {value!r}")
        nfft = 1 << max(0, (len(x) - 1).bit_length())
        power = np.abs(np.fft.rfft(x, nfft)) ** 2
        bin_hz = rate / nfft
        centroid = float(np.sum(power * np.arange(len(power)) * bin_hz) / np.sum(power))
        if not math.isclose(got[index["Spectral Centroid"]], centroid, rel_tol=SPECTRAL_RTOL):
            failures.append(f"{row[col['filename']]}: Spectral Centroid off by more than {SPECTRAL_RTOL:g}")
        # the program's dominant bin must hold the peak power, up to FFT round-off
        k = got[index["Dominant Frequency"]] / bin_hz
        if abs(k - round(k)) > 1e-6 or power[int(round(k))] < power.max() * (1 - SPECTRAL_RTOL):
            failures.append(f"{row[col['filename']]}: Dominant Frequency is not the peak bin")
    return failures


# ---------------------------------------------------------------------------
# bench and noise
# ---------------------------------------------------------------------------

def condition_header(levels) -> list:
    return ["Algorithm", "Clean"] + [f"SNR {v:g} dB" for v in levels] + ["Robustness Index"]


def check_noise_csv(path, names, levels) -> tuple[list, float]:
    """Failures and the mean robustness index over the roster."""
    rows = _rows(path)
    failures = []
    if rows[0] != condition_header(levels):
        failures.append(f"noise.csv header {rows[0]} does not match levels {list(levels)}")
    if [row[0] for row in rows[1:]] != list(names):
        failures.append("noise.csv rows do not follow the roster")
    indices = []
    for row in rows[1:]:
        f1 = [float(v) for v in row[1:-1]]
        if any(not 0.0 <= v <= 1.0 for v in f1):
            failures.append(f"noise.csv {row[0]}: F1 outside [0, 1]")
        # both the cells and the index are rounded to 4 decimals
        if abs(float(row[-1]) - math.fsum(f1) / len(f1)) > 1e-4 + 1e-9:
            failures.append(f"noise.csv {row[0]}: index {row[-1]} is not the row mean")
        indices.append(float(row[-1]))
    return failures, (math.fsum(indices) / len(indices) if indices else 0.0)


def _mean_std(cell: str) -> tuple[str, str]:
    mean, std = cell.split(" ± ")
    return mean, std


def check_bench(out_dir, names, seed, per_class, n_classes, n_folds, holdout, levels) -> list:
    out = Path(out_dir)
    failures = []
    pred = _rows(out / "predictions.csv")
    if pred[0] != ["sample_index", "fold", "y_true"] + list(names):
        return [f"predictions.csv header {pred[0]}"]
    data = np.array([[int(v) for v in row] for row in pred[1:]])
    folds, y_true, preds = data[:, 1], data[:, 2], data[:, 3:]
    fold_ids = sorted(set(folds.tolist()))
    if fold_ids != list(range(n_folds)):
        failures.append(f"predictions.csv folds {fold_ids}")
    scores = np.array([
        [macro_scores(y_true[folds == f], preds[folds == f, m], n_classes) for m in range(len(names))]
        for f in fold_ids
    ])  # [folds, models, (accuracy, f1)]

    metrics = {row[0]: row for row in _rows(out / "metrics.csv")[1:]}
    for m, name in enumerate(names):
        for column, which in ((1, 0), (4, 1)):
            mean, std = _mean_std(metrics[name][column])
            values = scores[:, m, which]
            if not (_printed_match(float(np.mean(values)), mean, 4)
                    and _printed_match(float(np.std(values)), std, 4)):
                label = "accuracy" if which == 0 else "F1"
                failures.append(f"metrics.csv {name} {label} {metrics[name][column]} != recomputed")

    correct = preds == y_true[:, None]
    sig = _rows(out / "significance.csv")
    if sig[0] != ["Model"] + list(names):
        failures.append("significance.csv header does not follow the roster")
    for i, row in enumerate(sig[1:]):
        for j, cell in enumerate(row[1:]):
            expected = "-" if i == j else p_value_cell(mcnemar_p(correct[:, i], correct[:, j]))
            if cell != expected:
                failures.append(f"significance.csv {names[i]}/{names[j]}: {cell} != {expected}")

    chi2, ranks = friedman(scores[:, :, 1])
    fried = _rows(out / "friedman.csv")
    fields = {row[0]: row[1] for row in fried if len(row) == 2}
    if not _printed_match(chi2, fields["friedman_chi2"], 4):
        failures.append(f"friedman_chi2 {fields['friedman_chi2']} != {chi2:.6f}")
    if not math.isclose(chi2_sf(chi2, len(names) - 1), float(fields["friedman_p"]), rel_tol=1e-5, abs_tol=1e-12):
        failures.append(f"friedman_p {fields['friedman_p']} != recomputed")
    ranked = fried[fried.index(["Model", "AvgRank"]) + 1:]
    for name, rank in ranked:
        if not _printed_match(ranks[list(names).index(name)], rank, 2):
            failures.append(f"friedman.csv {name} rank {rank} != recomputed")
    if [float(r) for _, r in ranked] != sorted(float(r) for _, r in ranked):
        failures.append("friedman.csv ranks are not in ascending order")

    noise_failures, _ = check_noise_csv(out / "noise.csv", names, levels)
    failures += noise_failures

    shares = [float(row[2]) for row in _rows(out / "domain_importance.csv")[1:]]
    if abs(math.fsum(shares) - 100.0) > 0.05 * len(shares) + 1e-9:
        failures.append(f"domain shares sum to {math.fsum(shares)}")

    lines = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
    manifest = dict(line.split("=", 1) for line in lines)
    expected = {
        "seed": str(seed),
        "n_samples": str(n_classes * per_class),
        "n_classes": str(n_classes),
        "class_counts": ",".join([str(per_class)] * n_classes),
        "n_features": "127",
        "n_folds": str(n_folds),
        "holdout_samples": str(holdout),
        "models": ",".join(names),
    }
    for key, value in expected.items():
        if manifest.get(key) != value:
            failures.append(f"manifest {key}={manifest.get(key)} != {value}")
    carved = int(manifest.get("holdout_samples", 0)) + int(manifest.get("validation_samples", 0))
    if carved + len(data) != n_classes * per_class:
        failures.append("hold-out, validation and CV rows do not add up to the corpus")
    return failures


# ---------------------------------------------------------------------------
# repeatability
# ---------------------------------------------------------------------------

def compare_rounds(round_dirs) -> list:
    """Every deterministic file of each round is byte-identical to the first's."""
    if len(round_dirs) < 2:
        return []
    first = Path(round_dirs[0])
    files = sorted(
        p.relative_to(first).as_posix() for p in first.rglob("*") if p.is_file()
    )
    failures = []
    for other in map(Path, round_dirs[1:]):
        theirs = sorted(p.relative_to(other).as_posix() for p in other.rglob("*") if p.is_file())
        if theirs != files:
            failures.append(f"{other.name} wrote a different set of files")
            continue
        for rel in files:
            if rel in NONDETERMINISTIC:
                continue
            if (first / rel).read_bytes() != (other / rel).read_bytes():
                failures.append(f"{other.name}/{rel} differs from {first.name}/{rel}")
    return failures
