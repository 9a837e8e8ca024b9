"""The benchmark's output checks, and two cross-path properties of the CLI.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
One small config is run through ``bench``, ``noise``, ``stats`` and
``extract`` once per test run; the tests then corrupt copies of the
outputs and show that each check notices.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
from acoubench import cli  # noqa: E402
from acoubench.evaluation import chi_square_sf  # noqa: E402

SEED = 5
NAMES = ["knn", "svm", "rf", "gbt", "mlp", "ensemble"]
LEVELS = (20.0, 10.0)
PER_CLASS = 6
N_FOLDS = 3
SMALL = {"rf": {"n_trees": 4, "max_depth": 6}, "gbt": {"n_rounds": 2, "max_depth": 2}}
CONFIG = {
    "seed": SEED,
    "data": {"source": "synthetic", "samples_per_class": PER_CLASS, "duration_s": 0.25},
    "preprocess": "rms",
    "models": [
        {"kind": "knn", "params": {"k": 3}},
        {"kind": "svm", "params": {}},
        {"kind": "rf", "params": SMALL["rf"]},
        {"kind": "gbt", "params": SMALL["gbt"]},
        {"kind": "mlp", "params": {"epochs": 10}},
        {"kind": "ensemble", "params": {"members": [
            {"kind": "svm", "params": {}, "seed": 1},
            {"kind": "rf", "params": SMALL["rf"], "seed": 2},
            {"kind": "gbt", "params": SMALL["gbt"], "seed": 3},
        ]}},
    ],
    "cv": {"n_folds": N_FOLDS, "holdout_fraction": 0.2, "validation_fraction": 0.1},
    "noise": {"levels_db": list(LEVELS)},
    "timing": {"enabled": True, "repetitions": 3},
}


def _cli(*argv):
    with redirect_stdout(StringIO()):
        assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="session")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("outputs")
    config = base / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    _cli("bench", "--config", config, "--out", base / "bench", "--seed", SEED)
    _cli("noise", "--config", config, "--out", base / "noise", "--seed", SEED)
    _cli("stats", "--predictions", base / "bench" / "predictions.csv", "--out", base / "stats")
    _cli("synth", "--out", base / "corpus", "--seed", SEED, "--samples-per-class", 2, "--duration", 0.3)
    _cli("extract", "--wav-dir", base / "corpus", "--labels", base / "corpus" / "labels.csv",
         "--out", base / "extract" / "features.csv")
    return base


def _bench_failures(bench_dir):
    holdout = 5 * round(0.2 * PER_CLASS)
    return checks.check_bench(bench_dir, NAMES, SEED, PER_CLASS, 5, N_FOLDS, holdout, LEVELS)


def _extract_failures(base, features_csv):
    corpus = base / "corpus"
    return checks.check_extract(features_csv, corpus, corpus / "labels.csv")


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def _rewrite(path: Path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def test_checks_pass_on_program_outputs(outputs):
    assert _bench_failures(outputs / "bench") == []
    failures, index_mean = checks.check_noise_csv(outputs / "noise" / "noise.csv", NAMES, LEVELS)
    assert failures == [] and 0.0 < index_mean <= 1.0
    assert _extract_failures(outputs, outputs / "extract" / "features.csv") == []


def test_swapped_prediction_column_fails(outputs, tmp_path):
    bench = _copy(outputs / "bench", tmp_path / "bench")
    path = bench / "predictions.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    y = [row[2] for row in rows[1:]]
    accuracy = [sum(row[3 + m] == t for row, t in zip(rows[1:], y)) for m in range(len(NAMES))]
    worst, best = 3 + accuracy.index(min(accuracy)), 3 + accuracy.index(max(accuracy))
    assert min(accuracy) < max(accuracy), "the fixture needs two models that score differently"

    def swap(rows):
        for row in rows[1:]:
            row[worst], row[best] = row[best], row[worst]

    _rewrite(path, swap)
    assert _bench_failures(bench)


def test_perturbed_feature_cell_fails(outputs, tmp_path):
    for column in ("RMS Energy", "Spectral Centroid"):
        extract = _copy(outputs / "extract", tmp_path / column.replace(" ", "_"))
        path = extract / "features.csv"

        def perturb(rows):
            j = rows[0].index(column)
            rows[1][j] = repr(float(rows[1][j]) * (1 + 1e-6))

        _rewrite(path, perturb)
        assert _extract_failures(outputs, path), column


def test_edited_index_fails(outputs, tmp_path):
    for source in ("noise", "bench"):
        copy = _copy(outputs / source, tmp_path / source)
        path = copy / "noise.csv"

        def edit(rows):
            rows[1][-1] = f"{float(rows[1][-1]) + 0.001:.4f}"

        _rewrite(path, edit)
        failures, _ = checks.check_noise_csv(path, NAMES, LEVELS)
        assert failures, source
    assert _bench_failures(tmp_path / "bench")


def test_changed_byte_between_rounds_fails(outputs, tmp_path):
    first = _copy(outputs / "bench", tmp_path / "r0")
    second = _copy(outputs / "bench", tmp_path / "r1")
    (second / "timing.csv").write_text("wall-clock figures may differ\n", encoding="utf-8")
    assert checks.compare_rounds([first, second]) == []
    _rewrite(second / "metrics.csv", lambda rows: rows[1].__setitem__(0, "KNN"))
    assert checks.compare_rounds([first, second])


def test_noise_and_bench_write_the_same_noise_table(outputs):
    assert (outputs / "noise" / "noise.csv").read_bytes() == (outputs / "bench" / "noise.csv").read_bytes()


def test_stats_reproduces_the_significance_tables(outputs):
    for name in ("significance.csv", "friedman.csv"):
        assert (outputs / "stats" / name).read_bytes() == (outputs / "bench" / name).read_bytes(), name


@pytest.mark.parametrize("dof", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("x", [0.5, 3.84, 11.07, 30.0])
def test_closed_form_chi_square_tail_matches_the_program(x, dof):
    assert math.isclose(checks.chi2_sf(x, dof), chi_square_sf(x, dof), rel_tol=1e-9)
