import csv
import importlib.util
import json
import math
import re
import shutil
import wave
from pathlib import Path

import numpy as np
import pytest

from acoubench import features
from acoubench.audio import AudioSignal
from acoubench.bench import (
    METRIC_COLUMNS,
    ExperimentConfig,
    _fit_final_models,
    _fit_roster,
    _prepare,
    friedman_rows,
    load_corpus,
    run_experiment,
    run_noise_sweep,
    significance_from_predictions,
    significance_rows,
    write_bundle,
)
from acoubench.cli import main as cli_main
from acoubench.errors import ParameterError, PipelineStageError, UnsupportedWavError
from acoubench.models import Classifier
from acoubench.synth import FaultClass, GeneratorConfig, generate_sample, robustness_index
from acoubench.wavio import read_wav, write_wav

TINY = {
    "data": {"source": "synthetic", "samples_per_class": 12},
    "cv": {"n_folds": 3, "holdout_fraction": 0.2},
    "noise": {"levels_db": [20.0]},
    "timing": {"enabled": False},
    "models": [
        {"kind": "knn", "params": {"k": 3}},
        {"kind": "rf", "params": {"n_trees": 5, "max_depth": 6}},
    ],
}

ROOT = Path(__file__).resolve().parents[1]
# every file a bench run writes with every report on, and nothing else
BUNDLE_FILES = {
    "metrics.csv", "significance.csv", "friedman.csv", "noise.csv", "importance.csv",
    "domain_importance.csv", "timing.csv", "predictions.csv", "manifest.txt",
}
# reals written as integers, which a check that rewrote values would turn into floats
INTEGRAL_REALS = {
    "data": {
        "source": "synthetic", "samples_per_class": 12, "duration_s": 1, "sample_rate_hz": 16000,
    },
    "cv": {"n_folds": 3, "holdout_fraction": 0, "validation_fraction": 0},
    "noise": {"levels_db": []},
    "stats": {"nemenyi_q_alpha": 3},
    "models": [
        {"kind": "svm", "params": {"C": 10, "gamma": 1}},
        {"kind": "gbt", "params": {"learning_rate": 1, "lambda_l2": 0}},
    ],
}


def _perfbench_config(workload: str, seed: int) -> dict:
    found = importlib.util.spec_from_file_location("perfbench_spec", ROOT / "perfbench" / "spec.py")
    spec = importlib.util.module_from_spec(found)
    found.loader.exec_module(spec)
    return spec.experiment_config(workload, seed)


@pytest.fixture(scope="module")
def tiny_bundle():
    cfg = ExperimentConfig.from_dict(TINY, seed=77)
    return cfg, run_experiment(cfg)


class TestConfig:
    def test_seed_is_mandatory(self):
        with pytest.raises(ParameterError):
            ExperimentConfig.from_dict({"data": {"source": "synthetic"}})

    @pytest.mark.parametrize("seed", [2.7, "42", True], ids=["fraction", "string", "bool"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ParameterError, match=f"'seed' must be an integer, got {seed!r}"):
            ExperimentConfig.from_dict({"seed": seed})

    def test_zero_models_rejected_before_any_work(self):
        with pytest.raises(ParameterError):
            ExperimentConfig.from_dict({"models": []}, seed=1)

    def test_noise_levels_must_strictly_decrease(self):
        with pytest.raises(ParameterError):
            ExperimentConfig.from_dict({"noise": {"levels_db": [20, 30]}}, seed=1)

    def test_noise_sweep_requires_holdout(self):
        with pytest.raises(ParameterError, match="hold-out"):
            ExperimentConfig.from_dict(
                {"cv": {"holdout_fraction": 0.0}, "noise": {"levels_db": [20.0]}}, seed=1
            )

    def test_unknown_config_keys_rejected(self):
        with pytest.raises(ParameterError, match="modles"):
            ExperimentConfig.from_dict({"modles": []}, seed=1)

    @pytest.mark.parametrize(
        "raw, match",
        [
            ({"cv": {"n_fold": 3}}, r"block 'cv': \['n_fold'\]"),
            ({"noise": {"level_db": [20.0]}}, r"block 'noise': \['level_db'\]"),
            ({"timing": {"repetition": 5}}, r"block 'timing': \['repetition'\]"),
            ({"stats": {"nemenyi_q": 2.85}}, r"block 'stats': \['nemenyi_q'\]"),
            # where a run writes is set only by --out, never by the config
            ({"output_dir": "out"}, r"unknown config keys: \['output_dir'\]"),
            ({"cv": 5}, "block 'cv' must be an object"),
            ([], r"a config must be an object, got \[\]"),
            ({"timing": {"repetitions": 2}},
             r"block 'timing': 'repetitions' must be an integer >= 3, got 2"),
            (
                {"data": {"source": "synthetic", "samples_per_clas": 2}},
                r"block 'data': \['samples_per_clas'\]",
            ),
            (
                {"data": {"source": "wav", "directory": "d", "labels_csv": "l.csv",
                          "duration_s": 1.0}},
                r"block 'data': \['duration_s'\]",
            ),
            ({"data": {"source": "flac"}}, "unknown data source 'flac'"),
            ({"data": "synthetic"}, "block 'data' must be an object"),
            ({"models": {"kind": "knn"}}, "'models' must be a list"),
            ({"models": ["knn"]}, r"models\[0\] must be an object"),
            ({"models": [{"kind": "knn", "parms": {"k": 3}}]},
             r"unknown keys in models\[0\]: \['parms'\]"),
            ({"models": [{"params": {"k": 3}}]}, r"models\[0\] has no 'kind'"),
            ({"models": [{"kind": "rf"}, {"kind": "knn", "params": {"kk": 3}}]},
             r"models\[1\]: knn params: .*'kk'"),
            ({"models": [{"kind": "knn", "params": {"seed": 3}}]},
             r"models\[0\]: knn params: .*'seed'"),
            (
                {"models": [{"kind": "ensemble", "params": {"members": [
                    {"kind": "knn", "params": {"k": 3}, "seed": 5},
                    {"kind": "rf", "params": {"n_tree": 5}, "seed": 6},
                ]}}]},
                r"models\[0\]: rf params: .*'n_tree'",
            ),
            (
                {"models": [{"kind": "ensemble", "params": {"members": [
                    {"kind": "knn", "parms": {"k": 3}, "seed": 5},
                ]}}]},
                r"models\[0\]: .*'parms'",
            ),
            ({"models": [{"kind": "ensemble", "params": {"member": []}}]},
             r"models\[0\]: .*'member'"),
            ({"models": [{"kind": "rf"}, {"kind": "knn", "params": {"k": 0}}]},
             r"models\[1\]: 'k' must be an integer >= 1, got 0"),
            (
                {"models": [{"kind": "ensemble", "params": {"members": [
                    {"kind": "rf", "params": {"n_trees": 0}, "seed": 6},
                ]}}]},
                r"models\[0\]: 'n_trees' must be an integer >= 1, got 0",
            ),
            ({"models": [{"kind": "ensemble", "params": {"members": []}}]},
             r"models\[0\]: ensemble needs at least one member"),
            ({"cv": {"n_folds": "3"}}, r"block 'cv': 'n_folds' must be an integer >= 2, got '3'"),
            ({"cv": {"n_folds": 2.5}}, r"block 'cv': 'n_folds' must be an integer >= 2, got 2.5"),
            ({"cv": {"n_folds": True}}, r"block 'cv': 'n_folds' must be an integer >= 2, got True"),
            ({"cv": {"n_folds": 1}}, r"block 'cv': 'n_folds' must be an integer >= 2, got 1"),
            ({"cv": {"holdout_fraction": "0.2"}},
             r"block 'cv': 'holdout_fraction' must be a number in \[0, 1\), got '0.2'"),
            ({"cv": {"validation_fraction": None}},
             r"block 'cv': 'validation_fraction' must be a number in \[0, 1\), got None"),
            ({"cv": {"holdout_fraction": 0.2, "validation_fraction": -0.1}},
             r"block 'cv': 'validation_fraction' must be a number in \[0, 1\), got -0.1"),
            ({"cv": {"holdout_fraction": 1.0}},
             r"block 'cv': 'holdout_fraction' must be a number in \[0, 1\), got 1.0"),
            ({"cv": {"holdout_fraction": 0.6, "validation_fraction": 0.5}},
             r"block 'cv': 'holdout_fraction' plus 'validation_fraction' must be below 1 .*"
             r"got 0.6 \+ 0.5"),
            ({"timing": {"enabled": "no"}}, r"block 'timing': 'enabled' must be true or false"),
            ({"timing": {"enabled": 0}}, r"block 'timing': 'enabled' must be true or false"),
            ({"timing": {"repetitions": 3.0}}, r"block 'timing': 'repetitions' must be an integer"),
            ({"timing": {"enabled": False, "repetitions": "5"}},
             r"block 'timing': 'repetitions' must be an integer"),
            ({"stats": {"nemenyi_q_alpha": "x"}},
             r"block 'stats': 'nemenyi_q_alpha' must be a finite number > 0, got 'x'"),
            ({"noise": {"levels_db": "40"}},
             r"block 'noise': 'levels_db' must be a list of numbers \(inf for no noise\), got '40'"),
            ({"noise": {"levels_db": 40}}, r"block 'noise': 'levels_db' must be a list of numbers"),
            ({"noise": {"levels_db": [30, float("nan")]}},
             r"block 'noise': 'levels_db\[1\]' must be a number in \(-inf, inf\], got nan"),
            ({"noise": {"levels_db": [30, -math.inf]}},
             r"block 'noise': 'levels_db\[1\]' must be a number in \(-inf, inf\], got -inf"),
            ({"noise": {"levels_db": [True]}},
             r"block 'noise': 'levels_db\[0\]' must be a number in \(-inf, inf\], got True"),
            ({"noise": {"levels_db": None}}, r"block 'noise': 'levels_db' must be a list of numbers"),
            ({"preprocess": ["rms"]}, r"unknown preprocess mode \['rms'\]"),
            ({"data": {"source": ["wav"]}}, r"unknown data source \['wav'\]"),
            ({"data": {"source": "wav"}}, r"block 'data': source 'wav' needs 'directory'"),
            ({"data": {"source": "wav", "directory": "d", "labels_csv": 3}},
             r"block 'data': 'labels_csv' must be a string, got 3"),
            ({"data": {"source": "wav", "directory": "d", "labels_csv": "l.csv", "permissive": 1}},
             r"block 'data': 'permissive' must be true or false, got 1"),
            ({"data": {"samples_per_class": "3"}},
             r"block 'data': 'samples_per_class' must be an integer >= 1, got '3'"),
            ({"data": {"duration_s": "1"}},
             r"block 'data': 'duration_s' must be a finite number > 0, got '1'"),
            ({"data": {"duration_s": math.nan}},
             r"block 'data': 'duration_s' must be a finite number > 0, got nan"),
            ({"data": {"samples_per_class": 0}},
             r"block 'data': 'samples_per_class' must be an integer >= 1, got 0"),
            ({"data": {"generator": [1]}}, r"block 'data': 'generator' must be an object, got \[1\]"),
            ({"data": {"generator": {"noise_floor": -20}}},
             r"block 'data': .*unexpected keyword argument 'noise_floor'"),
            ({"stats": {"nemenyi_q_alpha": -1}},
             r"block 'stats': 'nemenyi_q_alpha' must be a finite number > 0, got -1"),
            ({"stats": {"nemenyi_q_alpha": 0.0}},
             r"block 'stats': 'nemenyi_q_alpha' must be a finite number > 0, got 0.0"),
            ({"stats": {"nemenyi_q_alpha": math.nan}},
             r"block 'stats': 'nemenyi_q_alpha' must be a finite number > 0, got nan"),
            ({"data": {"generator": {"noise_floor_db": "x"}}},
             r"block 'data': 'noise_floor_db' must be a finite number, got 'x'"),
            ({"data": {"generator": {"impulse_amplitudes": "abcde"}}},
             r"block 'data': 'impulse_amplitudes' must be 5 numbers, one per class, got 'abcde'"),
            ({"data": {"generator": {"impulse_amplitudes": 5}}},
             r"block 'data': 'impulse_amplitudes' must be 5 numbers, one per class, got 5"),
            ({"data": {"generator": {"harmonic_count": 2.5}}},
             r"block 'data': 'harmonic_count' must be an integer >= 1, got 2.5"),
            ({"data": {"generator": {"harmonic_count": -1}}},
             r"block 'data': 'harmonic_count' must be an integer >= 1, got -1"),
            ({"data": {"generator": {"impulse_rates_hz": [107, 107, 0, 107, 107]}}},
             r"block 'data': 'impulse_rates_hz\[2\]' must be a finite number > 0, got 0"),
            ({"data": {"generator": {"resonance_decay_s": 0}}},
             r"block 'data': 'resonance_decay_s' must be a finite number > 0, got 0"),
            ({"data": {"generator": {"shaft_freq_hz": math.nan}}},
             r"block 'data': 'shaft_freq_hz' must be a finite number > 0, got nan"),
            ({"models": [{"kind": "mlp", "params": {"batch_size": 0}}]},
             r"models\[0\]: 'batch_size' must be an integer >= 1, got 0"),
            ({"models": [{"kind": "mlp", "params": {"epochs": 0}}]},
             r"models\[0\]: 'epochs' must be an integer >= 1, got 0"),
            ({"models": [{"kind": "svm", "params": {"gamma": -1}}]},
             r"models\[0\]: 'gamma' must be a finite number > 0, got -1"),
            ({"models": [{"kind": "ensemble", "params": {"weights": [math.nan, 1, 1]}}]},
             r"models\[0\]: 'weights\[0\]' must be a finite number >= 0, got nan"),
            ({"models": [{"kind": "rf", "params": {"n_trees": 2.5}}]},
             r"models\[0\]: 'n_trees' must be an integer >= 1, got 2.5"),
            ({"models": [{"kind": "gbt", "params": {"max_depth": "3"}}]},
             r"models\[0\]: 'max_depth' must be an integer >= 1, got '3'"),
            ({"models": [{"kind": "knn", "params": {"k": True}}]},
             r"models\[0\]: 'k' must be an integer >= 1, got True"),
            ({"models": [{"kind": "svm", "params": {"degree": 2.5}}]},
             r"models\[0\]: 'degree' must be an integer >= 1, got 2.5"),
            ({"models": [{"kind": "gbt", "params": {"lambda_l2": -1.0}}]},
             r"models\[0\]: 'lambda_l2' must be a finite number >= 0, got -1.0"),
            ({"models": [{"kind": "gbt", "params": {"gamma_split": math.nan}}]},
             r"models\[0\]: 'gamma_split' must be a finite number >= 0, got nan"),
            ({"models": [{"kind": "svm", "params": {"gamma": "x"}}]},
             r"models\[0\]: 'gamma' must be a finite number > 0, got 'x'"),
            ({"models": [{"kind": "svm", "params": {"C": "1"}}]},
             r"models\[0\]: 'C' must be a finite number > 0, got '1'"),
            ({"models": [{"kind": "svm", "params": {"C": math.inf}}]},
             r"models\[0\]: 'C' must be a finite number > 0, got inf"),
            ({"models": [{"kind": "mlp", "params": {"epochs": "5"}}]},
             r"models\[0\]: 'epochs' must be an integer >= 1, got '5'"),
            ({"models": [{"kind": "mlp", "params": {"hidden": [64, 2.5]}}]},
             r"models\[0\]: 'hidden\[1\]' must be an integer >= 1, got 2.5"),
            ({"models": [{"kind": "knn", "params": {"k": 2.5}}]},
             r"models\[0\]: 'k' must be an integer >= 1, got 2.5"),
            ({"models": [{"kind": "ensemble", "params": {"members": [
                {"kind": "knn", "seed": 2.7}]}}]},
             r"models\[0\]: 'seed' must be an integer, got 2.7"),
            ({"models": [{"kind": "rf", "params": {"max_depth": 0}}]},
             r"models\[0\]: 'max_depth' must be an integer >= 1, got 0"),
            ({"models": [{"kind": "gbt", "params": {"max_depth": 0}}]},
             r"models\[0\]: 'max_depth' must be an integer >= 1, got 0"),
            ({"models": [{"kind": "svm", "params": {"degree": 0}}]},
             r"models\[0\]: 'degree' must be an integer >= 1, got 0"),
            ({"data": {"samples_per_class": 12, "duration_s": 0.01}},
             r"block 'data': 'duration_s' 0.01 gives clips of 160 samples, shorter than one "
             r"512-sample analysis window"),
        ],
        ids=["cv", "noise", "timing", "stats", "output-dir", "not-an-object",
             "config-not-an-object", "two-repetitions",
             "data-synthetic", "data-wav", "data-source", "data-not-an-object",
             "models-not-a-list", "model-not-an-object", "model-key", "model-without-kind",
             "model-param", "model-param-seed", "member-param", "member-key", "ensemble-param",
             "model-value", "member-value", "ensemble-no-members",
             "n-folds-string", "n-folds-float", "n-folds-bool", "n-folds-one",
             "holdout-string", "validation-null", "validation-negative", "holdout-one",
             "fractions-leave-nothing-to-fold",
             "enabled-string", "enabled-int",
             "repetitions-float", "repetitions-string-untimed", "nemenyi-string",
             "levels-string", "levels-number", "levels-nan", "levels-minus-inf", "levels-bool",
             "levels-null", "preprocess-list", "source-list", "wav-without-directory",
             "labels-csv-number", "permissive-int", "samples-per-class-string",
             "duration-string", "duration-nan", "samples-per-class-zero",
             "generator-not-an-object", "generator-key",
             "nemenyi-negative", "nemenyi-zero", "nemenyi-nan",
             "noise-floor-string", "amplitudes-string", "amplitudes-number",
             "harmonics-fraction", "harmonics-negative", "rate-zero", "decay-zero", "shaft-nan",
             "mlp-batch-zero", "mlp-epochs-zero", "svm-gamma-negative", "ensemble-weight-nan",
             "rf-trees-fraction", "gbt-depth-string", "knn-k-bool", "svm-degree-fraction",
             "gbt-lambda-negative", "gbt-gamma-split-nan", "svm-gamma-string", "svm-c-string",
             "svm-c-inf", "mlp-epochs-string", "mlp-hidden-fraction", "knn-k-fraction",
             "member-seed-fraction", "rf-depth-zero", "gbt-depth-zero", "svm-degree-zero",
             "clip-shorter-than-window"],
    )
    def test_bad_config_block_rejected(self, raw, match):
        with pytest.raises(ParameterError, match=match):
            ExperimentConfig.from_dict(raw, seed=1)

    def test_optional_nemenyi_constant_lands_in_friedman_csv(self, tmp_path):
        cfg = ExperimentConfig.from_dict({**TINY, "stats": {"nemenyi_q_alpha": 2.85}}, seed=19)
        write_bundle(run_experiment(cfg), tmp_path)
        text = (tmp_path / "friedman.csv").read_text()
        assert "nemenyi_critical_difference" in text
        assert "nemenyi_q_alpha,2.8500" in text

    def test_hash_tracks_seed(self):
        a = ExperimentConfig.from_dict(dict(TINY), seed=5)
        b = ExperimentConfig.from_dict(dict(TINY), seed=6)
        assert a.config_hash() != b.config_hash()

    @pytest.mark.parametrize(
        "raw, seed, expected",
        [
            (json.loads((ROOT / "configs" / "example.json").read_text()), None, "9f027b604aadc3b7"),
            (_perfbench_config("bench", 1501), None, "84ed7995e057c062"),
            ({}, 42, "cb8304b1c61467c4"),
            (INTEGRAL_REALS, 42, "2d74482e6b684c4f"),
        ],
        ids=["example", "perfbench-bench", "defaults", "integral-reals"],
    )
    def test_config_hash_is_pinned(self, raw, seed, expected):
        # checking a value must not rewrite it: the hash covers the values the config gives
        assert ExperimentConfig.from_dict(raw, seed=seed).config_hash() == expected

    def test_defaults_come_from_the_dataclass(self):
        assert ExperimentConfig.from_dict({}, seed=1) == ExperimentConfig(seed=1)

    def test_default_roster_has_six_models(self):
        cfg = ExperimentConfig.from_dict({}, seed=1)
        assert cfg.model_names() == ["knn", "svm", "rf", "gbt", "mlp", "ensemble"]


class TestRunExperiment:
    def test_bundle_shape(self, tiny_bundle):
        cfg, bundle = tiny_bundle
        assert bundle.model_names == ["knn", "rf"]
        assert METRIC_COLUMNS == ("accuracy", "precision", "recall", "f1", "auc_roc", "mcc")
        assert bundle.scores.shape == (3, 2, len(METRIC_COLUMNS))
        f1 = bundle.scores[:, :, METRIC_COLUMNS.index("f1")].mean(axis=0)
        assert np.all((0 <= f1) & (f1 <= 1))
        # one row per cross-validated sample: index, fold, truth, one prediction per model
        m = bundle.manifest
        n_cv = m["n_samples"] - m["holdout_samples"] - m["validation_samples"]
        assert bundle.predictions.shape == (n_cv, 3 + 2)
        assert bundle.noise_table is not None
        assert bundle.noise_conditions[0] == math.inf
        assert bundle.importance is not None
        assert bundle.importance.sum() == pytest.approx(1.0)

    def test_write_bundle_files(self, tiny_bundle, tmp_path):
        cfg, bundle = tiny_bundle
        written = write_bundle(bundle, tmp_path)
        for key in ("metrics", "significance", "friedman", "noise", "importance",
                    "domain_importance", "predictions", "manifest"):
            assert written[key].is_file(), key
        with open(written["metrics"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["Algorithm", "Accuracy"]
        assert len(rows) == 1 + 2
        assert "±" in rows[1][1]  # mean ± std convention

    def test_bundle_holds_exactly_the_files_it_returns(self, tmp_path):
        cfg = ExperimentConfig.from_dict({**TINY, "timing": {"enabled": True}}, seed=23)
        written = write_bundle(run_experiment(cfg), tmp_path)
        # no directory and no file beside the ones write_bundle lists
        assert set(tmp_path.rglob("*")) == set(written.values())
        assert {path.name for path in written.values()} == BUNDLE_FILES

    def test_readme_outputs_table_names_the_bundle_files(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Outputs\n", 1)[1].split("\n## ", 1)[0]
        cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
        assert {name for cell in cells for name in re.findall(r"`([^`]+)`", cell)} == BUNDLE_FILES

    def test_manifest_determines_run(self, tiny_bundle):
        cfg, bundle = tiny_bundle
        assert bundle.manifest["config_hash"] == cfg.config_hash()
        assert bundle.manifest["seed"] == 77
        assert bundle.manifest["registry_version"] == "1.0"
        # a synthetic corpus skips nothing and has no files to hash
        assert "skipped_files" not in bundle.manifest
        assert "corpus_sha256" not in bundle.manifest

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for sub in ("one", "two"):
            cfg = ExperimentConfig.from_dict(TINY, seed=31)
            bundle = run_experiment(cfg)
            write_bundle(bundle, tmp_path / sub)
            outs.append(tmp_path / sub)
        for rel in ("metrics.csv", "significance.csv", "friedman.csv", "noise.csv",
                    "importance.csv", "predictions.csv", "manifest.txt"):
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel

    def test_predictions_csv_feeds_stats(self, tiny_bundle, tmp_path):
        cfg, bundle = tiny_bundle
        written = write_bundle(bundle, tmp_path)
        report = significance_from_predictions(written["predictions"])
        assert list(report.model_names) == bundle.model_names
        assert significance_rows(report) == significance_rows(bundle.significance)
        assert friedman_rows(report) == friedman_rows(bundle.significance)


    @pytest.mark.parametrize(
        "text, match",
        [
            ("", r"predictions.csv: empty file"),
            ("sample_index,fold,y_true,knn\n0,0,1,x\n",
             r"predictions.csv, line 2: expected 4 non-negative integers, got \['0', '0', '1', 'x'\]"),
            ("sample_index,fold,y_true,knn\n0,0,1,1\n1,0,2\n", r"predictions.csv, line 3: expected 4"),
            ("sample_index,fold,y_true,knn\n0,0,-1,1\n", r"predictions.csv, line 2: expected 4"),
            ("sample_index,fold,y_true,knn\n", r"predictions.csv: no prediction rows"),
            ("sample_index,fold,y_true,knn\n0,0,0,0\n1,0,1,1\n2,1,1,3\n3,1,0,0\n",
             r"predictions.csv, line 4: predicted class 3 is above the largest true label, 1"),
        ],
        ids=["empty", "non-integer", "ragged", "negative", "header-only", "prediction-above-labels"],
    )
    def test_malformed_predictions_fail_with_cli_message(self, tmp_path, capsys, text, match):
        path = tmp_path / "predictions.csv"
        path.write_text(text)
        rc = cli_main(["stats", "--predictions", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error [cli] ")
        assert re.search(match, err)


class TestBadConfigCli:
    @pytest.mark.parametrize(
        "override, message",
        [
            ({"preprocess": ["rms"]}, "error [cli] unknown preprocess mode ['rms']"),
            ({"data": {"source": "wav"}},
             "error [cli] config block 'data': source 'wav' needs 'directory'"),
            ({"data": {**TINY["data"], "samples_per_class": "3"}},
             "error [cli] config block 'data': 'samples_per_class' must be an integer"),
            ({"data": {**TINY["data"], "generator": {"noise_floor": -20}}},
             "error [cli] config block 'data': "),
            ({"stats": {"nemenyi_q_alpha": -1}},
             "error [cli] config block 'stats': 'nemenyi_q_alpha' must be a finite number > 0"),
            ({"cv": {"n_folds": 3, "holdout_fraction": 0.04}},
             "error [cv] 'holdout_fraction' 0.04 of at most 12 clips per class rounds to a "
             "hold-out of 0 clips"),
            # finite amplitudes whose bursts overflow: rejected when the config is read
            ({"data": {**TINY["data"], "generator": {
                "impulse_amplitudes": [0, 1e307, 1e308, 1.5e308, 1.7e308]}}},
             "error [cli] config block 'data': 'impulse_amplitudes[1]' 1e+307 is too large"),
            # finite duration and rate whose sample count overflows
            ({"data": {"duration_s": 1e300, "sample_rate_hz": 1e300}},
             "error [cli] config block 'data': 'duration_s' 1e+300 times 'sample_rate_hz' "
             "1e+300 overflows a clip's sample count"),
            # a negative split penalty would pay trees for every split
            ({"models": [{"kind": "gbt", "params": {"gamma_split": -1.0}}]},
             "error [cli] models[0]: 'gamma_split' must be a finite number >= 0, got -1.0"),
        ],
        ids=["preprocess", "data-wav", "data-size", "data-generator", "stats-q-alpha",
             "cv-empty-holdout", "data-overflow", "data-sample-count-overflow",
             "gbt-negative-gamma-split"],
    )
    def test_bench_fails_before_writing(self, tmp_path, capsys, override, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**TINY, **override}))
        out = tmp_path / "out"
        rc = cli_main(["bench", "--config", str(config_path), "--out", str(out), "--seed", "3"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_synth_rejects_a_sample_count_that_overflows(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        rc = cli_main(["synth", "--out", str(out), "--seed", "3",
                       "--duration", "1e300", "--sample-rate", "1e300"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error [cli] 'duration_s' 1e+300 times 'sample_rate_hz' 1e+300 overflows"
        )
        assert not out.exists()

    def test_empty_holdout_stops_before_any_fit(self, monkeypatch):
        calls = []
        monkeypatch.setattr(Classifier, "fit", lambda model, X, y: calls.append(model.kind))
        cfg = ExperimentConfig.from_dict(
            {**TINY, "cv": {"n_folds": 3, "holdout_fraction": 0.04}}, seed=3
        )
        with pytest.raises(PipelineStageError, match=r"\[cv\] 'holdout_fraction' 0.04"):
            run_experiment(cfg)
        assert calls == []


class TestNoiseSweep:
    def test_infinite_level_reproduces_clean_f1(self):
        cfg = ExperimentConfig.from_dict(
            {**TINY, "noise": {"levels_db": []}}, seed=13
        )
        names, conditions, table, indices = run_noise_sweep(cfg, levels_db=[math.inf])
        for name in names:
            assert table[name][0] == pytest.approx(table[name][1])
            assert indices[name] == pytest.approx(np.mean(table[name]))

    def test_sweep_without_levels_rejected(self):
        cfg = ExperimentConfig.from_dict({**TINY, "noise": {"levels_db": []}}, seed=13)
        with pytest.raises(ParameterError, match="at least one noise level"):
            run_noise_sweep(cfg)

    def test_noise_sweep_emits_requested_levels(self):
        cfg = ExperimentConfig.from_dict(TINY, seed=13)
        names, conditions, table, indices = run_noise_sweep(cfg, levels_db=[40.0, 10.0])
        assert conditions == [math.inf, 40.0, 10.0]
        for name in names:
            assert len(table[name]) == 3
            assert indices[name] == pytest.approx(robustness_index(table[name]))


SMALL_SVM = {"kernel": "rbf", "C": 10.0}
SMALL_RF = {"n_trees": 5, "max_depth": 6}
SMALL_GBT = {"n_rounds": 3, "max_depth": 2}
ADOPTING = {
    **TINY,
    "timing": {"enabled": True, "repetitions": 3},
    "models": [
        {"kind": "knn", "params": {"k": 3}},
        {"kind": "svm", "params": SMALL_SVM},
        {"kind": "rf", "params": SMALL_RF},
        {"kind": "gbt", "params": SMALL_GBT},
        {
            "kind": "ensemble",
            "params": {
                "members": [
                    {"kind": "svm", "params": SMALL_SVM, "seed": 9},
                    {"kind": "rf", "params": SMALL_RF, "seed": 10},
                    {"kind": "gbt", "params": SMALL_GBT, "seed": 11},
                ]
            },
        },
    ],
}


class TestRosterFits:
    def test_every_model_is_fitted_once_per_training_set(self, monkeypatch):
        calls = []
        fit = Classifier.fit

        def counting_fit(model, X, y):
            calls.append(model.kind)
            return fit(model, X, y)

        monkeypatch.setattr(Classifier, "fit", counting_fit)
        cfg = ExperimentConfig.from_dict(ADOPTING, seed=23)
        bundle = run_experiment(cfg)
        assert bundle.timing is not None and bundle.noise_table is not None
        assert len(calls) == len(cfg.models) * (cfg.n_folds + 1)
        assert sorted(set(calls)) == ["ensemble", "gbt", "knn", "rf", "svm"]

    def test_final_ensemble_votes_with_the_final_roster_models(self):
        cfg = ExperimentConfig.from_dict(ADOPTING, seed=23)
        dataset, plan = _prepare(cfg)
        _, _, final = _fit_final_models(cfg, dataset, plan)
        members = final["ensemble"].members_
        assert [m is final[kind] for m, kind in zip(members, ("svm", "rf", "gbt"))] == [True] * 3

    def test_member_without_roster_match_is_fitted_with_its_own_seed(self, rng):
        cfg = ExperimentConfig.from_dict(
            {
                "models": [
                    {"kind": "knn", "params": {"k": 7}},
                    {"kind": "rf", "params": SMALL_RF},
                    {
                        "kind": "ensemble",
                        "params": {
                            "members": [
                                {"kind": "knn", "params": {"k": 3}, "seed": 5},
                                {"kind": "rf", "params": SMALL_RF, "seed": 6},
                            ]
                        },
                    },
                ]
            },
            seed=1,
        )
        X = rng.normal(size=(40, 4))
        y = (X[:, 0] > 0).astype(int)
        knn, rf, ensemble = _fit_roster(cfg.model_specs(), X, y)
        own_knn, adopted_rf = ensemble.members_
        assert own_knn is not knn
        assert (own_knn.k, own_knn.seed) == (3, 5)
        assert adopted_rf is rf and rf.seed != 6

    def test_default_ensemble_adopts_entries_spelling_out_the_defaults(self, rng):
        cfg = ExperimentConfig.from_dict(
            {
                "models": [
                    {"kind": "svm", "params": {"kernel": "rbf", "C": 10.0, "degree": 3}},
                    {"kind": "rf", "params": {"n_trees": 60, "max_depth": 16}},
                    {"kind": "gbt", "params": {"n_rounds": 60, "learning_rate": 0.3,
                                               "max_depth": 3, "lambda_l2": 1.0}},
                    {"kind": "ensemble", "params": {}},
                ]
            },
            seed=2,
        )
        X = rng.normal(size=(30, 3))
        y = (X[:, 1] > 0).astype(int)
        svm, rf, gbt, ensemble = _fit_roster(cfg.model_specs(), X, y)
        assert [m is r for m, r in zip(ensemble.members_, (svm, rf, gbt))] == [True] * 3


def write_corpus(root, per_class=1):
    """Half-second clips of three classes as WAV files plus labels.csv.

    Clip k of class c is sample_<c * per_class + k>.wav, generated with
    that number as its seed; returns (WAV directory, labels CSV).
    """
    cfg = GeneratorConfig(samples_per_class=per_class, duration_s=0.5)
    wav_dir = root / "wavs"
    wav_dir.mkdir()
    rows = [["filename", "label"]]
    for cls in (FaultClass.NORMAL, FaultClass.MODERATE_FAULT, FaultClass.CRITICAL_FAULT):
        for k in range(int(cls) * per_class, (int(cls) + 1) * per_class):
            samples, rate = generate_sample(cls, k, cfg)
            peak = np.max(np.abs(samples))
            name = f"sample_{k}.wav"
            write_wav(wav_dir / name, AudioSignal(samples / (peak * 1.01), rate))
            rows.append([name, int(cls)])
    labels = root / "labels.csv"
    with open(labels, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return wav_dir, labels


class TestLoadCorpus:
    @pytest.fixture
    def corpus(self, tmp_path):
        return write_corpus(tmp_path)

    def test_loads_and_extracts(self, corpus):
        wav_dir, labels = corpus
        ds = load_corpus(wav_dir, labels)
        assert len(ds) == 3
        # loading reads, checks and extracts each clip; the dataset keeps its
        # file name and feature row, not its samples
        assert ds.filenames == ["sample_0.wav", "sample_2.wav", "sample_4.wav"]
        clips = [read_wav(wav_dir / name) for name in ds.filenames]
        assert [len(sig.samples) for sig in clips] == [8000] * 3
        np.testing.assert_array_equal(ds.features, features.extract_matrix(clips))
        np.testing.assert_array_equal(ds.labels, [0, 1, 2])  # densified

    def test_each_clip_is_extracted_once(self, tmp_path, monkeypatch):
        calls = []
        extract_all = features.extract_all

        def counting_extract_all(samples, sample_rate_hz):
            calls.append(len(samples))
            return extract_all(samples, sample_rate_hz)

        monkeypatch.setattr(features, "extract_all", counting_extract_all)
        wav_dir, labels = write_corpus(tmp_path, per_class=4)
        cfg = ExperimentConfig.from_dict(
            {
                "data": {"source": "wav", "directory": str(wav_dir), "labels_csv": str(labels)},
                "preprocess": "rms",
                "cv": {"n_folds": 2, "holdout_fraction": 0.25},
                "noise": {"levels_db": [20.0, 10.0]},
                "timing": {"enabled": False},
                "models": [{"kind": "knn", "params": {"k": 1}}, {"kind": "knn", "params": {"k": 2}}],
            },
            seed=8,
        )
        bundle = run_experiment(cfg)
        holdout = bundle.manifest["holdout_samples"]
        assert holdout == 3
        # every clip once in the features stage, the hold-out once per noisy sweep level
        assert len(calls) == 12 + 2 * holdout

    def test_corpus_digest_follows_the_clips_not_the_path(self, corpus, tmp_path):
        wav_dir, labels = corpus
        moved = tmp_path / "moved"
        shutil.copytree(wav_dir, moved)
        digest = load_corpus(wav_dir, labels).provenance["corpus_sha256"]
        assert load_corpus(moved, labels).provenance["corpus_sha256"] == digest
        clip = moved / "sample_0.wav"
        data = bytearray(clip.read_bytes())
        data[-2] ^= 1  # low byte of the last sample
        clip.write_bytes(bytes(data))
        assert load_corpus(moved, labels).provenance["corpus_sha256"] != digest

    def test_labels_csv_with_byte_order_mark(self, corpus):
        wav_dir, labels = corpus
        labels.write_bytes(b"\xef\xbb\xbf" + labels.read_bytes())  # as Excel's "CSV UTF-8"
        ds = load_corpus(wav_dir, labels)
        np.testing.assert_array_equal(ds.labels, [0, 1, 2])

    def test_empty_directory_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        labels = tmp_path / "labels.csv"
        labels.write_text("filename,label\nx.wav,0\n")
        with pytest.raises(ParameterError, match="empty"):
            load_corpus(empty, labels)

    def test_missing_file_rejected_unless_permissive(self, corpus):
        wav_dir, labels = corpus
        with open(labels, "a", newline="") as fh:
            csv.writer(fh).writerow(["ghost.wav", 4])
        with pytest.raises(ParameterError, match="ghost.wav"):
            load_corpus(wav_dir, labels)
        with pytest.warns(UserWarning, match="skipped"):
            ds = load_corpus(wav_dir, labels, permissive=True)
        assert len(ds) == 3
        assert "ghost.wav" in ds.provenance["skipped"]

    def test_file_listed_twice_rejected_even_if_permissive(self, corpus):
        wav_dir, labels = corpus
        with open(labels, "a", newline="") as fh:
            csv.writer(fh).writerow(["sample_0.wav", 1])
        for permissive in (False, True):
            with pytest.raises(ParameterError, match="sample_0.wav is listed twice, with labels 0 and 1"):
                load_corpus(wav_dir, labels, permissive=permissive)

    def test_stereo_file_rejected_with_filename(self, corpus):
        import wave

        wav_dir, labels = corpus
        stereo = wav_dir / "stereo.wav"
        with wave.open(str(stereo), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(b"\x00\x00" * 8)
        with open(labels, "a", newline="") as fh:
            csv.writer(fh).writerow(["stereo.wav", 1])
        with pytest.raises(UnsupportedWavError, match="stereo.wav"):
            load_corpus(wav_dir, labels)

    @staticmethod
    def _add_clip(wav_dir, labels, name, samples, rate=16000.0):
        write_wav(wav_dir / name, AudioSignal(samples, rate))
        with open(labels, "a", newline="") as fh:
            csv.writer(fh).writerow([name, 1])

    def test_mixed_sample_rates_rejected_even_if_permissive(self, tmp_path):
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        labels = tmp_path / "labels.csv"
        labels.write_text("filename,label\n")
        tone = np.sin(np.arange(8000) * 0.05) * 0.5
        for name, rate in zip("abcd", (16000.0, 16000.0, 44100.0, 44100.0)):
            self._add_clip(wav_dir, labels, f"{name}.wav", tone, rate)
        for permissive in (False, True):
            with pytest.raises(ParameterError, match=r"16000 Hz \(a.wav\) and 44100 Hz \(c.wav\)"):
                load_corpus(wav_dir, labels, permissive=permissive)

    @pytest.mark.parametrize(
        "samples, reason",
        [
            (np.full(320, 0.25), "shorter than one 512-sample analysis window"),
            (np.zeros(8000), "silent"),
        ],
        ids=["short", "silent"],
    )
    def test_unusable_clip_rejected_unless_permissive(self, corpus, samples, reason):
        wav_dir, labels = corpus
        self._add_clip(wav_dir, labels, "bad.wav", samples)
        with pytest.raises(ParameterError, match=f"bad.wav: .*{reason}"):
            load_corpus(wav_dir, labels)
        with pytest.warns(UserWarning, match="skipped 1 files"):
            ds = load_corpus(wav_dir, labels, permissive=True)
        assert len(ds) == 3
        assert reason in ds.provenance["skipped"]["bad.wav"]

    def test_unsupported_wav_rejected_unless_permissive(self, corpus):
        wav_dir, labels = corpus
        good = labels.read_text()
        for name, channels, width, reason in [
            ("stereo.wav", 2, 2, "expected mono, got 2 channels"),
            ("byte.wav", 1, 1, "expected 16-bit samples, got 8-bit"),
            ("zero_rate.wav", 1, 2, "sample rate must be positive, got 0 Hz"),
        ]:
            with wave.open(str(wav_dir / name), "wb") as wf:
                wf.setnchannels(channels)
                wf.setsampwidth(width)
                wf.setframerate(16000)
                wf.writeframes(bytes(8000 * channels * width))
            if name == "zero_rate.wav":  # a header whose sample rate (bytes 24-27) reads 0 Hz
                data = bytearray((wav_dir / name).read_bytes())
                data[24:28] = bytes(4)
                (wav_dir / name).write_bytes(bytes(data))
            alone = labels.with_name(f"{name}.csv")
            alone.write_text(f"{good}{name},1\n")
            with pytest.raises(UnsupportedWavError, match=f"{name}: {reason}"):
                load_corpus(wav_dir, alone)
        labels.write_text(f"{good}stereo.wav,1\nbyte.wav,1\nzero_rate.wav,1\n")
        with pytest.warns(UserWarning, match="skipped 3 files"):
            ds = load_corpus(wav_dir, labels, permissive=True)
        assert len(ds) == 3
        assert ds.provenance["skipped"] == {
            "stereo.wav": "expected mono, got 2 channels",
            "byte.wav": "expected 16-bit samples, got 8-bit",
            "zero_rate.wav": "sample rate must be positive, got 0 Hz",
        }

    def test_skipped_files_land_in_the_manifest(self, tmp_path):
        wav_dir = tmp_path / "corpus"
        cli_main(
            [
                "synth", "--out", str(wav_dir), "--seed", "3",
                "--samples-per-class", "2", "--duration", "0.5",
            ]
        )
        labels = wav_dir / "labels.csv"
        self._add_clip(wav_dir, labels, "short.wav", np.full(320, 0.25))
        self._add_clip(wav_dir, labels, "quiet.wav", np.zeros(8000))
        cfg = ExperimentConfig.from_dict(
            {
                "data": {"source": "wav", "directory": str(wav_dir),
                         "labels_csv": str(labels), "permissive": True},
                "cv": {"n_folds": 2, "holdout_fraction": 0.0},
                "noise": {"levels_db": []},
                "timing": {"enabled": False},
                "models": [
                    {"kind": "knn", "params": {"k": 1}},
                    {"kind": "knn", "params": {"k": 2}},
                ],
            },
            seed=4,
        )
        with pytest.warns(UserWarning, match="skipped 2 files"):
            bundle = run_experiment(cfg)
        write_bundle(bundle, tmp_path / "out")
        lines = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
        assert "skipped_files=2" in lines
        with pytest.warns(UserWarning, match="skipped 2 files"):
            digest = load_corpus(wav_dir, labels, permissive=True).provenance["corpus_sha256"]
        assert f"corpus_sha256={digest}" in lines
        assert (
            "skipped=quiet.wav (silent: every sample is zero); "
            "short.wav (320 samples, shorter than one 512-sample analysis window)"
        ) in lines

    def test_non_integer_label_fails_with_cli_message(self, corpus, tmp_path, capsys):
        wav_dir, labels = corpus
        with open(labels, "a", newline="") as fh:
            csv.writer(fh).writerow(["sample_0.wav", "healthy"])
        rc = cli_main(
            [
                "extract", "--wav-dir", str(wav_dir), "--labels", str(labels),
                "--out", str(tmp_path / "features.csv"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [cli] {labels}: label of sample_0.wav")
        assert "'healthy'" in err

    def test_malformed_csv_rejected(self, corpus, tmp_path):
        wav_dir, _ = corpus
        bad = tmp_path / "bad.csv"
        bad.write_text("path,cls\na.wav,0\n")
        with pytest.raises(ParameterError, match="filename"):
            load_corpus(wav_dir, bad)


class TestCLI:
    def test_synth_extract_round_trip(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        rc = cli_main(
            [
                "synth", "--out", str(corpus_dir), "--seed", "3",
                "--samples-per-class", "2", "--duration", "0.5",
            ]
        )
        assert rc == 0
        assert (corpus_dir / "labels.csv").is_file()
        assert len(list(corpus_dir.glob("*.wav"))) == 10
        from acoubench.wavio import read_wav

        # the shared corpus gain keeps every sample inside 16-bit range
        for wav in corpus_dir.glob("*.wav"):
            assert np.max(np.abs(read_wav(wav).samples)) <= 0.99 + 1 / 32768

        features_csv = tmp_path / "features.csv"
        rc = cli_main(
            [
                "extract", "--wav-dir", str(corpus_dir),
                "--labels", str(corpus_dir / "labels.csv"),
                "--out", str(features_csv),
            ]
        )
        assert rc == 0
        with open(features_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 10
        assert rows[0][0] == "Mean"
        assert rows[0][-1] == "label"

    def test_extract_refuses_the_registry_name_before_reading(self, tmp_path, capsys, monkeypatch):
        # the registry goes to registry.csv beside the features, so that
        # name would overwrite them; the command stops before loading
        import acoubench.bench as bench_module

        loads = []
        monkeypatch.setattr(bench_module, "load_corpus", lambda *a, **k: loads.append(a))
        out = tmp_path / "registry.csv"
        rc = cli_main(
            [
                "extract", "--wav-dir", str(tmp_path / "corpus"),
                "--labels", str(tmp_path / "labels.csv"), "--out", str(out),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [cli] --out {out}: the registry is written to registry.csv")
        assert loads == []
        assert not out.exists()

    def test_bench_cli_writes_bundle(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(TINY))
        out = tmp_path / "out"
        rc = cli_main(
            ["bench", "--config", str(config_path), "--out", str(out), "--seed", "21"]
        )
        assert rc == 0
        assert (out / "metrics.csv").is_file()
        assert (out / "manifest.txt").is_file()

    @pytest.mark.parametrize("flag, seed", [([], 7), (["--seed", "8"], 8)], ids=["config", "flag"])
    def test_bench_takes_the_config_seed_unless_flagged(self, tmp_path, flag, seed):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**TINY, "seed": 7}))
        out = tmp_path / "out"
        assert cli_main(["bench", "--config", str(config_path), "--out", str(out), *flag]) == 0
        assert f"seed={seed}" in (out / "manifest.txt").read_text().splitlines()

    def test_noise_takes_the_config_seed_without_the_flag(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**TINY, "seed": 7}))
        args = ["noise", "--config", str(config_path), "--out"]
        assert cli_main([*args, str(tmp_path / "config")]) == 0
        assert cli_main([*args, str(tmp_path / "flag"), "--seed", "7"]) == 0
        noise = [(tmp_path / sub / "noise.csv").read_bytes() for sub in ("config", "flag")]
        assert noise[0] == noise[1]

    @pytest.mark.parametrize("command", ["bench", "noise"])
    def test_no_seed_in_config_or_flag_fails(self, tmp_path, capsys, command):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(TINY))
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(config_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error [cli] 'seed' must be an integer, got None")
        assert not out.exists()

    def test_failure_is_stage_tagged_and_nonzero(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**TINY, "data": {"source": "wav",
                                           "directory": str(tmp_path / "nope"),
                                           "labels_csv": "none.csv"}}))
        rc = cli_main(
            ["bench", "--config", str(config_path), "--out", str(tmp_path / "o"), "--seed", "1"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "[data]" in err

    def test_noise_cli_writes_table(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(TINY))
        out = tmp_path / "noise_out"
        rc = cli_main(
            [
                "noise", "--config", str(config_path), "--out", str(out),
                "--seed", "21", "--levels", "30,10",
            ]
        )
        assert rc == 0
        with open(out / "noise.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["Algorithm", "Clean", "SNR 30 dB", "SNR 10 dB", "Robustness Index"]
        assert len(rows) == 1 + 2

    def test_non_numeric_levels_fail_with_cli_message(self, tmp_path, capsys):
        rc = cli_main(
            ["noise", "--out", str(tmp_path / "o"), "--seed", "21", "--levels", "40,abc"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error [cli] --levels must be comma-separated numbers, got '40,abc'")

    def test_never_mutates_input_directory(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        cli_main(
            [
                "synth", "--out", str(corpus_dir), "--seed", "3",
                "--samples-per-class", "1", "--duration", "0.5",
            ]
        )
        before = sorted(p.name for p in corpus_dir.iterdir())
        features_csv = tmp_path / "f.csv"
        cli_main(
            [
                "extract", "--wav-dir", str(corpus_dir),
                "--labels", str(corpus_dir / "labels.csv"),
                "--out", str(features_csv),
            ]
        )
        after = sorted(p.name for p in corpus_dir.iterdir())
        assert before == after
