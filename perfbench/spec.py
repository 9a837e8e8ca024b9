"""Inputs of the two workloads, as pure functions of the workload seed.

Both the runner (which checks outputs) and the workload process (which
builds inputs) import this module, so the two agree on every size. It
imports nothing from the program.

The roster is the one in ``configs/example.json`` scaled down from desk
size: GBT rounds 60 -> 5 and forest trees 60 -> 20, every other
hyperparameter unchanged. The desk ensemble builds its SVM, RF and GBT
members with default parameters, which equal the roster's; here the
members are spelled out so they get the same scaled parameters, with the
seeds the ensemble would give them by default.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("bench", "extract")
N_CLASSES = 5
SAMPLE_RATE_HZ = 16000.0
N_FOLDS = 5
HOLDOUT_FRACTION = 0.2
VALIDATION_FRACTION = 0.1
NOISE_LEVELS_DB = (40.0, 30.0, 20.0, 10.0)

# samples per class and clip length of the synthetic corpus of the
# model workload; 0.2 * samples per class is a whole number, so the
# hold-out size is unambiguous
CORPUS = {"bench": (10, 0.5)}

# every class gets each duration equally often, so the seed moves which
# clip is how long but not the total audio a round extracts
EXTRACT_PER_CLASS = 20
EXTRACT_DURATIONS_S = (0.25, 0.5, 0.75, 1.0, 1.25)

SVM = {"kernel": "rbf", "C": 10.0}
RF = {"n_trees": 20, "max_depth": 16}
GBT = {"n_rounds": 5, "learning_rate": 0.3, "max_depth": 3, "lambda_l2": 1.0}
MLP = {"hidden": [64, 32], "activation": "relu", "epochs": 80, "learning_rate": 0.05}
ROSTER_KINDS = ("knn", "svm", "rf", "gbt", "mlp", "ensemble")


def roster(seed: int) -> list:
    # ExperimentConfig.model_specs seeds model i with seed + 101 * (i + 1);
    # SoftVotingEnsemble seeds its default members seed, seed + 1, seed + 2
    ensemble_seed = seed + 101 * (ROSTER_KINDS.index("ensemble") + 1)
    return [
        {"kind": "knn", "params": {"k": 7, "metric": "euclidean"}},
        {"kind": "svm", "params": dict(SVM)},
        {"kind": "rf", "params": dict(RF)},
        {"kind": "gbt", "params": dict(GBT)},
        {"kind": "mlp", "params": dict(MLP)},
        {
            "kind": "ensemble",
            "params": {
                "members": [
                    {"kind": "svm", "params": dict(SVM), "seed": ensemble_seed},
                    {"kind": "rf", "params": dict(RF), "seed": ensemble_seed + 1},
                    {"kind": "gbt", "params": dict(GBT), "seed": ensemble_seed + 2},
                ]
            },
        },
    ]


def experiment_config(workload: str, seed: int) -> dict:
    """The JSON config the ``bench`` workload passes to the CLI."""
    per_class, duration = CORPUS[workload]
    return {
        "seed": seed,
        "data": {
            "source": "synthetic",
            "samples_per_class": per_class,
            "duration_s": duration,
            "sample_rate_hz": SAMPLE_RATE_HZ,
        },
        "preprocess": "rms",
        "models": roster(seed),
        "cv": {
            "n_folds": N_FOLDS,
            "holdout_fraction": HOLDOUT_FRACTION,
            "validation_fraction": VALIDATION_FRACTION,
        },
        "noise": {"levels_db": list(NOISE_LEVELS_DB)},
        "timing": {"enabled": True, "repetitions": 3},
    }


def holdout_count(workload: str) -> int:
    per_class, _ = CORPUS[workload]
    return N_CLASSES * round(HOLDOUT_FRACTION * per_class)


def extract_corpus(seed: int) -> list:
    """(filename, class, clip seed, duration in s) for every WAV clip."""
    rng = np.random.default_rng(seed)
    repeats = EXTRACT_PER_CLASS // len(EXTRACT_DURATIONS_S)
    clips = []
    for cls in range(N_CLASSES):
        durations = rng.permutation(np.repeat(EXTRACT_DURATIONS_S, repeats))
        for i, duration in enumerate(durations):
            index = cls * EXTRACT_PER_CLASS + i
            clips.append((f"c{cls}_{i:03d}.wav", cls, seed + index, float(duration)))
    return clips


def audio_seconds_per_round(workload: str, seed: int) -> float:
    """Seconds of audio one command turns into feature rows."""
    if workload == "extract":
        return sum(clip[3] for clip in extract_corpus(seed))
    per_class, duration = CORPUS[workload]
    conditions = 1 + len(NOISE_LEVELS_DB)  # the sweep re-extracts the clean hold-out too
    return duration * (N_CLASSES * per_class + conditions * holdout_count(workload))
