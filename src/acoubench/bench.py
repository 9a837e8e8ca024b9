"""Configuration-driven benchmark orchestrator.

Runs the full pipeline (data, preprocessing, feature extraction,
cross-validated training of the model roster, significance testing,
noise sweep, timing) and renders the report bundle as UTF-8 CSV files
plus one manifest. Every number in the metric reports is a pure
function of (config, seed); wall-clock timings live in their own file
so the deterministic reports stay byte-identical across reruns.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .audio import normalize_amplitude, normalize_rms
from .dataset import Dataset, fit_scaler
from .dsp import default_window_size
from .errors import ParameterError, PipelineStageError, UnsupportedWavError, checked
from .evaluation import (
    HOLDOUT,
    VALIDATION,
    SignificanceReport,
    auc_roc,
    classification_metrics,
    confusion_from_predictions,
    mcc,
    nemenyi_critical_difference,
    significance_report,
    stratified_kfold,
)
from .features import extract_matrix
from .models import ModelSpec, measure_timing, resolved_params
from .registry import REGISTRY, REGISTRY_VERSION
from .synth import (
    GeneratorConfig,
    add_noise_at_snr,
    generate_clips,
    generate_dataset,
    robustness_index,
)
from .wavio import read_wav

DEFAULT_MODEL_ROSTER = (
    {"kind": "knn", "params": {"k": 7}},
    {"kind": "svm", "params": {}},
    {"kind": "rf", "params": {}},
    {"kind": "gbt", "params": {}},
    {"kind": "mlp", "params": {}},
    {"kind": "ensemble", "params": {}},
)

_PREPROCESS = {
    "none": lambda s: s,
    "rms": normalize_rms,
    "amplitude": normalize_amplitude,
}

_NOISE_SEED_OFFSET = 777_000

# keys each nested config block accepts, and the ExperimentConfig field each sets
_CONFIG_BLOCKS = {
    "cv": {
        "n_folds": "n_folds",
        "holdout_fraction": "holdout_fraction",
        "validation_fraction": "validation_fraction",
    },
    "noise": {"levels_db": "noise_levels_db"},
    "timing": {"enabled": "timing_enabled", "repetitions": "timing_repetitions"},
    "stats": {"nemenyi_q_alpha": "nemenyi_q_alpha"},
}
# what each data key accepts besides "source", per source: (test, description);
# GeneratorConfig checks a synthetic corpus's sizes and its generator's keys
_CORPUS_SIZES = ("samples_per_class", "duration_s", "sample_rate_hz")
_DATA_FIELDS = {
    "synthetic": {"generator": (lambda v: isinstance(v, dict), "an object")},
    "wav": {
        "directory": (lambda v: isinstance(v, str), "a string"),
        "labels_csv": (lambda v: isinstance(v, str), "a string"),
        "permissive": (lambda v: isinstance(v, bool), "true or false"),
    },
}


@contextmanager
def _config_block(block: str):
    """Names the config block in a ParameterError raised inside."""
    try:
        yield
    except ParameterError as exc:
        raise ParameterError(f"config block {block!r}: {exc}") from None


def _roster_entry(index: int, entry) -> dict:
    """One ``models`` entry as {"kind", "params"}, its keys and hyperparameters checked.

    Every model, and each member of an ensemble, is checked by resolving
    its params against its constructor (which names an unknown one) and
    by building it: the constructor is the one check of the values. An
    ensemble is built too, which checks its members' keys and its weights.
    """
    where = f"models[{index}]"
    if not isinstance(entry, dict):
        raise ParameterError(f"{where} must be an object, got {entry!r}")
    unknown = set(entry) - {"kind", "params"}
    if unknown:
        raise ParameterError(f"unknown keys in {where}: {sorted(unknown)}")
    if "kind" not in entry:
        raise ParameterError(f"{where} has no 'kind'")
    params = entry.get("params", {})
    if not isinstance(params, dict):
        raise ParameterError(f"{where}: 'params' must be an object, got {params!r}")
    try:
        spec = ModelSpec(kind=entry["kind"], params=params)
        for member in spec.build().member_specs if spec.kind == "ensemble" else [spec]:
            resolved_params(member)
            member.build()
    except (ParameterError, TypeError, ValueError) as exc:
        raise ParameterError(f"{where}: {exc}") from None
    return {"kind": entry["kind"], "params": dict(params)}


@dataclass
class ExperimentConfig:
    """Validated benchmark configuration; the CLI builds it from JSON."""

    seed: int
    data: dict = field(default_factory=lambda: {"source": "synthetic"})
    preprocess: str = "rms"
    models: tuple = DEFAULT_MODEL_ROSTER
    n_folds: int = 5
    holdout_fraction: float = 0.2
    validation_fraction: float = 0.0
    noise_levels_db: tuple = (40.0, 30.0, 20.0, 10.0)
    timing_enabled: bool = True
    timing_repetitions: int = 3
    nemenyi_q_alpha: float | None = None

    def __post_init__(self):
        self.seed = checked("seed", self.seed, int)
        if not isinstance(self.models, (list, tuple)):
            raise ParameterError(f"config key 'models' must be a list, got {self.models!r}")
        if not self.models:
            raise ParameterError("at least one model must be configured")
        if not isinstance(self.data, dict):
            raise ParameterError("config block 'data' must be an object")
        source = self.data.get("source", "synthetic")
        if not isinstance(source, str) or source not in _DATA_FIELDS:
            raise ParameterError(f"unknown data source {source!r}")
        data_fields = _DATA_FIELDS[source]
        sizes = _CORPUS_SIZES if source == "synthetic" else ()
        unknown = set(self.data) - {"source", *sizes, *data_fields}
        if unknown:
            raise ParameterError(f"unknown keys in config block 'data': {sorted(unknown)}")
        for key in ("directory", "labels_csv") if source == "wav" else ():
            if key not in self.data:
                raise ParameterError(f"config block 'data': source 'wav' needs {key!r}")
        for key, (accepts, expected) in data_fields.items():
            if key in self.data and not accepts(self.data[key]):
                raise ParameterError(
                    f"config block 'data': {key!r} must be {expected}, got {self.data[key]!r}"
                )
        if source == "synthetic":
            generator = self.generator_config()
            window = default_window_size(generator.sample_rate_hz)
            if generator.n_samples < window:
                raise ParameterError(
                    f"config block 'data': 'duration_s' {generator.duration_s!r} gives clips of "
                    f"{generator.n_samples} samples, shorter than one {window}-sample analysis window"
                )
        if not isinstance(self.preprocess, str) or self.preprocess not in _PREPROCESS:
            raise ParameterError(f"unknown preprocess mode {self.preprocess!r}")
        # checked, not rewritten: config_hash hashes each value as the config gives it
        with _config_block("cv"):
            checked("n_folds", self.n_folds, int, "[2, inf)")
            for key in ("holdout_fraction", "validation_fraction"):
                checked(key, getattr(self, key), float, "[0, 1)")
            if self.holdout_fraction + self.validation_fraction >= 1:
                raise ParameterError(
                    "'holdout_fraction' plus 'validation_fraction' must be below 1 to leave "
                    f"data to fold, got {self.holdout_fraction!r} + {self.validation_fraction!r}"
                )
        with _config_block("noise"):
            levels = self.noise_levels_db
            if not isinstance(levels, (list, tuple)):
                raise ParameterError(
                    f"'levels_db' must be a list of numbers (inf for no noise), got {levels!r}"
                )
            levels = tuple(
                checked(f"levels_db[{i}]", v, float, "(-inf, inf]") for i, v in enumerate(levels)
            )
            if any(b >= a for a, b in zip(levels, levels[1:])):
                raise ParameterError("noise levels must be strictly decreasing")
            if levels and not self.holdout_fraction > 0:
                raise ParameterError("a noise sweep needs a hold-out split (holdout_fraction > 0)")
        with _config_block("timing"):
            if not isinstance(self.timing_enabled, bool):
                raise ParameterError(f"'enabled' must be true or false, got {self.timing_enabled!r}")
            # a timing median takes at least 3 repetitions
            repetitions = "[3, inf)" if self.timing_enabled else "(-inf, inf)"
            checked("repetitions", self.timing_repetitions, int, repetitions)
        if self.nemenyi_q_alpha is not None:
            with _config_block("stats"):
                checked("nemenyi_q_alpha", self.nemenyi_q_alpha, float, "(0, inf)")
        self.noise_levels_db = levels
        self.models = tuple(_roster_entry(i, m) for i, m in enumerate(self.models))

    def generator_config(self) -> GeneratorConfig:
        """The synthetic source's generator, built from the data block and the seed."""
        sizes = {key: v for key, v in self.data.items() if key not in ("source", "generator")}
        try:
            return GeneratorConfig(base_seed=self.seed, **sizes, **self.data.get("generator", {}))
        except (ParameterError, TypeError) as exc:  # TypeError: an unknown or repeated key
            raise ParameterError(f"config block 'data': {exc}") from None

    @classmethod
    def from_dict(cls, raw: dict, seed: int | None = None):
        """Build from a JSON config; a key left out takes the field's default."""
        if not isinstance(raw, dict):
            raise ParameterError(f"a config must be an object, got {raw!r}")
        top_level = ("data", "preprocess", "models")
        unknown = set(raw) - {"seed", *top_level, *_CONFIG_BLOCKS}
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        fields = {key: raw[key] for key in top_level if key in raw}
        for block, keys in _CONFIG_BLOCKS.items():
            value = raw.get(block, {})
            if not isinstance(value, dict):
                raise ParameterError(f"config block {block!r} must be an object")
            unknown = set(value) - set(keys)
            if unknown:
                raise ParameterError(f"unknown keys in config block {block!r}: {sorted(unknown)}")
            fields.update((keys[key], v) for key, v in value.items())
        return cls(seed=seed if seed is not None else raw.get("seed"), **fields)

    @classmethod
    def from_file(cls, path, seed: int | None = None):
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_dict(raw, seed=seed)

    def canonical_dict(self) -> dict:
        """Everything that determines the numbers; the timing block shapes only timing.csv."""
        return {
            "seed": self.seed,
            "data": self.data,
            "preprocess": self.preprocess,
            "models": self.models,
            "cv": {
                "n_folds": self.n_folds,
                "holdout_fraction": self.holdout_fraction,
                "validation_fraction": self.validation_fraction,
            },
            "noise_levels_db": self.noise_levels_db,
            "nemenyi_q_alpha": self.nemenyi_q_alpha,
        }

    def config_hash(self) -> str:
        canon = json.dumps(self.canonical_dict(), sort_keys=True, default=list)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    def model_specs(self) -> list[ModelSpec]:
        return [
            ModelSpec(kind=m["kind"], params=m["params"], seed=self.seed + 101 * (i + 1))
            for i, m in enumerate(self.models)
        ]

    def model_names(self) -> list[str]:
        names = []
        for m in self.models:
            name = m["kind"]
            if name in names:  # duplicate kinds get numeric suffixes
                name = f"{name}-{sum(1 for n in names if n.split('-')[0] == m['kind']) + 1}"
            names.append(name)
        return names


METRIC_COLUMNS = ("accuracy", "precision", "recall", "f1", "auc_roc", "mcc")


@dataclass
class ReportBundle:
    """Everything a benchmark run produces, before rendering to disk."""

    config: ExperimentConfig
    model_names: list
    scores: np.ndarray  # [n_folds, n_models, METRIC_COLUMNS]
    significance: SignificanceReport
    predictions: np.ndarray  # the body of predictions.csv, one row per CV sample
    importance: np.ndarray | None  # per-feature RF importances
    noise_table: dict | None  # name -> [f1 per condition]
    noise_conditions: list | None
    timing: dict | None  # name -> TimingReport
    manifest: dict


# ---------------------------------------------------------------------------
# corpus loading
# ---------------------------------------------------------------------------

def _unusable_reason(samples, sample_rate_hz) -> str | None:
    """Why a clip cannot be featurized, or None when it can."""
    window = default_window_size(sample_rate_hz)
    if len(samples) < window:
        return f"{len(samples)} samples, shorter than one {window}-sample analysis window"
    if not np.any(samples):
        return "silent: every sample is zero"
    return None


def load_corpus(directory, labels_csv, permissive: bool = False, featurize=None) -> Dataset:
    """WAV directory + labels CSV -> Dataset of the listed clips' features, in one pass.

    The CSV needs 'filename' and 'label' columns. Each listed file is read
    once, checked, added to the corpus digest and handed to ``featurize``
    as the next clip of a stream; ``featurize`` turns that stream into the
    feature matrix, :func:`extract_matrix` unless a run normalizes each
    clip first. Only one waveform is held at a time: the dataset keeps
    each loaded clip's file name, not its samples.
    A missing file, a file ``read_wav`` rejects, a clip shorter than the
    analysis window and an all-zero clip abort the load unless
    ``permissive`` is set, in which case they are skipped and listed with
    their reasons in ``provenance["skipped"]``. Files at different sample
    rates and a file listed twice are always rejected.
    ``provenance["corpus_sha256"]`` is the SHA-256 over each loaded clip's
    filename, label and file bytes, in load order (per clip its filename,
    label and byte count, each ending in a newline, then its bytes): the
    same clips give the same digest wherever the corpus lies, and a
    changed byte another.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ParameterError(f"{directory} is not a directory")
    if not any(directory.iterdir()):
        raise ParameterError(f"{directory} is empty")
    labels_path = Path(labels_csv)
    with open(labels_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"filename", "label"} <= set(reader.fieldnames):
            raise ParameterError(f"{labels_path}: need 'filename' and 'label' columns")
        rows = list(reader)
    if not rows:
        raise ParameterError(f"{labels_path}: no data rows")

    filenames, raw_labels, skipped = [], [], {}
    digest = hashlib.sha256()

    def checked_clips():
        file_at_rate = {}
        listed_label = {}
        for row in rows:
            try:
                label = int(row["label"])
            except (TypeError, ValueError):  # TypeError: the row has no label cell
                raise ParameterError(
                    f"{labels_path}: label of {row['filename']} must be an integer, got {row['label']!r}"
                ) from None
            if row["filename"] in listed_label:
                raise ParameterError(
                    f"{labels_path}: {row['filename']} is listed twice, with labels "
                    f"{listed_label[row['filename']]} and {label}"
                )
            listed_label[row["filename"]] = label
            path = directory / row["filename"]
            if not path.is_file():
                if permissive:
                    skipped[row["filename"]] = "missing"
                    continue
                raise ParameterError(f"listed file missing: {path}")
            try:
                signal = read_wav(path)
            except UnsupportedWavError as exc:
                if permissive:  # a reason names no path, as the other skip reasons do
                    skipped[row["filename"]] = str(exc).removeprefix(f"{path}: ")
                    continue
                raise
            rate = signal.sample_rate_hz
            file_at_rate.setdefault(rate, row["filename"])
            if len(file_at_rate) > 1:
                (r1, f1), (r2, f2) = list(file_at_rate.items())
                raise ParameterError(
                    f"corpus mixes sample rates: {r1:g} Hz ({f1}) and {r2:g} Hz ({f2})"
                )
            reason = _unusable_reason(*signal)
            if reason is not None:
                if permissive:
                    skipped[row["filename"]] = reason
                    continue
                raise ParameterError(f"{path}: {reason}")
            filenames.append(row["filename"])
            raw_labels.append(label)
            data = path.read_bytes()
            digest.update(f"{row['filename']}\n{label}\n{len(data)}\n".encode("utf-8"))
            digest.update(data)
            yield signal
        if skipped:
            listed = "; ".join(f"{name} ({why})" for name, why in list(skipped.items())[:5])
            warnings.warn(f"skipped {len(skipped)} files: {listed}")
        if not filenames:
            raise ParameterError("no loadable samples in corpus")

    features = (featurize or extract_matrix)(checked_clips())
    classes = sorted(set(raw_labels))
    dense = {c: i for i, c in enumerate(classes)}
    labels = np.array([dense[c] for c in raw_labels])
    return Dataset(
        labels=labels,
        features=features,
        filenames=filenames,
        provenance={
            "source": "wav",
            "directory": str(directory),
            "labels_csv": str(labels_path),
            "label_mapping": {str(c): i for c, i in dense.items()},
            "skipped": skipped,
            "corpus_sha256": digest.hexdigest(),
        },
    )


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def _stage(name):
    class _StageGuard:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and not isinstance(exc, PipelineStageError):
                raise PipelineStageError(name, str(exc)) from exc
            return False

    return _StageGuard()


def _featurize(cfg: ExperimentConfig, clips) -> np.ndarray:
    """Feature matrix of ``clips``, each normalized as the config's ``preprocess`` says.

    The clips are pulled one at a time and only each one's feature row is
    kept. Making or reading a clip is the data stage's work and extracting
    it the features stage's, so a failure is tagged with the stage it
    happened in.
    """
    def pulled():
        clips_left = iter(clips)
        while True:
            with _stage("data"):
                clip = next(clips_left, None)
            if clip is None:
                return
            samples, rate = clip
            yield _PREPROCESS[cfg.preprocess](samples), rate

    with _stage("features"):
        return extract_matrix(pulled())


def _source_clips(cfg: ExperimentConfig, dataset: Dataset, indices):
    """Clips ``indices`` of the corpus, one at a time, made or read again from their source."""
    if dataset.seeds is not None:
        return generate_clips(cfg.generator_config(), dataset.labels[indices], dataset.seeds[indices])
    directory = Path(dataset.provenance["directory"])
    return (read_wav(directory / dataset.filenames[i]) for i in indices)


def _fold_metrics(y_true, y_pred, probs, n_classes) -> tuple:
    """One fold's scores, in METRIC_COLUMNS order."""
    cm = confusion_from_predictions(y_true, y_pred, n_classes)
    return (*classification_metrics(cm), auc_roc(probs, y_true), mcc(cm))


def _macro_f1(y_true, y_pred, n_classes) -> float:
    """Macro F1 of the predictions over classes 0..n_classes-1."""
    return classification_metrics(confusion_from_predictions(y_true, y_pred, n_classes))[3]


def _prepare(cfg: ExperimentConfig):
    """The data, features and cv stages; returns (featurized dataset, each sample's fold id).

    A WAV corpus is read, checked and extracted in one pass over its files.
    A synthetic corpus is indexed first, and each clip is generated as the
    features stage gets to it.
    """
    with _stage("data"):
        if cfg.data.get("source", "synthetic") == "synthetic":
            dataset = generate_dataset(cfg.generator_config())
        else:
            dataset = load_corpus(
                cfg.data["directory"],
                cfg.data["labels_csv"],
                permissive=cfg.data.get("permissive", False),
                featurize=lambda clips: _featurize(cfg, clips),
            )
    if dataset.features is None:
        clips = _source_clips(cfg, dataset, np.arange(len(dataset)))
        dataset = dataset.with_features(_featurize(cfg, clips))
    with _stage("cv"):
        folds = stratified_kfold(
            dataset.labels,
            cfg.n_folds,
            seed=cfg.seed + 1,
            holdout_fraction=cfg.holdout_fraction,
            validation_fraction=cfg.validation_fraction,
        )
        if cfg.noise_levels_db and not np.any(folds == HOLDOUT):
            largest = int(np.bincount(dataset.labels).max())
            raise ParameterError(
                f"'holdout_fraction' {cfg.holdout_fraction!r} of at most {largest} clips per "
                "class rounds to a hold-out of 0 clips; the noise sweep needs at least one"
            )
    return dataset, folds


def _roster_key(spec: ModelSpec):
    """Kind and resolved params, what an ensemble member shares with the entry it adopts."""
    if spec.kind == "ensemble":
        return None
    return spec.kind, tuple(sorted(resolved_params(spec).items()))


def _fit_roster(specs, X, y) -> list:
    """Fit every roster model on (X, y) once; returns the fitted models in roster order.

    The non-ensemble entries are fitted first. An ensemble member whose kind
    and resolved params equal a roster entry's votes with that entry's
    fitted model (its own seed then does not apply); any other member is
    fitted on the same rows from its own spec.
    """
    fitted = [None if spec.kind == "ensemble" else spec.build().fit(X, y) for spec in specs]
    by_key = {}
    for spec, model in zip(specs, fitted):
        if model is not None:
            by_key.setdefault(_roster_key(spec), model)
    for i, spec in enumerate(specs):
        if spec.kind == "ensemble":
            ensemble = spec.build()
            ensemble.adopt(by_key.get(_roster_key(member)) for member in ensemble.member_specs)
            fitted[i] = ensemble.fit(X, y)
    return fitted


def _fit_final_models(cfg: ExperimentConfig, dataset: Dataset, folds):
    """The final-models stage: every roster model fit on the whole CV split.

    Returns (scaler, scaled CV features, {name: fitted model}).
    """
    with _stage("final-models"):
        cv_idx = np.flatnonzero(folds >= 0)
        scaler = fit_scaler(dataset.features[cv_idx])
        X_full = scaler.transform(dataset.features[cv_idx])
        fitted = _fit_roster(cfg.model_specs(), X_full, dataset.labels[cv_idx])
        final_models = dict(zip(cfg.model_names(), fitted))
    return scaler, X_full, final_models


def run_experiment(cfg: ExperimentConfig) -> ReportBundle:
    """Execute the full benchmark pipeline and assemble the report bundle."""
    with _stage("config"):
        specs = cfg.model_specs()
        names = cfg.model_names()

    dataset, folds = _prepare(cfg)
    n_classes = dataset.n_classes

    with _stage("train-eval"):
        # sample index, fold, true label, then one prediction per model
        table = np.zeros((len(dataset), 3 + len(names)), dtype=int)
        table[:, 0] = np.arange(len(dataset))
        table[:, 1] = folds
        table[:, 2] = dataset.labels
        scores = np.zeros((cfg.n_folds, len(names), len(METRIC_COLUMNS)))
        fit_seconds = {name: [] for name in names}
        for fold in range(cfg.n_folds):
            train_idx = np.flatnonzero((folds >= 0) & (folds != fold))
            test_idx = np.flatnonzero(folds == fold)
            scaler = fit_scaler(dataset.features[train_idx])
            X_train = scaler.transform(dataset.features[train_idx])
            X_test = scaler.transform(dataset.features[test_idx])
            y_test = dataset.labels[test_idx]
            fitted = _fit_roster(specs, X_train, dataset.labels[train_idx])
            for m, (name, model) in enumerate(zip(names, fitted)):
                fit_seconds[name].append(model.training_seconds)
                probs = model.predict_proba(X_test)
                pred = np.argmax(probs, axis=1)
                scores[fold, m] = _fold_metrics(y_test, pred, probs, n_classes)
                table[test_idx, 3 + m] = pred
        table = table[folds >= 0]

    with _stage("significance"):
        sig = significance_from_table(names, table)

    scaler, X_full, final_models = _fit_final_models(cfg, dataset, folds)

    with _stage("importance"):
        importance = None
        for name, model in final_models.items():
            if model.kind == "rf":
                importance = model.feature_importances()
                break
            if model.kind == "ensemble":
                for member in getattr(model, "members_", []):
                    if member.kind == "rf":
                        importance = member.feature_importances()
                        break

    noise_table = None
    conditions = None
    if cfg.noise_levels_db:
        with _stage("noise"):
            noise_table, conditions = _noise_sweep(
                cfg, dataset, folds, scaler, final_models
            )

    timing = None
    if cfg.timing_enabled:
        with _stage("timing"):
            timing = {
                name: measure_timing(
                    fit_seconds[name], final_models[name], X_full[: max(1, len(X_full) // 4)],
                    repetitions=cfg.timing_repetitions,
                )
                for name in names
            }

    with _stage("report"):
        class_counts = np.bincount(dataset.labels, minlength=n_classes)
        manifest = {
            "config_hash": cfg.config_hash(),
            "seed": cfg.seed,
            "registry_version": REGISTRY_VERSION,
            "package_version": __version__,
            "n_samples": len(dataset),
            "n_features": dataset.features.shape[1],
            "n_classes": n_classes,
            "class_counts": ",".join(str(int(c)) for c in class_counts),
            "n_folds": cfg.n_folds,
            "holdout_samples": int(np.sum(folds == HOLDOUT)),
            "validation_samples": int(np.sum(folds == VALIDATION)),
            "validation_note": "validation fraction is taken from the total sample count",
            "friedman_input": "per-fold macro-F1 matrix [n_folds x n_models]",
            "models": ",".join(names),
            "noise_levels_db": ",".join(str(v) for v in cfg.noise_levels_db),
            "preprocess": cfg.preprocess,
        }
        skipped = dataset.provenance.get("skipped")
        if skipped is not None:  # the corpus came from load_corpus
            manifest["corpus_sha256"] = dataset.provenance["corpus_sha256"]
            manifest["skipped_files"] = len(skipped)
            manifest["skipped"] = "; ".join(
                f"{name} ({skipped[name]})" for name in sorted(skipped)
            )

    return ReportBundle(
        config=cfg,
        model_names=names,
        scores=scores,
        significance=sig,
        predictions=table,
        importance=importance,
        noise_table=noise_table,
        noise_conditions=conditions,
        timing=timing,
        manifest=manifest,
    )


def _noise_sweep(cfg, dataset, folds, scaler, final_models):
    """Evaluate clean-trained models on noise-injected hold-out signals.

    Each hold-out clip is made or read again from its source once, and its
    noisy copy at every level extracted before the next clip is fetched.
    """
    hold_idx = np.flatnonzero(folds == HOLDOUT)
    y_hold = dataset.labels[hold_idx]
    conditions = [math.inf] + list(cfg.noise_levels_db)
    # [conditions, hold-out, features]; with no noise the features stage already extracted the clips
    feats = np.repeat(dataset.features[hold_idx][None], len(conditions), axis=0)
    noisy = [k for k, level in enumerate(conditions) if level != math.inf]
    preprocess = _PREPROCESS[cfg.preprocess]
    clips = _source_clips(cfg, dataset, hold_idx) if noisy else ()
    for j, (i, (samples, rate)) in enumerate(zip(hold_idx, clips)):
        seed = cfg.seed + _NOISE_SEED_OFFSET + int(i)  # level k adds k * len(dataset)
        feats[noisy, j] = extract_matrix(
            (preprocess(add_noise_at_snr(samples, conditions[k], seed + k * len(dataset))), rate)
            for k in noisy
        )
    table = {name: [] for name in final_models}
    for condition_feats in feats:
        X = scaler.transform(condition_feats)
        for name, model in final_models.items():
            table[name].append(_macro_f1(y_hold, model.predict(X), dataset.n_classes))
    return table, conditions


def run_noise_sweep(cfg: ExperimentConfig, levels_db=None):
    """Train on the clean CV split and sweep the hold-out through noise levels.

    Returns (model names, conditions, {name: [f1 per condition incl. clean]},
    {name: robustness index}).
    """
    if levels_db is not None:
        cfg = ExperimentConfig(
            **{**cfg.__dict__, "noise_levels_db": tuple(levels_db)}
        )
    if not cfg.noise_levels_db:  # _prepare checks the hold-out only when there are levels
        raise ParameterError("a noise sweep needs at least one noise level")
    dataset, folds = _prepare(cfg)
    scaler, _, final_models = _fit_final_models(cfg, dataset, folds)
    with _stage("noise"):
        table, conditions = _noise_sweep(cfg, dataset, folds, scaler, final_models)
    indices = {name: robustness_index(values) for name, values in table.items()}
    return cfg.model_names(), conditions, table, indices


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.4f}"


def _fmt_mean_std(mean: float, std: float) -> str:
    return f"{mean:.4f} ± {std:.4f}"


def _p_value_cell(p: float) -> str:
    if p < 0.001:
        return "<0.001***"
    if p < 0.05:
        return f"{p:.3f}*"
    return f"{p:.3f}"


def write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def noise_rows(model_names, conditions, table) -> list:
    """Rows of noise.csv: F1 per condition and the robustness index."""
    levels = [f"SNR {int(v) if float(v).is_integer() else v} dB" for v in conditions[1:]]
    rows = [["Algorithm", "Clean"] + levels + ["Robustness Index"]]
    for name in model_names:
        values = table[name]
        rows.append([name] + [_fmt(v) for v in values] + [_fmt(robustness_index(values))])
    return rows


def significance_rows(sig: SignificanceReport) -> list:
    """Rows of significance.csv: the pairwise McNemar p-value matrix."""
    rows = [["Model"] + list(sig.model_names)]
    for i, (name, p_row) in enumerate(zip(sig.model_names, sig.mcnemar_p)):
        rows.append([name] + ["-" if i == j else _p_value_cell(p) for j, p in enumerate(p_row)])
    return rows


def friedman_rows(sig: SignificanceReport, n_folds=None, nemenyi_q_alpha=None) -> list:
    """Rows of friedman.csv; the Nemenyi rows appear only with a q_alpha."""
    rows = [
        ["friedman_chi2", _fmt(sig.friedman_chi2)],
        ["friedman_p", f"{sig.friedman_p:.6g}"],
    ]
    if nemenyi_q_alpha is not None:
        cd = nemenyi_critical_difference(len(sig.model_names), n_folds, nemenyi_q_alpha)
        rows.append(["nemenyi_critical_difference", _fmt(cd)])
        rows.append(["nemenyi_q_alpha", _fmt(nemenyi_q_alpha)])
    rows.append(["Model", "AvgRank"])
    for k in np.argsort(sig.avg_ranks, kind="stable"):
        rows.append([sig.model_names[k], f"{sig.avg_ranks[k]:.2f}"])
    return rows


def write_bundle(bundle: ReportBundle, out_dir) -> dict:
    """Render the bundle as CSV files + manifest; returns {label: path}."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = {}
    # [n_models, METRIC_COLUMNS], each reduced over one contiguous row of fold
    # scores: numpy sums such a row pairwise from 8 folds on, as it does a
    # 1-D list of folds, where an axis-0 reduction would add the folds in order
    by_fold = np.ascontiguousarray(np.moveaxis(bundle.scores, 0, -1))
    means, stds = by_fold.mean(axis=-1), by_fold.std(axis=-1)

    header = ["Algorithm", "Accuracy", "Precision", "Recall", "F1-Score", "AUC-ROC", "MCC"]
    rows = [header]
    for name, mean, std in zip(bundle.model_names, means, stds):
        rows.append([name] + [_fmt_mean_std(m, s) for m, s in zip(mean, std)])
    write_csv(out / "metrics.csv", rows)
    written["metrics"] = out / "metrics.csv"

    write_csv(out / "significance.csv", significance_rows(bundle.significance))
    written["significance"] = out / "significance.csv"

    write_csv(
        out / "friedman.csv",
        friedman_rows(bundle.significance, bundle.config.n_folds, bundle.config.nemenyi_q_alpha),
    )
    written["friedman"] = out / "friedman.csv"

    if bundle.noise_table is not None:
        write_csv(
            out / "noise.csv",
            noise_rows(bundle.model_names, bundle.noise_conditions, bundle.noise_table),
        )
        written["noise"] = out / "noise.csv"

    if bundle.importance is not None:
        order = np.argsort(-bundle.importance, kind="stable")
        rows = [["rank", "feature", "domain", "importance"]]
        for rank, fid in enumerate(order, start=1):
            entry = REGISTRY[fid]
            rows.append([rank, entry.name, entry.domain, f"{bundle.importance[fid]:.6f}"])
        write_csv(out / "importance.csv", rows)
        written["importance"] = out / "importance.csv"

        rows = [["domain", "importance", "share_percent"]]
        for domain in ("frequency", "time", "time-frequency"):
            ids = [e.id for e in REGISTRY if e.domain == domain]
            share = float(bundle.importance[ids].sum())
            rows.append([domain, f"{share:.6f}", f"{share * 100:.1f}"])
        write_csv(out / "domain_importance.csv", rows)
        written["domain_importance"] = out / "domain_importance.csv"

    if bundle.timing is not None:
        rows = [
            [
                "Algorithm",
                "Training Time (s)",
                "Training CV",
                "Prediction Time (ms)",
                "Prediction CV",
                "Repetitions",
            ]
        ]
        for name in bundle.model_names:
            t = bundle.timing[name]
            rows.append(
                [
                    name,
                    f"{t.training_seconds:.4f}",
                    f"{t.training_cv:.3f}",
                    f"{t.prediction_ms_per_sample:.4f}",
                    f"{t.prediction_cv:.3f}",
                    t.repetitions,
                ]
            )
        write_csv(out / "timing.csv", rows)
        written["timing"] = out / "timing.csv"

    header = ["sample_index", "fold", "y_true"] + list(bundle.model_names)
    write_csv(out / "predictions.csv", [header] + bundle.predictions.tolist())
    written["predictions"] = out / "predictions.csv"

    manifest_lines = [f"{key}={bundle.manifest[key]}" for key in sorted(bundle.manifest)]
    (out / "manifest.txt").write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    written["manifest"] = out / "manifest.txt"
    return written


def significance_from_predictions(predictions_csv):
    """Rebuild the significance report from a saved predictions.csv.

    A file that is empty, has another header, holds a row that is not
    one non-negative integer per column or predicts a class above the
    largest true label raises ``ParameterError`` naming the file and, for
    a bad row, its line.
    """
    with open(predictions_csv, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParameterError(f"{predictions_csv}: empty file")
        if header[:3] != ["sample_index", "fold", "y_true"]:
            raise ParameterError(f"{predictions_csv}: unexpected column layout")
        names = header[3:]
        if not names:
            raise ParameterError(f"{predictions_csv}: no model columns")
        rows = []
        for row in reader:
            try:
                values = [int(v) for v in row]
            except ValueError:
                values = []
            if len(values) != len(header) or min(values) < 0:
                raise ParameterError(
                    f"{predictions_csv}, line {reader.line_num}: expected {len(header)} "
                    f"non-negative integers, got {row!r}"
                )
            rows.append(values)
    if not rows:
        raise ParameterError(f"{predictions_csv}: no prediction rows")
    table = np.array(rows)
    y_true, preds = table[:, 2], table[:, 3:]
    above = np.flatnonzero((preds > y_true.max()).any(axis=1))
    if len(above):
        row = above[0]  # every row is one line, after the header
        raise ParameterError(
            f"{predictions_csv}, line {row + 2}: predicted class {int(preds[row].max())} "
            f"is above the largest true label, {int(y_true.max())}"
        )
    return significance_from_table(names, table)


def significance_from_table(names, table) -> SignificanceReport:
    """McNemar and Friedman over an out-of-fold predictions table.

    ``table`` has the layout of predictions.csv: one row per cross-validated
    sample holding its index, fold, true label and one predicted label per
    model. McNemar compares the models' per-sample correctness; Friedman
    ranks their per-fold macro-F1, over classes 0..max(true label).
    """
    folds, y_true, preds = table[:, 1], table[:, 2], table[:, 3:]
    n_classes = int(y_true.max()) + 1
    fold_f1 = [
        [_macro_f1(y_true[rows], p, n_classes) for p in preds[rows].T]
        for rows in (folds == fold for fold in np.unique(folds))
    ]
    return significance_report(names, (preds == y_true[:, None]).T, fold_f1)
