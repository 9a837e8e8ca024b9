"""Span recorder that wraps the program's public functions from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
``acoubench`` module namespace that holds it (and on the classes for the
model methods), so calls made through ``from .x import f`` bindings are
caught too. ``uninstall`` puts the originals back. Spans are
(name, start, end, parent, root) tuples kept in memory; counts are
recorded at the same boundaries. A function the program no longer has
is skipped, so the benchmark keeps running after a layer is removed.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function, span name); the layer is the span name's first part
FUNCTIONS = (
    ("acoubench.wavio", "read_wav", "wavio.read_wav"),
    ("acoubench.wavio", "write_wav", "wavio.write_wav"),
    ("acoubench.synth", "generate_dataset", "synth.generate_dataset"),
    ("acoubench.synth", "generate_sample", "synth.generate_sample"),
    ("acoubench.synth", "add_noise_at_snr", "synth.add_noise_at_snr"),
    ("acoubench.synth", "robustness_index", "synth.robustness_index"),
    ("acoubench.audio", "normalize_rms", "audio.normalize_rms"),
    ("acoubench.audio", "normalize_amplitude", "audio.normalize_amplitude"),
    ("acoubench.audio", "spectral_subtract", "audio.spectral_subtract"),
    ("acoubench._fftcore", "fft_core", "dsp.fft_core"),
    ("acoubench.dsp", "fft", "dsp.fft"),
    ("acoubench.dsp", "ifft", "dsp.ifft"),
    ("acoubench.dsp", "stft", "dsp.stft"),
    ("acoubench.dsp", "mfcc_frames", "dsp.mfcc_frames"),
    ("acoubench.dsp", "mfcc", "dsp.mfcc"),
    ("acoubench.dsp", "dwt_energies", "dsp.dwt_energies"),
    ("acoubench.dsp", "chroma_vector", "dsp.chroma_vector"),
    ("acoubench.features", "time_features", "features.time_features"),
    ("acoubench.features", "freq_features", "features.freq_features"),
    ("acoubench.features", "timefreq_features", "features.timefreq_features"),
    ("acoubench.features", "extract_all", "features.extract_all"),
    ("acoubench.features", "extract_matrix", "features.extract_matrix"),
    ("acoubench.features", "save_feature_csv", "features.save_feature_csv"),
    ("acoubench.evaluation", "confusion_from_predictions", "evaluation.confusion_from_predictions"),
    ("acoubench.evaluation", "classification_metrics", "evaluation.classification_metrics"),
    ("acoubench.evaluation", "mcc", "evaluation.mcc"),
    ("acoubench.evaluation", "auc_roc", "evaluation.auc_roc"),
    ("acoubench.evaluation", "stratified_kfold", "evaluation.stratified_kfold"),
    ("acoubench.evaluation", "significance_report", "evaluation.significance_report"),
    ("acoubench.evaluation", "mcnemar", "evaluation.mcnemar"),
    ("acoubench.evaluation", "friedman", "evaluation.friedman"),
    ("acoubench.evaluation", "chi_square_sf", "evaluation.chi_square_sf"),
    ("acoubench.bench", "load_corpus", "bench.load_corpus"),
    ("acoubench.bench", "run_experiment", "bench.run_experiment"),
    ("acoubench.bench", "run_noise_sweep", "bench.run_noise_sweep"),
    ("acoubench.bench", "write_bundle", "bench.write_bundle"),
    ("acoubench.bench", "significance_from_predictions", "bench.significance_from_predictions"),
)
# numpy's transforms count as the FFT kernel once the program calls them
NUMPY_FFTS = ("fft", "ifft", "rfft", "irfft")
MODEL_CLASSES = (
    ("knn", "KNNClassifier"),
    ("svm", "SVMClassifier"),
    ("rf", "RandomForestClassifier"),
    ("gbt", "GradientBoostedTrees"),
    ("mlp", "MLPClassifier"),
    ("ensemble", "SoftVotingEnsemble"),
)
LAYERS = ("wavio", "synth", "audio", "dsp", "features", "models", "evaluation")
FFT_SPANS = {"dsp.fft_core", "dsp.fft", "dsp.ifft"} | {f"dsp.numpy.{n}" for n in NUMPY_FFTS}
SIGNIFICANCE_SPANS = {
    "evaluation.significance_report",
    "evaluation.mcnemar",
    "evaluation.friedman",
    "evaluation.chi_square_sf",
}
# span name -> per-layer self-time metric; spans not listed count only
# towards their layer's total
SELF_TIME_METRICS = {
    "wavio.read_wav": "wavio.read_s",
    "synth.generate_dataset": "synth.generate_s",
    "synth.generate_sample": "synth.generate_s",
    "synth.add_noise_at_snr": "synth.add_noise_s",
    "audio.normalize_rms": "audio.normalize_s",
    "audio.normalize_amplitude": "audio.normalize_s",
    "dsp.stft": "dsp.stft_s",
    "dsp.mfcc_frames": "dsp.mfcc_s",
    "dsp.mfcc": "dsp.mfcc_s",
    "dsp.dwt_energies": "dsp.dwt_s",
    "features.time_features": "features.time_s",
    "features.freq_features": "features.freq_s",
    "features.timefreq_features": "features.timefreq_s",
    "features.save_feature_csv": "features.csv_write_s",
    "bench.write_bundle": "bench.write_s",
    **{name: "dsp.fft_s" for name in FFT_SPANS},
    **{name: "evaluation.significance_s" for name in SIGNIFICANCE_SPANS},
}


class Tracer:
    """Records spans and counts while installed; one thread only."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, root index]
        self.counts = Counter()
        self.values = defaultdict(list)  # per-root lists, e.g. final losses
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def call(self, name, fn, args, kwargs, on_exit=None):
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else len(self.spans)
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent, root]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if on_exit is not None:
            on_exit(root, args, kwargs, result)
        return result

    def root(self, name, fn, *args):
        """Run ``fn`` as a new root span; returns (result, root index)."""
        index = len(self.spans)
        return self.call(name, fn, args, {}), index

    def _count(self, root, key, amount=1):
        self.counts[(root, key)] += amount

    # -- installing ------------------------------------------------------

    def _wrapper(self, name, fn, on_exit=None):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, on_exit)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, fn, wrapper):
        """Replace ``fn`` in module namespaces and in module-level dicts,
        such as the table of preprocessing functions in ``bench``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("acoubench"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is fn:
                            self._patches.append((value, key, fn))
                            value[key] = wrapper

    def install(self):
        hooks = {
            "dsp.fft_core": self._on_fft,
            "wavio.read_wav": self._on_read,
            "synth.add_noise_at_snr": lambda root, *_: self._count(root, "synth.add_noise_calls"),
            "features.extract_all": lambda root, *_: self._count(root, "features.signals"),
        }
        for mod_name, fn_name, span_name in FUNCTIONS:
            module = sys.modules.get(mod_name)
            fn = getattr(module, fn_name, None) if module is not None else None
            if fn is None:
                continue
            self._patch_everywhere(fn, self._wrapper(span_name, fn, hooks.get(span_name)))
        for fn_name in NUMPY_FFTS:
            fn = getattr(np.fft, fn_name)
            self._patch(np.fft, fn_name, self._numpy_fft_wrapper(fn_name, fn))
        self._install_models()

    def _numpy_fft_wrapper(self, fn_name, fn):
        name = f"dsp.numpy.{fn_name}"
        wrapped = self._wrapper(name, fn, self._on_fft)

        def wrapper(*args, **kwargs):
            if not self._stack:  # only calls made by the program count
                return fn(*args, **kwargs)
            return wrapped(*args, **kwargs)

        return wrapper

    def _install_models(self):
        base = sys.modules["acoubench.models.base"].Classifier
        models = sys.modules["acoubench.models"]
        fit = base.fit

        def traced_fit(model, X, y):
            return self.call(f"models.{model.kind}.fit", fit, (model, X, y), {}, self._on_fit)

        self._patch(base, "fit", traced_fit)
        for kind, class_name in MODEL_CLASSES:
            cls = getattr(models, class_name, None)
            if cls is None or "predict_proba" not in vars(cls):
                continue
            self._patch(
                cls,
                "predict_proba",
                self._wrapper(f"models.{kind}.predict_proba", cls.predict_proba, self._on_predict),
            )

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if type(owner) is dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- counters ----------------------------------------------------------

    def _on_fft(self, root, args, kwargs, result):
        a = np.asarray(args[0])
        n = kwargs.get("n")
        if n is None and len(args) > 1 and type(args[1]) is int:  # numpy's length argument
            n = args[1]
        n = int(n or a.shape[-1])
        transforms = a.size // a.shape[-1] if a.shape[-1] else 0
        self._count(root, "dsp.fft_calls")
        self._count(root, "dsp.fft_points", transforms * n)
        if n > 1:
            self._count(root, "dsp.fft_flops_computed", transforms * 5.0 * n * math.log2(n))

    def _on_read(self, root, args, kwargs, result):
        self._count(root, "wavio.read_bytes", os.path.getsize(args[0]))

    def _on_fit(self, root, args, kwargs, model):
        kind = model.kind
        self._count(root, f"models.{kind}.fit_calls")
        self._count(root, "models.fit_calls")
        if kind == "svm":
            machines = getattr(model, "machines_", {}).values()
            sweeps = sum(len(getattr(m, "alpha_bounds_history", ())) for m in machines)
            self._count(root, "models.svm.smo_sweeps", sweeps)
            self._count(root, "models.svm.unconverged", sum(not getattr(m, "converged", True) for m in machines))
        if kind in ("gbt", "mlp") and getattr(model, "loss_history_", None):
            self.values[(root, f"models.{kind}.final_loss")].append(float(model.loss_history_[-1]))

    def _on_predict(self, root, args, kwargs, result):
        kind = args[0].kind
        self._count(root, f"models.{kind}.predict_rows", len(result))

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_table(self, root: int, roster_fits: int) -> dict:
        """Per-layer metrics of the spans under one root span."""
        own = self.self_times()
        table = Counter()
        for index, (name, start, end, parent, span_root) in enumerate(self.spans):
            if span_root != root:
                continue
            layer = name.split(".")[0]
            table[f"{layer}.self_s"] += own[index]
            metric = SELF_TIME_METRICS.get(name)
            if metric is not None:
                table[metric] += own[index]
            if name.startswith("models."):
                kind, op = name.split(".")[1:3]
                table[f"models.{kind}.{'fit_s' if op == 'fit' else 'predict_s'}"] += own[index]
            if layer == "evaluation" and name not in SIGNIFICANCE_SPANS:
                table["evaluation.metrics_s"] += own[index]
            if name == "features.extract_all":
                table["features.extract_all_s"] += end - start
        for (span_root, key), value in self.counts.items():
            if span_root == root:
                table[key] += value
        result = {f"{layer}.self_s": table[f"{layer}.self_s"] for layer in LAYERS}
        for metric in set(SELF_TIME_METRICS.values()) | {"evaluation.metrics_s"}:
            result[metric] = table[metric]
        for kind, _ in MODEL_CLASSES:
            for key in ("fit_s", "fit_calls", "predict_s", "predict_rows"):
                result[f"models.{kind}.{key}"] = table[f"models.{kind}.{key}"]
        for key in (
            "dsp.fft_calls", "dsp.fft_points", "dsp.fft_flops_computed",
            "wavio.read_bytes", "synth.add_noise_calls", "features.signals",
            "models.svm.smo_sweeps", "models.svm.unconverged",
        ):
            result[key] = table[key]
        for kind in ("gbt", "mlp"):
            losses = self.values.get((root, f"models.{kind}.final_loss"), [])
            result[f"models.{kind}.final_loss"] = statistics.fmean(losses) if losses else 0.0
        signals = table["features.signals"]
        result["features.ms_per_signal"] = (
            1000.0 * table["features.extract_all_s"] / signals if signals else 0.0
        )
        result["models.fit_calls_per_roster_fit"] = (
            table["models.fit_calls"] / roster_fits if roster_fits else 0.0
        )
        # the bench layer is the command itself and the orchestrator, less
        # the time spent rendering reports
        result["bench.self_s"] = table["bench.self_s"] - table["bench.write_s"]
        result["trace.wall_s"] = self.spans[root][2] - self.spans[root][1]
        return result

    def spans_under(self, root: int):
        own = self.self_times()
        return [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "self_s": own[i]}
            for i, s in enumerate(self.spans)
            if s[4] == root
        ]


def closure_error(table: dict) -> float:
    """Traced wall minus the layer self times and ``bench.self_s``."""
    parts = [table[f"{layer}.self_s"] for layer in LAYERS]
    parts += [table["bench.write_s"], table["bench.self_s"]]
    return table["trace.wall_s"] - math.fsum(parts)
