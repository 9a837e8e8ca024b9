"""Export lists name only what the package has, so a deleted function cannot linger in one.

The benchmark's tracer (``perfbench/tracing.py``) skips a function it
cannot find without a word, so its list of traced names is checked here
too: a rename would otherwise zero that function's spans unnoticed.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

import acoubench

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# traced names of functions the program no longer has; the tracer's next
# update drops them, and this set with them
STALE_TRACED = {
    "acoubench._fftcore.fft_core",
    "acoubench.audio.spectral_subtract",
    "acoubench.dsp.fft",
    "acoubench.dsp.ifft",
    "acoubench.dsp.mfcc_frames",
    "acoubench.dsp.mfcc",
    "acoubench.dsp.chroma_vector",
}


@pytest.mark.parametrize("module_name", ["acoubench", "acoubench.dsp", "acoubench.models"])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exposes_exactly_its_export_list():
    public = {
        name
        for name, value in vars(acoubench).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(acoubench.__all__)



def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    missing = set()
    for module_name, fn_name, _ in _tracing().FUNCTIONS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        if not callable(getattr(module, fn_name, None)):
            missing.add(f"{module_name}.{fn_name}")
    assert missing == STALE_TRACED


def test_every_traced_model_class_resolves():
    models = importlib.import_module("acoubench.models")
    for _, class_name in _tracing().MODEL_CLASSES:
        assert "predict_proba" in vars(getattr(models, class_name))
