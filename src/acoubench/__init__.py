"""Benchmarking toolkit for audio-based equipment condition monitoring."""

__version__ = "0.1.0"

from .audio import AudioSignal, normalize_amplitude, normalize_rms
from .dataset import Dataset
from .features import extract_all
from .registry import REGISTRY, REGISTRY_VERSION
from .synth import FaultClass, GeneratorConfig, generate_dataset

__all__ = [
    "AudioSignal",
    "normalize_amplitude",
    "normalize_rms",
    "Dataset",
    "extract_all",
    "REGISTRY",
    "REGISTRY_VERSION",
    "FaultClass",
    "GeneratorConfig",
    "generate_dataset",
]
