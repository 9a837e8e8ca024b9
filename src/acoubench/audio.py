"""Waveform representation and preprocessing.

Holds the core ``AudioSignal`` type, the two normalizations a run can
apply before extraction (peak amplitude and RMS), and the framing and
Hann window the spectral analysis in :mod:`acoubench.dsp` is built on.
All functions are pure; signals are immutable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSignalError, ParameterError


def _as_locked_array(samples) -> np.ndarray:
    arr = np.array(samples, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class AudioSignal:
    """Uniformly sampled mono waveform with its sample rate in Hz."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_locked_array(self.samples))
        if self.samples.ndim != 1 or len(self.samples) == 0:
            raise ParameterError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(self.samples)):
            raise ParameterError("samples must all be finite")
        if not self.sample_rate_hz > 0:
            raise ParameterError("sample_rate_hz must be positive")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz

    def replace_samples(self, samples) -> "AudioSignal":
        return AudioSignal(samples=samples, sample_rate_hz=self.sample_rate_hz)


def frame_signal(x: AudioSignal, window_size: int, hop: int) -> np.ndarray:
    """Frames starting every ``hop`` samples, [frames, window_size]; no padding is applied.

    A read-only strided view of the samples: frames that overlap share memory.
    """
    n = len(x.samples)
    if not (0 < hop <= window_size):
        raise ParameterError(f"need 0 < hop <= window_size, got hop={hop}, window={window_size}")
    if window_size > n:
        raise ParameterError(f"window of {window_size} samples longer than signal of {n}")
    return np.lib.stride_tricks.sliding_window_view(x.samples, window_size)[::hop]


@functools.lru_cache(maxsize=32)
def hann_window(window_size: int) -> np.ndarray:
    """Periodic Hann window; sums to one at 50% overlap (COLA)."""
    w = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(window_size) / window_size))
    w.flags.writeable = False
    return w


def normalize_amplitude(x: AudioSignal) -> AudioSignal:
    """Scale so the maximum absolute sample is exactly 1."""
    peak = np.max(np.abs(x.samples))
    if peak == 0:
        raise DegenerateSignalError("cannot amplitude-normalize an all-zero signal")
    return x.replace_samples(x.samples / peak)


def normalize_rms(x: AudioSignal) -> AudioSignal:
    """Scale so the root-mean-square value is exactly 1."""
    rms = np.sqrt(np.mean(x.samples ** 2))
    if rms == 0:
        raise DegenerateSignalError("cannot RMS-normalize an all-zero signal")
    return x.replace_samples(x.samples / rms)
