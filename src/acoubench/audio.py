"""Waveform preprocessing over plain arrays.

A clip is a 1-D float array of samples; a function takes the sample rate
as an argument only where it needs one. ``AudioSignal`` is the
``(samples, sample_rate_hz)`` pair the clip sources (``read_wav``,
``generate_sample``) return, so a clip unpacks straight into
``extract_all(*clip)``. It checks, copies and locks nothing: clips are
checked where they enter, by those sources and by ``extract_all``. Also
here: the two normalizations a run can apply before extraction (peak
amplitude and RMS), and the framing and Hann window the spectral
analysis in :mod:`acoubench.dsp` is built on. No function writes to its
input.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSignalError, ParameterError


class AudioSignal(NamedTuple):
    """A clip as its source returns it: mono samples and their rate in Hz."""

    samples: np.ndarray
    sample_rate_hz: float


def frame_signal(samples: np.ndarray, window_size: int, hop: int) -> np.ndarray:
    """Frames starting every ``hop`` samples, [frames, window_size]; no padding is applied.

    A read-only strided view of the samples: frames that overlap share memory.
    """
    n = len(samples)
    if not (0 < hop <= window_size):
        raise ParameterError(f"need 0 < hop <= window_size, got hop={hop}, window={window_size}")
    if window_size > n:
        raise ParameterError(f"window of {window_size} samples longer than signal of {n}")
    return np.lib.stride_tricks.sliding_window_view(samples, window_size)[::hop]


@functools.lru_cache(maxsize=32)
def hann_window(window_size: int) -> np.ndarray:
    """Periodic Hann window; sums to one at 50% overlap (COLA)."""
    w = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(window_size) / window_size))
    w.flags.writeable = False
    return w


def normalize_amplitude(samples: np.ndarray) -> np.ndarray:
    """Scale so the maximum absolute sample is exactly 1."""
    peak = np.max(np.abs(samples))
    if peak == 0:
        raise DegenerateSignalError("cannot amplitude-normalize an all-zero signal")
    return samples / peak


def normalize_rms(samples: np.ndarray) -> np.ndarray:
    """Scale so the root-mean-square value is exactly 1."""
    power = np.mean(samples ** 2)
    if not np.isfinite(power):
        raise DegenerateSignalError("cannot RMS-normalize a signal whose mean square is not finite")
    if power == 0:
        raise DegenerateSignalError("cannot RMS-normalize an all-zero signal")
    return samples / np.sqrt(power)
