"""Waveform representation and preprocessing.

Holds the core ``AudioSignal`` type plus the standard cleanup chain:
spectral subtraction with a noise floor, amplitude and RMS
normalization, and the framing/overlap-add machinery the frequency
analysis is built on. All functions are pure; signals are immutable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSignalError, ParameterError

SUBTRACTION_WINDOW = 2048
SPECTRAL_FLOOR_DEFAULT = 0.01
NOISE_ESTIMATE_SECONDS = 0.25


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


@dataclass(frozen=True)
class FrameSequence:
    """Equal-length contiguous windows taken from one signal."""

    frames: np.ndarray
    window_size: int
    hop: int
    sample_rate_hz: float

    def __post_init__(self):
        if self.frames.ndim != 2 or self.frames.shape[1] != self.window_size:
            raise ParameterError("every frame must have exactly window_size samples")

    def __len__(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True)
class NoiseProfile:
    """Magnitude spectrum of the background noise, one value per FFT bin."""

    magnitude: np.ndarray
    bin_count: int

    def __post_init__(self):
        object.__setattr__(self, "magnitude", _as_locked_array(self.magnitude))
        if self.magnitude.shape != (self.bin_count,):
            raise ParameterError("magnitude length must equal bin_count")
        if np.any(self.magnitude < 0):
            raise ParameterError("noise magnitudes must be non-negative")


def expected_frame_count(n_samples: int, window_size: int, hop: int) -> int:
    return (n_samples - window_size) // hop + 1


def frame_signal(x: AudioSignal, window_size: int, hop: int) -> FrameSequence:
    """Slice a signal into contiguous frames; no padding is applied."""
    n = len(x.samples)
    if not (0 < hop <= window_size):
        raise ParameterError(f"need 0 < hop <= window_size, got hop={hop}, window={window_size}")
    if window_size > n:
        raise ParameterError(f"window of {window_size} samples longer than signal of {n}")
    count = expected_frame_count(n, window_size, hop)
    starts = np.arange(count) * hop
    frames = x.samples[starts[:, None] + np.arange(window_size)[None, :]]
    return FrameSequence(
        frames=frames, window_size=window_size, hop=hop, sample_rate_hz=x.sample_rate_hz
    )


@functools.lru_cache(maxsize=32)
def hann_window(window_size: int) -> np.ndarray:
    """Periodic Hann window; sums to one at 50% overlap (COLA)."""
    w = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(window_size) / window_size))
    w.flags.writeable = False
    return w


def overlap_add(frames: np.ndarray, hop: int, length: int) -> np.ndarray:
    """Overlap-add rows of ``frames`` at the given hop into a length-N buffer."""
    count, window_size = frames.shape
    out = np.zeros(length)
    for m in range(count):
        start = m * hop
        stop = min(start + window_size, length)
        if stop > start:
            out[start:stop] += frames[m, : stop - start]
    return out


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


def subtract_magnitudes(
    noisy_mag: np.ndarray, noise_mag: np.ndarray, alpha: float, beta: float
) -> np.ndarray:
    """Magnitude rule of spectral subtraction with a spectral floor.

    |S_clean| = max(|S_noisy| - alpha * |N|, beta * |S_noisy|); beta = 0
    recovers plain over-subtraction clamped at zero.
    """
    return np.maximum(noisy_mag - alpha * noise_mag, beta * noisy_mag)


def spectral_subtract(
    noisy: AudioSignal,
    noise: NoiseProfile,
    alpha: float,
    beta: float = SPECTRAL_FLOOR_DEFAULT,
    window_size: int = SUBTRACTION_WINDOW,
) -> AudioSignal:
    """Remove stationary background noise by over-subtracting its spectrum.

    Each Hann-windowed frame (50% overlap) has ``alpha`` times the noise
    magnitude removed per bin, clamped at ``beta`` times the noisy
    magnitude; the noisy phase is kept and the frames are resynthesized
    by overlap-add. Output length and sample rate match the input.
    """
    if not 1.0 <= alpha <= 3.0:
        raise ParameterError(f"alpha must be in [1.0, 3.0], got {alpha}")
    if not 0.0 <= beta < 1.0:
        raise ParameterError(f"beta must be in [0, 1), got {beta}")
    if window_size < 1 or window_size & (window_size - 1):
        raise ParameterError("analysis window must be a power of two")
    if noise.bin_count != window_size:
        raise ParameterError(
            f"noise profile has {noise.bin_count} bins, analysis FFT size is {window_size}"
        )

    n = len(noisy.samples)
    hop = window_size // 2
    # Pad so every original sample is covered by a full complement of
    # overlapping frames; the pads are sliced away after resynthesis.
    left = window_size
    right = window_size + (-(left + n - window_size)) % hop
    padded = np.concatenate([np.zeros(left), noisy.samples, np.zeros(right)])

    count = expected_frame_count(len(padded), window_size, hop)
    starts = np.arange(count) * hop
    frames = padded[starts[:, None] + np.arange(window_size)[None, :]]
    spectra = np.fft.fft(frames * hann_window(window_size))
    mags = np.abs(spectra)
    cleaned = subtract_magnitudes(mags, noise.magnitude, alpha, beta)
    # Keep the noisy phase; bins with zero magnitude stay zero.
    phases = np.where(mags > 0, spectra / np.where(mags > 0, mags, 1.0), 0.0)
    rebuilt = np.fft.ifft(cleaned * phases).real
    out = overlap_add(rebuilt, hop, len(padded))[left : left + n]
    return noisy.replace_samples(out)


def estimate_noise_profile(
    x: AudioSignal,
    duration_s: float = NOISE_ESTIMATE_SECONDS,
    window_size: int = SUBTRACTION_WINDOW,
) -> NoiseProfile:
    """Mean magnitude spectrum over the leading ``duration_s`` of a recording.

    Convenience constructor for recordings whose opening stretch is
    fault-free ambiance.
    """
    head_len = min(len(x.samples), max(window_size, round(duration_s * x.sample_rate_hz)))
    head = x.samples[:head_len]
    if head_len < window_size:
        raise ParameterError("signal shorter than one analysis window")
    hop = window_size // 2
    count = expected_frame_count(head_len, window_size, hop)
    starts = np.arange(count) * hop
    frames = head[starts[:, None] + np.arange(window_size)[None, :]]
    mags = np.abs(np.fft.fft(frames * hann_window(window_size)))
    return NoiseProfile(magnitude=mags.mean(axis=0), bin_count=window_size)
