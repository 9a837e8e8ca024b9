"""Spectral transforms and mid-level signal representations.

Everything here is a pure function of plain arrays (a clip is its 1-D
samples; the sample rate is passed where it is needed) that returns
plain arrays: Hann-windowed STFT power spectrograms with their bin
frequencies (``numpy.fft``), mel-frequency cepstra of a spectrogram,
Daubechies wavelet subband energies and a spectrogram's chroma profile.
Filterbank, DCT and pitch-class tables are cached read-only, so the
kernels are safe to call from multiple threads.
"""

from __future__ import annotations

import functools

import numpy as np

from .audio import frame_signal, hann_window
from .errors import ParameterError

LOG_ENERGY_FLOOR = 1e-10

__all__ = [
    "next_pow2",
    "stft",
    "mel_filterbank",
    "mfcc_from_spectrogram",
    "default_window_size",
    "dwt_energies",
    "chroma_vector",
]


# ---------------------------------------------------------------------------
# STFT
# ---------------------------------------------------------------------------

def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    p = 1
    while p < n:
        p *= 2
    return p


def stft(
    samples: np.ndarray, sample_rate_hz: float, window_size: int, hop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Hann-windowed short-time power spectrogram and its bin frequencies.

    Returns ``(power, freqs)``: one-sided power, rows = frames, and the
    frequency of each column in Hz. Frames are zero-padded to the next
    power of two before the FFT, so any window size is accepted.
    """
    frames = frame_signal(samples, window_size, hop)
    nfft = next_pow2(window_size)
    power = np.abs(np.fft.rfft(frames * hann_window(window_size), n=nfft)) ** 2
    return power, np.arange(nfft // 2 + 1) * (sample_rate_hz / nfft)


# ---------------------------------------------------------------------------
# Mel filterbank / MFCC
# ---------------------------------------------------------------------------

def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=float) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=float) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=32)
def mel_filterbank(n_filters: int, nfft: int, sample_rate_hz: float) -> np.ndarray:
    """Triangular mel filterbank matrix of shape [n_filters, nfft//2 + 1].

    Filters span 0 Hz to Nyquist with unit-height triangles.
    """
    nyquist = sample_rate_hz / 2.0
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), n_filters + 2)
    hz_points = mel_to_hz(mel_points)
    freqs = np.arange(nfft // 2 + 1) * sample_rate_hz / nfft
    bank = np.zeros((n_filters, len(freqs)))
    for i in range(n_filters):
        left, center, right = hz_points[i], hz_points[i + 1], hz_points[i + 2]
        rising = (freqs - left) / max(center - left, 1e-12)
        falling = (right - freqs) / max(right - center, 1e-12)
        bank[i] = np.clip(np.minimum(rising, falling), 0.0, None)
    bank.flags.writeable = False
    return bank


@functools.lru_cache(maxsize=32)
def _dct_ii_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Orthonormal DCT-II matrix taking n_in log-energies to n_out coefficients."""
    k = np.arange(n_out)[:, None]
    n = np.arange(n_in)[None, :]
    mat = np.cos(np.pi * k * (2 * n + 1) / (2.0 * n_in))
    mat *= np.sqrt(2.0 / n_in)
    mat[0] *= np.sqrt(0.5)
    mat.flags.writeable = False
    return mat


def mfcc_from_spectrogram(
    power: np.ndarray, sample_rate_hz: float, n_coeffs: int = 13, n_filters: int = 26
) -> np.ndarray:
    """Per-frame mel-frequency cepstral coefficients, shape [frames, n_coeffs].

    Takes the one-sided power of :func:`stft`, whose FFT size is even and
    so follows from the bin count; per frame: triangular mel filterbank
    (0 Hz to Nyquist) -> log with a floor of 1e-10 -> orthonormal DCT-II
    -> first ``n_coeffs`` coefficients.
    """
    if n_coeffs < 1 or n_coeffs > n_filters:
        raise ParameterError("n_coeffs must be in 1..n_filters")
    if power.shape[-1] < 2:
        raise ParameterError("a spectrogram needs at least 2 frequency bins")
    bank = mel_filterbank(n_filters, 2 * (power.shape[-1] - 1), sample_rate_hz)
    energies = power @ bank.T
    log_energies = np.log(np.maximum(energies, LOG_ENERGY_FLOOR))
    return log_energies @ _dct_ii_matrix(n_coeffs, n_filters).T


def default_window_size(sample_rate_hz: float) -> int:
    """Analysis window used by STFT-based features: ~32 ms, power of two."""
    return next_pow2(max(2, round(sample_rate_hz * 0.032)))


# ---------------------------------------------------------------------------
# Discrete wavelet decomposition (Daubechies db4)
# ---------------------------------------------------------------------------

# db4 scaling (low-pass) decomposition filter, 8 taps, 4 vanishing moments.
_DB4_LO = np.array(
    [
        -0.010597401784997278,
        0.032883011666982945,
        0.030841381835986965,
        -0.18703481171888114,
        -0.02798376941698385,
        0.6308807679295904,
        0.7148465705525415,
        0.23037781330885523,
    ]
)
# Quadrature mirror high-pass: g[k] = (-1)^k h[L-1-k].
_DB4_HI = _DB4_LO[::-1].copy()
_DB4_HI[1::2] *= -1.0


def _dwt_step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One periodized analysis step; returns (approximation, detail).

    Output i filters ``x[(2i + t) % n]`` for t = 0..7. Row i of the window
    matrix is the 8 samples from 2i on of the periodic extension (``x``
    followed by its first 7 samples, repeated when ``n`` < 7), taken as
    one strided copy. That holds the same values a modulo-index gather
    would, so the results are the same, without building the index
    arrays, which cost several times more than the filtering itself.
    """
    if len(x) % 2 == 1:
        x = np.append(x, 0.0)  # zero sample keeps the transform orthonormal
    n = len(x)
    taps = len(_DB4_LO)
    head = x[: taps - 1] if n >= taps - 1 else np.resize(x, taps - 1)  # np.resize repeats x
    extended = np.concatenate((x, head))
    step = extended.strides[0]
    # a strided view of the contiguous extension, then one copy; numpy
    # checks that the view stays inside the buffer
    windows = np.ndarray((n // 2, taps), buffer=extended, strides=(2 * step, step)).copy()
    return windows @ _DB4_LO, windows @ _DB4_HI


def dwt_energies(samples: np.ndarray, levels: int = 5) -> np.ndarray:
    """Daubechies-4 subband energies ``[D1, ..., Dn, An]`` over ``levels`` levels.

    ``Di`` is the level-i detail band energy and ``An`` that of the final
    approximation. The transform is orthonormal with periodic extension,
    so the energies sum to the signal's energy.
    """
    if levels < 1:
        raise ParameterError("levels must be >= 1")
    if len(samples) < 2 ** levels:
        raise ParameterError(
            f"signal of {len(samples)} samples too short for {levels} levels"
        )
    energies = []
    approx = samples
    for _ in range(levels):
        approx, detail = _dwt_step(approx)
        energies.append(np.sum(detail ** 2))
    energies.append(np.sum(approx ** 2))
    return np.array(energies)


# ---------------------------------------------------------------------------
# Chroma
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _pitch_class_bins(n_bins: int, bin_hz: float) -> tuple[np.ndarray, ...]:
    """Bins ``1..n_bins-1`` of a spectrum ``bin_hz`` apart, grouped by pitch class 0..11."""
    freqs = np.arange(n_bins) * bin_hz
    bins = np.flatnonzero(freqs > 0)
    midi = 69.0 + 12.0 * np.log2(freqs[bins] / 440.0)
    classes = np.round(midi).astype(int) % 12
    groups = tuple(bins[classes == pc] for pc in range(12))
    for group in groups:
        group.flags.writeable = False
    return groups


def chroma_vector(power: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """12-bin pitch-class power profile averaged over frames (A = class 9).

    Takes the ``(power, freqs)`` pair of :func:`stft`, whose bins are
    ``freqs[1]`` apart. Bin powers fold onto the chromatic scale with
    A4 = 440 Hz as the reference; the DC bin carries no pitch and is
    skipped. The bin groups are cached per (bin count, bin width).
    """
    if power.shape[0] == 0:
        raise ParameterError("empty spectrogram")
    groups = _pitch_class_bins(len(freqs), float(freqs[1]))
    folded = np.zeros((power.shape[0], 12))
    for pc, group in enumerate(groups):
        folded[:, pc] = power[:, group].sum(axis=1)
    return folded.mean(axis=0)
