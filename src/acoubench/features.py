"""Extraction of the canonical 127-feature vector.

Three extractor groups (35 time, 45 frequency, 47 time-frequency)
produce values in the fixed order defined by :mod:`acoubench.registry`.
The frequency and time-frequency groups share one STFT per clip
(:func:`spectrogram`); each computes its other intermediates itself.
Degenerate inputs never poison the output: zero-variance moments,
spectral statistics of silence and empty ratios all collapse to 0, so
every feature is finite for every valid signal.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from . import dsp
from .audio import AudioSignal
from .errors import ParameterError
from .registry import FEATURE_COUNT, feature_names

_EPS = 1e-12


# ---------------------------------------------------------------------------
# spectral statistic helpers (float 1-D spectrum or 2-D spectrogram rows)
# ---------------------------------------------------------------------------

def _safe_div(num, den):
    den = np.asarray(den, dtype=float)
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


def spectral_shape(power, freqs, moments: int = 4):
    """Centroid, bandwidth, skewness and kurtosis of the power-weighted frequencies.

    Along the last axis; each is 0 where the power is all zero, and the
    skewness and kurtosis also where the bandwidth is 0. With
    ``moments=2`` only the centroid and bandwidth are computed and
    returned. The time group passes amplitudes and sample times for the
    temporal shape.
    """
    total = power.sum(axis=-1)
    centroid = _safe_div((power * freqs).sum(axis=-1), total)
    dev = freqs - centroid[..., None]
    weighted = power * (dev * dev)
    var = _safe_div(weighted.sum(axis=-1), total)
    bandwidth = np.sqrt(var)
    if moments == 2:
        return centroid, bandwidth
    weighted *= dev
    m3 = _safe_div(weighted.sum(axis=-1), total)
    weighted *= dev
    m4 = _safe_div(weighted.sum(axis=-1), total)
    return centroid, bandwidth, _safe_div(m3, bandwidth ** 3), _safe_div(m4, var ** 2)


def spectral_rolloff(power, freqs, fraction=0.85):
    total = power.sum(axis=-1, keepdims=True)
    cum = np.cumsum(power, axis=-1)
    hit = cum >= fraction * total
    idx = np.argmax(hit, axis=-1)
    out = freqs[idx]
    return np.where(total[..., 0] > 0, out, 0.0)


def spectral_flatness(power):
    total = power.sum(axis=-1)
    floored = np.maximum(power, _EPS)
    geo = np.exp(np.mean(np.log(floored), axis=-1))
    return np.where(total > 0, geo / floored.mean(axis=-1), 0.0)


def spectral_entropy(power):
    total = power.sum(axis=-1, keepdims=True)
    p = _safe_div(power, total)
    plogp = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    ent = -plogp.sum(axis=-1) / np.log(power.shape[-1])
    return np.where(total[..., 0] > 0, ent, 0.0)


def dominant_frequency(power, freqs):
    total = power.sum(axis=-1)
    return np.where(total > 0, freqs[np.argmax(power, axis=-1)], 0.0)


def _octave_cuts(freqs, n_bands: int = 8) -> np.ndarray:
    """Start bin of each octave band, then ``len(freqs)``; the highest band ends at Nyquist."""
    edges = freqs[-1] / (2.0 ** np.arange(n_bands, -1, -1))
    cuts = np.searchsorted(freqs, edges, side="left")
    cuts[-1] = len(freqs)
    return cuts


def octave_band_energies(power, cuts):
    """Per-octave-band power along the last axis, bands as :func:`_octave_cuts` gives them."""
    return np.stack([power[..., a:b].sum(axis=-1) for a, b in zip(cuts[:-1], cuts[1:])], axis=-1)


def spectral_contrast(power, cuts):
    """Mean over the non-empty octave bands of log10(peak power / valley power)."""
    contrasts = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b > a:
            band = power[..., a:b]
            contrasts.append(np.log10((band.max(axis=-1) + _EPS) / (band.min(axis=-1) + _EPS)))
    if not contrasts:
        return np.zeros(power.shape[:-1])
    return np.mean(np.stack(contrasts, axis=-1), axis=-1)


def spectral_flux(power_rows):
    """Per-step L2 difference of successive unit-norm magnitude frames."""
    mags = np.sqrt(power_rows)
    norms = np.linalg.norm(mags, axis=1, keepdims=True)
    unit = _safe_div(mags, norms)
    if unit.shape[0] < 2:
        return np.zeros(0)
    return np.linalg.norm(np.diff(unit, axis=0), axis=1)


def full_spectrum(x: AudioSignal):
    """Power spectrum of the whole clip zero-padded to a power of two, and its bin frequencies."""
    nfft = dsp.next_pow2(len(x.samples))
    power = np.abs(np.fft.rfft(x.samples, n=nfft)) ** 2
    return power, np.arange(nfft // 2 + 1) * (x.sample_rate_hz / nfft)


def _hop(sample_rate_hz: float) -> int:
    """Hop of :func:`spectrogram`: half its ~32 ms window."""
    return dsp.default_window_size(sample_rate_hz) // 2


def spectrogram(x: AudioSignal) -> tuple[np.ndarray, np.ndarray]:
    """The STFT ``(power, freqs)`` that the frequency and time-frequency groups share."""
    return dsp.stft(x, dsp.default_window_size(x.sample_rate_hz), _hop(x.sample_rate_hz))


# ---------------------------------------------------------------------------
# time-domain group (35)
# ---------------------------------------------------------------------------

def _standardized_moments(x, mean, std, orders):
    """E[((x - mean) / std) ** k] for each k >= 3 in ``orders``; zeros when std is 0.

    The powers come from a chain of in-place products (z**3 = z*z*z,
    z**4 = z**3 * z, ...), not from ``z ** k``: for an integer exponent
    above 2 numpy calls ``pow`` once per element, which costs tens of
    times more than a multiply. Products may differ from ``pow`` in the
    last bits; only two sample-length arrays are alive at a time.
    """
    if std == 0:
        return [0.0] * len(orders)
    z = (x - mean) / std
    power = z * z
    moments = {}
    for k in range(3, max(orders) + 1):
        power *= z
        moments[k] = float(np.mean(power))
    return [moments[k] for k in orders]


def time_features(x: AudioSignal) -> np.ndarray:
    s = x.samples
    n = len(s)
    sr = x.sample_rate_hz

    mean = float(s.mean())
    centered = s - mean
    centered_ss = np.sum(centered * centered)
    std = float(np.sqrt(centered_ss / n))  # equals s.std() bit for bit
    var = std ** 2
    abs_s = np.abs(s)
    energy = float(np.sum(s * s))
    rms = float(np.sqrt(energy / n))
    peak = float(abs_s.max())
    mean_abs = float(abs_s.mean())
    s_min = float(s.min())
    s_max = float(s.max())

    skew, kurt, m5, m6 = _standardized_moments(s, mean, std, (3, 4, 5, 6))

    crest = peak / rms if rms > 0 else 0.0
    shape = rms / mean_abs if mean_abs > 0 else 0.0
    impulse = peak / mean_abs if mean_abs > 0 else 0.0
    sqrt_mean = float(np.mean(np.sqrt(abs_s))) ** 2
    clearance = peak / sqrt_mean if sqrt_mean > 0 else 0.0

    signs = np.sign(s)
    signs[signs == 0] = 1.0
    zcr = float(np.count_nonzero(signs[1:] != signs[:-1])) / (n - 1) if n > 1 else 0.0
    csigns = np.sign(centered)
    csigns[csigns == 0] = 1.0
    mcr = float(np.count_nonzero(csigns[1:] != csigns[:-1])) / (n - 1) if n > 1 else 0.0

    # amplitude-weighted time distribution
    t_centroid, t_spread, t_skew, t_kurt = spectral_shape(abs_s, np.arange(n) / sr)

    diff = np.diff(s) if n > 1 else np.zeros(1)
    diff_rms = float(np.sqrt(np.mean(diff ** 2)))
    dstd = float(diff.std())
    mobility = dstd / std if std > 0 else 0.0
    if dstd > 0 and mobility > 0 and len(diff) > 1:
        d2 = np.diff(diff)
        complexity = float((d2.std() / dstd) / mobility)
    else:
        complexity = 0.0

    if var > 0 and n > 1:
        lag1 = float(np.sum(centered[:-1] * centered[1:]) / centered_ss)
    else:
        lag1 = 0.0

    env_win = max(1, round(sr * 0.010))
    envelope = np.convolve(abs_s, np.full(env_win, 1.0 / env_win), mode="same")

    q25, q75 = np.percentile(s, [25, 75])
    median = float(np.median(s))

    return np.array(
        [
            mean,
            std,
            var,
            skew,
            kurt,
            rms,
            peak,
            crest,
            shape,
            zcr,
            float(t_centroid),
            s_min,
            s_max,
            s_max - s_min,
            mean_abs,
            float(np.median(abs_s)),
            impulse,
            clearance,
            energy,
            float(np.log10(energy + 1e-12)),
            float(q75 - q25),
            float(np.median(np.abs(s - median))),
            float(t_spread),
            float(t_skew),
            float(t_kurt),
            mobility,
            complexity,
            lag1,
            m5,
            m6,
            mcr,
            diff_rms,
            *_traj_stats(envelope),
        ]
    )


# ---------------------------------------------------------------------------
# frequency-domain group (45)
# ---------------------------------------------------------------------------

def freq_features(x: AudioSignal, sgram: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The 45 frequency-domain values; ``sgram`` is :func:`spectrogram` of ``x``."""
    stft_power, stft_freqs = sgram
    power, freqs = full_spectrum(x)
    total = power.sum()

    centroid, bandwidth, skew, kurt = spectral_shape(power, freqs)
    cuts = _octave_cuts(freqs)
    band_ratios = _safe_div(octave_band_energies(power, cuts), total)

    flux_track = spectral_flux(stft_power)
    mean_flux = float(flux_track.mean()) if len(flux_track) else 0.0

    mf = dsp.mfcc_from_spectrogram(stft_power, x.sample_rate_hz, n_coeffs=13)
    mfcc_means = mf.mean(axis=0)
    mfcc_stds = mf.std(axis=0)

    chroma = float(dsp.chroma_vector(stft_power, stft_freqs).mean())

    head = np.array(
        [
            float(centroid),
            float(bandwidth),
            float(spectral_rolloff(power, freqs)),
            mean_flux,
            float(spectral_flatness(power)),
            float(spectral_entropy(power)),
            float(spectral_contrast(power, cuts)),
            float(skew),
            float(kurt),
            float(dominant_frequency(power, freqs)),
        ]
    )
    return np.concatenate([head, band_ratios, mfcc_means, mfcc_stds, [chroma]])


# ---------------------------------------------------------------------------
# time-frequency group (47)
# ---------------------------------------------------------------------------

def _traj_stats(values: np.ndarray) -> list[float]:
    if len(values) == 0:
        return [0.0, 0.0, 0.0]
    return [float(values.mean()), float(values.std()), float(values.max())]


def timefreq_features(x: AudioSignal, sgram: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The 47 time-frequency values; ``sgram`` is :func:`spectrogram` of ``x``."""
    power, freqs = sgram

    centroid, bandwidth = spectral_shape(power, freqs, moments=2)
    values: list[float] = []
    values += _traj_stats(centroid)
    values += _traj_stats(bandwidth)
    values += _traj_stats(spectral_rolloff(power, freqs))
    values += _traj_stats(spectral_flatness(power))
    values += _traj_stats(spectral_flux(power))

    subbands = dsp.dwt_energies(x, levels=5)
    values += [float(v) for v in subbands]
    shares = _safe_div(subbands, subbands.sum())
    values += [float(v) for v in shares]
    plogp = np.where(shares > 0, shares * np.log(np.where(shares > 0, shares, 1.0)), 0.0)
    values.append(float(-plogp.sum()))

    contrast_track = spectral_contrast(power, _octave_cuts(freqs))
    values += [float(contrast_track.mean()), float(contrast_track.std())]

    frame_power = power.sum(axis=1)
    fp_mean, fp_std, fp_max = _traj_stats(frame_power)
    values += [fp_mean, fp_std, fp_max]
    values += _standardized_moments(frame_power, fp_mean, fp_std, (3,))

    frame_rate_hz = x.sample_rate_hz / _hop(x.sample_rate_hz)
    mod_freq, mod_strength = _modulation_peak(frame_power, frame_rate_hz)
    values += [mod_freq, mod_strength]

    values += _traj_stats(spectral_entropy(power))

    dom = dominant_frequency(power, freqs)
    values += [float(dom.mean()), float(dom.std())]

    nyq = freqs[-1]
    total = power.sum()
    low = power[:, freqs < nyq / 8].sum()
    mid = power[:, (freqs >= nyq / 8) & (freqs < nyq / 2)].sum()
    high = power[:, freqs >= nyq / 2].sum()
    values += [
        float(_safe_div(low, total)),
        float(_safe_div(mid, total)),
        float(_safe_div(high, total)),
    ]

    mean_cell = power.mean()
    values.append(float(power.max() / mean_cell) if mean_cell > 0 else 0.0)
    values.append(float(spectral_flatness(power.ravel())))
    values.append(fp_std / fp_mean if fp_mean > 0 else 0.0)

    return np.array(values)


def _modulation_peak(trajectory: np.ndarray, frame_rate_hz: float) -> tuple[float, float]:
    """Dominant modulation frequency and its power share, 0/0 when degenerate."""
    centered = trajectory - trajectory.mean()
    if len(centered) < 4 or np.allclose(centered, 0):
        return 0.0, 0.0
    nfft = dsp.next_pow2(len(centered))
    p = (np.abs(np.fft.rfft(centered, n=nfft)) ** 2)[1:]  # skip the (zero) DC bin
    total = p.sum()
    if total == 0:
        return 0.0, 0.0
    k = int(np.argmax(p)) + 1
    return float(k * (frame_rate_hz / nfft)), float(p[k - 1] / total)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def extract_all(x: AudioSignal) -> np.ndarray:
    """Full 127-value vector: time[0..34] + frequency[35..79] + time-frequency[80..126]."""
    time = time_features(x)  # before the spectrogram: its temporaries are the clip's peak memory
    sgram = spectrogram(x)
    return np.concatenate([time, freq_features(x, sgram), timefreq_features(x, sgram)])


def extract_matrix(signals) -> np.ndarray:
    """Feature matrix [n_signals, 127]; rows follow input order.

    ``signals`` may be any iterable, a generator too: each signal is
    extracted as it arrives and only its row is kept. Raises
    ``ParameterError`` unless every row has 127 finite values.
    """
    matrix = np.vstack([extract_all(sig) for sig in signals])
    if matrix.shape[1] != FEATURE_COUNT:
        raise ParameterError(f"feature vector must have {FEATURE_COUNT} values")
    if not np.all(np.isfinite(matrix)):
        raise ParameterError("feature vector contains non-finite values")
    return matrix


def save_feature_csv(path, features: np.ndarray, labels=None) -> None:
    """Feature matrix as CSV with a registry-name header row."""
    features = np.asarray(features, dtype=float)
    header = list(feature_names())
    if labels is not None:
        header.append("label")
    with open(Path(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, row in enumerate(features):
            out = [repr(float(v)) for v in row]  # shortest round-trip form
            if labels is not None:
                out.append(int(labels[i]))
            writer.writerow(out)
