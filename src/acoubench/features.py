"""Extraction of the canonical 127-feature vector.

Three extractor groups (35 time, 45 frequency, 47 time-frequency)
produce values in the fixed order defined by :mod:`acoubench.registry`.
Each takes a clip's 1-D samples and its sample rate. The frequency and
time-frequency groups share one STFT per clip (:func:`spectrogram`) and
its spectral-flux track. Within a group each
intermediate is computed once: one sort gives the time group's order
statistics, and one frame-energy sum and one log of the spectrogram
serve every per-frame statistic.
Degenerate inputs never poison the output: zero-variance moments,
spectral statistics of silence and empty ratios all collapse to 0, so
every feature is finite for every valid signal.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from . import dsp
from .errors import ParameterError
from .registry import FEATURE_COUNT, feature_names

_EPS = 1e-12


# ---------------------------------------------------------------------------
# spectral statistic helpers (float 1-D spectrum or 2-D spectrogram rows)
# ---------------------------------------------------------------------------

def _safe_div(num, den):
    """``num / den`` where ``den > 0``, else 0, as an array.

    A scalar ``den`` needs no ``where``. The result stays an array even
    then: a numpy scalar's ``** k`` calls ``pow``, which can round
    differently from the array's ``x * x``.
    """
    if np.ndim(den) == 0:
        return np.asarray(num / den) if den > 0 else np.zeros(np.shape(num))
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


def spectral_shape(power, freqs, moments: int = 4, total=None):
    """Centroid, bandwidth, skewness and kurtosis of the power-weighted frequencies.

    Along the last axis; each is 0 where the power is all zero, and the
    skewness and kurtosis also where the bandwidth is 0. With
    ``moments=2`` only the centroid and bandwidth are computed and
    returned. The time group passes amplitudes and sample times for the
    temporal shape. ``total`` is ``power.sum(axis=-1)`` when the caller
    already has it.
    """
    if total is None:
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


def spectral_rolloff(power, freqs, fraction=0.85, total=None):
    """Lowest frequency below which ``fraction`` of the power lies; 0 for silence."""
    if total is None:
        total = power.sum(axis=-1)
    hit = np.cumsum(power, axis=-1) >= fraction * total[..., None]
    return np.where(total > 0, freqs[np.argmax(hit, axis=-1)], 0.0)


def _flatness(floored, log_floored, total, axis=-1):
    """Geometric over arithmetic mean of the floored power; 0 where ``total`` is 0.

    ``floored`` is the power floored at ``_EPS`` and ``log_floored`` its
    log, so the per-frame and the whole-spectrogram flatness share one log.
    """
    geo = np.exp(log_floored.mean(axis=axis))
    return np.where(total > 0, geo / floored.mean(axis=axis), 0.0)


def spectral_entropy(power, total):
    """Shannon entropy of each row's power distribution over log(bins); 0 for silence."""
    p = power / np.where(total > 0, total, 1.0)[..., None]  # a silent row is all 0
    ent = -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=-1) / np.log(power.shape[-1])
    return np.where(total > 0, ent, 0.0)


def dominant_frequency(power, freqs, total):
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
    """Mean over the non-empty octave bands of log10(peak power / valley power).

    The bands are contiguous and the last ends at the last bin, so each
    non-empty band is the ``reduceat`` segment from its start to the next
    non-empty band's start.
    """
    starts = cuts[:-1][cuts[1:] > cuts[:-1]]
    if len(starts) == 0:
        return np.zeros(power.shape[:-1])
    peak = np.maximum.reduceat(power, starts, axis=-1)
    valley = np.minimum.reduceat(power, starts, axis=-1)
    return np.mean(np.log10((peak + _EPS) / (valley + _EPS)), axis=-1)


def spectral_flux(power_rows):
    """Per-step L2 difference of successive unit-norm magnitude frames."""
    mags = np.sqrt(power_rows)
    norms = np.linalg.norm(mags, axis=1, keepdims=True)
    unit = _safe_div(mags, norms)
    if unit.shape[0] < 2:
        return np.zeros(0)
    return np.linalg.norm(np.diff(unit, axis=0), axis=1)


def full_spectrum(samples: np.ndarray, sample_rate_hz: float):
    """Power spectrum of the whole clip zero-padded to a power of two, and its bin frequencies."""
    nfft = dsp.next_pow2(len(samples))
    power = np.abs(np.fft.rfft(samples, n=nfft)) ** 2
    return power, np.arange(nfft // 2 + 1) * (sample_rate_hz / nfft)


def _hop(sample_rate_hz: float) -> int:
    """Hop of :func:`spectrogram`: half its ~32 ms window."""
    return dsp.default_window_size(sample_rate_hz) // 2


def spectrogram(samples: np.ndarray, sample_rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """The STFT ``(power, freqs)`` that the frequency and time-frequency groups share."""
    window = dsp.default_window_size(sample_rate_hz)
    return dsp.stft(samples, sample_rate_hz, window, _hop(sample_rate_hz))


# ---------------------------------------------------------------------------
# time-domain group (35)
# ---------------------------------------------------------------------------

def _standardized_moments(centered, std, orders):
    """E[(centered / std) ** k] for each k >= 3 in ``orders``; zeros when std is 0.

    ``centered`` is the data minus its mean. The powers come from a chain
    of in-place products (z**3 = z*z*z, z**4 = z**3 * z, ...), not from
    ``z ** k``: for an integer exponent above 2 numpy calls ``pow`` once
    per element, which costs tens of times more than a multiply. Products
    may differ from ``pow`` in the last bits; only two sample-length
    arrays are alive at a time.
    """
    if std == 0:
        return [0.0] * len(orders)
    z = centered / std
    power = z * z
    moments = {}
    for k in range(3, max(orders) + 1):
        power *= z
        moments[k] = float(np.mean(power))
    return [moments[k] for k in orders]


def _sorted_quantile(ordered: np.ndarray, fraction: float) -> float:
    """``np.percentile(x, 100 * fraction)`` read from ``ordered = np.sort(x)``.

    numpy's linear rule: between the neighbours a <= b of the virtual
    index ``(n - 1) * fraction`` at fraction g it returns ``a + (b - a) * g``,
    or ``b - (b - a) * (1 - g)`` when g >= 0.5, so the value is the same
    bit for bit. Where x holds both -0.0 and 0.0 the sign of a zero result
    can differ, because numpy takes its neighbours from a partition.
    """
    virtual = (len(ordered) - 1) * fraction
    i = int(virtual)
    if i >= len(ordered) - 1:
        return float(ordered[-1])
    a, b = float(ordered[i]), float(ordered[i + 1])
    g = virtual - i
    if g >= 0.5:
        return b - (b - a) * (1 - g)
    return a + (b - a) * g


def _sorted_median(ordered: np.ndarray) -> float:
    """``np.median(x)`` read from ``ordered = np.sort(x)``, bit for bit.

    numpy averages the middle value(s) with ``mean``, whose sum starts
    from 0.0, so a -0.0 median comes out as 0.0 there too.
    """
    h = len(ordered) // 2
    if len(ordered) % 2:
        return 0.0 + float(ordered[h])
    return (0.0 + float(ordered[h - 1]) + float(ordered[h])) / 2


def _moving_average(x: np.ndarray, width: int) -> np.ndarray:
    """Mean of each ``width``-sample window, aligned as ``np.convolve(x, box, "same")``.

    Samples beyond the ends count as zeros and the output has ``len(x)``
    values. The zero-padded clip is cut into rows of ``width`` samples and
    each row gets its own running sum, so a window starting r samples into
    row b sums to (row b's total - its first r) + row b+1's first r. That
    costs O(n) rather than the O(n * width) of the convolution, and since
    no partial sum exceeds two rows the result differs from it by rounding
    only (about 1e-15 relative).
    """
    n = len(x)
    offset = width - 1 - (width - 1) // 2  # zeros ahead of the first sample
    rows = n // width + 2
    padded = np.zeros(rows * width)
    padded[offset : offset + n] = x
    prefix = np.zeros((rows, width + 1))  # prefix[b, r]: sum of row b's first r samples
    np.cumsum(padded.reshape(rows, width), axis=1, out=prefix[:, 1:])
    sums = (prefix[:-1, width:] - prefix[:-1, :width]) + prefix[1:, :width]
    return sums.ravel()[:n] / width


def time_features(samples: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    s, n, sr = samples, len(samples), sample_rate_hz

    mean = float(s.mean())
    centered = s - mean
    centered_ss = np.sum(centered * centered)
    std = float(np.sqrt(centered_ss / n))  # equals s.std() bit for bit
    var = std ** 2
    abs_s = np.abs(s)
    abs_total = abs_s.sum()
    energy = float(np.sum(s * s))
    rms = float(np.sqrt(energy / n))
    peak = float(abs_s.max())
    mean_abs = float(abs_total / n)  # equals abs_s.mean() bit for bit
    s_min = float(s.min())
    s_max = float(s.max())

    skew, kurt, m5, m6 = _standardized_moments(centered, std, (3, 4, 5, 6))

    crest = peak / rms if rms > 0 else 0.0
    shape = rms / mean_abs if mean_abs > 0 else 0.0
    impulse = peak / mean_abs if mean_abs > 0 else 0.0
    sqrt_mean = float(np.mean(np.sqrt(abs_s))) ** 2
    clearance = peak / sqrt_mean if sqrt_mean > 0 else 0.0

    # a crossing is a change of sign, zero counting as positive
    negative = s < 0
    zcr = float(np.count_nonzero(negative[1:] != negative[:-1])) / (n - 1) if n > 1 else 0.0
    negative = centered < 0
    mcr = float(np.count_nonzero(negative[1:] != negative[:-1])) / (n - 1) if n > 1 else 0.0

    # amplitude-weighted time distribution
    t_centroid, t_spread, t_skew, t_kurt = spectral_shape(abs_s, np.arange(n) / sr, total=abs_total)

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

    envelope = _moving_average(abs_s, max(1, round(sr * 0.010)))

    # order statistics from one sort per array instead of a selection per statistic
    ordered = np.sort(s)
    median = _sorted_median(ordered)
    iqr = _sorted_quantile(ordered, 0.75) - _sorted_quantile(ordered, 0.25)
    median_abs = _sorted_median(np.sort(abs_s))
    mad = _sorted_median(np.sort(np.abs(s - median)))

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
            median_abs,
            impulse,
            clearance,
            energy,
            float(np.log10(energy + 1e-12)),
            iqr,
            mad,
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

def freq_features(
    samples: np.ndarray, sample_rate_hz: float, sgram: tuple[np.ndarray, np.ndarray], flux=None
) -> np.ndarray:
    """The 45 frequency-domain values; ``sgram`` is :func:`spectrogram` of the clip.

    ``flux`` is :func:`spectral_flux` of the spectrogram's power, computed
    here unless the caller shares it with :func:`timefreq_features`.
    """
    stft_power, stft_freqs = sgram
    power, freqs = full_spectrum(samples, sample_rate_hz)
    total = power.sum()
    floored = np.maximum(power, _EPS)

    centroid, bandwidth, skew, kurt = spectral_shape(power, freqs, total=total)
    cuts = _octave_cuts(freqs)
    band_ratios = _safe_div(octave_band_energies(power, cuts), total)

    if flux is None:
        flux = spectral_flux(stft_power)
    mean_flux = float(flux.mean()) if len(flux) else 0.0

    mf = dsp.mfcc_from_spectrogram(stft_power, sample_rate_hz, n_coeffs=13)
    mfcc_means = mf.mean(axis=0)
    mfcc_stds = mf.std(axis=0)

    chroma = float(dsp.chroma_vector(stft_power, stft_freqs).mean())

    head = np.array(
        [
            float(centroid),
            float(bandwidth),
            float(spectral_rolloff(power, freqs, total=total)),
            mean_flux,
            float(_flatness(floored, np.log(floored), total)),
            float(spectral_entropy(power, total)),
            float(spectral_contrast(power, cuts)),
            float(skew),
            float(kurt),
            float(dominant_frequency(power, freqs, total)),
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


def timefreq_features(
    samples: np.ndarray, sample_rate_hz: float, sgram: tuple[np.ndarray, np.ndarray], flux=None
) -> np.ndarray:
    """The 47 time-frequency values; ``sgram`` is :func:`spectrogram` of the clip.

    ``flux`` is as for :func:`freq_features`. Every per-frame statistic
    shares one frame-energy sum and one log of the floored power, and the
    eight per-frame tracks are summarized as rows of one array.
    """
    power, freqs = sgram
    frame_power = power.sum(axis=-1)
    floored = np.maximum(power, _EPS)
    log_floored = np.log(floored)

    centroid, bandwidth = spectral_shape(power, freqs, moments=2, total=frame_power)
    tracks = np.stack(
        [
            centroid,
            bandwidth,
            spectral_rolloff(power, freqs, total=frame_power),
            _flatness(floored, log_floored, frame_power),
            spectral_entropy(power, frame_power),
            spectral_contrast(power, _octave_cuts(freqs)),
            dominant_frequency(power, freqs, frame_power),
            frame_power,
        ]
    )
    # [mean, std, max] of each track, in the order stacked
    (
        centroid_stats,
        bandwidth_stats,
        rolloff_stats,
        flatness_stats,
        entropy_stats,
        contrast_stats,
        dominant_stats,
        frame_power_stats,
    ) = np.stack([tracks.mean(axis=1), tracks.std(axis=1), tracks.max(axis=1)], axis=1).tolist()
    if flux is None:
        flux = spectral_flux(power)

    values = centroid_stats + bandwidth_stats + rolloff_stats + flatness_stats + _traj_stats(flux)

    subbands = dsp.dwt_energies(samples, levels=5)
    values += [float(v) for v in subbands]
    shares = _safe_div(subbands, subbands.sum())
    values += [float(v) for v in shares]
    plogp = np.where(shares > 0, shares * np.log(np.where(shares > 0, shares, 1.0)), 0.0)
    values.append(float(-plogp.sum()))

    values += contrast_stats[:2]

    fp_mean, fp_std, _ = frame_power_stats
    values += frame_power_stats
    values += _standardized_moments(frame_power - fp_mean, fp_std, (3,))

    frame_rate_hz = sample_rate_hz / _hop(sample_rate_hz)
    mod_freq, mod_strength = _modulation_peak(frame_power, frame_rate_hz)
    values += [mod_freq, mod_strength]

    values += entropy_stats
    values += dominant_stats[:2]

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

    mean_cell = total / power.size  # equals power.mean() bit for bit
    values.append(float(power.max() / mean_cell) if mean_cell > 0 else 0.0)
    values.append(float(_flatness(floored, log_floored, total, axis=None)))
    values.append(fp_std / fp_mean if fp_mean > 0 else 0.0)

    return np.array(values)


def _modulation_peak(trajectory: np.ndarray, frame_rate_hz: float) -> tuple[float, float]:
    """Dominant modulation frequency and its power share, 0/0 when degenerate."""
    centered = trajectory - trajectory.mean()
    if len(centered) < 4 or np.abs(centered).max() <= 1e-8:  # np.allclose(centered, 0)
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

def extract_all(samples, sample_rate_hz: float) -> np.ndarray:
    """Full 127-value vector: time[0..34] + frequency[35..79] + time-frequency[80..126].

    Raises ``ParameterError`` unless ``samples`` is a non-empty 1-D array
    of finite values and ``sample_rate_hz`` is positive.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1 or len(samples) == 0:
        raise ParameterError("samples must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(samples)):
        raise ParameterError("samples must all be finite")
    if not sample_rate_hz > 0:
        raise ParameterError("sample_rate_hz must be positive")
    # the time group runs before the spectrogram: its temporaries are the clip's peak memory
    time = time_features(samples, sample_rate_hz)
    sgram = spectrogram(samples, sample_rate_hz)
    flux = spectral_flux(sgram[0])  # both spectral groups report its mean
    shared = (samples, sample_rate_hz, sgram, flux)
    return np.concatenate([time, freq_features(*shared), timefreq_features(*shared)])


def extract_matrix(clips) -> np.ndarray:
    """Feature matrix [n_clips, 127]; rows follow input order.

    ``clips`` yields ``(samples, sample_rate_hz)`` pairs and may be any
    iterable, a generator too: each clip is extracted as it arrives and
    only its row is kept. Raises ``ParameterError`` when there is no clip,
    and unless every row has 127 finite values.
    """
    rows = [extract_all(samples, rate) for samples, rate in clips]
    if not rows:
        raise ParameterError("no clips to extract")
    matrix = np.vstack(rows)
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
        # csv writes a float as its repr, the shortest round-trip form
        for i, row in enumerate(features.tolist()):
            if labels is not None:
                row.append(int(labels[i]))
            writer.writerow(row)
