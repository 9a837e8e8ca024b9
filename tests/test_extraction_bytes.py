"""Extraction's bytes are pinned, and its shortcuts are checked against numpy.

The kernels read several statistics from shared intermediates (one sort,
one frame-energy sum, one log of the spectrogram) instead of computing
each from scratch. Every value must keep its bits, so a digest of the
feature matrix over a fixed clip set pins them. The envelope columns
(32-34) are left out of it: the envelope is a running mean whose rounding
differs from ``np.convolve``'s, and it is checked against that reference
with a tolerance instead.
"""

import hashlib

import numpy as np
import pytest

from acoubench.audio import normalize_rms
from acoubench.features import (
    _moving_average,
    _sorted_median,
    _sorted_quantile,
    extract_matrix,
    time_features,
)
from acoubench.synth import FaultClass, GeneratorConfig, add_noise_at_snr, generate_sample

ENVELOPE_COLUMNS = [32, 33, 34]

# SHA-256 of extract_matrix(pinned_clips()) without ENVELOPE_COLUMNS, as
# float64 bytes in row order. Computed with one numpy call per statistic
# (np.percentile, np.median, a separate sum for each spectral statistic)
# on numpy 2.4, x86-64, OpenBLAS; a numpy or BLAS build that rounds its
# FFT or matrix products differently gives another digest.
PINNED_DIGEST = "63e4710c10bc3ea25a41b4916ad0ddf87371a8ac46184fbf5c624eed0c5a9b9d"
PINNED_NUMPY = "2.4"


def _quantized(samples):
    return np.clip(np.round(samples * 32768.0), -32768, 32767) / 32768.0


def pinned_clips() -> list:
    """``(samples, rate)`` clips of the shapes extraction meets: WAV-like, odd, silent,
    another rate, noisy."""
    clips = []
    # the five clip lengths of the benchmark's extract corpus, 16-bit like a WAV file
    for i, duration in enumerate((0.25, 0.5, 0.75, 1.0, 1.25)):
        cfg = GeneratorConfig(samples_per_class=4, duration_s=duration, base_seed=19)
        clip = generate_sample(FaultClass(i), 1900 + i, cfg)
        clips.append((_quantized(0.4 * clip.samples), clip.sample_rate_hz))
    # odd length with a silent stretch
    odd = np.random.default_rng(19).normal(size=8001)
    odd[2000:3500] = 0.0
    clips.append((odd, 16000.0))
    other_rate = GeneratorConfig(duration_s=0.6, sample_rate_hz=22050.0)
    clips.append(generate_sample(FaultClass(2), 1910, other_rate))
    # RMS-normalized clips with noise at 40 and 10 dB, as the noise sweep makes them
    for i, snr_db in enumerate((40.0, 10.0)):
        clean = normalize_rms(
            generate_sample(FaultClass(3 + i), 1920 + i, GeneratorConfig(duration_s=0.5)).samples
        )
        clips.append((add_noise_at_snr(clean, snr_db, 1930 + i), 16000.0))
    return clips


@pytest.mark.skipif(
    not np.__version__.startswith(PINNED_NUMPY + "."),
    reason=f"digest computed with numpy {PINNED_NUMPY}",
)
def test_feature_bytes_are_pinned():
    matrix = np.delete(extract_matrix(pinned_clips()), ENVELOPE_COLUMNS, axis=1)
    assert matrix.shape == (9, 124)
    assert hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest() == PINNED_DIGEST


def _order_statistic_cases():
    rng = np.random.default_rng(5)
    return {
        "odd": rng.normal(size=1001),
        "even": rng.normal(size=1000),
        "one": np.array([0.3]),
        "two": np.array([0.5, -0.25]),
        "ties": rng.integers(-3, 4, size=998).astype(float),
        "constant": np.full(17, 0.125),
        "negative-zeros": np.array([-0.0, -0.0, -0.0, 1.0, -1.0, -0.0]),
        "all-negative-zero": np.full(6, -0.0),
        "quantized": _quantized(rng.normal(size=4001) * 0.01),
    }


@pytest.mark.parametrize("name", list(_order_statistic_cases()))
def test_order_statistics_from_one_sort_match_numpy(name):
    s = _order_statistic_cases()[name]
    ordered = np.sort(s)
    got = np.array([_sorted_quantile(ordered, 0.25), _sorted_quantile(ordered, 0.75)])
    assert got.tobytes() == np.percentile(s, [25, 75]).tobytes()
    assert np.float64(_sorted_median(ordered)).tobytes() == np.float64(np.median(s)).tobytes()
    abs_s = np.abs(s)
    assert _sorted_median(np.sort(abs_s)) == np.median(abs_s)


def test_order_statistics_with_mixed_zero_signs_match_numpy_in_value():
    # numpy takes its neighbours from a partition, so with -0.0 and 0.0
    # both present only the sign of a zero result may differ
    s = np.random.default_rng(6).choice([-0.0, 0.0, 1.0, -1.0], size=41)
    ordered = np.sort(s)
    got = [_sorted_quantile(ordered, 0.25), _sorted_quantile(ordered, 0.75)]
    assert got == list(np.percentile(s, [25, 75]))
    assert _sorted_median(ordered) == np.median(s)


def _convolved_envelope_stats(samples, sample_rate_hz):
    width = max(1, round(sample_rate_hz * 0.010))
    env = np.convolve(np.abs(samples), np.full(width, 1.0 / width), mode="same")
    return np.array([env.mean(), env.std(), env.max()])


@pytest.mark.parametrize(
    "rate_hz, duration_s", [(16000.0, 1.0), (44100.0, 5.0)], ids=["16k-1s", "44k-5s"]
)
def test_envelope_columns_match_the_convolution(rate_hz, duration_s):
    cfg = GeneratorConfig(duration_s=duration_s, sample_rate_hz=rate_hz)
    x = generate_sample(FaultClass(4), 1940, cfg)
    got = time_features(*x)[ENVELOPE_COLUMNS]
    np.testing.assert_allclose(got, _convolved_envelope_stats(*x), rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "n, width", [(1, 1), (7, 2), (7, 3), (160, 160), (161, 160), (4001, 2), (4001, 160)]
)
def test_moving_average_aligns_with_the_convolution(n, width):
    x = np.random.default_rng(n).random(n)
    want = np.convolve(x, np.full(width, 1.0 / width), mode="same")
    np.testing.assert_allclose(_moving_average(x, width), want, rtol=1e-13, atol=0)
