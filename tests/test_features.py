import csv

import numpy as np
import pytest

from acoubench import dsp, features
from acoubench.audio import normalize_amplitude
from acoubench.dataset import fit_scaler
from acoubench.dsp import dwt_energies
from acoubench.errors import ParameterError
from acoubench.features import (
    extract_all,
    extract_matrix,
    freq_features,
    full_spectrum,
    spectral_rolloff,
    spectral_shape,
    spectrogram,
    time_features,
    timefreq_features,
)
from acoubench.registry import (
    DOMAIN_BUDGET,
    FEATURE_COUNT,
    REGISTRY,
    REGISTRY_VERSION,
    feature_names,
    save_registry_csv,
)

from conftest import SR, direct_dft, make_noise, make_tone

# (name, domain) pairs that the published importance ranking names; the
# registry must resolve every one of them.
TOP_NAMES = [
    ("Spectral Centroid", "frequency"),
    ("MFCC-1", "frequency"),
    ("RMS Energy", "time"),
    ("Zero Crossing Rate", "time"),
    ("Spectral Rolloff", "frequency"),
    ("MFCC-2", "frequency"),
    ("Spectral Bandwidth", "frequency"),
    ("Crest Factor", "time"),
    ("MFCC-3", "frequency"),
    ("Spectral Flux", "frequency"),
    ("Wavelet energy (D4)", "time-frequency"),
    ("Temporal Centroid", "time"),
    ("Spectral Contrast", "frequency"),
    ("MFCC-4", "frequency"),
    ("Chroma Mean", "frequency"),
]


def entry(name):
    return REGISTRY[feature_names().index(name)]


def stress_corpus():
    t = np.arange(8000) / SR
    impulse = np.zeros(8000)
    impulse[4000] = 1.0
    return {
        "silence": np.zeros(8000),
        "constant": np.full(8000, 0.7),
        "impulse": impulse,
        "tone": np.sin(2 * np.pi * 440 * t),
        "noise": make_noise(duration_s=0.5, seed=17),
    }


class TestRegistry:
    def test_counts(self):
        assert FEATURE_COUNT == 127
        counts = {}
        for entry in REGISTRY:
            counts[entry.domain] = counts.get(entry.domain, 0) + 1
        assert counts == DOMAIN_BUDGET == {
            "time": 35,
            "frequency": 45,
            "time-frequency": 47,
        }

    def test_ids_are_ordered(self):
        assert [e.id for e in REGISTRY] == list(range(127))

    def test_names_unique(self):
        names = feature_names()
        assert len(set(names)) == 127

    def test_published_top_names_resolve(self):
        for name, domain in TOP_NAMES:
            assert entry(name).domain == domain, name

    def test_domains_are_contiguous_blocks(self):
        domains = [e.domain for e in REGISTRY]
        assert domains == ["time"] * 35 + ["frequency"] * 45 + ["time-frequency"] * 47

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "registry.csv"
        save_registry_csv(path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["# registry_version", REGISTRY_VERSION]
        assert rows[1] == ["id", "name", "domain", "description"]
        body = [tuple(row[:3]) for row in rows[2:]]
        assert len(body) == 127
        assert body[0] == ("0", "Mean", "time")
        assert body[98] == ("98", "Wavelet energy (D4)", "time-frequency")


class TestTimeFeatures:
    def test_length(self):
        assert time_features(make_noise(seed=1), SR).shape == (35,)

    def test_constant_signal(self):
        values = time_features(np.full(1000, 3.0), SR)
        by = {e.name: values[e.id] for e in REGISTRY if e.domain == "time"}
        assert by["Zero Crossing Rate"] == 0.0
        assert by["Crest Factor"] == pytest.approx(1.0)
        assert by["Variance"] == 0.0
        assert by["Skewness"] == 0.0
        assert by["Kurtosis"] == 0.0

    def test_alternating_signal_max_zcr(self):
        sig = np.tile([1.0, -1.0], 500)
        assert time_features(sig, SR)[9] == 1.0

    def test_sine_crest_factor(self):
        crest = time_features(make_tone(100.0), SR)[7]
        assert crest == pytest.approx(np.sqrt(2), rel=0.01)

    def test_temporal_centroid_of_symmetric_envelope(self):
        sig = make_tone(100.0, duration_s=1.0)
        centroid = time_features(sig, SR)[10]
        assert centroid == pytest.approx(0.5, rel=0.02)


def moment_stress_corpus():
    """Clips of odd and even length for the moment checks."""
    rng = np.random.default_rng(23)
    t = np.arange(8001) / SR
    train = np.zeros(8000)
    train[::97] = 1.0
    return {
        "noise-even": rng.normal(size=8000),
        "noise-odd": rng.laplace(size=4001),
        "tone-odd": np.sin(2 * np.pi * 440 * t) + 0.3,
        "impulse-train": train,
        "near-constant": 1.0 + 1e-9 * rng.normal(size=6000),
        # a clip on which abs_s * dt * dt and abs_s * (dt * dt) sum differently
        "decaying-burst": (
            np.random.default_rng(3).normal(size=8001) * np.exp(-np.arange(8001) / 3000)
        ),
    }


def defined_moments(s: np.ndarray) -> dict:
    """The k >= 3 moment features written with ``** k``, as they are defined."""
    z = (s - s.mean()) / s.std()
    out = {
        "Skewness": np.mean(z ** 3),
        "Kurtosis": np.mean(z ** 4),
        "Fifth Standardized Moment": np.mean(z ** 5),
        "Sixth Standardized Moment": np.mean(z ** 6),
    }
    times = np.arange(len(s)) / SR
    w = np.abs(s) / np.abs(s).sum()
    t_centroid = (times * w).sum()
    t_var = (w * (times - t_centroid) ** 2).sum()
    out["Temporal Skewness"] = (w * (times - t_centroid) ** 3).sum() / t_var ** 1.5
    out["Temporal Kurtosis"] = (w * (times - t_centroid) ** 4).sum() / t_var ** 2
    power, freqs = full_spectrum(s, SR)
    p = power / power.sum()
    f_centroid = (p * freqs).sum()
    f_var = (p * (freqs - f_centroid) ** 2).sum()
    out["Spectral Skewness"] = (p * (freqs - f_centroid) ** 3).sum() / f_var ** 1.5
    out["Spectral Kurtosis"] = (p * (freqs - f_centroid) ** 4).sum() / f_var ** 2
    frame_power = spectrogram(s, SR)[0].sum(axis=1)
    zf = (frame_power - frame_power.mean()) / frame_power.std()
    out["Frame Energy Skewness"] = np.mean(zf ** 3)
    return out


class TestProductMoments:
    """k >= 3 moments from products match ``** k``; every other moment keeps its bits."""

    @pytest.mark.parametrize("clip", list(moment_stress_corpus()))
    def test_products_match_the_power_definitions(self, clip):
        x = moment_stress_corpus()[clip]
        values = extract_all(x, SR)
        compared = 0
        for name, reference in defined_moments(x).items():
            if reference == 0:
                continue
            assert values[entry(name).id] == pytest.approx(reference, rel=1e-12), name
            compared += 1
        assert compared >= 8

    @pytest.mark.parametrize("clip", list(moment_stress_corpus()))
    def test_shared_quantities_keep_their_bits(self, clip):
        s = moment_stress_corpus()[clip]
        values = time_features(s, SR)
        centered = s - float(s.mean())
        t_centroid = values[entry("Temporal Centroid").id]
        times = np.arange(len(s)) / SR
        exact = {
            "Standard Deviation": float(s.std()),
            "Variance": float(s.std()) ** 2,
            "RMS Energy": float(np.sqrt(np.mean(s ** 2))),
            "Signal Energy": float(np.sum(s ** 2)),
            "Peak-to-Peak Amplitude": float(s.max() - s.min()),
            "Hjorth Mobility": float(np.diff(s).std() / s.std()),
            "Lag-1 Autocorrelation": float(
                np.sum(centered[:-1] * centered[1:]) / np.sum(centered ** 2)
            ),
            "Temporal Spread": float(np.sqrt(
                (np.abs(s) * (times - t_centroid) ** 2).sum() / np.abs(s).sum()
            )),
        }
        for name, value in exact.items():
            assert values[entry(name).id] == value, name


class TestSpectralHelpers:
    def test_point_mass(self):
        freqs = np.arange(0, 2001, 100.0)
        power = np.zeros(len(freqs))
        power[freqs == 1000.0] = 4.0
        centroid, bandwidth, _, _ = spectral_shape(power, freqs)
        assert centroid == pytest.approx(1000.0)
        assert spectral_rolloff(power, freqs) == pytest.approx(1000.0)
        assert bandwidth == pytest.approx(0.0)

    def test_two_equal_bins(self):
        freqs = np.arange(0, 401, 100.0)
        power = np.zeros(len(freqs))
        power[freqs == 100.0] = 1.0
        power[freqs == 300.0] = 1.0
        assert spectral_shape(power, freqs)[0] == pytest.approx(200.0)

    def test_silence_conventions(self):
        freqs = np.arange(0, 401, 100.0)
        power = np.zeros(len(freqs))
        centroid, bandwidth, _, _ = spectral_shape(power, freqs)
        assert centroid == 0.0
        assert spectral_rolloff(power, freqs) == 0.0
        assert bandwidth == 0.0


class TestFreqFeatures:
    def test_length(self):
        sig = make_noise(seed=2)
        assert freq_features(sig, SR, spectrogram(sig, SR)).shape == (45,)

    def test_stationary_flux_vanishes(self):
        # 250 Hz: bin-centered for the 512 window and hop-periodic at 256
        sig = make_tone(250.0)
        values = freq_features(sig, SR, spectrogram(sig, SR))
        flux = values[entry("Spectral Flux").id - 35]
        assert flux < 1e-6

    def test_octave_ratios_sum_below_one(self):
        sig = make_noise(seed=3)
        values = freq_features(sig, SR, spectrogram(sig, SR))
        ratios = values[10:18]
        assert np.all(ratios >= 0)
        assert ratios.sum() <= 1.0 + 1e-9

    def test_full_spectrum_matches_direct_dft_of_padded_clip(self):
        sig = np.random.default_rng(8).normal(size=1000)
        power, freqs = full_spectrum(sig, SR)
        padded = np.zeros(1024)
        padded[:1000] = sig
        want = np.abs(direct_dft(padded)[:513]) ** 2
        assert power.shape == freqs.shape == (513,)
        assert np.linalg.norm(power - want) <= 1e-9 * np.linalg.norm(want)
        assert freqs[1] == pytest.approx(SR / 1024)


class TestTimeFreqFeatures:
    def test_length(self):
        sig = make_noise(seed=4)
        assert timefreq_features(sig, SR, spectrogram(sig, SR)).shape == (47,)

    def test_zero_signal_all_zero(self):
        sig = np.zeros(4096)
        values = timefreq_features(sig, SR, spectrogram(sig, SR))
        np.testing.assert_array_equal(values, np.zeros(47))

    def test_wavelet_d4_is_definitional_passthrough(self):
        sig = make_noise(seed=5)
        values = timefreq_features(sig, SR, spectrogram(sig, SR))
        d4 = dwt_energies(sig)[3]
        idx = entry("Wavelet energy (D4)").id - 80
        assert values[idx] == pytest.approx(d4, rel=1e-12)

    def test_stationary_centroid_trajectory_is_flat(self):
        sig = make_tone(1000.0)
        values = timefreq_features(sig, SR, spectrogram(sig, SR))
        mean_idx = entry("Frame Centroid Mean").id - 80
        std_idx = entry("Frame Centroid Std").id - 80
        assert values[std_idx] < 1e-3 * values[mean_idx]

    def test_too_short_rejected(self):
        # a 16-sample spectrogram can be built, the 5-level wavelet split cannot
        sig = np.ones(16)
        with pytest.raises(ParameterError):
            timefreq_features(sig, SR, dsp.stft(sig, SR, 16, 8))
        with pytest.raises(ParameterError):
            extract_all(sig, SR)


class TestExtractAll:
    def test_length_and_finiteness_on_stress_corpus(self):
        for name, sig in stress_corpus().items():
            vec = extract_all(sig, SR)
            assert vec.shape == (127,), name
            assert np.all(np.isfinite(vec)), name

    def test_group_concatenation_order(self):
        sig = make_noise(seed=6)
        vec = extract_all(sig, SR)
        np.testing.assert_array_equal(vec[:35], time_features(sig, SR))
        np.testing.assert_array_equal(vec[35:80], freq_features(sig, SR, spectrogram(sig, SR)))
        np.testing.assert_array_equal(vec[80:], timefreq_features(sig, SR, spectrogram(sig, SR)))

    def test_one_stft_and_three_ffts_per_clip(self, monkeypatch):
        # the STFT is shared by both spectral groups; the other transforms
        # are the whole-clip spectrum, the STFT's own and the modulation peak
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(dsp, "stft", counting("stft", dsp.stft))
        monkeypatch.setattr(np.fft, "rfft", counting("rfft", np.fft.rfft))
        extract_all(make_noise(seed=6), SR)
        assert sorted(calls) == ["rfft"] * 3 + ["stft"]

    def test_bit_identical_across_calls(self):
        sig = make_noise(seed=7)
        np.testing.assert_array_equal(extract_all(sig, SR), extract_all(sig, SR))

    def test_amplitude_invariance_flags(self):
        t = np.arange(16000) / SR
        rng = np.random.default_rng(8)
        sig = 0.3 * rng.normal(size=16000) + np.sin(2 * np.pi * 113 * t)
        base = extract_all(sig, SR)
        scaled = extract_all(normalize_amplitude(sig), SR)
        for entry in REGISTRY:
            if not entry.amplitude_invariant:
                continue
            a, b = base[entry.id], scaled[entry.id]
            if a == 0 and b == 0:
                continue
            assert abs(a - b) <= 1e-6 * max(abs(a), abs(b)), entry.name

    @pytest.mark.parametrize(
        "row, match",
        [(np.zeros(126), "must have 127 values"), (np.full(127, np.nan), "non-finite")],
        ids=["126-values", "nan"],
    )
    def test_extract_matrix_rejects_bad_rows(self, monkeypatch, row, match):
        monkeypatch.setattr(features, "extract_all", lambda samples, rate: row)
        with pytest.raises(ParameterError, match=match):
            extract_matrix([(make_noise(seed=1), SR), (make_noise(seed=2), SR)])

    def test_extract_matrix_row_order(self):
        clips = [(make_noise(seed=s), SR) for s in (1, 2)]
        matrix = extract_matrix(clips)
        np.testing.assert_array_equal(matrix[0], extract_all(*clips[0]))
        np.testing.assert_array_equal(matrix[1], extract_all(*clips[1]))

    def test_extract_matrix_rejects_no_clips(self):
        with pytest.raises(ParameterError, match="no clips to extract"):
            extract_matrix(iter(()))

    def test_feature_csv_round_trips_exactly(self, tmp_path):
        from acoubench.features import save_feature_csv

        matrix = extract_matrix([(make_noise(seed=9), SR)])
        path = tmp_path / "features.csv"
        save_feature_csv(path, matrix, labels=[3])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["Mean", "Standard Deviation"]
        assert rows[0][-1] == "label"
        back = np.array([float(v) for v in rows[1][:-1]])
        np.testing.assert_array_equal(back, matrix[0])
        assert rows[1][-1] == "3"


class TestExtractAllChecks:
    """``extract_all`` is where an array from outside the clip sources is checked."""

    def test_rejects_empty(self):
        with pytest.raises(ParameterError, match="non-empty 1-D"):
            extract_all(np.array([]), SR)

    def test_rejects_two_d(self):
        with pytest.raises(ParameterError, match="non-empty 1-D"):
            extract_all(make_noise(seed=1).reshape(2, -1), SR)

    def test_rejects_nonfinite(self):
        for bad in (np.nan, np.inf, -np.inf):
            samples = make_noise(seed=2)
            samples[100] = bad
            with pytest.raises(ParameterError, match="must all be finite"):
                extract_all(samples, SR)

    def test_rejects_bad_rate(self):
        for rate in (0.0, -SR):
            with pytest.raises(ParameterError, match="sample_rate_hz must be positive"):
                extract_all(make_noise(seed=3), rate)


class TestStandardize:
    def test_constant_column_becomes_zero(self):
        train = np.array([[1.0, 5.0], [1.0, 7.0]])
        scaler = fit_scaler(train)
        np.testing.assert_array_equal(scaler.transform(train)[:, 0], [0.0, 0.0])
        assert scaler.scale[0] == 1.0

    def test_train_columns_are_zscored(self, rng):
        feats = rng.normal(size=(50, 4)) * 3 + 1
        scaled = fit_scaler(feats).transform(feats)
        np.testing.assert_allclose(scaled.mean(axis=0), 0, atol=1e-9)
        np.testing.assert_allclose(scaled.std(axis=0), 1, atol=1e-9)

    def test_apply_to_uses_train_statistics(self):
        # train column: values 0 and 2 -> mean 1, std 1; apply-to value 5 -> (5-1)/1 = 4
        scaler = fit_scaler(np.array([[0.0], [2.0]]))
        assert scaler.transform(np.array([[5.0]]))[0, 0] == pytest.approx(4.0)

    def test_empty_train_rejected(self):
        with pytest.raises(ParameterError):
            fit_scaler(np.zeros((0, 3)))
