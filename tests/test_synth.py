import math

import numpy as np
import pytest

from acoubench.dsp import dwt_energies
from acoubench import synth
from acoubench.errors import DegenerateSignalError, ParameterError
from acoubench.features import time_features
from acoubench.synth import (
    FaultClass,
    GeneratorConfig,
    add_noise_at_snr,
    generate_clips,
    generate_dataset,
    generate_sample,
    robustness_index,
    sample_seed,
)

from conftest import SR


class TestFaultClass:
    def test_five_ordered_members(self):
        assert [int(c) for c in FaultClass] == [0, 1, 2, 3, 4]
        assert FaultClass.NORMAL < FaultClass.CRITICAL_FAULT


class TestGeneratorConfig:
    def test_amplitudes_must_increase(self):
        with pytest.raises(ParameterError):
            GeneratorConfig(impulse_amplitudes=(0.0, 0.3, 0.2, 0.6, 1.0))

    def test_needs_positive_counts(self):
        with pytest.raises(ParameterError):
            GeneratorConfig(samples_per_class=0)

    def test_per_severity_lengths(self):
        with pytest.raises(ParameterError):
            GeneratorConfig(impulse_rates_hz=(107.0, 107.0))

    def test_amplitudes_whose_bursts_overflow_rejected(self):
        # 1 s at 16 kHz and 107 Hz draws 108 bursts, so (1.2 * a * 108) ** 2
        # stays finite just below a = sqrt(max float) / (1.2 * 108)
        bound = math.sqrt(np.finfo(float).max) / (1.2 * 108)
        GeneratorConfig(impulse_amplitudes=(0.0, 0.1, 0.3, 0.6, 0.999 * bound))
        with pytest.raises(ParameterError, match=r"'impulse_amplitudes\[4\]' .* 108 bursts"):
            GeneratorConfig(impulse_amplitudes=(0.0, 0.1, 0.3, 0.6, 1.001 * bound))


class TestGenerateSample:
    def test_deterministic(self):
        cfg = GeneratorConfig()
        a = generate_sample(FaultClass.MODERATE_FAULT, 31, cfg)
        b = generate_sample(FaultClass.MODERATE_FAULT, 31, cfg)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_normal_class_has_no_impulse_component(self):
        # with the impulse term scaled to zero the crest factor is close
        # to the harmonic mixture's own value
        cfg = GeneratorConfig()
        crests = []
        for seed in range(8):
            sig = generate_sample(FaultClass.NORMAL, seed, cfg)
            crests.append(time_features(*sig)[7])
        # five 1/h harmonics: peak <= sum(1/h) ~ 2.28, rms ~ 0.855 -> crest below ~2.7
        assert 1.2 < np.mean(crests) < 2.8

    def test_critical_beats_normal_same_seed(self):
        cfg = GeneratorConfig()
        for seed in (1, 2, 3):
            normal = generate_sample(FaultClass.NORMAL, seed, cfg)
            critical = generate_sample(FaultClass.CRITICAL_FAULT, seed, cfg)
            k_n = time_features(*normal)[4]
            k_c = time_features(*critical)[4]
            d4_n = dwt_energies(normal.samples)[3]
            d4_c = dwt_energies(critical.samples)[3]
            assert k_c > k_n
            assert d4_c > d4_n

    def test_severity_monotonicity_averaged(self):
        # invariant: averaged over >= 50 paired seeds, kurtosis and the
        # impulse-band (resonance D1+D2) energy strictly increase with severity
        cfg = GeneratorConfig()
        n_seeds = 50
        kurt = np.zeros((5, n_seeds))
        band = np.zeros((5, n_seeds))
        for s in range(n_seeds):
            for cls in FaultClass:
                sig = generate_sample(cls, 5000 + s, cfg)
                kurt[int(cls), s] = time_features(*sig)[4]
                energies = dwt_energies(sig.samples)
                band[int(cls), s] = energies[0] + energies[1]
        assert np.all(np.diff(kurt.mean(axis=1)) > 0)
        assert np.all(np.diff(band.mean(axis=1)) > 0)


def _loop_burst_train(n, onsets, gains, burst):
    """Reference: one burst at a time, as a loop adds them."""
    impulses = np.zeros(n)
    for b, onset in enumerate(onsets):
        start = int(round(onset))
        if start >= n:
            break
        if start < 0:
            continue
        stop = min(start + len(burst), n)
        impulses[start:stop] += gains[b] * burst[: stop - start]
    return impulses


class TestBurstTrain:
    @pytest.mark.parametrize("rate_hz", [16000.0, 22050.0])
    @pytest.mark.parametrize("cls", list(FaultClass))
    def test_overlapping_bursts_match_the_loop(self, monkeypatch, cls, rate_hz):
        # bursts of 6 x 4 ms outlast the ~9.3 ms defect period, so up to three overlap
        cfg = GeneratorConfig(duration_s=0.5, sample_rate_hz=rate_hz, resonance_decay_s=0.004)
        got = [generate_sample(cls, seed, cfg).samples for seed in range(6)]
        monkeypatch.setattr(synth, "_burst_train", _loop_burst_train)
        want = [generate_sample(cls, seed, cfg).samples for seed in range(6)]
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_ends_at_the_first_late_burst_and_skips_early_ones(self):
        burst = np.array([1.0, 0.5, 0.25, 0.125])
        gains = np.array([0.9, 1.1, 1.2, 0.8, 1.0, 0.85])
        # a burst before sample 0, a half-sample onset (rounds to even), one that
        # runs past the end, one at n, and one back inside that the train never reaches
        onsets = np.array([-2.0, 2.5, 3.0, 9.0, 10.0, 4.0])
        got = synth._burst_train(10, onsets, gains, burst)
        assert got.tobytes() == _loop_burst_train(10, onsets, gains, burst).tobytes()
        want = np.zeros(10)
        want[2:6] += 1.1 * burst
        want[3:7] += 1.2 * burst
        want[9] += 0.8
        np.testing.assert_array_equal(got, want)


class TestGenerateDataset:
    def test_shape_and_labels(self):
        ds = generate_dataset(GeneratorConfig(samples_per_class=3))
        assert len(ds) == 15
        np.testing.assert_array_equal(ds.labels, np.repeat(np.arange(5), 3))

    def test_balanced_histogram(self):
        ds = generate_dataset(GeneratorConfig(samples_per_class=4))
        np.testing.assert_array_equal(np.bincount(ds.labels), [4, 4, 4, 4, 4])

    def test_seed_derivation(self):
        cfg = GeneratorConfig(samples_per_class=3, base_seed=100)
        assert sample_seed(cfg, FaultClass.EARLY_FAULT, 2) == 100 + 1 * 3 + 2
        ds = generate_dataset(cfg)
        assert ds.seeds[5] == 100 + 5

    def test_reproducible_end_to_end(self):
        cfg = GeneratorConfig(samples_per_class=2, base_seed=55)
        a = generate_dataset(cfg)
        b = generate_dataset(cfg)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.seeds, b.seeds)
        clips_a = list(generate_clips(cfg, a.labels, a.seeds))
        clips_b = list(generate_clips(cfg, b.labels, b.seeds))
        assert len(clips_a) == len(a) == 10
        for sa, sb, cls, seed in zip(clips_a, clips_b, a.labels, a.seeds):
            np.testing.assert_array_equal(sa.samples, sb.samples)
            # a clip is its class, seed and config: it regenerates bit-identically
            again = generate_sample(FaultClass(cls), int(seed), cfg)
            np.testing.assert_array_equal(again.samples, sa.samples)


class TestNoiseInjection:
    def test_exact_snr_zero_db(self):
        sig = np.sin(2 * np.pi * 50 * np.arange(16000) / SR) * np.sqrt(2)
        out = add_noise_at_snr(sig, 0.0, seed=4)
        noise = out - sig
        p_signal = np.mean(sig ** 2)
        p_noise = np.mean(noise ** 2)
        assert abs(10 * np.log10(p_signal / p_noise)) < 0.1

    def test_exact_snr_twenty_db(self):
        sig = np.random.default_rng(5).normal(size=8000)
        out = add_noise_at_snr(sig, 20.0, seed=6)
        noise = out - sig
        snr = 10 * np.log10(np.mean(sig ** 2) / np.mean(noise ** 2))
        assert snr == pytest.approx(20.0, abs=0.1)

    def test_infinite_snr_is_identity(self):
        sig = np.ones(100)
        out = add_noise_at_snr(sig, math.inf, seed=7)
        np.testing.assert_array_equal(out, sig)

    def test_zero_power_rejected(self):
        with pytest.raises(DegenerateSignalError):
            add_noise_at_snr(np.zeros(100), 10.0, seed=8)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_power_rejected(self):
        # an infinite signal power would otherwise scale the noise to inf
        with pytest.raises(DegenerateSignalError, match="mean square is not finite"):
            add_noise_at_snr(np.array([1e307, -1e307, 5e306]), 10.0, seed=8)

    def test_preserves_length_rate_and_noise_is_zero_mean(self):
        sig = np.random.default_rng(9).normal(size=16000)
        out = add_noise_at_snr(sig, 10.0, seed=10)
        assert len(out) == len(sig)
        noise = out - sig
        sigma = noise.std()
        assert abs(noise.mean()) < 3 * sigma / np.sqrt(len(noise))

    def test_deterministic(self):
        sig = np.random.default_rng(11).normal(size=4000)
        a = add_noise_at_snr(sig, 15.0, seed=12)
        b = add_noise_at_snr(sig, 15.0, seed=12)
        np.testing.assert_array_equal(a, b)


class TestRobustnessIndex:
    def test_all_ones(self):
        assert robustness_index([1.0, 1.0, 1.0, 1.0, 1.0]) == 1.0

    def test_two_condition_mean(self):
        assert robustness_index([1.0, 0.0]) == 0.5

    def test_is_the_plain_mean_of_all_conditions(self):
        # published ensemble row; the footnote definition (mean over clean
        # plus all four noise levels) evaluates to 0.8708 on these values
        row = [0.942, 0.931, 0.902, 0.834, 0.745]
        assert robustness_index(row) == pytest.approx(np.mean(row))
        assert robustness_index(row) == pytest.approx(0.8708, abs=5e-4)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            robustness_index([])
