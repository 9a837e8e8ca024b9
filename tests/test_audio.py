import numpy as np
import pytest

from acoubench.audio import (
    AudioSignal,
    NoiseProfile,
    estimate_noise_profile,
    frame_signal,
    hann_window,
    normalize_amplitude,
    normalize_rms,
    overlap_add,
    spectral_subtract,
    subtract_magnitudes,
)
from acoubench.errors import DegenerateSignalError, ParameterError

from conftest import SR, make_noise, make_tone


class TestAudioSignal:
    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            AudioSignal(np.array([]), SR)

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            AudioSignal(np.array([1.0, np.nan]), SR)

    def test_rejects_bad_rate(self):
        with pytest.raises(ParameterError):
            AudioSignal(np.ones(4), 0.0)

    def test_samples_are_immutable(self):
        sig = AudioSignal(np.ones(4), SR)
        with pytest.raises(ValueError):
            sig.samples[0] = 2.0


class TestFraming:
    def test_frame_count_1000_256_128(self):
        # floor((1000 - 256) / 128) + 1 = 6
        sig = make_noise(duration_s=1000 / SR, seed=1)
        assert len(frame_signal(sig, 256, 128)) == 6

    def test_single_frame_at_boundary(self):
        sig = make_noise(duration_s=256 / SR, seed=2)
        frames = frame_signal(sig, 256, 128)
        assert len(frames) == 1
        np.testing.assert_array_equal(frames.frames[0], sig.samples)

    def test_hop_larger_than_window_rejected(self):
        sig = make_noise(seed=3)
        with pytest.raises(ParameterError):
            frame_signal(sig, 128, 256)

    def test_window_longer_than_signal_rejected(self):
        sig = make_noise(duration_s=100 / SR, seed=4)
        with pytest.raises(ParameterError):
            frame_signal(sig, 256, 128)

    def test_frames_are_contiguous_slices(self):
        sig = make_noise(seed=5)
        frames = frame_signal(sig, 512, 256)
        for m in range(len(frames)):
            np.testing.assert_array_equal(
                frames.frames[m], sig.samples[m * 256 : m * 256 + 512]
            )

    def test_cola_round_trip_interior(self):
        # Hann-windowed frames at 50% overlap sum back to the signal away from the edges.
        sig = make_noise(seed=6)
        w = 512
        frames = frame_signal(sig, w, w // 2)
        rebuilt = overlap_add(frames.frames * hann_window(w), w // 2, len(sig.samples))
        interior = slice(w, len(sig.samples) - w)
        err = np.max(np.abs(rebuilt[interior] - sig.samples[interior]))
        assert err < 1e-6 * np.max(np.abs(sig.samples))


class TestNormalization:
    def test_amplitude_hand_case(self):
        sig = AudioSignal(np.array([2.0, -4.0, 1.0]), SR)
        np.testing.assert_allclose(
            normalize_amplitude(sig).samples, [0.5, -1.0, 0.25]
        )

    def test_amplitude_identity_when_peak_is_one(self):
        sig = AudioSignal(np.array([0.25, -1.0, 0.5]), SR)
        np.testing.assert_array_equal(normalize_amplitude(sig).samples, sig.samples)

    def test_amplitude_zero_signal_rejected(self):
        with pytest.raises(DegenerateSignalError):
            normalize_amplitude(AudioSignal(np.zeros(8), SR))

    def test_amplitude_idempotent(self):
        sig = make_noise(seed=7, amp=3.3)
        once = normalize_amplitude(sig)
        twice = normalize_amplitude(once)
        np.testing.assert_allclose(twice.samples, once.samples, atol=1e-12)

    def test_rms_constant(self):
        sig = AudioSignal(np.full(4, 2.0), SR)
        np.testing.assert_allclose(normalize_rms(sig).samples, np.ones(4))

    def test_rms_sine_amplitude(self):
        # a sine of amplitude A has RMS A/sqrt(2), so the output peaks at sqrt(2)
        out = normalize_rms(make_tone(100.0, amp=0.37))
        assert np.max(np.abs(out.samples)) == pytest.approx(np.sqrt(2), rel=1e-3)

    def test_rms_postcondition(self):
        out = normalize_rms(make_noise(seed=8, amp=0.02))
        assert np.sqrt(np.mean(out.samples ** 2)) == pytest.approx(1.0, abs=1e-12)

    def test_rms_zero_signal_rejected(self):
        with pytest.raises(DegenerateSignalError):
            normalize_rms(AudioSignal(np.zeros(8), SR))

    def test_rms_idempotent(self):
        once = normalize_rms(make_noise(seed=9, amp=5.0))
        twice = normalize_rms(once)
        np.testing.assert_allclose(twice.samples, once.samples, atol=1e-12)


class TestSpectralSubtraction:
    def test_magnitude_rule_hand_case(self):
        # |S| = 10, |N| = 3, alpha = 1.5, beta = 0 -> 10 - 4.5 = 5.5
        out = subtract_magnitudes(np.array([10.0]), np.array([3.0]), 1.5, 0.0)
        assert out[0] == pytest.approx(5.5)

    def test_magnitude_rule_exact_cancellation(self):
        mags = np.array([4.0, 2.5, 0.0, 7.0])
        assert np.all(subtract_magnitudes(mags, mags, 1.0, 0.0) == 0.0)

    def test_magnitude_rule_floor(self):
        out = subtract_magnitudes(np.array([10.0]), np.array([9.0]), 2.0, 0.05)
        assert out[0] == pytest.approx(0.5)  # clamped at beta * |S|

    def test_zero_noise_is_identity(self):
        sig = make_noise(seed=10, duration_s=1.0)
        noise = NoiseProfile(np.zeros(2048), 2048)
        out = spectral_subtract(sig, noise, alpha=2.0, beta=0.0)
        err = np.max(np.abs(out.samples - sig.samples))
        assert err < 1e-6 * np.max(np.abs(sig.samples))
        assert len(out.samples) == len(sig.samples)
        assert out.sample_rate_hz == sig.sample_rate_hz

    def test_stationary_tone_cancels_in_interior(self):
        # tone aligned to the analysis grid: every full frame has one magnitude
        freq = 32 * SR / 2048  # bin-centered, whole cycles per hop
        sig = make_tone(freq, duration_s=2.0)
        frames = frame_signal(sig, 2048, 1024)
        mags = np.abs(np.fft.fft(frames.frames * hann_window(2048)))
        profile = NoiseProfile(mags[0], 2048)
        out = spectral_subtract(sig, profile, alpha=1.0, beta=0.0)
        interior = out.samples[2048:-2048]
        assert np.max(np.abs(interior)) < 1e-9

    def test_output_magnitudes_never_negative(self):
        sig = make_noise(seed=11)
        profile = estimate_noise_profile(sig)
        out = spectral_subtract(sig, profile, alpha=3.0, beta=0.0)
        frames = frame_signal(out, 2048, 1024)
        mags = np.abs(np.fft.fft(frames.frames * hann_window(2048)))
        assert np.all(mags >= 0)

    def test_alpha_out_of_range(self):
        sig = make_noise(seed=12)
        noise = NoiseProfile(np.zeros(2048), 2048)
        for alpha in (0.5, 3.5):
            with pytest.raises(ParameterError):
                spectral_subtract(sig, noise, alpha=alpha)

    def test_bin_count_mismatch(self):
        sig = make_noise(seed=13)
        with pytest.raises(ParameterError):
            spectral_subtract(sig, NoiseProfile(np.zeros(1024), 1024), alpha=1.5)

    def test_pure_function_bit_identical(self):
        sig = make_noise(seed=14)
        profile = estimate_noise_profile(sig)
        a = spectral_subtract(sig, profile, alpha=1.5)
        b = spectral_subtract(sig, profile, alpha=1.5)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_noise_profile_rejects_negative(self):
        with pytest.raises(ParameterError):
            NoiseProfile(np.array([-1.0] + [0.0] * 2047), 2048)

    def test_estimate_noise_profile_shape(self):
        profile = estimate_noise_profile(make_noise(seed=15))
        assert profile.bin_count == 2048
        assert profile.magnitude.shape == (2048,)
        assert np.all(profile.magnitude >= 0)
