import numpy as np
import pytest

from acoubench.audio import (
    AudioSignal,
    frame_signal,
    hann_window,
    normalize_amplitude,
    normalize_rms,
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
        assert frame_signal(sig, 256, 128).shape == (6, 256)

    def test_single_frame_at_boundary(self):
        sig = make_noise(duration_s=256 / SR, seed=2)
        frames = frame_signal(sig, 256, 128)
        assert frames.shape == (1, 256)
        np.testing.assert_array_equal(frames[0], sig.samples)

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
        assert not frames.flags.writeable  # a view of the signal's locked samples
        for m in range(len(frames)):
            np.testing.assert_array_equal(
                frames[m], sig.samples[m * 256 : m * 256 + 512]
            )

    def test_cola_round_trip_interior(self):
        # Hann-windowed frames at 50% overlap sum back to the signal away from the edges.
        sig = make_noise(seed=6)
        w = 512
        frames = frame_signal(sig, w, w // 2) * hann_window(w)
        rebuilt = np.zeros(len(sig.samples))
        for m, frame in enumerate(frames):
            rebuilt[m * w // 2 : m * w // 2 + w] += frame
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

