import numpy as np
import pytest

from acoubench.audio import (
    AudioSignal,
    frame_signal,
    hann_window,
    normalize_amplitude,
    normalize_rms,
)
from acoubench.dsp import dwt_energies, stft
from acoubench.errors import DegenerateSignalError, ParameterError
from acoubench.features import extract_all
from acoubench.synth import add_noise_at_snr

from conftest import SR, make_noise, make_tone


class TestAudioSignal:
    def test_is_the_plain_pair_a_source_returns(self):
        samples = np.ones(4)
        unpacked, rate = AudioSignal(samples, SR)
        assert unpacked is samples  # neither copied nor locked
        assert rate == SR


class TestReadOnlyInput:
    def test_kernels_leave_read_only_input_unchanged(self):
        samples = make_noise(duration_s=0.25, seed=10)
        samples.flags.writeable = False
        before = samples.copy()
        extract_all(samples, SR)
        normalize_rms(samples)
        normalize_amplitude(samples)
        add_noise_at_snr(samples, 10.0, seed=11)
        stft(samples, SR, 512, 256)
        dwt_energies(samples)
        dwt_energies(samples[:-1])  # an odd length is padded, in a copy
        np.testing.assert_array_equal(samples, before)


class TestFraming:
    def test_frame_count_1000_256_128(self):
        # floor((1000 - 256) / 128) + 1 = 6
        sig = make_noise(duration_s=1000 / SR, seed=1)
        assert frame_signal(sig, 256, 128).shape == (6, 256)

    def test_single_frame_at_boundary(self):
        sig = make_noise(duration_s=256 / SR, seed=2)
        frames = frame_signal(sig, 256, 128)
        assert frames.shape == (1, 256)
        np.testing.assert_array_equal(frames[0], sig)

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
        assert not frames.flags.writeable  # a read-only view of the samples
        for m in range(len(frames)):
            np.testing.assert_array_equal(
                frames[m], sig[m * 256 : m * 256 + 512]
            )

    def test_cola_round_trip_interior(self):
        # Hann-windowed frames at 50% overlap sum back to the signal away from the edges.
        sig = make_noise(seed=6)
        w = 512
        frames = frame_signal(sig, w, w // 2) * hann_window(w)
        rebuilt = np.zeros(len(sig))
        for m, frame in enumerate(frames):
            rebuilt[m * w // 2 : m * w // 2 + w] += frame
        interior = slice(w, len(sig) - w)
        err = np.max(np.abs(rebuilt[interior] - sig[interior]))
        assert err < 1e-6 * np.max(np.abs(sig))


class TestNormalization:
    def test_amplitude_hand_case(self):
        np.testing.assert_allclose(
            normalize_amplitude(np.array([2.0, -4.0, 1.0])), [0.5, -1.0, 0.25]
        )

    def test_amplitude_identity_when_peak_is_one(self):
        sig = np.array([0.25, -1.0, 0.5])
        np.testing.assert_array_equal(normalize_amplitude(sig), sig)

    def test_amplitude_zero_signal_rejected(self):
        with pytest.raises(DegenerateSignalError):
            normalize_amplitude(np.zeros(8))

    def test_amplitude_idempotent(self):
        sig = make_noise(seed=7, amp=3.3)
        once = normalize_amplitude(sig)
        twice = normalize_amplitude(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_rms_constant(self):
        np.testing.assert_allclose(normalize_rms(np.full(4, 2.0)), np.ones(4))

    def test_rms_sine_amplitude(self):
        # a sine of amplitude A has RMS A/sqrt(2), so the output peaks at sqrt(2)
        out = normalize_rms(make_tone(100.0, amp=0.37))
        assert np.max(np.abs(out)) == pytest.approx(np.sqrt(2), rel=1e-3)

    def test_rms_postcondition(self):
        out = normalize_rms(make_noise(seed=8, amp=0.02))
        assert np.sqrt(np.mean(out ** 2)) == pytest.approx(1.0, abs=1e-12)

    def test_rms_zero_signal_rejected(self):
        with pytest.raises(DegenerateSignalError):
            normalize_rms(np.zeros(8))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_rms_of_overflowing_squares_rejected(self):
        # finite samples whose mean square is inf would otherwise scale to zeros
        with pytest.raises(DegenerateSignalError, match="mean square is not finite"):
            normalize_rms(np.array([1e307, -1e307, 5e306]))

    def test_rms_idempotent(self):
        once = normalize_rms(make_noise(seed=9, amp=5.0))
        twice = normalize_rms(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

