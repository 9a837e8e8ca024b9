import numpy as np
import pytest

from acoubench.audio import frame_signal, hann_window
from acoubench.dsp import (
    _DB4_HI,
    _DB4_LO,
    _dwt_step,
    chroma_vector,
    default_window_size,
    dwt_energies,
    mel_filterbank,
    mfcc_from_spectrogram,
    next_pow2,
    stft,
)
from acoubench.errors import ParameterError

from conftest import SR, direct_dft, make_noise, make_tone


class TestSTFT:
    def test_stationary_rows_identical(self):
        # 1000 Hz at 16 kHz: bin-centered for a 512 window, whole cycles per 256 hop
        power, _ = stft(make_tone(1000.0), SR, 512, 256)
        spread = np.max(np.std(power, axis=0))
        assert spread < 1e-6 * np.max(power)

    def test_frame_count_one_second(self):
        # floor((16000 - 512) / 256) + 1 = 61
        power, freqs = stft(make_noise(seed=3), SR, 512, 256)
        assert power.shape == (61, 257)
        assert freqs.shape == (257,)

    def test_silence_all_zero(self):
        power, _ = stft(np.zeros(4096), SR, 512, 256)
        assert np.all(power == 0)

    def test_sign_flip_invariance(self):
        sig = make_noise(seed=4)
        flipped = -sig
        np.testing.assert_array_equal(
            stft(sig, SR, 512, 256)[0], stft(flipped, SR, 512, 256)[0]
        )

    @pytest.mark.parametrize("window", [512, 300])
    def test_power_matches_direct_dft_of_padded_windowed_frames(self, window):
        sig = make_noise(duration_s=0.125, seed=7)
        power, _ = stft(sig, SR, window, window // 2)
        frames = frame_signal(sig, window, window // 2)
        assert power.shape == (len(frames), 257)
        for row, frame in zip(power, frames):
            padded = np.zeros(512)
            padded[:window] = frame * hann_window(window)
            want = np.abs(direct_dft(padded)[:257]) ** 2
            assert np.linalg.norm(row - want) <= 1e-9 * np.linalg.norm(want)

    def test_non_pow2_window_zero_padded(self):
        power, freqs = stft(make_noise(seed=5), SR, 300, 150)
        assert power.shape[1] == 512 // 2 + 1
        np.testing.assert_array_equal(freqs, np.arange(257) * (SR / 512))


def stft_mfccs(sig, n_coeffs=13, n_filters=26, window_size=None, hop=None):
    """MFCCs the way the extractor takes them: from the STFT at the default window."""
    window_size = window_size or default_window_size(SR)
    power, _ = stft(sig, SR, window_size, hop or window_size // 2)
    return mfcc_from_spectrogram(power, SR, n_coeffs, n_filters)


class TestMFCC:
    def test_deterministic(self):
        sig = make_noise(seed=6)
        np.testing.assert_array_equal(stft_mfccs(sig), stft_mfccs(sig))

    def test_output_length(self):
        # 1 s at 16 kHz, 512-sample window, hop 256: 61 frames
        sig = make_noise(seed=7)
        for n in (4, 13, 20):
            assert stft_mfccs(sig, n_coeffs=n).shape == (61, n)

    def test_scaling_shifts_only_first_coefficient(self):
        sig = make_noise(seed=8, amp=0.1)
        doubled = 2.0 * sig
        a = stft_mfccs(sig)
        b = stft_mfccs(doubled)
        # log(4 e) = log e + log 4: the DCT maps a constant shift onto
        # coefficient 0 only
        diff = b - a
        assert np.max(np.abs(diff[:, 1:])) < 1e-9
        # all 26 log energies shift by ln(4); orthonormal DCT coefficient 0
        # of that constant vector is sqrt(1/26) * 26 * ln(4) = sqrt(26) * ln(4)
        np.testing.assert_allclose(diff[:, 0], np.sqrt(26.0) * np.log(4.0), atol=1e-9)

    def test_tiny_case_matches_hand_arithmetic(self):
        # 64-sample frame, 8 filters, 4 coefficients, evaluated with plain loops
        rng = np.random.default_rng(99)
        samples = rng.normal(size=64)
        got = stft_mfccs(samples, n_coeffs=4, n_filters=8, window_size=64, hop=64)
        assert got.shape == (1, 4)

        hann = 0.5 * (1 - np.cos(2 * np.pi * np.arange(64) / 64))
        frame = samples * hann
        spec = np.array(
            [np.sum(frame * np.exp(-2j * np.pi * k * np.arange(64) / 64)) for k in range(64)]
        )
        power = np.abs(spec[:33]) ** 2
        freqs = np.arange(33) * SR / 64

        def mel(f):
            return 2595 * np.log10(1 + f / 700)

        def inv_mel(m):
            return 700 * (10 ** (m / 2595) - 1)

        points = inv_mel(np.linspace(mel(0), mel(SR / 2), 10))
        energies = []
        for i in range(8):
            left, center, right = points[i], points[i + 1], points[i + 2]
            weight = np.zeros(33)
            for k, f in enumerate(freqs):
                if left <= f <= center:
                    weight[k] = (f - left) / (center - left)
                elif center < f <= right:
                    weight[k] = (right - f) / (right - center)
            energies.append(max(np.sum(weight * power), 1e-10))
        log_e = np.log(energies)
        want = []
        for k in range(4):
            scale = np.sqrt(1.0 / 8) if k == 0 else np.sqrt(2.0 / 8)
            want.append(scale * np.sum(log_e * np.cos(np.pi * k * (2 * np.arange(8) + 1) / 16)))
        np.testing.assert_allclose(got[0], want, rtol=1e-9, atol=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(ParameterError):
            stft_mfccs(np.ones(100))

    def test_single_bin_spectrogram_rejected(self):
        # a one-point FFT gives one bin, and no even FFT size to build a filterbank for
        with pytest.raises(ParameterError, match="2 frequency bins"):
            mfcc_from_spectrogram(stft(np.ones(100), SR, 1, 1)[0], SR)

    def test_filterbank_shape_and_support(self):
        bank = mel_filterbank(26, 512, SR)
        assert bank.shape == (26, 257)
        assert np.all(bank >= 0)
        assert np.all(bank.sum(axis=1) > 0)


class TestDWT:
    def test_zero_signal(self):
        energies = dwt_energies(np.zeros(256))
        assert energies.shape == (6,)
        assert all(e == 0 for e in energies)

    def test_constant_annihilated(self):
        x = np.full(512, 3.0)
        energies = dwt_energies(x)
        assert max(energies[:-1]) < 1e-10 * np.sum(x ** 2)

    def test_energy_conservation_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(64, 2048))
            sig = rng.normal(size=n)
            total = dwt_energies(sig).sum()
            energy = np.sum(sig ** 2)
            assert abs(total - energy) <= 1e-6 * max(energy, 1e-30)

    def test_reference_energy_is_plain_sum(self, rng):
        x = rng.normal(size=256)
        assert dwt_energies(x).sum() == pytest.approx(np.sum(x ** 2))

    def test_too_short_rejected(self):
        with pytest.raises(ParameterError):
            dwt_energies(np.ones(16), levels=5)

    @pytest.mark.parametrize("n", [4, 9, 33, 8001, 16000])
    def test_step_equals_modulo_gather(self, rng, n):
        x = rng.normal(size=n)
        even = np.append(x, 0.0) if n % 2 else x
        m = len(even)
        windows = even[(np.arange(0, m, 2)[:, None] + np.arange(8)[None, :]) % m]
        approx, detail = _dwt_step(x)
        assert np.array_equal(approx, windows @ _DB4_LO)
        assert np.array_equal(detail, windows @ _DB4_HI)

    def test_band_localization(self):
        # a 6 kHz tone at 16 kHz sampling lands in D1 (4-8 kHz)
        sig = make_tone(6000.0)
        assert dwt_energies(sig)[0] > 0.8 * np.sum(sig ** 2)


class TestChroma:
    def test_silence_zero(self):
        sgram = stft(np.zeros(4096), SR, 512, 256)
        assert chroma_vector(*sgram).mean() == 0.0

    def test_440_tone_concentrates_on_a(self):
        sgram = stft(make_tone(440.0), SR, 2048, 1024)
        vec = chroma_vector(*sgram)
        assert vec[9] / vec.sum() > 0.9  # pitch class A

    def test_linearity_in_power(self):
        sig = make_tone(440.0)
        double = 2.0 * sig
        a = chroma_vector(*stft(sig, SR, 512, 256)).mean()
        b = chroma_vector(*stft(double, SR, 512, 256)).mean()
        assert b == pytest.approx(4.0 * a, rel=1e-9)

    def test_empty_spectrogram_rejected(self):
        with pytest.raises(ParameterError):
            chroma_vector(np.zeros((0, 257)), np.arange(257) * (SR / 512))


def test_next_pow2():
    assert [next_pow2(v) for v in (1, 2, 3, 511, 512, 513)] == [1, 2, 4, 512, 512, 1024]
