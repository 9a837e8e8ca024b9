import numpy as np
import pytest

SR = 16000.0


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_tone(freq_hz: float, duration_s: float = 1.0, sr: float = SR, amp: float = 1.0):
    t = np.arange(round(duration_s * sr)) / sr
    return amp * np.sin(2 * np.pi * freq_hz * t)


def make_noise(duration_s: float = 1.0, sr: float = SR, seed: int = 0, amp: float = 1.0):
    rng = np.random.default_rng(seed)
    return amp * rng.normal(size=round(duration_s * sr))


def direct_dft(x: np.ndarray) -> np.ndarray:
    """O(n^2) DFT by definition; the independence anchor for the FFT."""
    x = np.asarray(x, dtype=complex)
    n = len(x)
    out = np.empty(n, dtype=complex)
    idx = np.arange(n)
    for k in range(n):
        out[k] = np.sum(x * np.exp(-2j * np.pi * k * idx / n))
    return out
