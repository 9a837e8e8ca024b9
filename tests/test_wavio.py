import struct
import wave

import numpy as np
import pytest

from acoubench.audio import AudioSignal
from acoubench.errors import UnsupportedWavError
from acoubench.wavio import read_wav, write_wav

from conftest import SR, make_noise


def test_round_trip_within_quantization(tmp_path):
    rng = np.random.default_rng(1)
    sig = AudioSignal(rng.uniform(-0.9, 0.9, size=1600), SR)
    path = tmp_path / "a.wav"
    write_wav(path, sig)
    back = read_wav(path)
    assert back.sample_rate_hz == SR
    assert len(back.samples) == len(sig.samples)
    assert np.max(np.abs(back.samples - sig.samples)) <= 1.0 / 32768

def test_full_scale_mapping(tmp_path):
    sig = AudioSignal(np.array([-1.0, 0.0, 0.5]), 8000.0)
    path = tmp_path / "b.wav"
    write_wav(path, sig)
    back = read_wav(path)
    np.testing.assert_allclose(back.samples, [-1.0, 0.0, 0.5], atol=1.0 / 32768)


def test_stereo_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(struct.pack("<4h", 0, 0, 1, 1))
    with pytest.raises(UnsupportedWavError, match="mono"):
        read_wav(path)


def test_8bit_rejected(tmp_path):
    path = tmp_path / "8bit.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(1)
        wf.setframerate(16000)
        wf.writeframes(b"\x00\x01\x02")
    with pytest.raises(UnsupportedWavError, match="16-bit"):
        read_wav(path)


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"not a riff file at all")
    with pytest.raises(UnsupportedWavError):
        read_wav(path)


def test_zero_rate_rejected_naming_the_file(tmp_path):
    path = tmp_path / "zero_rate.wav"
    write_wav(path, AudioSignal(np.full(64, 0.5), SR))
    data = bytearray(path.read_bytes())
    data[24:28] = bytes(4)  # the fmt chunk's sample rate
    path.write_bytes(bytes(data))
    with pytest.raises(UnsupportedWavError, match=r"zero_rate\.wav: sample rate must be positive"):
        read_wav(path)
