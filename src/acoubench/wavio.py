"""16-bit PCM mono WAV reading and writing.

Only the unambiguous profile is supported: RIFF/WAVE, format code 1,
16-bit little-endian, single channel, a positive sample rate. Integer
samples map to [-1, 1) through division by 32768; anything else is
rejected, not converted.
"""

from __future__ import annotations

import wave
from pathlib import Path

import numpy as np

from .audio import AudioSignal
from .errors import UnsupportedWavError


def read_wav(path) -> AudioSignal:
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getcomptype() != "NONE":
                raise UnsupportedWavError(f"{path}: compressed WAV not supported")
            if wf.getnchannels() != 1:
                raise UnsupportedWavError(
                    f"{path}: expected mono, got {wf.getnchannels()} channels"
                )
            if wf.getsampwidth() != 2:
                raise UnsupportedWavError(
                    f"{path}: expected 16-bit samples, got {8 * wf.getsampwidth()}-bit"
                )
            rate = wf.getframerate()
            if rate <= 0:
                raise UnsupportedWavError(f"{path}: sample rate must be positive, got {rate} Hz")
            raw = wf.readframes(wf.getnframes())
    except wave.Error as exc:
        raise UnsupportedWavError(f"{path}: not a readable WAV file ({exc})") from exc
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if len(samples) == 0:
        raise UnsupportedWavError(f"{path}: file contains no samples")
    return AudioSignal(samples=samples, sample_rate_hz=float(rate))


def write_wav(path, signal: AudioSignal) -> None:
    path = Path(path)
    ints = np.clip(np.round(signal.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(round(signal.sample_rate_hz))
        wf.writeframes(ints.tobytes())
