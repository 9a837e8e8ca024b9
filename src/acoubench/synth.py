"""Deterministic synthetic fault-signal corpus.

The five-class severity taxonomy is realized by a physically motivated
signal model: a harmonic shaft tone, a severity-scaled train of
decaying resonance bursts at a characteristic defect rate, and a low
Gaussian noise floor. Every sample is a pure function of
(class, seed, config), so corpora regenerate bit-identically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .audio import AudioSignal
from .dataset import Dataset
from .errors import DegenerateSignalError, ParameterError, checked


class FaultClass(enum.IntEnum):
    NORMAL = 0
    EARLY_FAULT = 1
    MODERATE_FAULT = 2
    SEVERE_FAULT = 3
    CRITICAL_FAULT = 4


N_CLASSES = len(FaultClass)


@dataclass(frozen=True)
class GeneratorConfig:
    """Signal-model and corpus-size parameters.

    Defaults are desk scale (1 s at 16 kHz, 200 samples per class) so a
    full benchmark fits a CI run; production scale (10 s, 44.1 kHz,
    10,000 per class) is just a different config.
    """

    samples_per_class: int = 200
    duration_s: float = 1.0
    sample_rate_hz: float = 16000.0
    base_seed: int = 0
    shaft_freq_hz: float = 60.0
    harmonic_count: int = 5
    # per-severity impulse train parameters, NORMAL..CRITICAL
    impulse_rates_hz: tuple = (107.0, 107.0, 107.0, 107.0, 107.0)
    impulse_amplitudes: tuple = (0.0, 0.1, 0.3, 0.6, 1.0)
    resonance_freq_hz: float = 4000.0
    resonance_decay_s: float = 0.001
    noise_floor_db: float = -40.0

    def __post_init__(self):
        # checks only: the fields keep the values as given, which the manifest records
        for name in ("samples_per_class", "harmonic_count"):
            checked(name, getattr(self, name), int, "[1, inf)")
        checked("base_seed", self.base_seed, int)
        for name in ("duration_s", "sample_rate_hz", "shaft_freq_hz", "resonance_freq_hz",
                     "resonance_decay_s"):
            checked(name, getattr(self, name), float, "(0, inf)")
        checked("noise_floor_db", self.noise_floor_db)
        per_class = (("impulse_rates_hz", "(0, inf)"), ("impulse_amplitudes", "(-inf, inf)"))
        for name, interval in per_class:
            values = getattr(self, name)
            if not (isinstance(values, (list, tuple)) and len(values) == N_CLASSES):
                raise ParameterError(
                    f"'{name}' must be {N_CLASSES} numbers, one per class, got {values!r}"
                )
            for i, value in enumerate(values):
                checked(f"{name}[{i}]", value, float, interval)
        amps = self.impulse_amplitudes
        if any(b <= a for a, b in zip(amps, amps[1:])):
            raise ParameterError("impulse amplitudes must increase strictly with severity")
        for c, amp in enumerate(amps):
            # a sample sums at most a clip's bursts, each peaking at most at 1.2 |amplitude|
            n_bursts = self.n_bursts(c)
            peak = 1.2 * abs(amp) * n_bursts
            if not math.isfinite(peak * peak):
                raise ParameterError(
                    f"'impulse_amplitudes[{c}]' {amp!r} is too large: {n_bursts} bursts "
                    f"of peak 1.2 × {abs(amp)!r} overflow the power of a clip"
                )

    @property
    def n_samples(self) -> int:
        return round(self.duration_s * self.sample_rate_hz)

    def n_bursts(self, cls) -> int:
        """Resonance bursts a clip of class ``cls`` draws: one per defect period, plus one."""
        period = self.sample_rate_hz / self.impulse_rates_hz[cls]
        return int(np.ceil(self.n_samples / period)) + 1


def generate_sample(cls: FaultClass, seed: int, cfg: GeneratorConfig) -> AudioSignal:
    """One synthetic recording for the given severity class.

    Tone and noise-floor variates are drawn before any rate-dependent
    impulse variates, so recordings generated from the same seed share
    them across severities; with equal per-severity rates (the default)
    two classes then differ only by the scaled impulse component.
    """
    cls = FaultClass(cls)
    rng = np.random.default_rng(seed)
    n = cfg.n_samples
    t = np.arange(n) / cfg.sample_rate_hz

    # harmonic shaft tone with 1/h amplitude decay and random phases
    phases = rng.uniform(0, 2 * np.pi, size=cfg.harmonic_count)
    tone = np.zeros(n)
    for h in range(1, cfg.harmonic_count + 1):
        tone += (1.0 / h) * np.sin(2 * np.pi * cfg.shaft_freq_hz * h * t + phases[h - 1])

    tone_rms = math.sqrt(float(np.mean(tone ** 2)))
    noise_rms = tone_rms * 10 ** (cfg.noise_floor_db / 20.0)
    noise = rng.normal(0, noise_rms, size=n)

    # periodic resonance bursts, scaled by the per-severity amplitude
    rate = cfg.impulse_rates_hz[cls]
    period = cfg.sample_rate_hz / rate
    first = rng.uniform(0, period)
    jitter_scale = 0.02 * period
    burst_len = max(4, round(6 * cfg.resonance_decay_s * cfg.sample_rate_hz))
    bt = np.arange(burst_len) / cfg.sample_rate_hz
    burst = np.exp(-bt / cfg.resonance_decay_s) * np.sin(2 * np.pi * cfg.resonance_freq_hz * bt)
    impulses = np.zeros(n)
    n_bursts = cfg.n_bursts(cls)
    jitters = rng.normal(0, jitter_scale, size=n_bursts)
    gains = rng.uniform(0.8, 1.2, size=n_bursts)
    for b in range(n_bursts):
        start = int(round(first + b * period + jitters[b]))
        if start >= n:
            break
        if start < 0:
            continue
        stop = min(start + burst_len, n)
        impulses[start:stop] += gains[b] * burst[: stop - start]

    samples = tone + cfg.impulse_amplitudes[cls] * impulses + noise
    if not np.all(np.isfinite(samples)):  # a backstop: the config bounds the amplitudes
        raise ParameterError("samples must all be finite")
    return AudioSignal(samples, cfg.sample_rate_hz)


def sample_seed(cfg: GeneratorConfig, cls: FaultClass, index: int) -> int:
    return cfg.base_seed + int(cls) * cfg.samples_per_class + index


def generate_dataset(cfg: GeneratorConfig) -> Dataset:
    """Index of the balanced corpus: labels grouped by class, each clip's seed, provenance.

    No clip is generated here; clip ``i`` is
    ``generate_sample(FaultClass(labels[i]), seeds[i], cfg)``, made when
    it is needed.
    """
    labels = np.repeat(np.arange(N_CLASSES), cfg.samples_per_class)
    seeds = [sample_seed(cfg, cls, i) for cls in FaultClass for i in range(cfg.samples_per_class)]
    return Dataset(
        labels=labels,
        seeds=np.array(seeds),
        provenance={
            "source": "synthetic",
            "samples_per_class": cfg.samples_per_class,
            "duration_s": cfg.duration_s,
            "sample_rate_hz": cfg.sample_rate_hz,
            "base_seed": cfg.base_seed,
        },
    )


def generate_clips(cfg: GeneratorConfig, labels, seeds):
    """The clips of a corpus index (or a part of it), generated one at a time, in order."""
    return (generate_sample(int(cls), int(seed), cfg) for cls, seed in zip(labels, seeds))


def add_noise_at_snr(samples: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """Inject white Gaussian noise at an exact signal-to-noise ratio.

    The drawn noise is rescaled so the realized ratio of mean powers
    matches ``snr_db`` rather than only in expectation. ``math.inf``
    means clean: the samples are returned unchanged.
    """
    if math.isinf(snr_db) and snr_db > 0:
        return samples
    p_signal = float(np.mean(samples ** 2))
    if not math.isfinite(p_signal):
        raise DegenerateSignalError(
            "cannot set an SNR against a signal whose mean square is not finite"
        )
    if p_signal <= 0:
        raise DegenerateSignalError("cannot set an SNR against a zero-power signal")
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=len(samples))
    target_power = p_signal / (10 ** (snr_db / 10.0))
    raw_power = float(np.mean(raw ** 2))
    noise = raw * math.sqrt(target_power / raw_power)
    return samples + noise


def robustness_index(f1_by_condition) -> float:
    """Arithmetic mean of per-condition F1 scores (clean plus noise levels)."""
    values = np.asarray(f1_by_condition, dtype=float)
    if values.size == 0:
        raise ParameterError("robustness index needs at least one condition")
    return float(values.mean())
