"""Canonical 127-feature registry.

This file is the single source of truth for feature identity: ids,
names, domains and ordering are frozen here. ``REGISTRY_VERSION`` is
recorded in a bench run's ``manifest.txt`` and in ``registry.csv``.
Entries are also flagged by how they respond to rescaling the waveform,
which the extraction property tests rely on.

Domain budget: 35 time, 45 frequency, 47 time-frequency.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

REGISTRY_VERSION = "1.0"

TIME = "time"
FREQUENCY = "frequency"
TIME_FREQUENCY = "time-frequency"

DOMAINS = (TIME, FREQUENCY, TIME_FREQUENCY)
DOMAIN_BUDGET = {TIME: 35, FREQUENCY: 45, TIME_FREQUENCY: 47}


@dataclass(frozen=True)
class FeatureEntry:
    id: int
    name: str
    domain: str
    description: str
    # True when the value is unchanged by x -> c*x for c > 0.
    amplitude_invariant: bool


def _entries():
    e = []

    def add(name, domain, description, invariant):
        e.append(FeatureEntry(len(e), name, domain, description, invariant))

    # --- time domain (35) ----------------------------------------------
    add("Mean", TIME, "arithmetic mean of the samples", False)
    add("Standard Deviation", TIME, "sample standard deviation", False)
    add("Variance", TIME, "sample variance", False)
    add("Skewness", TIME, "third standardized moment; 0 for zero-variance signals", True)
    add("Kurtosis", TIME, "fourth standardized moment (not excess); 0 for zero-variance signals", True)
    add("RMS Energy", TIME, "root mean square of the samples", False)
    add("Peak Amplitude", TIME, "maximum absolute sample value", False)
    add("Crest Factor", TIME, "peak amplitude over RMS; 0 for silence", True)
    add("Shape Factor", TIME, "RMS over mean absolute value; 0 for silence", True)
    add("Zero Crossing Rate", TIME, "sign changes between consecutive samples / (N-1)", True)
    add("Temporal Centroid", TIME, "amplitude-weighted center of mass in seconds", True)
    add("Minimum Value", TIME, "smallest sample", False)
    add("Maximum Value", TIME, "largest sample", False)
    add("Peak-to-Peak Amplitude", TIME, "max minus min", False)
    add("Mean Absolute Value", TIME, "mean of |x|", False)
    add("Median Absolute Value", TIME, "median of |x|", False)
    add("Impulse Factor", TIME, "peak over mean absolute value; 0 for silence", True)
    add("Clearance Factor", TIME, "peak over squared mean root of |x|; 0 for silence", True)
    add("Signal Energy", TIME, "sum of squared samples", False)
    add("Log Energy", TIME, "log10(signal energy + 1e-12)", False)
    add("Interquartile Range", TIME, "75th minus 25th percentile", False)
    add("Median Absolute Deviation", TIME, "median of |x - median(x)|", False)
    add("Temporal Spread", TIME, "amplitude-weighted time std about the centroid, seconds", True)
    add("Temporal Skewness", TIME, "skewness of the amplitude-weighted time distribution", True)
    add("Temporal Kurtosis", TIME, "kurtosis of the amplitude-weighted time distribution", True)
    add("Hjorth Mobility", TIME, "std of the first difference over std of the signal", True)
    add("Hjorth Complexity", TIME, "mobility of the first difference over signal mobility", True)
    add("Lag-1 Autocorrelation", TIME, "normalized autocorrelation at lag 1", True)
    add("Fifth Standardized Moment", TIME, "fifth standardized moment; 0 when degenerate", True)
    add("Sixth Standardized Moment", TIME, "sixth standardized moment; 0 when degenerate", True)
    add("Mean Crossing Rate", TIME, "crossings of the signal mean / (N-1)", True)
    add("Difference RMS", TIME, "RMS of the first difference", False)
    add("Envelope Mean", TIME, "mean of the 10 ms moving-average |x| envelope", False)
    add("Envelope Std", TIME, "std of the envelope", False)
    add("Envelope Peak", TIME, "maximum of the envelope", False)

    # --- frequency domain (45) ------------------------------------------
    add("Spectral Centroid", FREQUENCY, "power-weighted mean frequency of the full-signal spectrum", True)
    add("Spectral Bandwidth", FREQUENCY, "power-weighted std about the spectral centroid", True)
    add("Spectral Rolloff", FREQUENCY, "frequency below which 85% of spectral energy lies", True)
    add("Spectral Flux", FREQUENCY, "mean L2 change of successive unit-norm magnitude frames", True)
    add("Spectral Flatness", FREQUENCY, "geometric over arithmetic mean of the power spectrum", True)
    add("Spectral Entropy", FREQUENCY, "normalized Shannon entropy of the power spectrum", True)
    add("Spectral Contrast", FREQUENCY, "mean over octave bands of log10 peak/valley power", True)
    add("Spectral Skewness", FREQUENCY, "skewness of the spectral power distribution", True)
    add("Spectral Kurtosis", FREQUENCY, "kurtosis of the spectral power distribution", True)
    add("Dominant Frequency", FREQUENCY, "frequency of the strongest spectral bin", True)
    for b in range(8):
        add(
            f"Octave Band Ratio {b + 1}",
            FREQUENCY,
            f"energy share of octave band {b + 1} of 8 below Nyquist",
            True,
        )
    for i in range(13):
        add(
            f"MFCC-{i + 1}",
            FREQUENCY,
            f"mel-frequency cepstral coefficient {i + 1}, mean over frames",
            i > 0,  # MFCC-1 carries the log-energy shift under rescaling
        )
    for i in range(13):
        add(
            f"MFCC-{i + 1} Std",
            FREQUENCY,
            f"frame-level standard deviation of MFCC-{i + 1}",
            True,
        )
    add("Chroma Mean", FREQUENCY, "non-DC STFT power / (12 * frames): the mean of the 12 frame-averaged chroma powers", False)

    # --- time-frequency domain (47) --------------------------------------
    for stat in ("Mean", "Std", "Max"):
        add(f"Frame Centroid {stat}", TIME_FREQUENCY, f"{stat.lower()} of the per-frame spectral centroid", True)
    for stat in ("Mean", "Std", "Max"):
        add(f"Frame Bandwidth {stat}", TIME_FREQUENCY, f"{stat.lower()} of the per-frame spectral bandwidth", True)
    for stat in ("Mean", "Std", "Max"):
        add(f"Frame Rolloff {stat}", TIME_FREQUENCY, f"{stat.lower()} of the per-frame 85% rolloff", True)
    for stat in ("Mean", "Std", "Max"):
        add(f"Frame Flatness {stat}", TIME_FREQUENCY, f"{stat.lower()} of the per-frame spectral flatness", True)
    for stat in ("Mean", "Std", "Max"):
        add(f"Frame Flux {stat}", TIME_FREQUENCY, f"{stat.lower()} of the frame-to-frame spectral flux", True)
    for band in ("D1", "D2", "D3", "D4", "D5", "A5"):
        add(f"Wavelet energy ({band})", TIME_FREQUENCY, f"db4 subband energy of {band}", False)
    for band in ("D1", "D2", "D3", "D4", "D5", "A5"):
        add(f"Wavelet energy ratio ({band})", TIME_FREQUENCY, f"share of total wavelet energy in {band}", True)
    add("Wavelet Entropy", TIME_FREQUENCY, "Shannon entropy of the wavelet subband energy shares", True)
    add("Spectrogram Contrast Mean", TIME_FREQUENCY, "mean over frames of octave-band log peak/valley power", True)
    add("Spectrogram Contrast Std", TIME_FREQUENCY, "std over frames of octave-band log peak/valley power", True)
    add("Frame Energy Mean", TIME_FREQUENCY, "mean of per-frame total spectrogram power", False)
    add("Frame Energy Std", TIME_FREQUENCY, "std of per-frame total spectrogram power", False)
    add("Frame Energy Max", TIME_FREQUENCY, "max of per-frame total spectrogram power", False)
    add("Frame Energy Skewness", TIME_FREQUENCY, "skewness of the per-frame power trajectory", True)
    add("Modulation Dominant Frequency", TIME_FREQUENCY, "strongest modulation frequency of the frame-power trajectory, Hz", True)
    add("Modulation Dominant Strength", TIME_FREQUENCY, "power share of the dominant modulation frequency", True)
    for stat in ("Mean", "Std", "Max"):
        add(f"Frame Entropy {stat}", TIME_FREQUENCY, f"{stat.lower()} of the per-frame spectral entropy", True)
    add("Frame Dominant Frequency Mean", TIME_FREQUENCY, "mean of the per-frame dominant frequency", True)
    add("Frame Dominant Frequency Std", TIME_FREQUENCY, "std of the per-frame dominant frequency", True)
    add("Low Band Energy Ratio", TIME_FREQUENCY, "spectrogram power share below Nyquist/8", True)
    add("Mid Band Energy Ratio", TIME_FREQUENCY, "spectrogram power share in [Nyquist/8, Nyquist/2)", True)
    add("High Band Energy Ratio", TIME_FREQUENCY, "spectrogram power share at and above Nyquist/2", True)
    add("Spectrogram Crest", TIME_FREQUENCY, "max spectrogram cell over mean cell", True)
    add("Spectrogram Flatness", TIME_FREQUENCY, "geometric over arithmetic mean of all spectrogram cells", True)
    add("Frame Energy CV", TIME_FREQUENCY, "coefficient of variation of the frame-power trajectory", True)

    return tuple(e)


REGISTRY: tuple[FeatureEntry, ...] = _entries()
FEATURE_COUNT = len(REGISTRY)


def _validate_registry():
    if FEATURE_COUNT != 127:
        raise AssertionError(f"registry must hold 127 entries, found {FEATURE_COUNT}")
    counts = {d: sum(1 for entry in REGISTRY if entry.domain == d) for d in DOMAINS}
    if counts != DOMAIN_BUDGET:
        raise AssertionError(f"domain budget violated: {counts}")
    if len({entry.name for entry in REGISTRY}) != FEATURE_COUNT:
        raise AssertionError("feature names must be unique")
    for i, entry in enumerate(REGISTRY):
        if entry.id != i:
            raise AssertionError("registry ids must be 0..126 in order")


_validate_registry()


def feature_names() -> list[str]:
    return [entry.name for entry in REGISTRY]


def save_registry_csv(path) -> None:
    """Write the registry as versioned CSV (id,name,domain,description)."""
    with open(Path(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["# registry_version", REGISTRY_VERSION])
        writer.writerow(["id", "name", "domain", "description"])
        for entry in REGISTRY:
            writer.writerow([entry.id, entry.name, entry.domain, entry.description])

