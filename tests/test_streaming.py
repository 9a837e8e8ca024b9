"""Extraction streams every corpus: a run holds feature rows, not waveforms.

A synthetic clip is generated, and a WAV clip read, only when its turn
to be extracted comes; the noise sweep gets each hold-out clip again from
its source. So the memory a run's data and features stages need does not
grow with the clip count, and ``acoubench extract`` reads each listed
file once. Pulling a clip and extracting it interleave, yet a failure in
either is still tagged with its own stage.
"""

import builtins
import csv
import io
import tracemalloc
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from acoubench import bench, features, synth
from acoubench.audio import AudioSignal
from acoubench.bench import ExperimentConfig, _prepare
from acoubench.cli import main as cli_main
from acoubench.errors import PipelineStageError
from acoubench.synth import GeneratorConfig, generate_sample
from acoubench.wavio import write_wav


def _prepare_peak_bytes(samples_per_class: int) -> int:
    cfg = ExperimentConfig.from_dict(
        {
            "data": {"samples_per_class": samples_per_class},  # one-second clips at 16 kHz
            "cv": {"n_folds": 2, "holdout_fraction": 0.0},
            "noise": {"levels_db": []},
            "timing": {"enabled": False},
            "models": [{"kind": "knn", "params": {"k": 1}}],
        },
        seed=5,
    )
    tracemalloc.start()
    try:
        dataset, _ = _prepare(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset) == 5 * samples_per_class
    return peak


def test_prepare_memory_does_not_grow_with_the_clip_count():
    # two clips per class is the fewest two folds take; 50 clips of 16,000
    # float64 samples alone are 6.4 MB, several times one clip's extraction.
    # The first run fills the extractor's caches (window, filterbanks).
    _prepare_peak_bytes(2)
    small = _prepare_peak_bytes(2)
    large = _prepare_peak_bytes(10)
    assert large < 2 * small, (small, large)


CLIP = GeneratorConfig(duration_s=0.25)


def _wav_corpus(root, n_clips, silent=False):
    """``n_clips`` quarter-second clips of two classes, plus an all-zero one if ``silent``;
    returns (WAV directory, labels CSV)."""
    wav_dir = root / "wavs"
    wav_dir.mkdir()
    rows = [["filename", "label"]]
    for i in range(n_clips):
        clip = generate_sample(i % 2, i, CLIP)
        write_wav(wav_dir / f"c{i}.wav", AudioSignal(clip.samples * 0.3, clip.sample_rate_hz))
        rows.append([f"c{i}.wav", i % 2])
    if silent:
        silence = AudioSignal(np.zeros(CLIP.n_samples), CLIP.sample_rate_hz)
        write_wav(wav_dir / "silent.wav", silence)
        rows.append(["silent.wav", 1])
    labels = root / "labels.csv"
    with open(labels, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return wav_dir, labels


# corpus_sha256 of _wav_corpus(root, 4, silent=True) loaded permissively
# (the four kept clips), as the two-read loader computed it
CORPUS_DIGEST = "b3ad2b399577ad12b6027da1c15957213194a504bd1d4cecc321034ac2e1d47d"


def test_extract_reads_each_listed_file_once_and_extracts_each_kept_clip_once(tmp_path, monkeypatch):
    # the silent clip is read, then skipped: it is never extracted
    wav_dir, labels = _wav_corpus(tmp_path, 4, silent=True)

    reads, extracted = [], []
    real_open, extract_all = io.open, features.extract_all

    def counting_open(file, *args, **kwargs):
        if str(file).endswith(".wav"):
            reads.append(Path(file).name)
        return real_open(file, *args, **kwargs)

    def counting_extract_all(samples, sample_rate_hz):
        extracted.append(len(samples))
        return extract_all(samples, sample_rate_hz)

    monkeypatch.setattr(io, "open", counting_open)  # pathlib's reads
    monkeypatch.setattr(builtins, "open", counting_open)  # wave.open's, given a path
    monkeypatch.setattr(features, "extract_all", counting_extract_all)
    out = tmp_path / "features.csv"
    argv = ["extract", "--wav-dir", str(wav_dir), "--labels", str(labels), "--out", str(out),
            "--permissive"]
    with redirect_stdout(StringIO()), pytest.warns(UserWarning, match="skipped 1 files: silent.wav"):
        assert cli_main(argv) == 0
    assert sorted(reads) == ["c0.wav", "c1.wav", "c2.wav", "c3.wav", "silent.wav"]
    assert extracted == [CLIP.n_samples] * 4
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 4
    # the digest is taken over the bytes that were decoded, and has not moved
    with pytest.warns(UserWarning, match="skipped 1 files"):
        dataset = bench.load_corpus(wav_dir, labels, permissive=True)
    assert dataset.provenance["corpus_sha256"] == CORPUS_DIGEST


@pytest.mark.parametrize("source", ["synthetic", "wav"])
def test_pulling_a_clip_fails_in_data_and_extracting_it_in_features(tmp_path, monkeypatch, source):
    if source == "wav":
        wav_dir, labels = _wav_corpus(tmp_path, 8)
        data = {"source": "wav", "directory": str(wav_dir), "labels_csv": str(labels)}
    else:
        data = {"samples_per_class": 4, "duration_s": CLIP.duration_s}
    cfg = ExperimentConfig.from_dict(
        {"data": data, "cv": {"n_folds": 2, "holdout_fraction": 0.0}, "noise": {"levels_db": []},
         "timing": {"enabled": False}, "models": [{"kind": "knn", "params": {"k": 1}}]},
        seed=5,
    )
    calls = []

    def fails_on_third_clip(make):
        def call(*args, **kwargs):
            calls.append(make.__name__)
            if len(calls) == 3:
                raise ValueError("third clip")
            return make(*args, **kwargs)
        return call

    source_module, source_name = (bench, "read_wav") if source == "wav" else (synth, "generate_sample")
    with monkeypatch.context() as patch:
        patch.setattr(source_module, source_name, fails_on_third_clip(getattr(source_module, source_name)))
        with pytest.raises(PipelineStageError, match=r"^\[data\] third clip"):
            _prepare(cfg)
    calls.clear()
    with monkeypatch.context() as patch:
        patch.setattr(features, "extract_all", fails_on_third_clip(features.extract_all))
        with pytest.raises(PipelineStageError, match=r"^\[features\] third clip"):
            _prepare(cfg)
