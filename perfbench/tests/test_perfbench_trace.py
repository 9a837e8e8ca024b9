"""The tracer: transparent to the program, self times add up, and it uninstalls."""

from __future__ import annotations

import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import tracing  # noqa: E402
from acoubench import audio, bench, cli, dsp, wavio  # noqa: E402
from acoubench.models.base import Classifier  # noqa: E402


def _main(argv):
    with redirect_stdout(StringIO()):
        return cli.main([str(a) for a in argv])


def test_traced_extract_matches_untraced_and_closes(tmp_path):
    originals = (wavio.read_wav, bench.read_wav, bench._PREPROCESS["rms"], dsp.stft, Classifier.fit)
    corpus = tmp_path / "corpus"
    assert _main(["synth", "--out", corpus, "--seed", 3, "--samples-per-class", 2, "--duration", 0.3]) == 0
    args = ["extract", "--wav-dir", corpus, "--labels", corpus / "labels.csv", "--out"]
    assert _main(args + [tmp_path / "plain" / "features.csv"]) == 0

    tracer = tracing.Tracer()
    tracer.install()
    assert bench.read_wav is not originals[1] and bench._PREPROCESS["rms"] is not originals[2]
    try:
        code, root = tracer.root("bench.command", _main, args + [tmp_path / "traced" / "features.csv"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (wavio.read_wav, bench.read_wav, bench._PREPROCESS["rms"], dsp.stft, Classifier.fit) == originals
    assert audio.normalize_rms is originals[2]

    plain = (tmp_path / "plain" / "features.csv").read_bytes()
    assert (tmp_path / "traced" / "features.csv").read_bytes() == plain

    table = tracer.layer_table(root, roster_fits=0)
    assert abs(tracing.closure_error(table)) < 1e-6
    assert table["features.signals"] == 10
    assert table["wavio.read_bytes"] == sum(p.stat().st_size for p in corpus.glob("*.wav"))
    assert table["dsp.fft_calls"] > 0 and table["dsp.fft_s"] > 0
    assert table["models.self_s"] == 0
