"""The benchmark's workload process still builds its inputs with the program.

``perfbench/workload.py`` writes each workload's inputs through the
program's own functions before its first round: the WAV corpus of
``extract`` and the JSON config of ``bench``. A renamed function or a
changed signature there fails the benchmark, not a round, so both
set-ups run here, loaded by path as the benchmark's runner loads them.
"""

import importlib.util
from pathlib import Path

import pytest

from acoubench.bench import ExperimentConfig, load_corpus
from acoubench.cli import build_parser
from acoubench.registry import FEATURE_COUNT

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 201


@pytest.fixture
def workload(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # it imports spec and tracing by name
    spec = importlib.util.spec_from_file_location("perfbench_workload", PERFBENCH / "workload.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_extract_set_up_writes_a_corpus_that_loads(workload, tmp_path):
    argv = workload.set_up("extract", SEED, tmp_path)(0)
    args = build_parser().parse_args(argv)
    dataset = load_corpus(args.wav_dir, args.labels)
    clips = workload.spec.extract_corpus(SEED)
    assert len(dataset) == len(clips)
    assert dataset.filenames == [name for name, _, _, _ in clips]
    assert dataset.features.shape == (len(clips), FEATURE_COUNT)
    assert dataset.labels.tolist() == [cls for _, cls, _, _ in clips]


def test_bench_set_up_writes_a_config_that_builds(workload, tmp_path):
    out = tmp_path / "bench"
    out.mkdir()  # the workload's main makes it before the set-up
    argv = workload.set_up("bench", SEED, out)(0)
    args = build_parser().parse_args(argv)
    cfg = ExperimentConfig.from_file(args.config, seed=args.seed)
    assert cfg.seed == SEED
    assert cfg.model_names() == list(workload.spec.ROSTER_KINDS)
