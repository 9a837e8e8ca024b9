"""One workload process: build the inputs, then issue commands in a closed loop.

``run.py`` starts it from the root of a checkout, with the BLAS pool
already capped in its environment and its standard output going to a
log file. It imports the program from ``src``, writes its inputs under
``--out``, and then runs one CLI command at a time until ``--seconds``
have passed. Each round writes to its own directory so that the runner
can compare them. It reports through ``<out>/result.json``.

With ``--trace 1`` the set-up and every second round run with the
program's public functions wrapped (see ``tracing.py``); the rounds in
between run unwrapped and give the untraced wall time that the tracing
overhead is measured against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import spec
from tracing import Tracer


def _write_wav_corpus(out: Path, seed: int) -> tuple[str, str]:
    from acoubench.audio import AudioSignal
    from acoubench.synth import FaultClass, GeneratorConfig, generate_sample
    from acoubench.wavio import write_wav

    corpus = out / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    clips = spec.extract_corpus(seed)
    signals = []
    for _, cls, clip_seed, duration in clips:
        cfg = GeneratorConfig(
            samples_per_class=spec.EXTRACT_PER_CLASS,
            duration_s=duration,
            sample_rate_hz=spec.SAMPLE_RATE_HZ,
            base_seed=seed,
        )
        signals.append(generate_sample(FaultClass(cls), clip_seed, cfg))
    # one gain for the whole corpus, as `acoubench synth` uses, so 16-bit
    # samples do not clip and the classes keep their relative amplitudes
    peak = max(float(abs(s.samples).max()) for s in signals)
    gain = 0.99 / peak if peak > 0.99 else 1.0
    lines = ["filename,label"]
    for (name, cls, _, _), signal in zip(clips, signals):
        write_wav(corpus / name, AudioSignal(signal.samples * gain, signal.sample_rate_hz))
        lines.append(f"{name},{cls}")
    labels = corpus / "labels.csv"
    labels.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(corpus), str(labels)


def set_up(workload: str, seed: int, out: Path):
    """Write the inputs; returns a function giving the argv of round ``i``."""
    if workload == "extract":
        corpus, labels = _write_wav_corpus(out, seed)
        return lambda i: [
            "extract", "--wav-dir", corpus, "--labels", labels,
            "--out", str(out / "rounds" / f"r{i}" / "features.csv"),
        ]
    config = out / "config.json"
    config.write_text(json.dumps(spec.experiment_config(workload, seed), indent=1), encoding="utf-8")
    return lambda i: [
        workload, "--config", str(config), "--out", str(out / "rounds" / f"r{i}"), "--seed", str(seed),
    ]


def _run_command(cli, argv, tracer):
    """One command; returns (exit code, wall seconds, root span or None)."""
    root = None
    start = time.perf_counter()
    try:
        if tracer is None:
            code = cli.main(argv)
        else:
            tracer.install()
            try:
                code, root = tracer.root("bench.command", cli.main, argv)
            finally:
                tracer.uninstall()
    except Exception:  # a crash is one failed operation, not a failed run
        traceback.print_exc()
        code = None
    return code, time.perf_counter() - start, root


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    sys.path.insert(0, str(Path("src").resolve()))
    from acoubench import cli

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        argv_for, setup_root = tracer.root("setup", set_up, args.workload, args.seed, out)
        tracer.uninstall()
    else:
        argv_for = set_up(args.workload, args.seed, out)
    result = {"ready_monotonic": time.monotonic()}
    if args.setup_only:
        (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
        return 0

    rounds = []
    min_rounds = 2 if tracer is not None else 1
    start = time.perf_counter()
    # start a round only when a typical round still ends inside --seconds
    while len(rounds) < min_rounds or (
        time.perf_counter() - start + statistics.median(r["wall_s"] for r in rounds) <= args.seconds
    ):
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        argv = argv_for(index)
        code, wall, root = _run_command(cli, argv, tracer if traced else None)
        rounds.append(
            {"index": index, "argv": argv, "exit": code, "wall_s": wall, "traced": traced, "root": root}
        )
    result["rounds"] = rounds

    if tracer is not None:
        roster_fits = len(spec.ROSTER_KINDS) * (spec.N_FOLDS + 1) if args.workload == "bench" else 0
        spans = {"setup": tracer.spans_under(setup_root)}
        tables = []
        for entry in rounds:
            if entry["root"] is not None:
                tables.append(dict(tracer.layer_table(entry["root"], roster_fits), round=entry["index"]))
                spans[f"r{entry['index']}"] = tracer.spans_under(entry["root"])
        result["layer_tables"] = tables
        result["setup_table"] = tracer.layer_table(setup_root, 0)
        result["untraced_wall_s"] = statistics.median(e["wall_s"] for e in rounds if not e["traced"])
        (out / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
