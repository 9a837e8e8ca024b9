"""acoubench benchmark: run one workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {bench,extract} --seed N \
        --seconds S --trace {0,1}

The program is measured from outside. Each run starts the workload in
fresh processes (``workload.py``) with numpy's BLAS pool capped at the
number of usable cores. With ``--trace 0`` the last line of standard
output holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run. Either way the outputs of every
round are checked (``checks.py``) and ``correct`` says whether they
passed. Everything a run writes goes under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402

# set-ups per run whose median is setup_s: one in the workload process and
# three set-up-only processes on either side of it, so that a short slow
# spell of the host moves few of them
SETUP_SAMPLES = 7
# a run must end well inside the 180 s a run is allowed
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "audio_s_per_s": "s/s",
}
PER_LAYER_UNITS = {
    "wavio.read_bytes": "bytes",
    "synth.add_noise_calls": "count",
    "dsp.fft_calls": "count",
    "dsp.fft_points": "count",
    "dsp.fft_flops_computed": "flop",
    "features.signals": "count",
    "features.ms_per_signal": "ms",
    "models.fit_calls_per_roster_fit": "1",
    "models.svm.smo_sweeps": "count",
    "models.svm.unconverged": "count",
    "models.gbt.final_loss": "1",
    "models.mlp.final_loss": "1",
    "robustness_index_mean": "1",
}


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name.endswith(("_calls", "_rows")):
        return "count"
    return "s"


class RunError(Exception):
    pass


def _spawn(args, out: Path, deadline: float, setup_only: bool):
    """Run one workload process; returns (setup seconds, peak RSS in MB, result)."""
    out.mkdir(parents=True, exist_ok=True)
    argv = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ]
    if setup_only:
        argv.append("--setup-only")
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    with open(out / "process.log", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        # wait4 gives this child's own peak RSS; poll it so a hung child can be killed
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise RunError(f"workload process passed the {DEADLINE_S:.0f} s deadline")
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (out / "process.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RunError(f"workload process exited with {proc.returncode}:\n{tail}")
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    return result["ready_monotonic"] - spawned, usage.ru_maxrss / 1024.0, result


def _check_round(workload: str, seed: int, round_dir: Path, run_dir: Path) -> tuple[list, float]:
    """Failures of one round's outputs, and its mean robustness index."""
    names = list(spec.ROSTER_KINDS)
    if workload == "extract":
        corpus = run_dir / "corpus"
        return checks.check_extract(round_dir / "features.csv", corpus, corpus / "labels.csv"), 0.0
    per_class, _ = spec.CORPUS["bench"]
    failures = checks.check_bench(
        round_dir, names, seed, per_class, spec.N_CLASSES, spec.N_FOLDS,
        spec.holdout_count("bench"), spec.NOISE_LEVELS_DB,
    )
    _, index_mean = checks.check_noise_csv(round_dir / "noise.csv", names, spec.NOISE_LEVELS_DB)
    return failures, index_mean


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "acoubench" / "__init__.py").is_file():
        raise RunError("no src/acoubench here: run from the root of an acoubench checkout")
    out = root / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    deadline = time.monotonic() + DEADLINE_S

    setups = []

    def sample_setups(indices):
        for i in indices:
            setup_s, _, _ = _spawn(args, out / f"setup{i}", deadline, setup_only=True)
            setups.append(setup_s)
            shutil.rmtree(out / f"setup{i}")

    before = (SETUP_SAMPLES - 1) // 2
    if not args.trace:
        sample_setups(range(before))
    run_dir = out / "run"
    setup_s, peak_rss_mb, result = _spawn(args, run_dir, deadline, setup_only=False)
    setups.append(setup_s)
    if not args.trace:
        sample_setups(range(before, SETUP_SAMPLES - 1))

    rounds = result["rounds"]
    ok = [r for r in rounds if r["exit"] == 0]
    if not ok:
        raise RunError(f"no command succeeded; see {run_dir / 'process.log'}")
    round_dirs = [run_dir / "rounds" / f"r{r['index']}" for r in ok]
    failures, index_mean = _check_round(args.workload, args.seed, round_dirs[0], run_dir)
    failures += checks.compare_rounds(round_dirs)

    if failures:
        print(f"outputs kept for inspection in {out}")
    else:  # keep the first and the last round only
        for round_dir in round_dirs[1:-1]:
            shutil.rmtree(round_dir)

    if args.trace:
        tables = result["layer_tables"]
        if not tables:
            failures.append("no traced round succeeded")
        for table in tables:
            error = tracing.closure_error(table)
            if abs(error) > 1e-6:
                failures.append(f"round {table['round']}: layer self times miss the traced wall by {error:.3g} s")
        names = [k for k in tables[0] if k not in ("round", "trace.wall_s")] if tables else []
        metrics = {name: statistics.median(t[name] for t in tables) for name in names}
        # the extract workload synthesises its corpus in set-up
        metrics["synth.generate_s"] = metrics.get("synth.generate_s", 0.0) + result["setup_table"]["synth.generate_s"]
        traced_wall = statistics.median(r["wall_s"] for r in rounds if r["traced"])
        metrics["trace.overhead_s"] = traced_wall - result["untraced_wall_s"]
        metrics["robustness_index_mean"] = index_mean
        report = {name: {"value": value, "unit": per_layer_unit(name)} for name, value in sorted(metrics.items())}
        layers = {"traced_wall_s": traced_wall, "untraced_wall_s": result["untraced_wall_s"],
                  "tables": tables, "setup_table": result["setup_table"]}
        (out / "layers.json").write_text(json.dumps(layers, indent=1), encoding="utf-8")
    else:
        wall_s = statistics.median(r["wall_s"] for r in ok)
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "audio_s_per_s": spec.audio_seconds_per_round(args.workload, args.seed) / wall_s,
        }
        report = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    for failure in failures:
        print(f"check failed: {failure}")
    return {
        "correct": not failures,
        "attempted": len(rounds),
        "failed": len(rounds) - len(ok),
        "metrics": report,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        report = run(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
