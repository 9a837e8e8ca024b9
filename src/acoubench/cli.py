"""Command-line interface.

Subcommands:
  synth    generate a synthetic corpus as WAV files + labels CSV
  extract  extract the 127-feature matrix from a WAV corpus to CSV
  bench    run the full benchmark and write the report bundle
  noise    run only the noise-robustness sweep
  stats    recompute significance tables from saved predictions

Exit status is 0 on success; failures print a stage-tagged message to
stderr and exit 1. Input directories are never modified.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    ExperimentConfig,
    friedman_rows,
    noise_rows,
    run_experiment,
    run_noise_sweep,
    significance_from_predictions,
    significance_rows,
    write_bundle,
    write_csv,
)
from .errors import AcoubenchError, ParameterError, PipelineStageError
from .features import save_feature_csv
from .registry import save_registry_csv
from .synth import FaultClass, GeneratorConfig, generate_clips, generate_dataset
from .wavio import write_wav


def _load_config(args) -> ExperimentConfig:
    if args.config:
        return ExperimentConfig.from_file(args.config, seed=args.seed, output_dir=args.out)
    return ExperimentConfig.from_dict({}, seed=args.seed, output_dir=args.out)


def _cmd_synth(args) -> int:
    cfg = GeneratorConfig(
        samples_per_class=args.samples_per_class,
        duration_s=args.duration,
        sample_rate_hz=args.sample_rate,
        base_seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = generate_dataset(cfg)
    # one gain for the whole corpus: keeps 16-bit samples from clipping
    # while preserving the relative amplitudes between classes. The corpus
    # peak takes a first pass over the clips; the second pass writes them,
    # so no more than one clip is held at a time.
    peak = max(
        float(abs(s.samples).max()) for s in generate_clips(cfg, dataset.labels, dataset.seeds)
    )
    gain = 0.99 / peak if peak > 0.99 else 1.0
    rows = [["filename", "label", "seed"]]
    for i, signal in enumerate(generate_clips(cfg, dataset.labels, dataset.seeds)):
        label = int(dataset.labels[i])
        name = f"{FaultClass(label).name.lower()}_{i % cfg.samples_per_class:04d}.wav"
        write_wav(out / name, signal.replace_samples(signal.samples * gain))
        rows.append([name, label, int(dataset.seeds[i])])
    write_csv(out / "labels.csv", rows)
    print(f"wrote {len(dataset)} WAV files and labels.csv to {out} (gain {gain:.4f})")
    return 0


def _cmd_extract(args) -> int:
    from .bench import load_corpus

    dataset = load_corpus(args.wav_dir, args.labels, permissive=args.permissive)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_feature_csv(out, dataset.features, labels=dataset.labels)
    registry_path = out.with_name("registry.csv")
    save_registry_csv(registry_path)
    print(f"wrote {len(dataset)} feature rows to {out} (registry: {registry_path})")
    return 0


def _cmd_bench(args) -> int:
    cfg = _load_config(args)
    bundle = run_experiment(cfg)
    written = write_bundle(bundle, cfg.output_dir)
    for label, path in sorted(written.items()):
        print(f"{label}: {path}")
    return 0


def _cmd_noise(args) -> int:
    cfg = _load_config(args)
    levels = None
    if args.levels:
        try:
            levels = tuple(float(v) for v in args.levels.split(","))
        except ValueError:
            raise ParameterError(
                f"--levels must be comma-separated numbers, got {args.levels!r}"
            ) from None
    names, conditions, table, _ = run_noise_sweep(cfg, levels_db=levels)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "noise.csv", noise_rows(names, conditions, table))
    print(f"noise: {out / 'noise.csv'}")
    return 0


def _cmd_stats(args) -> int:
    report = significance_from_predictions(args.predictions)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "significance.csv", significance_rows(report))
    write_csv(out / "friedman.csv", friedman_rows(report))
    print(f"stats: {out / 'significance.csv'}, {out / 'friedman.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acoubench",
        description="Benchmark classical classifiers on audio condition-monitoring data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic WAV corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples-per-class", type=int, default=200)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--sample-rate", type=float, default=16000.0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("extract", help="extract features from a WAV corpus")
    p.add_argument("--wav-dir", required=True)
    p.add_argument("--labels", required=True, help="labels CSV (filename,label)")
    p.add_argument("--out", required=True, help="output features CSV path")
    p.add_argument(
        "--permissive",
        action="store_true",
        help="skip missing, silent and too-short clips (mixed sample rates still fail)",
    )
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("bench", help="run the full benchmark")
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("noise", help="run only the noise sweep")
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--levels", help="comma-separated SNR levels in dB, e.g. 40,30,20,10")
    p.set_defaults(func=_cmd_noise)

    p = sub.add_parser("stats", help="significance tables from saved predictions")
    p.add_argument("--predictions", required=True, help="predictions.csv from a bench run")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PipelineStageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1
    except AcoubenchError as exc:
        print(f"error [cli] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
