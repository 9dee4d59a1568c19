"""Command-line surface: dataset synthesis, training, evaluation, gradient
checking, tuple combinatorics, ablation sweeps, and attention-grid export.

Every command with an output directory writes a run manifest (resolved flags,
seeds, output paths) before computing anything. Exit codes: 0 success,
2 usage/config error, 3 I/O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .diffcore import NumericalError, ShapeError
from .enrichment import ple_patch_diagnostics
from .episodes import (ClipFormatError, Dataset, EpisodeSpec, SyntheticSpec,
                       filter_labels, generate_synthetic, load_clip,
                       load_dataset, sample_episode, save_clip, write_atomic, write_manifest)
from .matching import tuple_count
from .model import ModelConfig, build_params, infer_config, params_from_arrays
from .training import (CheckpointFormatError, TrainConfig, evaluate,
                       gradcheck_model, format_metrics, load_checkpoint,
                       run_ablation, save_checkpoint, train)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

_GRADCHECK_PARAM_CAP = 100_000


def _write_run_manifest(outdir: Path, command: str, args: argparse.Namespace,
                        outputs: dict[str, str]) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    payload = {
        "command": command,
        "created": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "resolved": resolved,
        "outputs": outputs,
    }
    write_atomic(outdir / "run_manifest.json",
                 (json.dumps(payload, indent=2, default=str) + "\n").encode("utf-8"))


def _parse_omegas(text: str) -> tuple[int, ...]:
    try:
        omegas = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"bad --omega value {text!r}, expected e.g. 2 or 2,3") from exc
    if not omegas:
        raise ValueError(f"bad --omega value {text!r}")
    return omegas


def _parse_labels(text: str, flag: str) -> list[int]:
    """Parse the label filter given to `flag`, like `0-9` or `3,5,7`."""
    labels: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if "-" in part:
                lo, hi = (int(end) for end in part.split("-"))
                if lo > hi:
                    raise ValueError(f"reversed range {part}")
                labels.extend(range(lo, hi + 1))
            elif part:
                labels.append(int(part))
    except ValueError:
        labels = []
    if not labels:
        raise ValueError(f"bad {flag} value {text!r}, expected e.g. 0-9 or 3,5,7")
    return labels


def _load_filtered(path: str, labels_text: str | None, flag: str) -> Dataset:
    """The dataset at `path` (a manifest or its directory), restricted to the
    labels given to `flag` when there are any."""
    manifest = Path(path)
    if manifest.is_dir():
        manifest = manifest / "manifest.tsv"
    if not manifest.exists():
        raise FileNotFoundError(f"dataset manifest not found: {manifest}")
    dataset = load_dataset(manifest)
    if labels_text is None:
        return dataset
    return filter_labels(dataset, _parse_labels(labels_text, flag))


def _episode_spec(args, seed: int) -> EpisodeSpec:
    return EpisodeSpec(ways=args.ways, shots=args.shots,
                       queries_per_class=args.queries, seed=seed)


def _model_config(args, frames: int, patches: int, channels: int, **rest) -> ModelConfig:
    """The model config from the data extents, the model flags every
    model-building command shares (--refine-hidden, --embed-dim, --code-dim,
    --omega, --lambda, --seed) and `rest`, further ModelConfig fields."""
    return ModelConfig(frames=frames, patches=patches, channels=channels,
                       refine_hidden=args.refine_hidden, embed_dim=args.embed_dim,
                       code_dim=args.code_dim, omegas=_parse_omegas(args.omega),
                       qc_weight=args.qc_weight, seed=args.seed, **rest)


def _train_inputs(args, eval_every: int, eval_episodes: int):
    """What train and ablate both start from: the training dataset, the eval
    dataset (--eval-data, else --data, filtered by --eval-labels), and the
    model config, train config and episode spec."""
    dataset = _load_filtered(args.data, args.labels, "--labels")
    eval_dataset = (_load_filtered(args.eval_data or args.data, args.eval_labels,
                                   "--eval-labels")
                    if args.eval_data or args.eval_labels else dataset)
    config = _model_config(args, dataset.frames, dataset.patches, dataset.channels,
                           use_ple=not args.no_ple, use_fle=not args.no_fle,
                           use_qc=not args.no_qc, tuple_keep_ratio=args.keep_ratio,
                           tuple_seed=args.tuple_seed)
    train_config = TrainConfig(episodes=args.episodes, learning_rate=args.lr,
                               accumulate_every=args.accumulate_every,
                               eval_every=eval_every, eval_episodes=eval_episodes)
    return dataset, eval_dataset, config, train_config, _episode_spec(args, args.seed)


# -- synth ---------------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = SyntheticSpec(
        num_classes=args.classes,
        clips_per_class=args.clips,
        frames=args.frames,
        patches=args.patches * args.patches,
        channels=args.dim,
        motif_strength=args.motif_strength,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    outdir = Path(args.out)
    _write_run_manifest(outdir, "synth", args, {
        "manifest": "manifest.tsv", "clips": "clips/"})
    dataset = generate_synthetic(spec)
    clip_dir = outdir / "clips"
    clip_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for record in dataset.clips:
        rel = f"clips/{record.clip_id}.stfb"
        save_clip(record, outdir / rel)
        rows.append((rel, record.label))
    write_manifest(rows, outdir / "manifest.tsv")
    print(f"wrote {len(rows)} clips under {outdir}")
    return EXIT_OK


# -- train / eval ----------------------------------------------------------------


def cmd_train(args) -> int:
    dataset, eval_dataset, config, train_config, spec = _train_inputs(
        args, args.eval_every, args.eval_episodes)
    outdir = Path(args.out)
    _write_run_manifest(outdir, "train", args, {
        "checkpoint": "checkpoint.stck", "metrics": "metrics.tsv"})

    def progress(row):
        print(f"episode {row.episode}: accuracy {row.accuracy:.4f} "
              f"(+/-{row.ci95:.4f}), loss_tm {row.loss_tm:.4f}, "
              f"loss_qc {row.loss_qc:.4f}")

    params, metrics = train(dataset, config, train_config, spec,
                            eval_dataset=eval_dataset, progress=progress)
    save_checkpoint(params, outdir / "checkpoint.stck")
    write_atomic(outdir / "metrics.tsv", format_metrics(metrics).encode("utf-8"))
    print(f"checkpoint: {outdir / 'checkpoint.stck'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    dataset = _load_filtered(args.data, args.labels, "--labels")
    params = params_from_arrays(load_checkpoint(args.checkpoint))
    config = infer_config(params, frames=dataset.frames, patches=dataset.patches,
                          channels=dataset.channels, tuple_keep_ratio=args.keep_ratio,
                          tuple_seed=args.tuple_seed)
    if args.out:
        _write_run_manifest(Path(args.out), "eval", args, {"report": "report.json"})
    report = evaluate(dataset, params, config, _episode_spec(args, args.seed),
                      args.episodes)
    print(f"accuracy {report.accuracy:.4f} +/- {report.ci95_halfwidth:.4f} "
          f"over {report.episodes} episodes")
    for label, acc in report.per_class_accuracy:
        print(f"  class {label}: {acc:.4f}")
    if args.out:
        write_atomic(Path(args.out) / "report.json", (json.dumps(
            dataclasses.asdict(report), indent=2) + "\n").encode("utf-8"))
    return EXIT_OK


# -- gradcheck -------------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    config = _model_config(args, args.frames, args.patches * args.patches, args.dim,
                           use_qc=args.qc_weight > 0.0)
    params = build_params(config)
    total = sum(p.value.size for p in params.all())
    if total > _GRADCHECK_PARAM_CAP:
        raise ValueError(
            f"gradcheck cap exceeded: {total} parameters > {_GRADCHECK_PARAM_CAP}")
    # strong motifs keep ReLU pre-activations clear of the probe step
    synth = SyntheticSpec(num_classes=max(args.ways, 2), clips_per_class=args.shots + 1,
                          frames=args.frames, patches=args.patches * args.patches,
                          channels=args.dim, motif_strength=1.0, seed=args.seed)
    dataset = generate_synthetic(synth)
    spec = EpisodeSpec(ways=args.ways, shots=args.shots, queries_per_class=1,
                       seed=args.seed)
    episode = sample_episode(dataset, spec, 0)
    if args.out:
        _write_run_manifest(Path(args.out), "gradcheck", args, {"table": "gradcheck.tsv"})
    rows = gradcheck_model(config, episode, step=args.step,
                           threshold=args.threshold, params=params)
    width = max(len(r.name) for r in rows)
    print(f"{'parameter':<{width}}  max_rel_error  status")
    for r in rows:
        print(f"{r.name:<{width}}  {r.max_rel_error:13.3e}  "
              f"{'pass' if r.passed else 'FAIL'}")
    failed = [r for r in rows if not r.passed]
    print(f"{len(rows) - len(failed)}/{len(rows)} parameters pass "
          f"(threshold {args.threshold:g})")
    if args.out:
        write_atomic(Path(args.out) / "gradcheck.tsv", "".join(
            f"{r.name}\t{r.max_rel_error:.17g}\t"
            f"{'pass' if r.passed else 'fail'}\n" for r in rows).encode("utf-8"))
    return EXIT_NUMERIC if failed else EXIT_OK


# -- tuples ----------------------------------------------------------------------


def cmd_tuples(args) -> int:
    omegas = _parse_omegas(args.omega)
    counts = {omega: tuple_count(args.frames, omega) for omega in omegas}
    for omega, count in counts.items():
        print(f"cardinality {omega}: {count}")
    print(f"total: {sum(counts.values())}")
    return EXIT_OK


# -- ablate ----------------------------------------------------------------------


def cmd_ablate(args) -> int:
    dataset, eval_dataset, config, train_config, spec = _train_inputs(
        args, max(args.episodes, 1), 1)
    outdir = Path(args.out)
    _write_run_manifest(outdir, "ablate", args, {"table": "ablation.tsv"})

    def progress(name, report):
        print(f"{name}: accuracy {report.accuracy:.4f} "
              f"+/- {report.ci95_halfwidth:.4f}")

    results = run_ablation(dataset, eval_dataset, config, train_config, spec,
                           _episode_spec(args, args.eval_seed), args.eval_episodes,
                           progress=progress)
    lines = "".join(f"{name}\t{report.accuracy:.17g}\t"
                    f"{report.ci95_halfwidth:.17g}\n"
                    for name, report, _ in results)
    write_atomic(outdir / "ablation.tsv", lines.encode("utf-8"))
    for name, report, variant_params in results:
        save_checkpoint(variant_params, outdir / f"checkpoint_{name.strip('+')}.stck")
    return EXIT_OK


# -- attention export --------------------------------------------------------------


def _write_csv(path: Path, rows: np.ndarray) -> None:
    text = "\n".join(",".join(f"{v:.17g}" for v in row) for row in rows)
    write_atomic(path, (text + "\n").encode("utf-8"))


def _write_pgm(path: Path, grid: np.ndarray) -> None:
    side = grid.shape[0]
    header = f"P5\n{side} {side}\n255\n".encode("ascii")
    write_atomic(path, [header, grid.astype(np.uint8)])


def cmd_attn_export(args) -> int:
    arrays = load_checkpoint(args.checkpoint)
    params = params_from_arrays(arrays)
    record = load_clip(args.clip)
    clip = record.features
    side = math.isqrt(clip.patches)
    if side * side != clip.patches:
        raise ValueError(f"clip has {clip.patches} patches, not a square grid")
    if params.ple is not None and params.ple.channels != clip.channels:
        raise ShapeError(
            f"extent mismatch: checkpoint channels {params.ple.channels} vs "
            f"clip channels {clip.channels}")
    outdir = Path(args.out)
    _write_run_manifest(outdir, "attn-export", args, {
        "norms_csv": "frame_*.csv", "pgm": "frame_*.pgm",
        "scores_csv": "scores_*.csv"})
    all_scores, all_norms = ple_patch_diagnostics(clip.payload, params.ple)
    for i, scores in enumerate(all_scores):
        _write_csv(outdir / f"scores_{i:02d}.csv", scores)
    lo = float(all_norms.min())
    hi = float(all_norms.max())
    for i, norms in enumerate(all_norms):
        grid = norms.reshape(side, side)
        _write_csv(outdir / f"frame_{i:02d}.csv", grid)
        if hi - lo > 0.0:
            scaled = np.rint((grid - lo) / (hi - lo) * 255.0)
        else:
            scaled = np.full_like(grid, 128.0)
        _write_pgm(outdir / f"frame_{i:02d}.pgm", scaled)
    print(f"wrote {clip.frames} frame grids under {outdir}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--refine-hidden", type=int, default=32,
                   help="width of the patch refiner's hidden layers")
    p.add_argument("--embed-dim", type=int, default=64,
                   help="tuple key/value embedding width")
    p.add_argument("--code-dim", type=int, default=64,
                   help="tuple code width for the similarity head")
    p.add_argument("--omega", default="2",
                   help="tuple cardinalities, comma separated (default 2)")
    p.add_argument("--lambda", dest="qc_weight", type=float, default=0.1,
                   help="weight of the similarity-head loss term")
    p.add_argument("--no-ple", action="store_true", help="disable patch enrichment")
    p.add_argument("--no-fle", action="store_true", help="disable frame enrichment")
    p.add_argument("--no-qc", action="store_true", help="disable the similarity head")
    p.add_argument("--keep-ratio", type=float, default=1.0,
                   help="fraction of tuples retained per cardinality")
    p.add_argument("--tuple-seed", type=int, default=0,
                   help="seed for the tuple subsampling order")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True)
    p.add_argument("--labels", default=None, help="restrict classes, e.g. 0-9")


def _add_episode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ways", type=int, default=5)
    p.add_argument("--shots", type=int, default=5)
    p.add_argument("--queries", type=int, default=1,
                   help="queries per sampled class per episode")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """Everything train and ablate share: data and eval split, output
    directory, seed, model, optimizer and episode layout."""
    _add_data_flags(p)
    p.add_argument("--eval-data", default=None,
                   help="dataset to evaluate on (default: --data)")
    p.add_argument("--eval-labels", default=None,
                   help="restrict eval classes, e.g. 10-14")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_model_flags(p)
    p.add_argument("--episodes", type=int, default=2000)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--accumulate-every", type=int, default=1,
                   help="episodes per optimizer step (gradients are averaged)")
    _add_episode_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strm",
        description="Few-shot action recognition engine over pre-extracted "
                    "patch features, with temporal tuple matching.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic order-sensitive dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=15)
    p.add_argument("--clips", type=int, default=20)
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--patches", type=int, default=2,
                   help="patch grid side P; clips carry P^2 patches per frame")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--motif-strength", type=float, default=0.1)
    p.add_argument("--noise-sigma", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="episodic training on a dataset")
    _add_train_flags(p)
    p.add_argument("--eval-every", type=int, default=250)
    p.add_argument("--eval-episodes", type=int, default=200)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--episodes", type=int, default=1000)
    _add_episode_flags(p)
    p.add_argument("--keep-ratio", type=float, default=1.0,
                   help="must match the value used at training time")
    p.add_argument("--tuple-seed", type=int, default=0,
                   help="must match the value used at training time")
    p.add_argument("--seed", type=int, default=12345)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="verify tape gradients against finite differences")
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--patches", type=int, default=2)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--refine-hidden", type=int, default=8)
    p.add_argument("--embed-dim", type=int, default=12)
    p.add_argument("--code-dim", type=int, default=6)
    p.add_argument("--omega", default="2")
    p.add_argument("--lambda", dest="qc_weight", type=float, default=0.1)
    p.add_argument("--ways", type=int, default=2)
    p.add_argument("--shots", type=int, default=1)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--threshold", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("tuples", help="tuple counts per cardinality")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--omega", required=True)
    p.set_defaults(func=cmd_tuples)

    p = sub.add_parser("ablate", help="train and score every toggle variant")
    _add_train_flags(p)
    p.add_argument("--eval-episodes", type=int, default=1000)
    p.add_argument("--eval-seed", type=int, default=777)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("attn-export",
                       help="export per-frame patch activation grids")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--clip", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attn_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    env_seed = os.environ.get("STRM_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"strm: bad STRM_SEED value {env_seed!r}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except (ClipFormatError, CheckpointFormatError, OSError) as exc:
        print(f"strm: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"strm: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, IndexError) as exc:
        print(f"strm: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
