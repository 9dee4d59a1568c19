"""Acceptance 06's five-variant ablation over model seeds and BLAS thread counts.

Prints a TSV with one row per cell (BLAS threads, model seed, variant):
- the accuracy over the eval episodes;
- the largest global gradient norm an SGD step saw, and its episode (from 1);
- how many steps the norm guard (training.MAX_GRAD_NORM) scaled;
- the mean joint loss over the last 100 training episodes.

Each seed runs training.run_ablation once: each variant trains acceptance
06's desk model (5-way 5-shot, lr 0.1, episode seed 0) with its stages on
labels 0-9 of SyntheticSpec(seed=1), then is evaluated on labels 10-14 at
eval seed 777.

    python tools/ablation_table.py                        # seeds 0-4, threads 1 and 2
    python tools/ablation_table.py --seeds 0 --threads 2  # one row of acceptance 07
    python tools/ablation_table.py --episodes 20 --eval-episodes 10   # a quick look

OPENBLAS_NUM_THREADS must be set before numpy loads, so each thread count
runs in its own subprocess, one after the other.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from strm import training  # noqa: E402
from strm.episodes import (EpisodeSpec, SyntheticSpec, filter_labels,  # noqa: E402
                           generate_synthetic)
from strm.model import ModelConfig  # noqa: E402

LEARNING_RATE = 0.1  # acceptance 06's
TRAIN_SPEC = EpisodeSpec(ways=5, shots=5, queries_per_class=1, seed=0)
EVAL_SPEC = EpisodeSpec(ways=5, shots=5, queries_per_class=1, seed=777)
LAST = 100  # episodes in the closing loss mean
HEADER = ("threads", "seed", "variant", "accuracy", "max_grad_norm", "max_norm_episode",
          "scaled_steps", "last100_loss")


def ablate(task, config: ModelConfig, episodes: int, eval_episodes: int, emit) -> None:
    """Run training.run_ablation from `config` with its SGD steps and forward
    passes logged, calling emit(variant, cell) as each variant closes; a cell
    is (accuracy, max norm, its episode, scaled steps, closing loss)."""
    train_ds, test_ds = task
    norms, losses = [], []
    sgd_step, forward_episode = training.sgd_step, training.forward_episode

    def logged_step(*args, **kwargs):
        norms.append(sgd_step(*args, **kwargs))
        return norms[-1]

    def logged_forward(*args, **kwargs):
        result = forward_episode(*args, **kwargs)
        losses.append(result.loss.item())
        return result

    def close(name, report):
        peak = max(range(len(norms)), key=norms.__getitem__)
        closing = losses[-LAST:]
        emit(name, (report.accuracy, norms[peak], peak + 1,
                    sum(norm > training.MAX_GRAD_NORM for norm in norms),
                    sum(closing) / len(closing)))
        norms.clear()
        losses.clear()

    training.sgd_step, training.forward_episode = logged_step, logged_forward
    try:
        training.run_ablation(
            train_ds, test_ds, config,
            training.TrainConfig(episodes=episodes, learning_rate=LEARNING_RATE,
                                 eval_every=episodes, eval_episodes=10),
            TRAIN_SPEC, EVAL_SPEC, eval_episodes, progress=close)
    finally:
        training.sgd_step, training.forward_episode = sgd_step, forward_episode


def sweep(threads: int, seeds: list[int], episodes: int, eval_episodes: int) -> None:
    """Print the row of every model seed and ablation variant; `threads` is
    this process's OPENBLAS_NUM_THREADS."""
    dataset = generate_synthetic(SyntheticSpec(seed=1))
    task = (filter_labels(dataset, range(10)), filter_labels(dataset, range(10, 15)))
    for seed in seeds:
        ablate(task, ModelConfig(seed=seed), episodes, eval_episodes,
               lambda name, values: print(format_row(threads, seed, name, values),
                                          flush=True))


def format_row(threads, seed, name, values) -> str:
    accuracy, norm, episode, scaled, loss = values
    return "\t".join((str(threads), str(seed), name, f"{accuracy:.4f}", f"{norm:.4g}",
                      str(episode), str(scaled), f"{loss:.4g}"))


def int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int_list, default=[0, 1, 2, 3, 4],
                        help="model seeds, comma separated (default 0,1,2,3,4)")
    parser.add_argument("--threads", type=int_list, default=[1, 2],
                        help="OPENBLAS_NUM_THREADS values, comma separated (default 1,2)")
    parser.add_argument("--episodes", type=int, default=2000,
                        help="training episodes per cell (default 2000)")
    parser.add_argument("--eval-episodes", type=int, default=1000,
                        help="eval episodes per cell (default 1000)")
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.episodes < 1 or args.eval_episodes < 1:
        parser.error("--episodes and --eval-episodes must be positive")
    if args.worker is not None:
        sweep(args.worker, args.seeds, args.episodes, args.eval_episodes)
        return 0
    print("\t".join(HEADER), flush=True)
    for threads in args.threads:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        subprocess.run([sys.executable, __file__, "--worker", str(threads),
                        "--seeds", ",".join(map(str, args.seeds)),
                        "--episodes", str(args.episodes),
                        "--eval-episodes", str(args.eval_episodes)], env=env, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
