"""Bit fingerprints of training and evaluation, one sha256 per sweep row.

Prints a TSV: BLAS threads, config, stages and a sha256. Each row trains a
fresh desk model (5-way 5-shot, L=8, P2=4, D=64) on seeded synthetic
episodes with an SGD step after each, and hashes every episode's loss,
matching and similarity logits and every parameter's gradient. It then
hashes the `evaluate` and `mean_pool_baseline` reports and, with PLE on, the
PLE patch diagnostics of one clip. Two trees that print the same table
compute the same bits on the machine and BLAS build that ran them.

    python tools/bitprint.py                # 20 episodes per row
    python tools/bitprint.py --episodes 4   # a quicker sweep

The configs are omega=2, omega={2,3}, keep-ratio 0.2 and "loaded": omega=2
on the clip set written under clips/ by save_dataset and loaded back with
load_dataset, so that its float32 payloads are read from the files each
episode. The stages are all on, all off and PLE+QC. OPENBLAS_NUM_THREADS
must be set before numpy loads, so each thread count runs in its own
subprocess.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from strm.diffcore import Tape  # noqa: E402
from strm.enrichment import ple_patch_diagnostics  # noqa: E402
from strm.episodes import (EpisodeSpec, SyntheticSpec, generate_synthetic,  # noqa: E402
                           load_dataset, sample_episode, save_dataset)
from strm.model import ModelConfig, build_params, forward_episode  # noqa: E402
from strm.training import TrainConfig, evaluate, mean_pool_baseline, sgd_step  # noqa: E402

THREADS = (1, 2)
CONFIGS = {
    "omega2": dict(omegas=(2,)),
    "omega23": dict(omegas=(2, 3)),
    "keep0.2": dict(omegas=(2,), tuple_keep_ratio=0.2, tuple_seed=1),
    "loaded": dict(omegas=(2,)),
}
STAGES = {
    "all-on": dict(use_ple=True, use_fle=True, use_qc=True),
    "all-off": dict(use_ple=False, use_fle=False, use_qc=False),
    "ple+qc": dict(use_ple=True, use_fle=False, use_qc=True),
}
LEARNING_RATE = TrainConfig.learning_rate  # strm train's default
TRAIN_SPEC = EpisodeSpec(ways=5, shots=5, queries_per_class=1, seed=0)
EVAL_SPEC = EpisodeSpec(ways=5, shots=5, queries_per_class=1, seed=1)


def row_digest(config: ModelConfig, dataset, episodes: int) -> str:
    h = hashlib.sha256()
    params = build_params(config)
    plist = params.all()
    for counter in range(episodes):
        tape = Tape()
        result = forward_episode(tape, sample_episode(dataset, TRAIN_SPEC, counter),
                                 params, config)
        tape.backward(result.loss, plist)
        h.update(result.loss.data.tobytes())
        h.update(result.trm_logits.tobytes())
        if result.qc_logits is not None:
            h.update(result.qc_logits.tobytes())
        for p in plist:
            h.update(p.grad.tobytes())
        sgd_step(plist, LEARNING_RATE)
    for report in (evaluate(dataset, params, config, EVAL_SPEC, episodes),
                   mean_pool_baseline(dataset, EVAL_SPEC, episodes)):
        h.update(repr(report).encode())
    if params.ple is not None:
        for array in ple_patch_diagnostics(dataset.clips[0].features.payload, params.ple):
            h.update(array.tobytes())
    return h.hexdigest()


def sweep(episodes: int) -> list[tuple[str, str, str]]:
    """(config, stages, sha256) for every row, at this process's BLAS threads."""
    dataset = generate_synthetic(SyntheticSpec(num_classes=6, clips_per_class=10, seed=0))
    with tempfile.TemporaryDirectory() as root:
        datasets = dict.fromkeys(CONFIGS, dataset)
        datasets["loaded"] = load_dataset(save_dataset(dataset, root))
        return [(config, stages, row_digest(ModelConfig(seed=0, **CONFIGS[config],
                                                        **STAGES[stages]),
                                            datasets[config], episodes))
                for config in CONFIGS for stages in STAGES]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--episodes", type=int, default=20,
                        help="training and evaluation episodes per row (default 20)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.episodes < 1:
        parser.error(f"--episodes must be positive, got {args.episodes}")
    if args.worker:
        for row in sweep(args.episodes):
            print("\t".join(row))
        return 0
    print("threads\tconfig\tstages\tsha256")
    for threads in THREADS:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        rows = subprocess.run(
            [sys.executable, __file__, "--worker", "--episodes", str(args.episodes)],
            env=env, check=True, capture_output=True, text=True).stdout
        for line in rows.splitlines():
            print(f"{threads}\t{line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
