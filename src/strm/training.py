"""Episodic training and evaluation: SGD with windowed gradient accumulation,
deterministic metric logs, binary checkpoints, a whole-model gradient check,
and the ablation runner."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import model
from .diffcore import (NumericalError, Param, Tape, Tensor, finite_diff_gradients,
                       zero_grads)
from .episodes import (ClipRecord, Dataset, Episode, EpisodeSpec, sample_episode,
                       write_atomic)
from .model import ModelConfig, ModelParams, build_params, forward_episode

__all__ = [
    "TrainConfig",
    "EvalReport",
    "CheckpointFormatError",
    "sgd_step",
    "train",
    "evaluate",
    "mean_pool_baseline",
    "save_checkpoint",
    "load_checkpoint",
    "write_atomic",
    "format_metrics",
    "gradcheck_model",
    "GradCheckRow",
    "ABLATION_VARIANTS",
    "run_ablation",
]

CHECKPOINT_MAGIC = b"STCK"
CHECKPOINT_VERSION = 1

# Offset between the training episode stream and the in-training eval stream.
_EVAL_SEED_OFFSET = 1_000_003


class CheckpointFormatError(ValueError):
    """Malformed checkpoint file."""


@dataclass
class TrainConfig:
    episodes: int = 2000
    learning_rate: float = 0.1
    accumulate_every: int = 1
    eval_every: int = 250
    eval_episodes: int = 200

    def __post_init__(self) -> None:
        for name in ("episodes", "accumulate_every", "eval_every", "eval_episodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class EvalReport:
    accuracy: float
    ci95_halfwidth: float
    episodes: int
    per_class_accuracy: list[tuple[int, float]]


def sgd_step(params: Iterable[Param], learning_rate: float,
             accumulation_count: int = 1) -> None:
    """theta <- theta - lr * (accumulated grad / accumulation count), then zero.

    Aborts on any non-finite gradient, naming the parameter.
    """
    if accumulation_count < 1:
        raise ValueError(f"accumulation_count must be positive, got {accumulation_count}")
    params = list(params)
    for p in params:
        if not np.isfinite(p.grad).all():
            raise NumericalError(f"non-finite gradient for parameter {p.name}")
    for p in params:
        p.value.data -= learning_rate * (p.grad / accumulation_count)
        p.zero_grad()


def _report(labels, hits, episodes: int) -> EvalReport:
    """Accuracy, its 95% half-width 1.96 * sqrt(p * (1 - p) / n) and the
    per-class accuracy of n scored queries, from their labels and hits."""
    if episodes < 1:
        raise ValueError(f"need at least 1 eval episode, got {episodes}")
    labels, hits = np.ravel(labels), np.ravel(hits)
    accuracy = int(hits.sum()) / hits.size
    ci = 1.96 * math.sqrt(accuracy * (1.0 - accuracy) / hits.size)
    # sorted(set()), not np.unique, which imports numpy.ma (~1.6 MB) on first use
    per_class_accuracy = [(label, int(hits[labels == label].sum()) / int((labels == label).sum()))
                          for label in sorted(set(labels.tolist()))]
    return EvalReport(accuracy=accuracy, ci95_halfwidth=ci, episodes=episodes,
                      per_class_accuracy=per_class_accuracy)


def evaluate(dataset: Dataset, params: ModelParams, config: ModelConfig,
             spec: EpisodeSpec, n_episodes: int) -> EvalReport:
    """Accuracy of matching-head predictions over freshly sampled episodes.

    Predictions use the matching logits only; ties resolve to the lowest
    class index. The half-width is taken over all scored queries.

    The call samples its episodes first into int32 tables of cache slots
    [episodes x clips] and ways [episodes x queries] (one spec, one layout),
    then enriches each distinct clip (each record, whatever its id) once, in
    first-use order and chunks of at most one episode's clips, on one
    forward-only tape. model.score_rows, as in score_episode, scores every
    episode from those rows (L x D x 8 bytes per distinct clip, dropped with
    the call, as training changes the parameters between calls); a
    one-episode call scores views of them.
    """
    if n_episodes < 1:
        raise ValueError(f"need at least 1 eval episode, got {n_episodes}")
    slots: dict[int, int] = {}  # id(record) -> the record's clip in the cache
    clips, labels = [], []  # per slot
    for counter in range(n_episodes):
        episode = sample_episode(dataset, spec, counter)
        shots, episode_records = model.episode_clips(episode)
        if counter == 0:
            plan = np.empty((n_episodes, len(episode_records)), dtype=np.int32)
            ways = np.empty((n_episodes, len(episode.queries)), dtype=np.int32)
        for record in episode_records:
            if slots.setdefault(id(record), len(clips)) == len(clips):
                clips.append(record.features)
                labels.append(record.label)
        plan[counter] = [slots[id(record)] for record in episode_records]
        ways[counter] = [way for _, way in episode.queries]
    tape = Tape(grad=False)
    per_chunk = plan.shape[1]
    if len(clips) <= per_chunk:
        cache = model.enrich_block(tape, clips, params, config)[1].data
    else:
        cache = np.empty((len(clips) * config.frames, config.channels))
        for start in range(0, len(clips), per_chunk):
            chunk = clips[start:start + per_chunk]
            cache[start * config.frames:(start + len(chunk)) * config.frames] = \
                model.enrich_block(tape, chunk, params, config)[1].data
    cache = cache.reshape(len(clips), config.frames, config.channels)
    hits = np.empty(ways.shape, dtype=bool)
    for index, episode_ways, episode_hits in zip(plan, ways, hits):
        first = index[0]
        in_order = np.array_equal(index, np.arange(first, first + len(index)))
        rows = cache[first:first + len(index)] if in_order else cache[index]
        logits = model.score_rows(tape, Tensor(rows.reshape(-1, config.channels)),
                                  shots, params, config)
        episode_hits[:] = np.argmax(logits.data, axis=1) == episode_ways
    return _report(np.array(labels)[plan[:, sum(shots):]], hits, n_episodes)


def mean_pool_baseline(dataset: Dataset, spec: EpisodeSpec, n_episodes: int) -> EvalReport:
    """Order-blind reference classifier: nearest class mean of clip averages.

    Each clip is reduced to its mean over frames and patches, so any purely
    temporal class structure is invisible to it. Each distinct clip (each
    record) is read and reduced once per call.
    """
    means: dict[int, np.ndarray] = {}  # id(record) -> the clip's mean

    def mean(record: ClipRecord) -> np.ndarray:
        if id(record) not in means:
            means[id(record)] = record.features.values.data.mean(axis=(0, 1))
        return means[id(record)]

    labels, hits = [], []
    for counter in range(n_episodes):
        episode = sample_episode(dataset, spec, counter)
        prototypes = np.stack([np.mean([mean(rec) for rec in way_clips], axis=0)
                               for way_clips in episode.support])
        for record, way in episode.queries:
            dists = np.linalg.norm(prototypes - mean(record)[None, :], axis=1)
            labels.append(record.label)
            hits.append(int(np.argmin(dists)) == way)
    return _report(labels, hits, n_episodes)


@dataclass
class MetricsRow:
    episode: int
    accuracy: float
    ci95: float
    loss_tm: float
    loss_qc: float


def format_metrics(rows: Sequence[MetricsRow]) -> str:
    return "".join(
        f"{r.episode}\t{r.accuracy:.17g}\t{r.ci95:.17g}\t"
        f"{r.loss_tm:.17g}\t{r.loss_qc:.17g}\n"
        for r in rows
    )


def train(
    dataset: Dataset,
    config: ModelConfig,
    train_config: TrainConfig,
    episode_spec: EpisodeSpec,
    eval_dataset: Dataset | None = None,
    params: ModelParams | None = None,
    fixed_episode: Episode | None = None,
    progress=None,
) -> tuple[ModelParams, list[MetricsRow]]:
    """Episodic SGD on the joint objective.

    Deterministic given the config seeds: episode i comes from
    (episode_spec.seed, i), and the periodic evaluations reuse one derived
    stream so every eval row scores the same episodes. `fixed_episode`
    short-circuits sampling to train repeatedly on one episode.
    """
    if params is None:
        params = build_params(config)
    plist = params.all()
    zero_grads(plist)
    eval_ds = eval_dataset if eval_dataset is not None else dataset
    eval_spec = replace(episode_spec, seed=episode_spec.seed + _EVAL_SEED_OFFSET)
    metrics: list[MetricsRow] = []
    window_tm: list[float] = []
    window_qc: list[float] = []
    pending = 0
    for i in range(train_config.episodes):
        episode = fixed_episode if fixed_episode is not None \
            else sample_episode(dataset, episode_spec, i)
        tape = Tape()
        result = forward_episode(tape, episode, params, config)
        if not math.isfinite(result.loss.item()):
            raise NumericalError(f"non-finite loss at episode {i}")
        tape.backward(result.loss, plist)
        window_tm.append(result.loss_tm)
        window_qc.append(result.loss_qc)
        pending += 1
        if pending == train_config.accumulate_every:
            sgd_step(plist, train_config.learning_rate, pending)
            pending = 0
        if (i + 1) % train_config.eval_every == 0 or i + 1 == train_config.episodes:
            report = evaluate(eval_ds, params, config, eval_spec,
                              train_config.eval_episodes)
            row = MetricsRow(episode=i + 1, accuracy=report.accuracy,
                             ci95=report.ci95_halfwidth,
                             loss_tm=float(np.mean(window_tm)),
                             loss_qc=float(np.mean(window_qc)))
            metrics.append(row)
            window_tm.clear()
            window_qc.clear()
            if progress is not None:
                progress(row)
    if pending:
        sgd_step(plist, train_config.learning_rate, pending)
    return params, metrics


# -- checkpoints --------------------------------------------------------------


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    plist = params.all()
    chunks = [CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(plist))]
    for p in plist:
        name, shape = p.name.encode("utf-8"), p.value.shape
        chunks.append(struct.pack(f"<I{len(name)}sI{len(shape)}I",
                                  len(name), name, len(shape), *shape))
        chunks.append(np.ascontiguousarray(p.value.data, dtype="<f8"))  # no copy
    write_atomic(path, chunks)


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read each parameter straight into its own array, once the bytes left
    in the file are known to hold every extent its record claims."""
    path = Path(path)
    arrays: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def claim(n: int, what: str) -> int:
            if n > size - fh.tell():
                raise CheckpointFormatError(f"{path}: truncated at byte {fh.tell()} in "
                                            f"{what}: {n} bytes claimed, {size - fh.tell()} left")
            return n

        if size < 12:
            raise CheckpointFormatError(f"{path}: shorter than the fixed header")
        head = fh.read(12)
        if head[:4] != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(f"{path}: bad magic {head[:4]!r}")
        version, count = struct.unpack_from("<II", head, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(
                f"{path}: version {version}, expected {CHECKPOINT_VERSION}")
        for index in range(count):
            what = f"parameter #{index}"
            (name_len,) = struct.unpack("<I", fh.read(claim(4, what)))
            try:
                name = fh.read(claim(name_len, what)).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointFormatError(f"{path}: {what}: name is not UTF-8") from exc
            if name in arrays:
                raise CheckpointFormatError(
                    f"{path}: parameter {name} is repeated: records "
                    f"#{list(arrays).index(name)} and #{index}")
            what = f"parameter {name}"
            (rank,) = struct.unpack("<I", fh.read(claim(4, what)))
            shape = struct.unpack(f"<{rank}I", fh.read(claim(4 * rank, what)))
            claim(8 * math.prod(shape), what)
            values = np.empty(shape, "<f8")
            if fh.readinto(values) != values.nbytes:
                raise CheckpointFormatError(f"{path}: truncated in {what}")
            arrays[name] = values.astype(np.float64, copy=False)
        if fh.tell() != size:
            raise CheckpointFormatError(f"{path}: {size - fh.tell()} trailing bytes")
    for name, values in arrays.items():
        finite = np.isfinite(values)
        if not finite.all():
            first = int(np.argmin(finite))
            raise CheckpointFormatError(
                f"{path}: parameter {name} holds non-finite value "
                f"{values.reshape(-1)[first]} at flat index {first}")
    return arrays


# -- whole-model gradient verification ----------------------------------------


@dataclass
class GradCheckRow:
    name: str
    max_rel_error: float
    passed: bool


def gradcheck_model(
    config: ModelConfig,
    episode: Episode,
    step: float = 1e-5,
    threshold: float = 1e-5,
    params: ModelParams | None = None,
    corrupt: Sequence[str] = (),
) -> list[GradCheckRow]:
    """Compare tape gradients of the joint episode loss against central
    finite differences, parameter by parameter.

    Relative error per scalar is |a - f| / max(|a|, |f|, 1e-8). `corrupt`
    names parameters whose analytic gradient is deliberately perturbed, as a
    fault-injection hook for exercising the failure path.
    """
    if params is None:
        params = build_params(config)
    plist = params.all()
    zero_grads(plist)
    tape = Tape()
    result = forward_episode(tape, episode, params, config)
    tape.backward(result.loss, plist)
    analytic = {p.name: p.grad.copy() for p in plist}
    for name in corrupt:
        if name not in analytic:
            raise KeyError(f"unknown parameter {name}")
        analytic[name] = analytic[name] + 0.5

    def loss_fn() -> float:
        return forward_episode(Tape(grad=False), episode, params, config).loss.item()

    numeric = finite_diff_gradients(loss_fn, plist, step)
    rows = []
    for p in plist:
        a = analytic[p.name]
        f = numeric[p.name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
        err = float(np.max(np.abs(a - f) / denom))
        rows.append(GradCheckRow(name=p.name, max_rel_error=err,
                                 passed=err <= threshold))
    zero_grads(plist)
    return rows


# -- ablation ------------------------------------------------------------------

# (name, use_ple, use_fle, use_qc), in presentation order.
ABLATION_VARIANTS: list[tuple[str, bool, bool, bool]] = [
    ("baseline", False, False, False),
    ("+ple", True, False, False),
    ("+fle", False, True, False),
    ("+ple+fle", True, True, False),
    ("full", True, True, True),
]


def run_ablation(
    dataset: Dataset,
    eval_dataset: Dataset,
    config: ModelConfig,
    train_config: TrainConfig,
    episode_spec: EpisodeSpec,
    eval_spec: EpisodeSpec,
    eval_episodes: int,
    progress=None,
) -> list[tuple[str, EvalReport, ModelParams]]:
    """Train every toggle variant with identical seeds and budget, then
    evaluate each on the same episode stream."""
    if eval_episodes < 1:
        raise ValueError(f"need at least 1 eval episode, got {eval_episodes}")
    results = []
    for name, use_ple, use_fle, use_qc in ABLATION_VARIANTS:
        variant = replace(config, use_ple=use_ple, use_fle=use_fle, use_qc=use_qc)
        params, _ = train(dataset, variant, train_config, episode_spec,
                          eval_dataset=eval_dataset)
        report = evaluate(eval_dataset, params, variant, eval_spec, eval_episodes)
        results.append((name, report, params))
        if progress is not None:
            progress(name, report)
    return results
