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

from . import enrichment, episodes, model
from .diffcore import (NumericalError, Param, Tape, Tensor, finite_diff_gradients,
                       zero_grads)
from .episodes import Dataset, Episode, EpisodeSpec, sample_episode
from .model import ModelConfig, ModelParams, build_params, forward_episode

__all__ = [
    "TrainConfig",
    "EvalReport",
    "CheckpointFormatError",
    "MAX_GRAD_NORM",
    "ENRICH_GROUP_BYTES",
    "sgd_step",
    "train",
    "evaluate",
    "mean_pool_baseline",
    "save_checkpoint",
    "load_checkpoint",
    "format_metrics",
    "gradcheck_model",
    "GradCheckRow",
    "ABLATION_VARIANTS",
    "run_ablation",
]

CHECKPOINT_MAGIC = b"STCK"
CHECKPOINT_VERSION = 1
_CHECKPOINT_HEADER = struct.Struct("<4sII")  # magic, version, parameter count

# Offset between the training episode stream and the in-training eval stream.
_EVAL_SEED_OFFSET = 1_000_003

# Bytes of float64 clip rows that evaluate widens and patch-enriches at a time,
# about a core's L2 cache: patch enrichment's transient is a few times one
# chunk's block instead of growing with the clips per call.
ENRICH_GROUP_BYTES = 2 << 20

# Largest global gradient norm an SGD step applies: every run of the 5-variant
# ablation at model seeds 0-4 peaked below 28 (below 21 with the fused loss).
MAX_GRAD_NORM = 50.0


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
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be finite and nonnegative, got {self.learning_rate}")


@dataclass
class EvalReport:
    accuracy: float
    ci95_halfwidth: float
    episodes: int
    per_class_accuracy: list[tuple[int, float]]


def sgd_step(params: Iterable[Param], learning_rate: float,
             accumulation_count: int = 1) -> float:
    """theta <- theta - lr * (accumulated grad / accumulation count), then zero.
    Returns that mean gradient's global L2 norm; a step above MAX_GRAD_NORM is
    scaled down to it (Pascanu et al., arXiv 1211.5063). A non-finite gradient,
    or one whose square sum overflows, aborts naming the parameter."""
    if accumulation_count < 1:
        raise ValueError(f"accumulation_count must be positive, got {accumulation_count}")
    params = list(params)
    squares = [float(np.vdot(p.grad, p.grad)) for p in params]
    for p, square in zip(params, squares):
        if not math.isfinite(square):
            raise NumericalError(f"non-finite gradient for parameter {p.name}")
    norm = math.sqrt(sum(squares)) / accumulation_count
    rate = learning_rate if norm <= MAX_GRAD_NORM else learning_rate * (MAX_GRAD_NORM / norm)
    for p in params:
        p.value.data -= rate * (p.grad / accumulation_count)
        p.zero_grad()
    return norm


def _report(labels, hits, episodes: int) -> EvalReport:
    """Accuracy, its 95% half-width 1.96 * sqrt(p * (1 - p) / n) and the
    per-class accuracy of n scored queries, from their labels and hits."""
    labels, hits = np.ravel(labels), np.ravel(hits)
    accuracy = int(hits.sum()) / hits.size
    ci = 1.96 * math.sqrt(accuracy * (1.0 - accuracy) / hits.size)
    # sorted(set()), not np.unique, which imports numpy.ma (~1.6 MB) on first use
    per_class_accuracy = [(label, int(hits[labels == label].sum()) / int((labels == label).sum()))
                          for label in sorted(set(labels.tolist()))]
    return EvalReport(accuracy=accuracy, ci95_halfwidth=ci, episodes=episodes,
                      per_class_accuracy=per_class_accuracy)


def _plan(dataset: Dataset, spec: EpisodeSpec, n_episodes: int):
    """An evaluation call's episodes, sampled before any clip is read.

    Returns (shots, clips, labels, plan, ways): the support clips per class;
    each distinct clip (each record, whatever its id) once, in first-use
    order, with its label [slots]; and int32 tables of slots [episodes x
    clips], in episode_clips' order, and ways [episodes x queries] (one spec,
    one layout).
    """
    if n_episodes < 1:
        raise ValueError(f"need at least 1 eval episode, got {n_episodes}")
    slots: dict[int, int] = {}  # id(record) -> the record's slot
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
    return shots, clips, np.array(labels), plan, ways


def evaluate(dataset: Dataset, params: ModelParams, config: ModelConfig,
             spec: EpisodeSpec, n_episodes: int) -> EvalReport:
    """Accuracy of matching-head predictions over freshly sampled episodes.

    Predictions use the matching logits only; ties resolve to the lowest
    class index. The half-width is taken over all scored queries. The pair
    is checked by model.validate_against before any episode is sampled.

    _plan samples the call's episodes. Each distinct clip is then enriched
    once, in first-use order, on one forward-only tape, into a cache of L x D
    x 8 bytes per distinct clip that dies with the call, as training changes
    the parameters between calls. The clips go to enrich_block in chunks of
    at most one episode's clip count and ENRICH_GROUP_BYTES of widened rows
    (at least one clip), so one chunk's payloads are alive at a time, and
    every chunk shares PLE's folds, formed once per call. Every episode
    gathers a copy of its rows from the cache, and model.score_rows, as in
    score_episode, scores them.
    """
    model.validate_against(params, config)
    shots, clips, labels, plan, ways = _plan(dataset, spec, n_episodes)
    tape = Tape(grad=False)
    clip_bytes = 8 * config.frames * config.patches * config.channels
    per_chunk = min(plan.shape[1], max(1, ENRICH_GROUP_BYTES // clip_bytes))
    folds = enrichment.ple_folds(tape, params.ple) if config.use_ple else None
    cache = np.empty((len(clips), config.frames, config.channels))
    for start in range(0, len(clips), per_chunk):
        chunk = clips[start:start + per_chunk]
        cache[start:start + len(chunk)] = model.enrich_block(
            tape, chunk, params, config, folds=folds)[1].data.reshape(
                -1, config.frames, config.channels)
    hits = np.empty(ways.shape, dtype=bool)
    for index, episode_ways, episode_hits in zip(plan, ways, hits):
        logits = model.score_rows(tape, Tensor(cache[index].reshape(-1, config.channels)),
                                  shots, params, config)
        episode_hits[:] = np.argmax(logits.data, axis=1) == episode_ways
    return _report(labels[plan[:, sum(shots):]], hits, n_episodes)


def mean_pool_baseline(dataset: Dataset, spec: EpisodeSpec, n_episodes: int) -> EvalReport:
    """Order-blind reference classifier: nearest class mean of clip averages.

    Each clip is reduced to its mean over frames and patches, so any purely
    temporal class structure is invisible to it. _plan samples the call's
    episodes, as for evaluate, so each distinct clip is read and reduced
    once per call. Each query goes to the class whose support means average
    nearest to its mean (Euclidean; ties to the lowest class index).
    """
    shots, clips, labels, plan, ways = _plan(dataset, spec, n_episodes)
    means = np.stack([clip.values.data.mean(axis=(0, 1)) for clip in clips])
    support = sum(shots)
    hits = np.empty(ways.shape, dtype=bool)
    for index, episode_ways, episode_hits in zip(plan, ways, hits):
        prototypes = means[index[:support]].reshape(len(shots), shots[0], -1).mean(axis=1)
        dists = np.linalg.norm(prototypes[None] - means[index[support:], None], axis=2)
        episode_hits[:] = np.argmin(dists, axis=1) == episode_ways
    return _report(labels[plan[:, support:]], hits, n_episodes)


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
    short-circuits sampling to train repeatedly on one episode. Only the
    groups the config scores with are trained and returned.
    """
    if params is None:
        params = build_params(config)
    model.validate_against(params, config)
    params = params.scored(config)
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
    chunks = [_CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(plist))]
    for p in plist:
        name, shape = p.name.encode("utf-8"), p.value.shape
        chunks.append(struct.pack(f"<I{len(name)}sI{len(shape)}I",
                                  len(name), name, len(shape), *shape))
        chunks.append(np.ascontiguousarray(p.value.data, dtype="<f8"))  # no copy
    episodes.write_atomic(path, chunks)


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read each parameter straight into its own array, refusing a non-finite
    value, once the bytes left in the file hold every extent its record claims."""
    path = Path(path)
    arrays: dict[str, np.ndarray] = {}
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        (count,) = episodes._check_header(fd, path, _CHECKPOINT_HEADER, CHECKPOINT_MAGIC,
                                          CHECKPOINT_VERSION, (CheckpointFormatError,) * 3)
        at = _CHECKPOINT_HEADER.size

        def claim(n: int, what: str) -> int:
            nonlocal at
            if n > size - at:
                raise CheckpointFormatError(f"{path}: truncated at byte {at} in "
                                            f"{what}: {n} bytes claimed, {size - at} left")
            at += n
            return at - n

        def take(n: int, what: str) -> bytes:
            data = os.pread(fd, n, claim(n, what))
            if len(data) < n:
                raise CheckpointFormatError(f"{path}: truncated in {what}: "
                                            f"{len(data)} of {n} bytes read")
            return data

        for index in range(count):
            what = f"parameter #{index}"
            (name_len,) = struct.unpack("<I", take(4, what))
            try:
                name = take(name_len, what).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointFormatError(f"{path}: {what}: name is not UTF-8") from exc
            if name in arrays:
                raise CheckpointFormatError(
                    f"{path}: parameter {name} is repeated: records "
                    f"#{list(arrays).index(name)} and #{index}")
            what = f"parameter {name}"
            (rank,) = struct.unpack("<I", take(4, what))
            shape = struct.unpack(f"<{rank}I", take(4 * rank, what))
            arrays[name] = episodes._read_array(
                fd, path, claim(8 * math.prod(shape), what), shape, "<f8",
                (CheckpointFormatError,) * 2, lambda done: f"truncated in {what}",
                lambda value, i: f"{what} holds non-finite value {value} at flat index {i}",
            ).astype(np.float64, copy=False)
        if at != size:
            raise CheckpointFormatError(f"{path}: {size - at} trailing bytes")
    finally:
        os.close(fd)
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
