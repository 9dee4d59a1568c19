"""Episodic training and evaluation: SGD with windowed gradient accumulation,
deterministic metric logs, binary checkpoints, a whole-model gradient check,
and the ablation runner."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import matching, model
from .diffcore import NumericalError, Param, Tape, Tensor, finite_diff_gradients, zero_grads
from .episodes import Dataset, Episode, EpisodeSpec, sample_episode
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


def _predict(enriched_query: Tensor, class_embeds, tuple_sets, trm_params,
             tape: Tape) -> tuple[int, np.ndarray]:
    logits = matching.trm_logits(tape, enriched_query, class_embeds,
                                 tuple_sets, trm_params)
    return int(np.argmax(logits.data)), logits.data


def evaluate(dataset: Dataset, params: ModelParams, config: ModelConfig,
             spec: EpisodeSpec, n_episodes: int) -> EvalReport:
    """Accuracy of matching-head predictions over freshly sampled episodes.

    Predictions use the matching logits only; ties resolve to the lowest
    class index. The half-width is 1.96 * sqrt(p * (1 - p) / n) over all
    scored queries.
    """
    tuple_sets = config.tuple_sets()
    hits = 0
    total = 0
    per_class: dict[int, list[int]] = {}
    for counter in range(n_episodes):
        episode = sample_episode(dataset, spec, counter)
        tape = Tape()
        ways = len(episode.support)
        shots = [len(way_clips) for way_clips in episode.support]
        all_values = [rec.features.values
                      for way_clips in episode.support for rec in way_clips]
        all_values += [rec.features.values for rec, _ in episode.queries]
        pairs = model.enrich_clips(tape, all_values, params, config, need_pooled=False)
        offsets = np.cumsum([0] + shots)
        enriched_support = [[pairs[i][1] for i in range(offsets[w], offsets[w + 1])]
                            for w in range(ways)]
        class_embeds = [matching.embed_class_supports(tape, group, tuple_sets, params.trm)
                        for group in enriched_support]
        class_block = matching.stack_classes(tape, class_embeds, tuple_sets, params.trm)
        for (record, way), (_, enriched) in zip(episode.queries, pairs[offsets[-1]:]):
            pred, _ = _predict(enriched, class_block, tuple_sets, params.trm, tape)
            correct = int(pred == way)
            hits += correct
            total += 1
            per_class.setdefault(record.label, []).append(correct)
    accuracy = hits / total
    ci = 1.96 * math.sqrt(accuracy * (1.0 - accuracy) / total)
    per_class_accuracy = [(label, float(np.mean(flags)))
                          for label, flags in sorted(per_class.items())]
    return EvalReport(accuracy=accuracy, ci95_halfwidth=ci, episodes=n_episodes,
                      per_class_accuracy=per_class_accuracy)


def mean_pool_baseline(dataset: Dataset, spec: EpisodeSpec, n_episodes: int) -> EvalReport:
    """Order-blind reference classifier: nearest class mean of clip averages.

    Each clip is reduced to its mean over frames and patches, so any purely
    temporal class structure is invisible to it.
    """
    hits = 0
    total = 0
    per_class: dict[int, list[int]] = {}
    for counter in range(n_episodes):
        episode = sample_episode(dataset, spec, counter)
        prototypes = np.stack([
            np.mean([rec.features.values.data.mean(axis=(0, 1)) for rec in way_clips],
                    axis=0)
            for way_clips in episode.support
        ])
        for record, way in episode.queries:
            pooled = record.features.values.data.mean(axis=(0, 1))
            dists = np.linalg.norm(prototypes - pooled[None, :], axis=1)
            correct = int(int(np.argmin(dists)) == way)
            hits += correct
            total += 1
            per_class.setdefault(record.label, []).append(correct)
    accuracy = hits / total
    ci = 1.96 * math.sqrt(accuracy * (1.0 - accuracy) / total)
    per_class_accuracy = [(label, float(np.mean(flags)))
                          for label, flags in sorted(per_class.items())]
    return EvalReport(accuracy=accuracy, ci95_halfwidth=ci, episodes=n_episodes,
                      per_class_accuracy=per_class_accuracy)


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
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    plist = params.all()
    chunks.append(struct.pack("<I", len(plist)))
    for p in plist:
        name = p.name.encode("utf-8")
        shape = p.value.shape
        chunks.append(struct.pack("<I", len(name)))
        chunks.append(name)
        chunks.append(struct.pack("<I", len(shape)))
        chunks.append(struct.pack(f"<{len(shape)}I", *shape))
        chunks.append(p.value.data.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    path = Path(path)
    raw = path.read_bytes()
    view = memoryview(raw)
    if len(raw) < 12:
        raise CheckpointFormatError(f"{path}: shorter than the fixed header")
    if bytes(view[:4]) != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {bytes(view[:4])!r}")
    version, count = struct.unpack_from("<II", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"{path}: version {version}, expected {CHECKPOINT_VERSION}")
    offset = 12
    arrays: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            name = bytes(view[offset:offset + name_len]).decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            shape = struct.unpack_from(f"<{rank}I", raw, offset)
            offset += 4 * rank
            n = int(np.prod(shape)) if rank else 1
            values = np.frombuffer(raw, dtype="<f8", count=n, offset=offset)
            offset += 8 * n
            arrays[name] = values.astype(np.float64).reshape(shape)
    except (struct.error, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: truncated at byte {offset}") from exc
    if offset != len(raw):
        raise CheckpointFormatError(f"{path}: {len(raw) - offset} trailing bytes")
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
        probe = Tape()
        return forward_episode(probe, episode, params, config).loss.item()

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
