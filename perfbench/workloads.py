"""Workload definitions, seeded input generation, set-up, the timed episode
steps and the correctness gates of the episode benchmark.

Everything here reaches strm through its public module functions, called
as module attributes so that a tracer installed at runtime sees each call.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from strm import diffcore, episodes, matching, model, training
from strm.diffcore import NumericalError, Tape, Tensor
from strm.episodes import ClipRecord, EpisodeSpec, FeatureClip
from strm.model import ModelConfig

CLASSES = 15
CLIPS_PER_CLASS = 20
FRAMES = 8
WAYS, SHOTS, QUERIES = 5, 5, 1
LEARNING_RATE = 0.1  # strm train's default
GRAD_BOUND = 1e-5  # the repository's gradient-check bound
GRAD_STEP = 1e-6  # first step along v; shrinks by 4x while a kink lies within it
GRAD_SHRINKS = 3
GRAD_DIRECTIONS = 3
ORACLE_BOUND = 1e-10  # batched against per-class matching, as in acceptance 05


@dataclass(frozen=True)
class Workload:
    name: str
    train: bool  # training step when true, forward-only evaluate otherwise
    omegas: tuple[int, ...]
    sizes: dict[str, int] = field(default_factory=dict)  # ModelConfig overrides

    def config(self, seed: int) -> ModelConfig:
        return ModelConfig(frames=FRAMES, omegas=self.omegas, qc_weight=0.1, seed=seed,
                           **self.sizes)


# Why each workload exists, and which layer it isolates, is in README.md and
# BENCHMARK.json: desk is bound by per-node overhead, omega23 by matching and
# backward, wide eval by BLAS-heavy patch enrichment. The train workloads keep
# ModelConfig's desk defaults, which strm train's defaults match.
WORKLOADS = {w.name: w for w in [
    Workload("train-desk", True, (2,)),
    Workload("train-omega23", True, (2, 3)),
    Workload("eval-wide", False, (2,), dict(patches=16, channels=256, refine_hidden=128,
                                           embed_dim=128, code_dim=128)),
]}


# -- inputs -------------------------------------------------------------------


def write_clips(root: Path, workload: Workload, seed: int) -> Path:
    """Write an order-sensitive synthetic clip set as .stfb files plus a
    manifest, clip by clip, and return the manifest path.

    Every class plays one shared bank of frame prototypes in its own order
    (broadcast over patches) plus Gaussian noise; the same seed writes
    byte-identical files.
    """
    config = workload.config(seed)
    clip_dir = root / "clips"
    clip_dir.mkdir(parents=True, exist_ok=True)
    bank = 0.1 * np.random.default_rng([seed, 0]).standard_normal((FRAMES, config.channels))
    order_rng = np.random.default_rng([seed, 1])
    records = []
    for label in range(CLASSES):
        prototype = bank[order_rng.permutation(FRAMES)]
        base = np.broadcast_to(prototype[:, None, :],
                               (FRAMES, config.patches, config.channels))
        for k in range(CLIPS_PER_CLASS):
            noise = np.random.default_rng([seed, 2, label, k]).standard_normal(base.shape)
            clip_id = f"class{label:03d}_clip{k:03d}"
            record = ClipRecord(clip_id, label, FeatureClip(Tensor(base + 0.3 * noise)))
            episodes.save_clip(record, clip_dir / f"{clip_id}.stfb")
            records.append((f"clips/{clip_id}.stfb", label))
    manifest = root / "manifest.tsv"
    episodes.write_manifest(records, manifest)
    return manifest


def write_checkpoint(root: Path, workload: Workload, seed: int) -> Path:
    path = root / "checkpoint.stck"
    training.save_checkpoint(model.build_params(workload.config(seed)), path)
    return path


# -- set-up and the timed step ------------------------------------------------


@dataclass
class State:
    workload: Workload
    config: ModelConfig
    dataset: episodes.Dataset
    params: model.ModelParams
    seed: int

    def spec(self, counter: int) -> EpisodeSpec:
        # Training samples (seed, counter); evaluate always draws its episode
        # 0, so each eval call gets its own spec seed instead.
        if self.workload.train:
            return EpisodeSpec(WAYS, SHOTS, QUERIES, seed=self.seed)
        return EpisodeSpec(WAYS, SHOTS, QUERIES, seed=self.seed * 1_000_003 + counter)


def set_up(workload: Workload, seed: int, manifest: Path,
           checkpoint: Path | None) -> State:
    """What setup_s times: load the clips, build or load the parameters, and
    run one warm-up episode (episode 0; timed episodes start at 1)."""
    config = workload.config(seed)
    dataset = episodes.load_dataset(manifest)
    if checkpoint is None:
        params = model.build_params(config)
    else:
        params = model.params_from_arrays(training.load_checkpoint(checkpoint))
        model.validate_against(params, config)
    state = State(workload, config, dataset, params, seed)
    step(state, 0)
    return state


def step(state: State, counter: int) -> None:
    """One closed-loop episode; raises on any failure, a non-finite loss included."""
    if state.workload.train:
        episode = episodes.sample_episode(state.dataset, state.spec(counter), counter)
        tape = diffcore.Tape()
        result = model.forward_episode(tape, episode, state.params, state.config)
        if not math.isfinite(result.loss.item()):
            raise NumericalError(f"non-finite loss at episode {counter}")
        plist = state.params.all()
        tape.backward(result.loss, plist)
        training.sgd_step(plist, LEARNING_RATE)
    else:
        report = training.evaluate(state.dataset, state.params, state.config,
                                   state.spec(counter), 1)
        if report.episodes != 1 or not 0.0 <= report.accuracy <= 1.0:
            raise ValueError(f"bad evaluate report at episode {counter}: {report}")


# -- correctness gates --------------------------------------------------------


@contextlib.contextmanager
def kink_pattern(log: list[bytes]):
    """Record, for every ReLU and row-max the forward pass runs, which side of
    its kink each element is on. Two points with equal patterns lie in one
    region where the loss is smooth."""
    relu, max_rows = Tape.relu, Tape.max_rows

    def logged_relu(tape, x):
        log.append((x.data > 0.0).tobytes())
        return relu(tape, x)

    def logged_max_rows(tape, x):
        log.append(np.argmax(x.data, axis=1).tobytes())
        return max_rows(tape, x)

    Tape.relu, Tape.max_rows = logged_relu, logged_max_rows
    try:
        yield
    finally:
        Tape.relu, Tape.max_rows = relu, max_rows


def directional_check(state: State, counter: int = 0) -> float:
    """Relative error between the tape's directional derivative grad(L).v and
    the central difference (L(theta+hv) - L(theta-hv)) / 2h, on one episode
    at the workload's own config.

    v is random with unit norm in every parameter tensor, so each parameter
    group weighs equally, and each tensor's sign is chosen so that its share
    of grad(L).v is nonnegative: the shares add instead of cancelling, which
    keeps the derivative far above the rounding error of the difference (a
    missing or wrong gradient still shows as a mismatch). A difference across
    a ReLU or max kink is no oracle for the gradient, so h shrinks (and then
    v is redrawn) until theta-hv, theta and theta+hv share one kink pattern.
    Parameters are restored bit-exactly; returns inf if no smooth segment is
    found.
    """
    episode = episodes.sample_episode(state.dataset, state.spec(counter), counter)
    plist = state.params.all()
    saved = [p.value.data.copy() for p in plist]

    def loss_at(direction, h: float, log: list[bytes]) -> float:
        for p, d, s in zip(plist, direction, saved):
            p.value.data[...] = s + h * d
        try:
            with kink_pattern(log):
                return model.forward_episode(Tape(), episode, state.params,
                                             state.config).loss.item()
        finally:
            for p, s in zip(plist, saved):
                p.value.data[...] = s

    diffcore.zero_grads(plist)
    base: list[bytes] = []
    tape = Tape()
    with kink_pattern(base):
        loss = model.forward_episode(tape, episode, state.params, state.config).loss
    tape.backward(loss, plist)
    grads = [p.grad.copy() for p in plist]
    diffcore.zero_grads(plist)
    for attempt in range(GRAD_DIRECTIONS):
        rng = np.random.default_rng([state.seed, 7, attempt])
        direction = [d / np.linalg.norm(d)
                     for d in (rng.standard_normal(p.value.shape) for p in plist)]
        direction = [-d if float((g * d).sum()) < 0.0 else d
                     for g, d in zip(grads, direction)]
        analytic = sum(float((g * d).sum()) for g, d in zip(grads, direction))
        h = GRAD_STEP
        for _ in range(GRAD_SHRINKS):
            plus: list[bytes] = []
            minus: list[bytes] = []
            numeric = (loss_at(direction, h, plus) - loss_at(direction, -h, minus)) / (2.0 * h)
            if plus == base == minus:
                return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            h /= 4.0
    return math.inf


def matching_check(state: State, counter: int = 0) -> float:
    """Largest absolute difference, over one episode's queries, between the
    batched trm_logits and the negated per-class trm_distance."""
    episode = episodes.sample_episode(state.dataset, state.spec(counter), counter)
    tape = Tape()
    tuple_sets = state.config.tuple_sets()
    support = [[rec.features.values for rec in group] for group in episode.support]
    flat = [v for group in support for v in group]
    enriched = model.enrich_clips(tape, flat + [rec.features.values for rec, _ in episode.queries],
                                  state.params, state.config, need_pooled=False)
    enriched = [e for _, e in enriched]
    groups, start = [], 0
    for group in support:
        groups.append(enriched[start:start + len(group)])
        start += len(group)
    embeds = [matching.embed_class_supports(tape, g, tuple_sets, state.params.trm)
              for g in groups]
    worst = 0.0
    for query in enriched[start:]:
        batched = matching.trm_logits(tape, query, embeds, tuple_sets, state.params.trm).data
        per_class = np.array([-matching.trm_distance(tape, query, g, tuple_sets,
                                                     state.params.trm).item()
                              for g in groups])
        worst = max(worst, float(np.max(np.abs(batched - per_class))))
    return worst
