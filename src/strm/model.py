"""Model assembly: configuration, parameter construction, and the episode
forward pass producing the joint training loss."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import enrichment, matching
from .diffcore import Param, ShapeError, Tape, Tensor
from .enrichment import FLEParams, PLEParams
from .episodes import Episode
from .matching import QCParams, TupleEmbedParams, TupleIndex

__all__ = [
    "ModelConfig",
    "ModelParams",
    "EpisodeScores",
    "ForwardResult",
    "build_params",
    "params_from_arrays",
    "infer_config",
    "validate_against",
    "enrich_clip",
    "enrich_clips",
    "forward_episode",
]


@dataclass
class ModelConfig:
    """All model extents, toggles, and seeds.

    Defaults are desk scale; the full-scale configuration (channels=2048,
    refine_hidden=1024, embed_dim=1152, code_dim=1024, patches=16) remains
    expressible.
    """

    frames: int = 8
    patches: int = 4
    channels: int = 64
    refine_hidden: int = 32
    embed_dim: int = 64
    code_dim: int = 64
    omegas: tuple[int, ...] = (2,)
    qc_weight: float = 0.1
    use_ple: bool = True
    use_fle: bool = True
    use_qc: bool = True
    tuple_keep_ratio: float = 1.0
    tuple_seed: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("frames", "patches", "channels", "refine_hidden",
                     "embed_dim", "code_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.frames < 2:
            raise ValueError(f"need at least 2 frames, got {self.frames}")
        self.omegas = tuple(sorted(set(int(w) for w in self.omegas)))
        if not self.omegas:
            raise ValueError("need at least one tuple cardinality")
        for omega in self.omegas:
            if not 1 <= omega <= self.frames:
                raise ValueError(
                    f"tuple cardinality {omega} invalid for {self.frames} frames")
        if self.qc_weight < 0:
            raise ValueError(f"qc_weight must be nonnegative, got {self.qc_weight}")
        if not 0.0 < self.tuple_keep_ratio <= 1.0:
            raise ValueError(
                f"tuple_keep_ratio must be in (0, 1], got {self.tuple_keep_ratio}")
        frac = Fraction(self.tuple_keep_ratio).limit_denominator(100)
        if abs(float(frac) - self.tuple_keep_ratio) > 1e-12:
            raise ValueError(
                f"tuple_keep_ratio must be a rational with denominator <= 100, "
                f"got {self.tuple_keep_ratio}")

    def tuple_sets(self) -> dict[int, list[TupleIndex]]:
        return matching.select_tuples(self.frames, self.omegas,
                                      self.tuple_keep_ratio, self.tuple_seed)


@dataclass
class ModelParams:
    """Every learnable weight, grouped; disabled stages own no parameters."""

    ple: PLEParams | None
    fle: FLEParams | None
    trm: dict[int, TupleEmbedParams]
    qc: dict[int, QCParams]

    def all(self) -> list[Param]:
        out: list[Param] = []
        if self.ple is not None:
            out.extend(self.ple.all())
        if self.fle is not None:
            out.extend(self.fle.all())
        for omega in sorted(self.trm):
            out.extend(self.trm[omega].all())
        for omega in sorted(self.qc):
            out.extend(self.qc[omega].all())
        return out

    def by_name(self) -> dict[str, Param]:
        return {p.name: p for p in self.all()}


def _seed_for(config_seed: int):
    def seed_for(name: str):
        return [config_seed, zlib.crc32(name.encode("utf-8"))]
    return seed_for


def build_params(config: ModelConfig) -> ModelParams:
    seed_for = _seed_for(config.seed)
    ple = (enrichment.init_ple_params(config.channels, config.refine_hidden, seed_for)
           if config.use_ple else None)
    fle = (enrichment.init_fle_params(config.frames, config.channels, seed_for)
           if config.use_fle else None)
    trm = {omega: matching.init_trm_params(omega, config.channels,
                                           config.embed_dim, seed_for)
           for omega in config.omegas}
    qc = ({omega: matching.init_qc_params(omega, config.channels,
                                          config.code_dim, seed_for)
           for omega in config.omegas} if config.use_qc else {})
    return ModelParams(ple=ple, fle=fle, trm=trm, qc=qc)


def params_from_arrays(arrays: dict[str, np.ndarray]) -> ModelParams:
    """Rebuild grouped parameters from named tensors (e.g. a checkpoint)."""

    def take(name: str) -> Param:
        if name not in arrays:
            raise KeyError(f"missing parameter {name}")
        return Param(name, Tensor(arrays[name]))

    ple = None
    if any(n.startswith("ple.") for n in arrays):
        ple = PLEParams(
            query_proj=take("ple.query_proj"), key_proj=take("ple.key_proj"),
            value_proj=take("ple.value_proj"), refine1=take("ple.refine1"),
            refine2=take("ple.refine2"), refine3=take("ple.refine3"),
        )
    fle = None
    if any(n.startswith("fle.") for n in arrays):
        fle = FLEParams(
            token_mix1=take("fle.token_mix1"), token_mix2=take("fle.token_mix2"),
            channel_mix1=take("fle.channel_mix1"), channel_mix2=take("fle.channel_mix2"),
        )
    trm_omegas = sorted({int(n.split(".")[1]) for n in arrays if n.startswith("trm.")})
    if not trm_omegas:
        raise KeyError("no tuple-matching parameters found")
    trm = {omega: TupleEmbedParams(key_proj=take(f"trm.{omega}.key_proj"),
                                   value_proj=take(f"trm.{omega}.value_proj"))
           for omega in trm_omegas}
    qc_omegas = sorted({int(n.split(".")[1]) for n in arrays if n.startswith("qc.")})
    qc = {omega: QCParams(class_proj=take(f"qc.{omega}.class_proj"))
          for omega in qc_omegas}
    return ModelParams(ple=ple, fle=fle, trm=trm, qc=qc)


def infer_config(params: ModelParams, frames: int, patches: int,
                 **overrides) -> ModelConfig:
    """Derive a usable config from parameter shapes plus dataset extents."""
    omegas = tuple(sorted(params.trm))
    first = params.trm[omegas[0]]
    channels = first.key_proj.value.shape[0] // omegas[0]
    cfg = ModelConfig(
        frames=frames,
        patches=patches,
        channels=channels,
        refine_hidden=(params.ple.refine1.value.shape[1] if params.ple else 1),
        embed_dim=first.embed_dim,
        code_dim=(params.qc[omegas[0]].class_proj.value.shape[1] if params.qc else 1),
        omegas=omegas,
        use_ple=params.ple is not None,
        use_fle=params.fle is not None,
        use_qc=bool(params.qc),
    )
    return replace(cfg, **overrides) if overrides else cfg


def validate_against(params: ModelParams, config: ModelConfig) -> None:
    """Reject parameter/config extent disagreements with a clear message."""
    checks: list[tuple[str, tuple[int, ...], tuple[int, ...]]] = []
    if params.ple is not None:
        checks.append(("ple.query_proj", params.ple.query_proj.value.shape,
                       (config.channels, config.channels)))
    if params.fle is not None:
        checks.append(("fle.token_mix1", params.fle.token_mix1.value.shape,
                       (config.frames, config.frames)))
        checks.append(("fle.channel_mix1", params.fle.channel_mix1.value.shape,
                       (config.channels, config.channels)))
    for omega in config.omegas:
        if omega not in params.trm:
            raise ShapeError(f"parameters lack tuple cardinality {omega}")
        checks.append((f"trm.{omega}.key_proj", params.trm[omega].key_proj.value.shape,
                       (omega * config.channels, config.embed_dim)))
    for name, got, want in checks:
        if got != want:
            raise ShapeError(f"{name}: extent mismatch, checkpoint {got} vs config {want}")


@dataclass
class EpisodeScores:
    """Per-query class logits, copied off the tape; similarity logits are None
    when that head is off."""

    trm_logits: Tensor
    qc_logits: Tensor | None


@dataclass
class ForwardResult:
    loss: Tensor
    scores: list[EpisodeScores]
    loss_tm: float
    loss_qc: float


def enrich_clip(tape: Tape, values: Tensor, params: ModelParams,
                config: ModelConfig) -> tuple[Tensor, Tensor]:
    """Run one clip through the enabled enrichment stages.

    Returns (pooled [frames x channels], enriched [frames x channels]); with
    both stages disabled the two are the same pooled raw features.
    """
    if values.ndim != 3 or values.shape[0] != config.frames \
            or values.shape[2] != config.channels:
        raise ShapeError(
            f"clip shape {values.shape} does not match config "
            f"[{config.frames} x patches x {config.channels}]")
    per_frame = []
    for i in range(config.frames):
        frame = Tensor(values.data[i])
        if params.ple is not None:
            frame = enrichment.ple_forward(tape, frame, params.ple)
        per_frame.append(frame)
    pooled = enrichment.pool_frames(tape, per_frame)
    enriched = (enrichment.fle_forward(tape, pooled, params.fle)
                if params.fle is not None else pooled)
    return pooled, enriched


def enrich_clips(tape: Tape, clips: Sequence[Tensor], params: ModelParams,
                 config: ModelConfig,
                 need_pooled: bool = True) -> list[tuple[Tensor | None, Tensor]]:
    """Enrich many clips in one batched pass; per clip, matches enrich_clip.

    Clip values are module inputs, so stacking them outside the tape is
    gradient-free. Returns per-clip (pooled, enriched) pairs; pooled is None
    when not requested.
    """
    for values in clips:
        if values.ndim != 3 or values.shape[0] != config.frames \
                or values.shape[2] != config.channels:
            raise ShapeError(
                f"clip shape {values.shape} does not match config "
                f"[{config.frames} x patches x {config.channels}]")
    n = len(clips)
    frames = config.frames
    block = Tensor(np.concatenate([v.data for v in clips], axis=0))
    if params.ple is not None:
        block = enrichment.ple_forward_batch(tape, block, params.ple)
    pooled_all = tape.mean(block, axis=1)  # (n * frames) x channels
    if params.fle is not None:
        enriched_3d = enrichment.fle_forward_batch(
            tape, tape.reshape(pooled_all, (n, frames, config.channels)), params.fle)
        enriched_all = tape.reshape(enriched_3d, (n * frames, config.channels))
    else:
        enriched_all = pooled_all
    out: list[tuple[Tensor | None, Tensor]] = []
    for i in range(n):
        rows = range(i * frames, (i + 1) * frames)
        enriched = tape.gather_rows(enriched_all, rows)
        if need_pooled:
            pooled = (tape.gather_rows(pooled_all, rows)
                      if params.fle is not None else enriched)
            out.append((pooled, enriched))
        else:
            out.append((None, enriched))
    return out


def forward_episode(tape: Tape, episode: Episode, params: ModelParams,
                    config: ModelConfig) -> ForwardResult:
    """Joint loss and per-query scores for one episode.

    Matching logits are negative tuple distances on the temporally enriched
    features; similarity logits come from the pooled features. The loss is
    the matching cross-entropy plus qc_weight times the similarity
    cross-entropy, averaged over the episode's queries.
    """
    tuple_sets = config.tuple_sets()
    use_qc = bool(params.qc) and config.use_qc
    ways = len(episode.support)
    shots = [len(way_clips) for way_clips in episode.support]
    all_values = [rec.features.values
                  for way_clips in episode.support for rec in way_clips]
    all_values += [rec.features.values for rec, _ in episode.queries]
    enriched_pairs = enrich_clips(tape, all_values, params, config,
                                  need_pooled=use_qc)
    offsets = np.cumsum([0] + shots)
    sup_pooled = [[enriched_pairs[i][0] for i in range(offsets[w], offsets[w + 1])]
                  for w in range(ways)]
    sup_enriched = [[enriched_pairs[i][1] for i in range(offsets[w], offsets[w + 1])]
                    for w in range(ways)]
    query_pairs = enriched_pairs[offsets[-1]:]
    targets = [way for _, way in episode.queries]
    tm = matching.trm_logits(tape, tape.stack([e for _, e in query_pairs]),
                             sup_enriched, tuple_sets, params.trm)
    tm_mean = tape.mean(tape.cross_entropy(tape.softmax_last(tm), targets), axis=0)
    qc = qc_mean = None
    if use_qc:
        qc = matching.qc_logits(tape, tape.stack([p for p, _ in query_pairs]),
                                sup_pooled, tuple_sets, params.qc)
        qc_mean = tape.mean(tape.cross_entropy(tape.softmax_last(qc), targets), axis=0)
    scores = [EpisodeScores(trm_logits=Tensor(tm.data[q]),
                            qc_logits=None if qc is None else Tensor(qc.data[q]))
              for q in range(len(targets))]
    if qc_mean is None:
        return ForwardResult(tm_mean, scores, tm_mean.item(), 0.0)
    loss = tape.add(tm_mean, tape.scale(qc_mean, config.qc_weight))
    return ForwardResult(loss, scores, tm_mean.item(), qc_mean.item())
