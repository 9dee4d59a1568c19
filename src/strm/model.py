"""Model assembly: configuration, parameter construction, and the episode
forward pass producing the joint training loss."""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import enrichment, matching
from .diffcore import Param, ShapeError, Tape, Tensor
from .enrichment import FLEParams, PLEParams
from .episodes import ClipRecord, Episode, FeatureClip
from .matching import QCParams, TupleEmbedParams, TupleIndex

__all__ = [
    "ModelConfig",
    "ModelParams",
    "ForwardResult",
    "build_params",
    "params_from_arrays",
    "infer_config",
    "validate_against",
    "ENRICH_GROUP_BYTES",
    "enrich_block",
    "enrich_clips",
    "episode_clips",
    "score_rows",
    "score_episode",
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

    def group(cls, prefix: str):
        return cls(*(take(f"{prefix}.{f.name}") for f in fields(cls)))

    def omegas(head: str) -> list[int]:
        return sorted({int(parts[1]) for parts in (n.split(".") for n in arrays)
                       if parts[0] == head and len(parts) == 3 and parts[1].isdecimal()})

    ple = group(PLEParams, "ple") if any(n.startswith("ple.") for n in arrays) else None
    fle = group(FLEParams, "fle") if any(n.startswith("fle.") for n in arrays) else None
    trm = {omega: group(TupleEmbedParams, f"trm.{omega}") for omega in omegas("trm")}
    qc = {omega: group(QCParams, f"qc.{omega}") for omega in omegas("qc")}
    params = ModelParams(ple=ple, fle=fle, trm=trm, qc=qc)
    placed = {p.name for p in params.all()}
    for name in arrays:
        if name not in placed:
            raise KeyError(f"parameter {name} has no place in the model")
    if not trm:
        raise KeyError("no tuple-matching parameters found")
    return params


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
class ForwardResult:
    """The episode loss, and every query's logits against every class as
    [queries x classes] arrays; similarity logits are None when that head is
    off."""

    loss: Tensor
    trm_logits: np.ndarray
    qc_logits: np.ndarray | None
    loss_tm: float
    loss_qc: float


# Bytes of float64 clip rows that enrich_block widens and patch-enriches at a
# time, about a core's L2 cache: patch enrichment's transient is a few times
# one group's block instead of growing with the clips per call. A group holds
# at least one clip.
ENRICH_GROUP_BYTES = 2 << 20


def enrich_block(tape: Tape, clips: Sequence[FeatureClip], params: ModelParams,
                 config: ModelConfig) -> tuple[Tensor, Tensor]:
    """Enrich many clips in batched passes.

    Takes the clips themselves and returns (pooled, enriched), the clips'
    frame rows back to back, each [n * frames x channels]: pooled over
    patches after patch enrichment, and enriched after frame enrichment.
    With frame enrichment off they are one tensor. Patch enrichment never
    crosses a frame, so the clips are widened and patch-enriched in
    consecutive groups of at most ENRICH_GROUP_BYTES (at least one clip
    each), sharing PLE's folds, and every row is the same whatever the
    grouping. A group's payloads (float32 or float64 as stored; a loaded
    clip reads its file) are read only when that group is widened, and die
    with the widening, so one group's payloads are alive at a time. Clip
    values are module inputs, so stacking a group outside the tape is
    gradient-free; it is also the one place they are widened to float64,
    which is exact.
    """
    for clip in clips:
        if clip.shape[0] != config.frames or clip.shape[2] != config.channels \
                or clip.shape != clips[0].shape:
            raise ShapeError(
                f"clip shape {clip.shape} does not match config "
                f"[{config.frames} x patches x {config.channels}] and the "
                f"first clip {clips[0].shape}")
    n = len(clips)
    per_group = max(1, ENRICH_GROUP_BYTES // (8 * math.prod(clips[0].shape)))
    folds = None if params.ple is None else enrichment.ple_folds(tape, params.ple)

    def pool(group: Sequence[FeatureClip]) -> Tensor:
        block = Tensor(np.concatenate([clip.payload for clip in group], axis=0,
                                      dtype=np.float64))
        if folds is None:
            return tape.mean(block, axis=1)  # (group * frames) x channels
        return enrichment.ple_forward_batch(tape, block, params.ple, folds)

    parts = [pool(clips[i:i + per_group]) for i in range(0, n, per_group)]
    pooled = parts[0] if len(parts) == 1 else tape.concat(parts)
    if params.fle is None:
        return pooled, pooled
    enriched = enrichment.fle_forward_batch(
        tape, tape.reshape(pooled, (n, config.frames, config.channels)), params.fle)
    return pooled, tape.reshape(enriched, (n * config.frames, config.channels))


def enrich_clips(tape: Tape, clips: Sequence[Tensor], params: ModelParams,
                 config: ModelConfig,
                 need_pooled: bool = True) -> list[tuple[Tensor | None, Tensor]]:
    """Per-clip (pooled, enriched) [frames x channels] pairs: enrich_block on
    the clips as in-memory FeatureClips, split into row slices. Pooled is
    None when not requested."""
    pooled_all, enriched_all = enrich_block(tape, [FeatureClip(v) for v in clips],
                                            params, config)
    out: list[tuple[Tensor | None, Tensor]] = []
    for i in range(len(clips)):
        start, stop = i * config.frames, (i + 1) * config.frames
        enriched = tape.slice_rows(enriched_all, start, stop)
        if not need_pooled:
            out.append((None, enriched))
        elif pooled_all is enriched_all:
            out.append((enriched, enriched))
        else:
            out.append((tape.slice_rows(pooled_all, start, stop), enriched))
    return out


def episode_clips(episode: Episode) -> tuple[list[int], list[ClipRecord]]:
    """The support clips per class, and the episode's clips in block order:
    the support clips class-major, then the queries."""
    shots = [len(way_clips) for way_clips in episode.support]
    matching.check_class_sizes(shots)
    return shots, ([rec for way_clips in episode.support for rec in way_clips]
                   + [rec for rec, _ in episode.queries])


def score_rows(tape: Tape, rows: Tensor, shots: Sequence[int], params: ModelParams,
               config: ModelConfig, similarity: bool = False) -> Tensor:
    """Logits of every query against every class, [queries x classes], from
    an episode's frame rows [clips * frames x channels] in episode_clips'
    order: matching logits on enriched rows, or with `similarity` the
    similarity head's logits on pooled rows. One row slice takes out the
    class-major support rows and one the query rows."""
    support_rows = sum(shots) * config.frames
    support = tape.slice_rows(rows, 0, support_rows)
    queries = tape.reshape(tape.slice_rows(rows, support_rows, rows.shape[0]),
                           (rows.shape[0] // config.frames - sum(shots),
                            config.frames, config.channels))
    logits, heads = ((matching.qc_logits, params.qc) if similarity
                     else (matching.trm_logits, params.trm))
    return logits(tape, queries, support, config.tuple_sets(), heads, classes=len(shots))


def score_episode(tape: Tape, episode: Episode, params: ModelParams,
                  config: ModelConfig) -> tuple[Tensor, Tensor | None]:
    """Logits of every query against every class, each [queries x classes]:
    matching logits on the enriched frames, and similarity logits on the
    pooled frames (None unless the head is on in both params and config).

    The episode is enriched as one block by enrich_block, which reads the
    clips' payloads a group at a time, and scored by score_rows. Unless the
    similarity head is scored, the pooled rows are dropped before matching.
    """
    shots, records = episode_clips(episode)
    pooled, enriched = enrich_block(tape, [rec.features for rec in records], params, config)
    if not (params.qc and config.use_qc):
        del pooled
        return score_rows(tape, enriched, shots, params, config), None
    return (score_rows(tape, enriched, shots, params, config),
            score_rows(tape, pooled, shots, params, config, similarity=True))


def forward_episode(tape: Tape, episode: Episode, params: ModelParams,
                    config: ModelConfig) -> ForwardResult:
    """Joint loss and every query's logits for one episode.

    Matching logits are negative tuple distances on the temporally enriched
    features; similarity logits come from the pooled features. The loss is
    the matching cross-entropy plus qc_weight times the similarity
    cross-entropy, averaged over the episode's queries.
    """
    targets = [way for _, way in episode.queries]
    tm, qc = score_episode(tape, episode, params, config)
    tm_mean = tape.mean(tape.cross_entropy(tape.softmax_last(tm), targets), axis=0)
    if qc is None:
        return ForwardResult(tm_mean, tm.data, None, tm_mean.item(), 0.0)
    qc_mean = tape.mean(tape.cross_entropy(tape.softmax_last(qc), targets), axis=0)
    loss = tape.add(tm_mean, tape.scale(qc_mean, config.qc_weight))
    return ForwardResult(loss, tm.data, qc.data, tm_mean.item(), qc_mean.item())
