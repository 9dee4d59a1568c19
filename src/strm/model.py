"""Model assembly: configuration, parameter construction, and the episode
forward pass producing the joint training loss."""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace
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
    "enrich_block",
    "enrich_clips",
    "episode_clips",
    "score_rows",
    "score_episode",
    "forward_episode",
]


@dataclass
class ModelConfig:
    """All model extents, toggles, and seeds. The toggles use_ple, use_fle
    and use_qc alone decide which stages score: parameters must hold every
    group they enable, and a group they disable is not read. Defaults are
    desk scale; paper scale (channels=2048, refine_hidden=1024,
    embed_dim=1152, code_dim=1024, patches=16) remains expressible.
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
        if not 0.0 <= self.qc_weight < math.inf:
            raise ValueError(f"qc_weight must be finite and nonnegative, got {self.qc_weight}")
        self.tuple_sets()  # select_tuples refuses bad cardinalities or keep ratios

    def tuple_sets(self) -> dict[int, list[TupleIndex]]:
        return matching.select_tuples(self.frames, self.omegas,
                                      self.tuple_keep_ratio, self.tuple_seed)


@dataclass
class ModelParams:
    """Every learnable weight, grouped; build_params gives a disabled stage none."""

    ple: PLEParams | None
    fle: FLEParams | None
    trm: dict[int, TupleEmbedParams]
    qc: dict[int, QCParams]

    def all(self) -> list[Param]:
        groups = [self.ple, self.fle, *(self.trm[w] for w in sorted(self.trm)),
                  *(self.qc[w] for w in sorted(self.qc))]
        return [p for group in groups if group is not None for p in group.all()]

    def scored(self, config: ModelConfig) -> ModelParams:
        """The groups `config` scores with, those validate_against walks."""
        return ModelParams(self.ple if config.use_ple else None,
                           self.fle if config.use_fle else None,
                           {w: self.trm[w] for w in config.omegas},
                           {w: self.qc[w] for w in config.omegas} if config.use_qc else {})


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

    def omegas(head: str) -> list[int]:
        return sorted({int(parts[1]) for parts in (n.split(".") for n in arrays)
                       if parts[0] == head and len(parts) == 3 and parts[1].isdecimal()})

    ple = PLEParams.load("ple", arrays) if any(n.startswith("ple.") for n in arrays) else None
    fle = FLEParams.load("fle", arrays) if any(n.startswith("fle.") for n in arrays) else None
    trm = {omega: TupleEmbedParams.load(f"trm.{omega}", arrays) for omega in omegas("trm")}
    qc = {omega: QCParams.load(f"qc.{omega}", arrays) for omega in omegas("qc")}
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
        embed_dim=first.key_proj.value.shape[1],
        code_dim=next((h.class_proj.value.shape[1] for h in params.qc.values()), 1),
        omegas=omegas,
        use_ple=params.ple is not None,
        use_fle=params.fle is not None,
        use_qc=bool(params.qc),
    )
    return replace(cfg, **overrides) if overrides else cfg


def validate_against(params: ModelParams, config: ModelConfig) -> None:
    """Refuse parameters that disagree with the config, naming the first
    group or parameter at fault: each group the config scores with, in
    ModelParams.all() order, must be present and every parameter in it must
    have the shape its group declares."""
    d, omegas = config.channels, config.omegas
    read = ([("ple", params.ple, PLEParams.shapes(d, config.refine_hidden))] * config.use_ple
            + [("fle", params.fle, FLEParams.shapes(config.frames, d))] * config.use_fle
            + [(f"trm.{w}", params.trm.get(w), TupleEmbedParams.shapes(w, d, config.embed_dim))
               for w in omegas]
            + [(f"qc.{w}", params.qc.get(w), QCParams.shapes(w, d, config.code_dim))
               for w in omegas if config.use_qc])
    for name, group, shapes in read:
        if group is None:
            raise ShapeError(f"parameters lack {name}, which the config scores with")
        for p, want in zip(group.all(), shapes):
            if p.value.shape != want:
                raise ShapeError(
                    f"{p.name}: extent mismatch, checkpoint {p.value.shape} vs config {want}")


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


def enrich_block(tape: Tape, clips: Sequence[FeatureClip], params: ModelParams,
                 config: ModelConfig,
                 folds: tuple[Tensor, Tensor] | None = None) -> tuple[Tensor, Tensor]:
    """Enrich many clips in one batched pass.

    Takes the clips themselves, each [frames x patches x channels] as the
    config declares (any other shape is refused before a payload is read,
    naming a loaded clip's file or else the clip's index in the call), and
    returns (pooled, enriched), the clips' frame rows back to back, each
    [n * frames x channels]: pooled over patches after patch enrichment,
    and enriched after frame enrichment.
    With frame enrichment off they are one tensor. Patch enrichment never
    crosses a frame and frame enrichment never crosses a clip, so every row
    is the same whatever clips share the call; `folds` is PLE's
    (ple_folds), formed here unless a caller that enriches its clips call by
    call passes them. The payloads (float32 or float64 as stored; a loaded
    clip reads its file) die with the widening. Clip values are module
    inputs, so stacking them outside the tape is gradient-free; it is also
    the one place they are widened to float64, which is exact.
    """
    for i, clip in enumerate(clips):
        if clip.shape != (config.frames, config.patches, config.channels):
            raise ShapeError(f"{clip._path or f'clip #{i}'}: shape {clip.shape} does not match "
                             f"config [{config.frames} x {config.patches} x {config.channels}]")
    if config.use_ple and folds is None:
        folds = enrichment.ple_folds(tape, params.ple)
    block = Tensor(np.concatenate([clip.payload for clip in clips], axis=0, dtype=np.float64))
    pooled = (enrichment.ple_forward_batch(tape, block, params.ple, folds) if config.use_ple
              else tape.mean(block, axis=1))  # (n * frames) x channels
    if not config.use_fle:
        return pooled, pooled
    n = len(clips)
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
    pooled frames (None unless the config's similarity head is on).

    validate_against checks the pair before any clip is read. The episode is
    enriched as one block by enrich_block and scored by score_rows. Unless
    the similarity head is scored, the pooled rows are dropped before
    matching.
    """
    validate_against(params, config)
    shots, records = episode_clips(episode)
    pooled, enriched = enrich_block(tape, [rec.features for rec in records], params, config)
    if not config.use_qc:
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
    cross-entropy, each a log_softmax_nll averaged over the episode's queries.
    """
    targets = [way for _, way in episode.queries]
    tm, qc = score_episode(tape, episode, params, config)
    tm_mean = tape.mean(tape.log_softmax_nll(tm, targets), axis=0)
    if qc is None:
        return ForwardResult(tm_mean, tm.data, None, tm_mean.item(), 0.0)
    qc_mean = tape.mean(tape.log_softmax_nll(qc, targets), axis=0)
    loss = tape.add(tm_mean, tape.scale(qc_mean, config.qc_weight))
    return ForwardResult(loss, tm.data, qc.data, tm_mean.item(), qc_mean.item())
