"""Tuple-based temporal matching between query and support clips.

Sub-sequences are strictly increasing frame-index tuples. A query is scored
against a class by embedding every tuple, building a query-conditioned class
prototype via cross-attention over all support tuples, and averaging the
Euclidean distances; a separate similarity head scores classes by the best
cosine match between projected tuple codes.

Tuple projections are factorized: every frame is projected once per tuple
position and a constant selection adds up each tuple's terms. Logits score
a block of queries against every class in one batched pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diffcore import Param, ShapeError, Tape, Tensor, seeded_init

__all__ = [
    "TupleIndex",
    "TupleEmbedParams",
    "QCParams",
    "init_trm_params",
    "init_qc_params",
    "enumerate_tuples",
    "tuple_count",
    "select_tuples",
    "tuple_repr",
    "tuple_matrix",
    "project_tuples",
    "ClassSupportEmbeds",
    "embed_class_supports",
    "ClassBlock",
    "stack_classes",
    "trm_distance",
    "trm_logits",
    "encode_class_supports",
    "qc_similarity",
    "qc_logits",
]

TupleIndex = tuple[int, ...]  # strictly increasing zero-based frame indices


@dataclass
class TupleEmbedParams:
    """Key/value projections from concatenated tuple features, one pair per
    tuple cardinality."""

    key_proj: Param  # (omega * D) x embed_dim
    value_proj: Param  # (omega * D) x embed_dim

    def all(self) -> list[Param]:
        return [self.key_proj, self.value_proj]

    @property
    def embed_dim(self) -> int:
        return self.key_proj.value.shape[1]


@dataclass
class QCParams:
    """Projection of concatenated tuple features to ReLU codes, per cardinality."""

    class_proj: Param  # (omega * D) x code_dim

    def all(self) -> list[Param]:
        return [self.class_proj]


def init_trm_params(omega: int, channels: int, embed_dim: int, seed_for) -> TupleEmbedParams:
    rows = omega * channels
    return TupleEmbedParams(
        key_proj=Param(f"trm.{omega}.key_proj",
                       seeded_init((rows, embed_dim), rows, embed_dim,
                                   seed_for(f"trm.{omega}.key_proj"))),
        value_proj=Param(f"trm.{omega}.value_proj",
                         seeded_init((rows, embed_dim), rows, embed_dim,
                                     seed_for(f"trm.{omega}.value_proj"))),
    )


def init_qc_params(omega: int, channels: int, code_dim: int, seed_for) -> QCParams:
    rows = omega * channels
    return QCParams(
        class_proj=Param(f"qc.{omega}.class_proj",
                         seeded_init((rows, code_dim), rows, code_dim,
                                     seed_for(f"qc.{omega}.class_proj"))),
    )


def enumerate_tuples(frames: int, omegas: Sequence[int]) -> list[TupleIndex]:
    """All strictly increasing index tuples over `frames`, for every requested
    cardinality, in lexicographic order within each cardinality."""
    out: list[TupleIndex] = []
    for omega in omegas:
        if not 1 <= omega <= frames:
            raise ShapeError(f"tuple cardinality {omega} invalid for {frames} frames")
        out.extend(itertools.combinations(range(frames), omega))
    return out


def tuple_count(frames: int, omega: int) -> int:
    if not 1 <= omega <= frames:
        raise ShapeError(f"tuple cardinality {omega} invalid for {frames} frames")
    return math.comb(frames, omega)


def select_tuples(
    frames: int,
    omegas: Sequence[int],
    keep_ratio: float = 1.0,
    tuple_seed: int = 0,
) -> dict[int, list[TupleIndex]]:
    """Tuple sets per cardinality, optionally subsampled.

    With keep_ratio 1.0 this is exactly the full lexicographic enumeration.
    Otherwise the first ceil(keep_ratio * count) tuples of a seed-shuffled
    ordering are kept, deterministically in (tuple_seed, cardinality).
    """
    if not 0.0 < keep_ratio <= 1.0:
        raise ValueError(f"keep_ratio must be in (0, 1], got {keep_ratio}")
    out: dict[int, list[TupleIndex]] = {}
    for omega in sorted(set(int(w) for w in omegas)):
        full = enumerate_tuples(frames, [omega])
        if keep_ratio == 1.0:
            out[omega] = full
            continue
        rng = np.random.default_rng([int(tuple_seed), omega])
        order = rng.permutation(len(full))
        kept = math.ceil(keep_ratio * len(full))
        out[omega] = [full[i] for i in order[:kept]]
    return out


def tuple_repr(tape: Tape, frames: Tensor, t: TupleIndex) -> Tensor:
    """Concatenate the selected frame rows, in tuple order, into one vector."""
    gathered = tape.gather_rows(frames, t)
    return tape.reshape(gathered, (len(t) * frames.shape[1],))


def tuple_matrix(tape: Tape, frames: Tensor, tuples: Sequence[TupleIndex]) -> Tensor:
    """All tuple representations stacked: row i is tuple i's concatenated frames."""
    omega = len(tuples[0])
    flat_idx = [i for t in tuples for i in t]
    gathered = tape.gather_rows(frames, flat_idx)
    return tape.reshape(gathered, (len(tuples), omega * frames.shape[1]))


def _selection(tuples: Sequence[TupleIndex], frames: int) -> np.ndarray:
    """Constant one-hot [omega x tuples x frames]: slice j picks frame t_j of
    every tuple t."""
    idx = np.asarray(tuples, dtype=np.intp)
    if idx.min() < 0 or idx.max() >= frames:
        raise IndexError(f"tuple frame index out of range for {frames} frames")
    omega, count = idx.shape[1], idx.shape[0]
    sel = np.zeros((omega, count, frames))
    sel[np.arange(omega)[:, None], np.arange(count)[None, :], idx.T] = 1.0
    return sel


def project_tuples(
    tape: Tape,
    frames: Tensor,
    clip_frames: int,
    weight: Tensor,
    tuples: Sequence[TupleIndex],
) -> Tensor:
    """Projection of every tuple representation of every clip,
    [clips x tuples x width]; row t of clip c equals tuple_matrix(...) @ weight.

    `frames` holds the clips' frame rows back to back, [clips * clip_frames x D].
    A tuple row concat(f_t1..f_tw) @ W is sum_j f_tj @ W_j, with W_j the j-th
    block of D rows of W, so every frame is projected once per position and a
    constant one-hot contraction adds up each tuple's terms.
    """
    omega = len(tuples[0])
    channels = frames.shape[1]
    width = weight.shape[1]
    clips = frames.shape[0] // clip_frames
    # Stacking the (small) frames keeps W in place: a relaid-out copy of W
    # per call would stay alive on the tape until backward.
    per_position = tape.bmm(tape.stack([frames] * omega),
                            tape.reshape(weight, (omega, channels, width)))
    return tape.combine_rows(
        tape.reshape(per_position, (omega, clips, clip_frames, width)),
        _selection(tuples, clip_frames))


def _rows(tape: Tape, x: Tensor) -> Tensor:
    """Merge every leading axis into one: [... x k] -> [n x k]."""
    return tape.reshape(x, (x.size // x.shape[-1], x.shape[-1]))


def _concat_rows(tape: Tape, parts: Sequence[Tensor]) -> Tensor:
    return parts[0] if len(parts) == 1 else tape.concat(list(parts), axis=0)


def _clip_block(tape: Tape, clips: Sequence[Tensor]) -> tuple[Tensor, int]:
    """Frame rows of equally shaped clips back to back, and frames per clip."""
    shape = clips[0].shape
    for i, clip in enumerate(clips):
        if clip.ndim != 2 or clip.shape != shape:
            raise ShapeError(f"clip {i} has shape {clip.shape}, clip 0 has {shape}")
    return _concat_rows(tape, clips), shape[0]


def _query_block(tape: Tape, query_frames: Tensor) -> tuple[Tensor, int, int]:
    """Frame rows of one query [L x D] or a query block [Q x L x D], with Q and L."""
    if query_frames.ndim == 2:
        return query_frames, 1, query_frames.shape[0]
    if query_frames.ndim == 3:
        queries, frames, channels = query_frames.shape
        return tape.reshape(query_frames, (queries * frames, channels)), queries, frames
    raise ShapeError(f"query must be [L x D] or [Q x L x D], got {query_frames.shape}")


def _check_class_sizes(sizes: Sequence[int]) -> None:
    """Batched matching scores every class in one block: classes must be equal."""
    for c, n in enumerate(sizes):
        if n != sizes[0]:
            raise ShapeError(f"class {c} has {n} support clips but class 0 has "
                             f"{sizes[0]}; every class needs the same number")


@dataclass
class ClassSupportEmbeds:
    """Per-cardinality key/value embeddings of a support set's tuples, pooled
    clip-major: omega -> [clips * tuples x embed_dim]."""

    keys: dict[int, Tensor]
    values: dict[int, Tensor]


def embed_class_supports(
    tape: Tape,
    support_frames: Sequence[Tensor],
    tuple_sets: dict[int, list[TupleIndex]],
    trm_params: dict[int, TupleEmbedParams],
) -> ClassSupportEmbeds:
    """Key/value embeddings of every tuple of a support set, one projection
    per weight for all of its clips."""
    if not support_frames:
        raise ShapeError("support set is empty")
    block, frames = _clip_block(tape, support_frames)
    keys: dict[int, Tensor] = {}
    values: dict[int, Tensor] = {}
    for omega, tuples in tuple_sets.items():
        params = trm_params[omega]
        keys[omega] = _rows(tape, project_tuples(tape, block, frames,
                                                 params.key_proj.value, tuples))
        values[omega] = _rows(tape, project_tuples(tape, block, frames,
                                                   params.value_proj.value, tuples))
    return ClassSupportEmbeds(keys=keys, values=values)


@dataclass
class ClassBlock:
    """Support embeddings of every class, laid out for batched scoring:
    keys_t omega -> [classes x embed_dim x clips * tuples] (keys transposed
    for the attention product), values omega -> [classes x clips * tuples x
    embed_dim]."""

    keys_t: dict[int, Tensor]
    values: dict[int, Tensor]


def stack_classes(
    tape: Tape,
    class_supports: Sequence[Sequence[Tensor]] | Sequence[ClassSupportEmbeds],
    tuple_sets: dict[int, list[TupleIndex]],
    trm_params: dict[int, TupleEmbedParams],
) -> ClassBlock:
    """One block of every class's support keys and values, from per-class
    clip lists (embedded together in one pass) or per-class embeddings.
    Every class needs the same number of support clips."""
    classes = len(class_supports)
    if all(isinstance(s, ClassSupportEmbeds) for s in class_supports):
        some = next(iter(tuple_sets))
        _check_class_sizes([s.keys[some].shape[0] // len(tuple_sets[some])
                            for s in class_supports])
        keys = {w: _concat_rows(tape, [s.keys[w] for s in class_supports])
                for w in tuple_sets}
        values = {w: _concat_rows(tape, [s.values[w] for s in class_supports])
                  for w in tuple_sets}
    else:
        _check_class_sizes([len(group) for group in class_supports])
        pooled = embed_class_supports(
            tape, [clip for group in class_supports for clip in group],
            tuple_sets, trm_params)
        keys, values = pooled.keys, pooled.values

    def split(x: Tensor) -> Tensor:
        return tape.reshape(x, (classes, x.shape[0] // classes, x.shape[1]))

    return ClassBlock(keys_t={w: tape.transpose_last2(split(k)) for w, k in keys.items()},
                      values={w: split(v) for w, v in values.items()})


def _trm_distances(
    tape: Tape,
    query_frames: Tensor,
    block: ClassBlock,
    tuple_sets: dict[int, list[TupleIndex]],
    trm_params: dict[int, TupleEmbedParams],
) -> Tensor:
    """Matching distances [classes x queries] from one query or a query block
    to every class of a block."""
    rows, queries, frames = _query_block(tape, query_frames)
    total: Tensor | None = None
    for omega, tuples in tuple_sets.items():
        params = trm_params[omega]
        classes, embed_dim, _ = block.keys_t[omega].shape
        q_keys = tape.scale(
            _rows(tape, project_tuples(tape, rows, frames, params.key_proj.value, tuples)),
            1.0 / math.sqrt(embed_dim),
        )
        q_vals = _rows(tape, project_tuples(tape, rows, frames,
                                            params.value_proj.value, tuples))
        # each class block: every query tuple attends over that class's tuples
        scores = tape.bmm(tape.stack([q_keys] * classes), block.keys_t[omega])
        prototypes = tape.bmm(tape.softmax_last(scores), block.values[omega])
        diffs = tape.sub(tape.stack([q_vals] * classes), prototypes)
        norms = tape.rows_l2norm(_rows(tape, diffs))
        dist = tape.mean(tape.reshape(norms, (classes, queries, len(tuples))), axis=2)
        total = dist if total is None else tape.add(total, dist)
    assert total is not None
    return total


def trm_distance(
    tape: Tape,
    query_frames: Tensor,
    support_frames: Sequence[Tensor],
    tuple_sets: dict[int, list[TupleIndex]],
    trm_params: dict[int, TupleEmbedParams],
) -> Tensor:
    """Distance from a query clip to one class's support set.

    For every query tuple, a prototype is aggregated from all support tuples
    of the class (attention over scaled key dot products, pooled across all
    support clips), and the Euclidean distance between the query's value
    embedding and the prototype is averaged per cardinality, then summed
    over cardinalities.
    """
    block = stack_classes(tape, [support_frames], tuple_sets, trm_params)
    return tape.reshape(_trm_distances(tape, query_frames, block, tuple_sets, trm_params), ())


def trm_logits(
    tape: Tape,
    query_frames: Tensor,
    class_supports: Sequence[Sequence[Tensor]] | Sequence[ClassSupportEmbeds],
    tuple_sets: dict[int, list[TupleIndex]],
    trm_params: dict[int, TupleEmbedParams],
) -> Tensor:
    """Per-class logits, the negative matching distances: [classes] for one
    query clip [L x D], [Q x classes] for a query block [Q x L x D].

    Classes come as support clip lists or per-class embeddings (one per
    class, all with the same number of clips), or as a block from
    stack_classes, which scores many queries without restacking.
    """
    if not isinstance(class_supports, ClassBlock):
        if len(class_supports) < 2:
            raise ShapeError("need at least 2 classes")
        class_supports = stack_classes(tape, class_supports, tuple_sets, trm_params)
    dist = _trm_distances(tape, query_frames, class_supports, tuple_sets, trm_params)
    per_query = (tape.reshape(dist, (dist.shape[0],)) if query_frames.ndim == 2
                 else tape.transpose(dist))
    return tape.scale(per_query, -1.0)


def encode_class_supports(
    tape: Tape,
    support_frames: Sequence[Tensor],
    tuple_sets: dict[int, list[TupleIndex]],
    qc_params: dict[int, QCParams],
) -> dict[int, Tensor]:
    """ReLU codes of every tuple of a support set, pooled clip-major:
    omega -> [clips * tuples x code_dim]."""
    if not support_frames:
        raise ShapeError("support set is empty")
    block, frames = _clip_block(tape, support_frames)
    return {
        omega: _rows(tape, tape.relu(project_tuples(
            tape, block, frames, qc_params[omega].class_proj.value, tuples)))
        for omega, tuples in tuple_sets.items()
    }


def _class_codes(
    tape: Tape,
    class_supports: Sequence[Sequence[Tensor]] | Sequence[dict[int, Tensor]],
    tuple_sets: dict[int, list[TupleIndex]],
    qc_params: dict[int, QCParams],
) -> dict[int, Tensor]:
    """Support codes of every class, class-major: omega -> [classes * clips *
    tuples x code_dim]. Clip lists are encoded together in one pass."""
    if all(isinstance(s, dict) for s in class_supports):
        some = next(iter(tuple_sets))
        _check_class_sizes([s[some].shape[0] // len(tuple_sets[some])
                            for s in class_supports])
        return {w: _concat_rows(tape, [s[w] for s in class_supports]) for w in tuple_sets}
    _check_class_sizes([len(group) for group in class_supports])
    return encode_class_supports(
        tape, [clip for group in class_supports for clip in group], tuple_sets, qc_params)


def _qc_similarities(
    tape: Tape,
    query_frames: Tensor,
    codes: dict[int, Tensor],
    classes: int,
    tuple_sets: dict[int, list[TupleIndex]],
    qc_params: dict[int, QCParams],
) -> Tensor:
    """Similarities [queries x classes] from one query or a query block to
    class-major support codes."""
    block, queries, frames = _query_block(tape, query_frames)
    total: Tensor | None = None
    for omega, tuples in tuple_sets.items():
        q_codes = _rows(tape, tape.relu(project_tuples(
            tape, block, frames, qc_params[omega].class_proj.value, tuples)))
        sims = tape.cosine_matrix(q_codes, codes[omega])
        # best match of each query tuple within each class's support tuples
        best = tape.max_rows(tape.reshape(
            sims, (queries * len(tuples) * classes, sims.shape[1] // classes)))
        sim = tape.mean(tape.reshape(best, (queries, len(tuples), classes)), axis=1)
        total = sim if total is None else tape.add(total, sim)
    assert total is not None
    return total


def qc_similarity(
    tape: Tape,
    query_frames: Tensor,
    support_frames: Sequence[Tensor],
    tuple_sets: dict[int, list[TupleIndex]],
    qc_params: dict[int, QCParams],
) -> Tensor:
    """Query-to-class similarity from tuple codes.

    Every tuple of the query and of the pooled supports is projected to a
    ReLU code; each query tuple takes its best cosine match over all support
    tuples (zero-norm codes score 0), matches are averaged per cardinality
    and summed over cardinalities.
    """
    codes = encode_class_supports(tape, support_frames, tuple_sets, qc_params)
    return tape.reshape(
        _qc_similarities(tape, query_frames, codes, 1, tuple_sets, qc_params), ())


def qc_logits(
    tape: Tape,
    query_frames: Tensor,
    class_supports: Sequence[Sequence[Tensor]] | Sequence[dict[int, Tensor]],
    tuple_sets: dict[int, list[TupleIndex]],
    qc_params: dict[int, QCParams],
) -> Tensor:
    """Per-class similarity logits: [classes] for one query clip [L x D],
    [Q x classes] for a query block [Q x L x D].

    Classes come as support clip lists or as precomputed pooled code
    matrices (omega -> codes); all classes need the same number of support
    clips.
    """
    if len(class_supports) < 2:
        raise ShapeError("need at least 2 classes")
    classes = len(class_supports)
    codes = _class_codes(tape, class_supports, tuple_sets, qc_params)
    sims = _qc_similarities(tape, query_frames, codes, classes, tuple_sets, qc_params)
    return tape.reshape(sims, (classes,)) if query_frames.ndim == 2 else sims
