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

from .diffcore import Param, ParamGroup, ShapeError, Tape, Tensor, seeded_init

__all__ = [
    "TupleIndex",
    "TupleEmbedParams",
    "QCParams",
    "init_trm_params",
    "init_qc_params",
    "enumerate_tuples",
    "tuple_count",
    "select_tuples",
    "project_tuples",
    "check_class_sizes",
    "embed_class_supports",
    "trm_distance",
    "trm_logits",
    "encode_class_supports",
    "qc_similarity",
    "qc_logits",
]

TupleIndex = tuple[int, ...]  # strictly increasing zero-based frame indices


@dataclass
class TupleEmbedParams(ParamGroup):
    """Key/value projections from concatenated tuple features, one pair per
    tuple cardinality."""

    key_proj: Param  # (omega * D) x embed_dim
    value_proj: Param  # (omega * D) x embed_dim

    @property
    def embed_dim(self) -> int:
        return self.key_proj.value.shape[1]


@dataclass
class QCParams(ParamGroup):
    """Projection of concatenated tuple features to ReLU codes, per cardinality."""

    class_proj: Param  # (omega * D) x code_dim


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
    [clips x tuples x width]; row t of clip c is the tuple's frame rows,
    concatenated, times weight.

    `frames` holds the clips' frame rows back to back, [clips * clip_frames x D].
    A tuple row concat(f_t1..f_tw) @ W is sum_j f_tj @ W_j, with W_j the j-th
    block of D rows of W, so every frame is projected once per position and a
    constant one-hot contraction adds up each tuple's terms.
    """
    omega = len(tuples[0])
    channels = frames.shape[1]
    width = weight.shape[1]
    clips = frames.shape[0] // clip_frames
    # Repeating the (small) frames keeps W in place. On a recording tape the
    # product's node keeps the repeated frames for W's adjoint and a view of W
    # for the frames' adjoint; a relaid-out copy of W per call would instead
    # stay alive until backward.
    per_position = tape.bmm(tape.repeat(frames, omega),
                            tape.reshape(weight, (omega, channels, width)))
    return tape.combine_rows(
        tape.reshape(per_position, (omega, clips, clip_frames, width)),
        _selection(tuples, clip_frames))


def _rows(tape: Tape, x: Tensor) -> Tensor:
    """Merge every leading axis into one: [... x k] -> [n x k]."""
    return tape.reshape(x, (x.size // x.shape[-1], x.shape[-1]))


def _concat_rows(tape: Tape, parts: Sequence[Tensor]) -> Tensor:
    return parts[0] if len(parts) == 1 else tape.concat(parts)


def _clip_block(tape: Tape, clips: Sequence[Tensor], frames: int | None) -> Tensor:
    """One class's equally shaped clips as a block of frame rows; with
    `frames` given, each clip must have that many, the query's frame count."""
    if not clips:
        raise ShapeError("support set is empty")
    shape = clips[0].shape
    for i, clip in enumerate(clips):
        if clip.ndim != 2 or clip.shape != shape:
            raise ShapeError(f"clip {i} has shape {clip.shape}, clip 0 has {shape}")
    if frames is not None and shape[0] != frames:
        raise ShapeError(f"support clips have {shape[0]} frames, the query has {frames}")
    return _concat_rows(tape, clips)


def _one_query(tape: Tape, query_frames: Tensor) -> Tensor:
    """One query clip [L x D] as a query block of one [1 x L x D]."""
    return tape.reshape(query_frames, (1,) + query_frames.shape)


def check_class_sizes(sizes: Sequence[int]) -> None:
    """Batched matching scores every class in one block: classes must be equal."""
    for c, n in enumerate(sizes):
        if n != sizes[0]:
            raise ShapeError(f"class {c} has {n} support clips but class 0 has "
                             f"{sizes[0]}; every class needs the same number")


def _check_blocks(query_frames: Tensor, support: Tensor, classes: int | None) -> None:
    """A query block [Q x L x D] against a class-major support block
    [classes * clips * L x D] that holds each class as an equal run of whole
    clips of L frames."""
    if query_frames.ndim != 3:
        raise ShapeError(f"query block must be [Q x L x D], got {query_frames.shape}")
    frames = query_frames.shape[1]
    if classes is None or classes < 1 or support.ndim != 2 \
            or support.shape[0] % (classes * frames) != 0:
        raise ShapeError(f"support block {support.shape} does not hold "
                         f"{classes} classes of equal clips of {frames} frames")


def _embed_rows(
    tape: Tape,
    block: Tensor,
    frames: int,
    tuple_sets: dict[int, list[TupleIndex]],
    trm_params: dict[int, TupleEmbedParams],
) -> tuple[dict[int, Tensor], dict[int, Tensor]]:
    """Key and value embeddings of every tuple of clips stored back to back
    as frame rows, omega -> [clips * tuples x embed_dim], one projection per
    weight for all of them."""
    keys: dict[int, Tensor] = {}
    values: dict[int, Tensor] = {}
    # key then value for each omega: the node order sets the order in which
    # backward adds the frames' adjoints, so all keys first changes bits
    for omega, tuples in tuple_sets.items():
        params = trm_params[omega]
        keys[omega] = _rows(tape, project_tuples(tape, block, frames,
                                                 params.key_proj.value, tuples))
        values[omega] = _rows(tape, project_tuples(tape, block, frames,
                                                   params.value_proj.value, tuples))
    return keys, values


def embed_class_supports(
    tape: Tape,
    support_frames: Sequence[Tensor],
    tuple_sets: dict[int, list[TupleIndex]],
    trm_params: dict[int, TupleEmbedParams],
) -> Tensor:
    """One class's support clips as a validated block of frame rows, the
    per-class form that trm_logits takes as a list. Kept because perfbench's
    matching gate calls it by name; the embedding happens in trm_logits."""
    return _clip_block(tape, support_frames, None)


def _trm_distances(
    tape: Tape,
    query_frames: Tensor,
    support: Tensor,
    classes: int,
    tuple_sets: dict[int, list[TupleIndex]],
    trm_params: dict[int, TupleEmbedParams],
) -> Tensor:
    """Matching distances [classes x queries] from a query block to every
    class of a class-major support block of frame rows."""
    _check_blocks(query_frames, support, classes)
    queries, frames = query_frames.shape[:2]
    rows = _rows(tape, query_frames)
    keys, values = _embed_rows(tape, support, frames, tuple_sets, trm_params)

    def per_class(x: Tensor) -> Tensor:
        return tape.reshape(x, (classes, x.shape[0] // classes, x.shape[1]))

    # keys transposed for the attention product: [classes x embed_dim x clips * tuples]
    keys_t = {w: tape.transpose(per_class(k)) for w, k in keys.items()}
    values = {w: per_class(v) for w, v in values.items()}
    q_keys, q_values = _embed_rows(tape, rows, frames, tuple_sets, trm_params)
    total: Tensor | None = None
    for omega, tuples in tuple_sets.items():
        scaled = tape.scale(q_keys[omega], 1.0 / math.sqrt(keys_t[omega].shape[1]))
        # each class block: every query tuple attends over that class's tuples;
        # the scores are used inline, so a forward-only tape frees them
        # before the prototype product
        probs = tape.softmax_last(tape.bmm(tape.repeat(scaled, classes), keys_t[omega]))
        prototypes = tape.bmm(probs, values[omega])
        diffs = tape.sub(tape.repeat(q_values[omega], classes), prototypes)
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
    block = _clip_block(tape, support_frames, query_frames.shape[0])
    return tape.reshape(_trm_distances(tape, _one_query(tape, query_frames), block, 1,
                                       tuple_sets, trm_params), ())


def trm_logits(
    tape: Tape,
    query_frames: Tensor,
    class_supports: Tensor | Sequence[Tensor],
    tuple_sets: dict[int, list[TupleIndex]],
    trm_params: dict[int, TupleEmbedParams],
    classes: int | None = None,
) -> Tensor:
    """Per-class logits, the negative matching distances: [classes] for one
    query clip [L x D], [Q x classes] for a query block [Q x L x D].

    Classes come as one class-major support block of frame rows
    [classes * clips * L x D] with `classes` given. A list of per-class
    blocks from embed_class_supports, all of the same number of clips, is
    joined into that block.
    """
    if not isinstance(class_supports, Tensor):
        check_class_sizes([block.shape[0] // query_frames.shape[-2]
                           for block in class_supports])
        classes = len(class_supports)
        class_supports = _concat_rows(tape, class_supports)
    if classes is not None and classes < 2:
        raise ShapeError("need at least 2 classes")
    single = query_frames.ndim == 2
    dist = _trm_distances(tape, _one_query(tape, query_frames) if single else query_frames,
                          class_supports, classes, tuple_sets, trm_params)
    per_query = tape.reshape(dist, (dist.shape[0],)) if single else tape.transpose(dist)
    return tape.scale(per_query, -1.0)


def _encode_rows(
    tape: Tape,
    block: Tensor,
    frames: int,
    tuple_sets: dict[int, list[TupleIndex]],
    qc_params: dict[int, QCParams],
) -> dict[int, Tensor]:
    """ReLU codes of every tuple of clips stored back to back as frame rows:
    omega -> [clips * tuples x code_dim]."""
    return {
        omega: _rows(tape, tape.relu(project_tuples(
            tape, block, frames, qc_params[omega].class_proj.value, tuples)))
        for omega, tuples in tuple_sets.items()
    }


def encode_class_supports(
    tape: Tape,
    support_frames: Sequence[Tensor],
    tuple_sets: dict[int, list[TupleIndex]],
    qc_params: dict[int, QCParams],
) -> dict[int, Tensor]:
    """ReLU codes of every tuple of a support set, pooled clip-major:
    omega -> [clips * tuples x code_dim]. No scoring path calls it; it is
    kept because perfbench's tracer wraps it by name."""
    block = _clip_block(tape, support_frames, None)
    return _encode_rows(tape, block, support_frames[0].shape[0], tuple_sets, qc_params)


def _qc_similarities(
    tape: Tape,
    query_frames: Tensor,
    support: Tensor,
    classes: int,
    tuple_sets: dict[int, list[TupleIndex]],
    qc_params: dict[int, QCParams],
) -> Tensor:
    """Similarities [queries x classes] from a query block to every class of
    a class-major support block of frame rows."""
    _check_blocks(query_frames, support, classes)
    queries, frames = query_frames.shape[:2]
    rows = _rows(tape, query_frames)
    codes = _encode_rows(tape, support, frames, tuple_sets, qc_params)
    q_codes = _encode_rows(tape, rows, frames, tuple_sets, qc_params)
    total: Tensor | None = None
    for omega, tuples in tuple_sets.items():
        sims = tape.cosine_matrix(q_codes[omega], codes[omega])
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
    block = _clip_block(tape, support_frames, query_frames.shape[0])
    return tape.reshape(_qc_similarities(tape, _one_query(tape, query_frames), block, 1,
                                         tuple_sets, qc_params), ())


def qc_logits(
    tape: Tape,
    query_frames: Tensor,
    support: Tensor,
    tuple_sets: dict[int, list[TupleIndex]],
    qc_params: dict[int, QCParams],
    classes: int,
) -> Tensor:
    """Per-class similarity logits [Q x classes] of a query block [Q x L x D]
    against one class-major support block of frame rows [classes * clips * L x D].
    """
    if classes < 2:
        raise ShapeError("need at least 2 classes")
    return _qc_similarities(tape, query_frames, support, classes, tuple_sets, qc_params)
