"""Spatio-temporal feature enrichment for clips of patch features.

Two residual stages: per-frame self-attention over patch rows followed by a
pointwise refiner (spatial enrichment), then mixer-style linear mixing first
across the frame axis and then across channels (temporal enrichment). With
all weights zero both stages are exact identities.

Spatial enrichment is computed in folded form: the query-key product is one
D x D matrix, the value projection is folded into the first refiner layer,
and the patch-averaged path applies the value projection and the last
refiner layer after pooling, so it never forms per-patch values or attended
rows. The folds depend on the weights alone (ple_folds), so a caller that
enriches its frames block by block forms them once for all blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffcore import Param, ParamGroup, ShapeError, Tape, Tensor

__all__ = [
    "PLEParams",
    "FLEParams",
    "init_ple_params",
    "init_fle_params",
    "ple_forward",
    "ple_forward_batch",
    "ple_folds",
    "fle_forward",
    "fle_forward_batch",
    "ple_patch_diagnostics",
]


@dataclass
class PLEParams(ParamGroup):
    """Weights for patch-level enrichment: attention projections plus a
    three-layer pointwise refiner (no biases anywhere)."""

    query_proj: Param
    key_proj: Param
    value_proj: Param
    refine1: Param
    refine2: Param
    refine3: Param

    @staticmethod
    def shapes(channels: int, hidden: int) -> list[tuple[int, int]]:
        d, h = channels, hidden
        return [(d, d), (d, d), (d, d), (d, h), (h, h), (h, d)]

    @property
    def channels(self) -> int:
        return self.query_proj.value.shape[0]


@dataclass
class FLEParams(ParamGroup):
    """Weights for frame-level enrichment: two frame-mixing matrices shared
    across channels, then two channel-mixing matrices shared across frames."""

    token_mix1: Param
    token_mix2: Param
    channel_mix1: Param
    channel_mix2: Param

    @staticmethod
    def shapes(frames: int, channels: int) -> list[tuple[int, int]]:
        return [(frames, frames)] * 2 + [(channels, channels)] * 2

    @property
    def frames(self) -> int:
        return self.token_mix1.value.shape[0]

    @property
    def channels(self) -> int:
        return self.channel_mix1.value.shape[0]


def init_ple_params(channels: int, hidden: int, seed_for) -> PLEParams:
    """Build freshly initialized patch-enrichment weights.

    `seed_for(name)` maps a parameter name to a deterministic seed.
    """
    return PLEParams.build("ple", PLEParams.shapes(channels, hidden), seed_for)


def init_fle_params(frames: int, channels: int, seed_for) -> FLEParams:
    return FLEParams.build("fle", FLEParams.shapes(frames, channels), seed_for)


def ple_folds(tape: Tape, params: PLEParams) -> tuple[Tensor, Tensor]:
    """PLE's two weight folds, formed once per set of weights and shared by
    every block it enriches: the query-key fold M = Wk Wq^T / sqrt(D) and the
    value-refine fold Wv R1, each D x D or D x hidden."""
    return (tape.scale(tape.matmul(params.key_proj.value,
                                   tape.transpose(params.query_proj.value)),
                       1.0 / math.sqrt(params.channels)),
            tape.matmul(params.value_proj.value, params.refine1.value))


def _ple_scores(tape: Tape, frames: Tensor, key_fold: Tensor) -> Tensor:
    """Pre-softmax attention scores [n x patches x patches] of [n x patches x
    channels] frames. Scores (x Wq)(x Wk)^T / sqrt(D) are x (x M)^T with the
    query-key fold M, which replaces the query projection of every patch row.
    """
    n, n_patches, channels = frames.shape
    flat = tape.reshape(frames, (n * n_patches, channels))
    return tape.bmm(frames, tape.transpose(
        tape.reshape(tape.matmul(flat, key_fold), frames.shape)))


def _ple_core(tape: Tape, frames: Tensor, params: PLEParams,
              folds: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
    """Shared body of patch enrichment over [n x patches x channels] frames,
    given ple_folds(params).

    Returns the attention A [n x patches x patches], the softmax of
    _ple_scores, and the refiner's second hidden layer [n * patches x
    hidden]; the attended rows a = A x Wv + x and the linear last refiner
    layer are left to the caller. The value-refine fold puts the value
    projection into the first refiner layer, a R1 = A (x (Wv R1)) + x R1, so
    the [n * patches x channels] values and attended rows are never formed:
    one N x D x hidden product replaces x Wv (N x D x D) and a R1 (N x D x
    hidden).
    """
    n, n_patches, channels = frames.shape
    key_fold, value_refine = folds
    flat = tape.reshape(frames, (n * n_patches, channels))
    # Scores, keys, their transposed view and the value-refine rows are used
    # inline, so that on a forward-only tape each block is freed as soon as
    # its product exists.
    probs = tape.softmax_last(_ple_scores(tape, frames, key_fold))
    hidden_width = value_refine.shape[1]
    hidden = tape.relu(tape.add(
        tape.reshape(tape.bmm(probs, tape.reshape(tape.matmul(flat, value_refine),
                                                  (n, n_patches, hidden_width))),
                     (n * n_patches, hidden_width)),
        tape.matmul(flat, params.refine1.value)))
    return probs, tape.relu(tape.matmul(hidden, params.refine2.value))


def _ple_patches(tape: Tape, frames: Tensor, params: PLEParams,
                 folds: tuple[Tensor, Tensor]) -> Tensor:
    """Patch-enriched rows of [n x patches x channels] frames, in that shape."""
    probs, hidden = _ple_core(tape, frames, params, folds)
    flat = tape.reshape(frames, (hidden.shape[0], params.channels))
    values = tape.reshape(tape.matmul(flat, params.value_proj.value), frames.shape)
    attended = tape.add(tape.reshape(tape.bmm(probs, values), flat.shape), flat)
    return tape.reshape(tape.add(tape.matmul(hidden, params.refine3.value), attended),
                        frames.shape)


def ple_forward(tape: Tape, patches: Tensor, params: PLEParams) -> Tensor:
    """Spatially enrich one frame's patch rows.

    Patch rows attend to each other with scaled dot-product attention and a
    residual, then a pointwise three-layer refiner (ReLU between layers,
    linear final layer) is applied per patch with a second residual. Shape
    [patches x channels] is preserved.
    """
    if patches.ndim != 2 or patches.shape[1] != params.channels:
        raise ShapeError(
            f"ple_forward needs [patches x {params.channels}], got {patches.shape}"
        )
    frame = tape.reshape(patches, (1,) + patches.shape)
    return tape.reshape(_ple_patches(tape, frame, params, ple_folds(tape, params)), patches.shape)


def ple_forward_batch(tape: Tape, frames: Tensor, params: PLEParams,
                      folds: tuple[Tensor, Tensor]) -> Tensor:
    """Patch-enriched frame features: ple_forward applied to every
    [patches x channels] slice of a [n x patches x channels] block, then
    averaged over patches, giving [n x channels]. Attention never crosses
    frame boundaries. folds is ple_folds(tape, params), formed once by a
    caller that enriches several blocks with one set of weights.

    The last refiner layer and the value projection are linear without bias,
    so both are applied after the patch average: with c the mean of the
    attention rows A, mean(h W3 + A x Wv + x) = mean(h) W3 + (c x) Wv + mean(x).
    """
    if frames.ndim != 3 or frames.shape[2] != params.channels:
        raise ShapeError(
            f"ple_forward_batch needs [n x patches x {params.channels}], "
            f"got {frames.shape}")
    n, n_patches, channels = frames.shape
    probs, hidden = _ple_core(tape, frames, params, folds)
    pooled_hidden = tape.mean(tape.reshape(hidden, (n, n_patches, hidden.shape[1])), axis=1)
    context = tape.reshape(
        tape.bmm(tape.reshape(tape.mean(probs, axis=1), (n, 1, n_patches)), frames),
        (n, channels))
    return tape.add(tape.matmul(pooled_hidden, params.refine3.value),
                    tape.add(tape.matmul(context, params.value_proj.value),
                             tape.mean(frames, axis=1)))


def fle_forward_batch(tape: Tape, clips: Tensor, params: FLEParams) -> Tensor:
    """Temporally enrich the pooled frame features of a stack of clips.

    Per [frames x channels] clip, first mixes across the frame axis (weights
    shared over channels), then across channels (weights shared over
    frames), each with a ReLU branch and a residual. Shape [clips x frames x
    channels] is preserved.
    """
    if clips.ndim != 3 or clips.shape[1:] != (params.frames, params.channels):
        raise ShapeError(
            f"fle_forward_batch needs [n x {params.frames} x {params.channels}], "
            f"got {clips.shape}")
    n = clips.shape[0]
    frames, channels = params.frames, params.channels
    flipped = tape.reshape(tape.transpose(clips), (n * channels, frames))
    mixed = tape.add(
        tape.matmul(tape.relu(tape.matmul(flipped, params.token_mix1.value)),
                    params.token_mix2.value),
        flipped,
    )
    unflipped = tape.reshape(
        tape.transpose(tape.reshape(mixed, (n, channels, frames))),
        (n * frames, channels))
    out = tape.add(
        tape.matmul(tape.relu(tape.matmul(unflipped, params.channel_mix1.value)),
                    params.channel_mix2.value),
        unflipped,
    )
    return tape.reshape(out, (n, frames, channels))


def fle_forward(tape: Tape, frames: Tensor, params: FLEParams) -> Tensor:
    """Temporally enrich one clip's pooled frame features [frames x channels]:
    fle_forward_batch on a block of one clip."""
    return tape.reshape(fle_forward_batch(tape, tape.reshape(frames, (1,) + frames.shape),
                                          params), frames.shape)


def ple_patch_diagnostics(clip: np.ndarray, params: PLEParams | None):
    """Per-frame attention diagnostics of one clip [frames x patches x
    channels] for export: pre-softmax score rows and the per-patch L2
    activation magnitudes after enrichment, from one pass over the clip.

    With no enrichment weights the activations are the raw patches and the
    score matrices are zero. Returns (scores [frames x P2 x P2], patch_norms
    [frames x P2]).
    """
    x = Tensor(np.asarray(clip, dtype=np.float64))
    if x.ndim != 3 or (params is not None and x.shape[2] != params.channels):
        raise ShapeError(f"ple_patch_diagnostics needs [frames x patches x channels] "
                         f"matching the weights, got {x.shape}")
    if params is None:
        n, n_patches, _ = x.shape
        return np.zeros((n, n_patches, n_patches)), np.sqrt((x.data * x.data).sum(axis=2))
    tape = Tape(grad=False)
    folds = ple_folds(tape, params)
    enriched = _ple_patches(tape, x, params, folds)
    scores = _ple_scores(tape, x, folds[0])
    return scores.data, np.sqrt((enriched.data * enriched.data).sum(axis=2))
