"""Dense float64 tensors with tape-recorded reverse-mode differentiation.

Deliberately small and deterministic: an operation on a recording Tape that
can reach a Param appends its adjoint to the tape, so gradients are obtained
by replaying the tape in reverse, and a central finite-difference oracle is
provided to verify them independently. A forward-only tape, Tape(grad=False),
runs the same operations and records nothing. All arithmetic is 64-bit and
CPU-only. Importing the module sets the process's glibc heap policy once
(see _set_heap_policy).
"""

from __future__ import annotations

import ctypes
import itertools
import math
from dataclasses import fields
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "NumericalError",
    "Tensor",
    "Param",
    "ParamGroup",
    "Tape",
    "zero_grads",
    "seeded_init",
    "finite_diff_gradients",
]


# glibc's mallopt parameter numbers, from malloc.h.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _set_heap_policy() -> bool:
    """Keep the memory freed at the end of an episode for the next one.

    Every episode allocates and frees the same arrays, up to tens of MB. With
    glibc's defaults the heap top is trimmed back to the kernel once 128 KiB
    of it is free, and large arrays get their own mappings that are unmapped
    on free, so each episode page-faults its working set in again. A 256 MiB
    trim threshold and a 32 MiB mmap threshold (glibc's 64-bit maximum)
    keep that memory in the process, which may then hold up to 256 MiB of
    freed heap. Returns whether both settings took effect; without glibc's
    mallopt this changes nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    trim = mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    mmap = mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    return trim == 1 and mmap == 1


HEAP_POLICY_SET = _set_heap_policy()


class ShapeError(ValueError):
    """Operands with incompatible or invalid shapes."""


class NumericalError(ArithmeticError):
    """A computation produced a non-finite value."""


# Source of Tensor keys: unique for the life of the process, unlike id(),
# which a new object may reuse once the old one dies.
_KEYS = itertools.count()


class Tensor:
    """Dense n-dimensional float64 array, immutable once produced by an op.

    `needs_grad` says whether a gradient can flow to the tensor: it is set on
    a Param's value and on the output of every op a tape records, and is
    false for everything else (clips, constants, forward-only outputs).
    `key` names the tensor's adjoint on a tape; every tensor, copies made by
    copy, deepcopy or pickle included, gets its own.
    """

    __slots__ = ("data", "needs_grad", "key")

    def __init__(self, data) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if any(extent == 0 for extent in arr.shape):
            raise ShapeError(f"tensor extents must be positive, got {arr.shape}")
        self.data = arr
        self.needs_grad = False
        self.key = next(_KEYS)

    def __getstate__(self):
        return self.data, self.needs_grad

    def __setstate__(self, state) -> None:
        self.data, self.needs_grad = state
        self.key = next(_KEYS)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


class Param:
    """Named learnable tensor with an additively accumulated gradient; the
    buffer is allocated on the first read of `grad` (backward, sgd_step, a
    gradient check), never by zero_grad, so forward-only runs hold none."""

    __slots__ = ("name", "value", "_grad")

    def __init__(self, name: str, value: Tensor) -> None:
        self.name = name
        self.value = value
        value.needs_grad = True
        self._grad: np.ndarray | None = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value.data)
        return self._grad

    @grad.setter
    def grad(self, g: np.ndarray) -> None:  # in-place updates: p.grad *= s
        self._grad = g

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Param({self.name!r}, shape={self.value.shape})"


class ParamGroup:
    """Base of the dataclasses that group one stage's Params as fields."""

    def all(self) -> list[Param]:
        """Every Param, in field order (the order a checkpoint stores them)."""
        return [getattr(self, f.name) for f in fields(self)]


def zero_grads(params: Iterable[Param]) -> None:
    for p in params:
        p.zero_grad()


def _accum(adj: dict[int, np.ndarray], key: int, g: np.ndarray) -> None:
    prior = adj.get(key)
    adj[key] = g if prior is None else prior + g


def _need_rank(t: Tensor, rank: int, op: str) -> None:
    if t.ndim != rank:
        raise ShapeError(f"{op} expects rank-{rank} input, got shape {t.shape}")


class Tape:
    """Ordered record of executed operations, replayable in reverse for adjoints.

    An op is recorded only if the tape records (grad=True, the default) and
    one of its inputs needs grad; its output then needs grad too. Ops on
    constants alone, and every op of a forward-only tape (grad=False), keep
    no adjoint and no intermediate alive. len(tape) counts the ops run,
    recorded or not.

    A recorded node is its output's key and an adjoint closure, and the
    closure keeps its inputs' keys, needs-grad bits and shapes and only the
    arrays its formula reads: a product the other operand (when this side
    needs grad), softmax and ReLU their own output, rows_l2norm its input,
    cosine_matrix its unit rows. An intermediate that no adjoint reads, such
    as the scores ahead of a softmax or the sum ahead of a ReLU, is freed as
    soon as the forward pass drops it. backward releases each node as it
    runs it, so a tape can be differentiated once.

    A tape has a single writer; tensors it produces are never mutated.
    Distinct tapes are independent and may run concurrently over shared
    read-only parameters.
    """

    def __init__(self, grad: bool = True) -> None:
        self._grad = bool(grad)
        self._ops = 0
        self._spent = False
        self._nodes: list[tuple[int, Callable[[np.ndarray, dict], None]]] = []

    def __len__(self) -> int:
        return self._ops

    def _record(self, out: Tensor, backward: Callable[[np.ndarray, dict], None],
                *inputs: Tensor) -> Tensor:
        self._ops += 1
        if self._grad and any(t.needs_grad for t in inputs):
            out.needs_grad = True
            self._nodes.append((out.key, backward))
        return out

    def backward(self, loss: Tensor, params: Iterable[Param]) -> None:
        """Accumulate d(loss)/d(param) into each param's grad buffer.

        Gradients add across calls; callers zero them explicitly. Adjoints
        toward inputs that need no grad are never formed. The pass pops each
        node as it runs it, so memory falls as it goes and a second call on
        the same tape raises RuntimeError.
        """
        if not self._grad:
            raise RuntimeError("backward called on a forward-only tape "
                               "(Tape(grad=False) records no adjoints)")
        if self._spent:
            raise RuntimeError("backward called on a tape that was already "
                               "differentiated (its nodes are released)")
        if loss.ndim != 0:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        self._spent = True
        adj: dict[int, np.ndarray] = {loss.key: np.ones((), dtype=np.float64)}
        nodes = self._nodes
        while nodes:
            key, backward = nodes.pop()
            g = adj.pop(key, None)
            if g is not None:
                backward(g, adj)
        for p in params:
            g = adj.get(p.value.key)
            if g is not None:
                p.grad += g

    # -- binary ops ---------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul needs [m x k] by [k x n], got {a.shape} and {b.shape}")
        out = Tensor(a.data @ b.data)
        ka, kb = a.key, b.key
        bd = b.data if a.needs_grad else None
        ad = a.data if b.needs_grad else None

        def backward(g, adj):
            if bd is not None:
                _accum(adj, ka, g @ bd.T)
            if ad is not None:
                _accum(adj, kb, ad.T @ g)

        return self._record(out, backward, a, b)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeError(f"add needs matching shapes, got {a.shape} and {b.shape}")
        out = Tensor(a.data + b.data)
        ka, kb, grad_a, grad_b = a.key, b.key, a.needs_grad, b.needs_grad

        def backward(g, adj):
            if grad_a:
                _accum(adj, ka, g)
            if grad_b:
                _accum(adj, kb, g)

        return self._record(out, backward, a, b)

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeError(f"sub needs matching shapes, got {a.shape} and {b.shape}")
        out = Tensor(a.data - b.data)
        ka, kb, grad_a, grad_b = a.key, b.key, a.needs_grad, b.needs_grad

        def backward(g, adj):
            if grad_a:
                _accum(adj, ka, g)
            if grad_b:
                _accum(adj, kb, -g)

        return self._record(out, backward, a, b)

    def scale(self, x: Tensor, s: float) -> Tensor:
        s = float(s)
        out = Tensor(x.data * s)
        kx = x.key

        def backward(g, adj):
            _accum(adj, kx, g * s)

        return self._record(out, backward, x)

    # -- structural ops -----------------------------------------------------

    def transpose(self, x: Tensor) -> Tensor:
        """Swap the last two axes (a batched transpose for rank > 2), as a
        view: tensors are never mutated."""
        if x.ndim < 2:
            raise ShapeError(f"transpose needs rank >= 2, got {x.shape}")
        out = Tensor(np.swapaxes(x.data, -1, -2))
        kx = x.key

        def backward(g, adj):
            _accum(adj, kx, np.swapaxes(g, -1, -2))

        return self._record(out, backward, x)

    def bmm(self, a: Tensor, b: Tensor) -> Tensor:
        """Batched matrix product over matching leading axes."""
        if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] \
                or a.shape[2] != b.shape[1]:
            raise ShapeError(f"bmm needs [B x m x k] by [B x k x n], "
                             f"got {a.shape} and {b.shape}")
        out = Tensor(a.data @ b.data)
        ka, kb = a.key, b.key
        bd = b.data if a.needs_grad else None
        ad = a.data if b.needs_grad else None

        def backward(g, adj):
            if bd is not None:
                _accum(adj, ka, g @ np.swapaxes(bd, -1, -2))
            if ad is not None:
                _accum(adj, kb, np.swapaxes(ad, -1, -2) @ g)

        return self._record(out, backward, a, b)

    def reshape(self, x: Tensor, shape: Sequence[int]) -> Tensor:
        shape = tuple(int(s) for s in shape)
        if math.prod(shape) != x.size:
            raise ShapeError(f"cannot reshape {x.shape} to {shape}")
        out = Tensor(x.data.reshape(shape))
        kx, x_shape = x.key, x.shape

        def backward(g, adj):
            _accum(adj, kx, g.reshape(x_shape))

        return self._record(out, backward, x)

    def concat(self, parts: Sequence[Tensor]) -> Tensor:
        """Matrices of one width joined row-wise; each part's adjoint is a
        row slice of the output's."""
        if not parts or any(p.ndim != 2 or p.shape[1] != parts[0].shape[1] for p in parts):
            raise ShapeError(f"concat needs matrices of one width, got {[p.shape for p in parts]}")
        out = Tensor(np.concatenate([p.data for p in parts], axis=0))
        spans = [(p.key, p.needs_grad, p.shape[0]) for p in parts]

        def backward(g, adj):
            start = 0
            for key, grad, rows in spans:
                if grad:
                    _accum(adj, key, g[start:start + rows])
                start += rows

        return self._record(out, backward, *parts)

    def repeat(self, x: Tensor, n: int) -> Tensor:
        """n copies of x along a new leading axis, as a read-only broadcast
        view; the adjoint adds up the copies' adjoints one at a time."""
        out = Tensor(np.broadcast_to(x.data, (n,) + x.shape))
        kx = x.key

        def backward(g, adj):
            for i in range(n):
                _accum(adj, kx, g[i])

        return self._record(out, backward, x)

    def slice_rows(self, x: Tensor, start: int, stop: int) -> Tensor:
        """Rows start..stop-1 of a matrix, as a view: tensors are never mutated."""
        _need_rank(x, 2, "slice_rows")
        if not 0 <= start < stop <= x.shape[0]:
            raise IndexError(f"row span [{start}, {stop}) empty or out of range "
                             f"for {x.shape[0]} rows")
        out = Tensor(x.data[start:stop])
        kx, x_shape = x.key, x.shape

        def backward(g, adj):
            d = np.zeros(x_shape, dtype=np.float64)
            d[start:stop] = g
            _accum(adj, kx, d)

        return self._record(out, backward, x)

    def combine_rows(self, x: Tensor, mix: np.ndarray) -> Tensor:
        """Constant row combinations, summed over the leading axis:
        out[..., i, :] = sum_j sum_r mix[j, i, r] * x[j, ..., r, :].

        x is [P x ... x R x K] and mix [P x I x R]. With one-hot slices of
        mix this picks one row per leading index j and adds them up; the
        adjoint is mix[j].T @ g, so rows picked many times need no scatter-add.
        """
        mix = np.asarray(mix, dtype=np.float64)
        if mix.ndim != 3 or x.ndim < 3 or mix.shape[0] != x.shape[0] \
                or mix.shape[2] != x.shape[-2]:
            raise ShapeError(f"combine_rows needs [P x i x r] by [P x ... x r x k], "
                             f"got {mix.shape} and {x.shape}")
        total = np.matmul(mix[0], x.data[0])
        for j in range(1, mix.shape[0]):
            total += np.matmul(mix[j], x.data[j])
        out = Tensor(total)
        kx = x.key
        per_lead = (slice(None),) + (None,) * (x.ndim - 3)

        def backward(g, adj):
            _accum(adj, kx, np.matmul(np.swapaxes(mix, 1, 2)[per_lead], g))

        return self._record(out, backward, x)

    # -- reductions and nonlinearities --------------------------------------

    def mean(self, x: Tensor, axis: int) -> Tensor:
        if not 0 <= axis < x.ndim:
            raise ShapeError(f"mean axis {axis} invalid for shape {x.shape}")
        n = x.shape[axis]
        out = Tensor(x.data.mean(axis=axis))
        kx, x_shape = x.key, x.shape

        def backward(g, adj):
            _accum(adj, kx, np.broadcast_to(np.expand_dims(g, axis), x_shape) / n)

        return self._record(out, backward, x)

    def relu(self, x: Tensor) -> Tensor:
        # One pass; -0.0 maps to +0.0, as in x > 0 ? x : 0 (NaN stays NaN).
        y = np.maximum(x.data, 0.0)
        out = Tensor(y)
        kx = x.key

        def backward(g, adj):
            _accum(adj, kx, g * (y > 0.0))  # subgradient at exactly 0 is 0

        return self._record(out, backward, x)

    def softmax_last(self, x: Tensor) -> Tensor:
        """Stabilized softmax over the last axis (max subtraction per slice)."""
        if x.ndim < 1:
            raise ShapeError("softmax needs rank >= 1")
        s = x.data - x.data.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=-1, keepdims=True)
        out = Tensor(s)
        kx = x.key

        def backward(g, adj):
            d = g * s
            np.subtract(g, d.sum(axis=-1, keepdims=True), out=d)
            d *= s
            _accum(adj, kx, d)

        return self._record(out, backward, x)

    def cross_entropy(self, probs: Tensor, targets: Sequence[int]) -> Tensor:
        """Negative log-likelihood of one target per row of a matrix of row
        distributions: the vector of per-row losses.

        Input must already be distributions; each picked probability is
        clamped at 1e-12 before the log so the loss stays finite.
        """
        _need_rank(probs, 2, "cross_entropy")
        rows = probs.data
        targets = np.asarray(targets, dtype=np.intp)
        if targets.shape != (len(rows),):
            raise ShapeError(f"cross_entropy needs one target per row, got "
                             f"{targets.size} for shape {probs.shape}")
        totals = rows.sum(axis=1)
        bad = ~np.isfinite(rows).all(axis=1) | (np.abs(totals - 1.0) > 1e-9)
        if bad.any():
            raise ValueError(f"cross_entropy input is not a distribution "
                             f"(sum={float(totals[bad.argmax()])!r})")
        bad = (targets < 0) | (targets >= rows.shape[1])
        if bad.any():
            raise IndexError(f"target {int(targets[bad.argmax()])} out of range "
                             f"for {rows.shape[1]} classes")
        at = (np.arange(len(rows)), targets)
        picked = rows[at]
        clamped = np.maximum(picked, 1e-12)
        # math.log, not np.log: numpy's AVX-512 log is 1 ulp off on about 0.3%
        # of inputs, which would change the loss bits.
        out = Tensor(-np.fromiter(map(math.log, clamped), np.float64, len(clamped)))
        kp, rows_shape = probs.key, rows.shape

        def backward(g, adj):
            d = np.zeros(rows_shape, dtype=np.float64)
            # below the clamp the loss is locally constant
            d[at] = np.where(picked >= 1e-12, -g / clamped, 0.0)
            _accum(adj, kp, d)

        return self._record(out, backward, probs)

    def rows_l2norm(self, x: Tensor) -> Tensor:
        """Euclidean norm of each row of a matrix."""
        _need_rank(x, 2, "rows_l2norm")
        norms = np.sqrt((x.data * x.data).sum(axis=1))
        out = Tensor(norms)
        kx, xd = x.key, x.data

        def backward(g, adj):
            safe = np.where(norms > 0.0, norms, 1.0)
            _accum(adj, kx, xd * (g / safe)[:, None])

        return self._record(out, backward, x)

    def cosine_matrix(self, a: Tensor, b: Tensor) -> Tensor:
        """Pairwise cosine similarities between rows of `a` and rows of `b`.

        Entry (i, j) is zero whenever row i of `a` or row j of `b` has zero
        norm, and no gradient flows through those entries.
        """
        _need_rank(a, 2, "cosine_matrix")
        _need_rank(b, 2, "cosine_matrix")
        if a.shape[1] != b.shape[1]:
            raise ShapeError(f"cosine_matrix needs matching widths, got {a.shape} and {b.shape}")
        # Unit rows, with zero rows left at zero so that their entries and
        # gradients are 0; the big output matrix needs no elementwise passes.
        na = np.sqrt((a.data * a.data).sum(axis=1))
        nb = np.sqrt((b.data * b.data).sum(axis=1))
        inv_a = np.divide(1.0, na, out=np.zeros_like(na), where=na > 0.0)[:, None]
        inv_b = np.divide(1.0, nb, out=np.zeros_like(nb), where=nb > 0.0)[:, None]
        ua = a.data * inv_a
        ub = b.data * inv_b
        out = Tensor(ua @ ub.T)
        ka, kb, grad_a, grad_b = a.key, b.key, a.needs_grad, b.needs_grad

        def backward(g, adj):
            # d(x / |x|) = (dx - u (u . dx)) / |x|
            if grad_a:
                dua = g @ ub
                _accum(adj, ka, (dua - ua * (ua * dua).sum(axis=1, keepdims=True)) * inv_a)
            if grad_b:
                dub = g.T @ ua
                _accum(adj, kb, (dub - ub * (ub * dub).sum(axis=1, keepdims=True)) * inv_b)

        return self._record(out, backward, a, b)

    def max_rows(self, x: Tensor) -> Tensor:
        """Row-wise maximum; gradient routed to each row's first argmax."""
        _need_rank(x, 2, "max_rows")
        idx = np.argmax(x.data, axis=1)
        rows = np.arange(x.shape[0])
        out = Tensor(x.data[rows, idx])
        kx, x_shape = x.key, x.shape

        def backward(g, adj):
            d = np.zeros(x_shape, dtype=np.float64)
            d[rows, idx] = g
            _accum(adj, kx, d)

        return self._record(out, backward, x)


def seeded_init(shape: Sequence[int], fan_in: int, fan_out: int, seed) -> Tensor:
    """Uniform init in +/- sqrt(6 / (fan_in + fan_out)) from a seeded PCG64 stream.

    Identical (shape, seed) always yields a bit-identical tensor.
    """
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise ShapeError(f"init extents must be positive, got {shape}")
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(-limit, limit, size=shape))


def finite_diff_gradients(
    loss_fn: Callable[[], float],
    params: Iterable[Param],
    step: float = 1e-5,
) -> dict[str, np.ndarray]:
    """Central-difference gradient of `loss_fn` for every scalar in `params`.

    `loss_fn` must be deterministic given the current parameter values; it is
    re-evaluated with each scalar nudged by +/- step in place.
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    grads: dict[str, np.ndarray] = {}
    for p in params:
        flat = p.value.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = float(loss_fn())
            flat[i] = orig - step
            f_minus = float(loss_fn())
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NumericalError(
                    f"non-finite loss while probing {p.name}[{i}]: "
                    f"f(+h)={f_plus!r}, f(-h)={f_minus!r}"
                )
            g[i] = (f_plus - f_minus) / (2.0 * step)
        grads[p.name] = g.reshape(p.value.shape)
    return grads
