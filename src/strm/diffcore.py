"""Dense float64 tensors with tape-recorded reverse-mode differentiation.

Deliberately small and deterministic: every operation appends its adjoint to
a Tape, so gradients are obtained by replaying the tape in reverse, and a
central finite-difference oracle is provided to verify them independently.
All arithmetic is 64-bit and CPU-only.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "NumericalError",
    "Tensor",
    "Param",
    "Tape",
    "zero_grads",
    "seeded_init",
    "finite_diff_gradients",
]


class ShapeError(ValueError):
    """Operands with incompatible or invalid shapes."""


class NumericalError(ArithmeticError):
    """A computation produced a non-finite value."""


class Tensor:
    """Dense n-dimensional float64 array, immutable once produced by an op."""

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if any(extent == 0 for extent in arr.shape):
            raise ShapeError(f"tensor extents must be positive, got {arr.shape}")
        self.data = arr

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
    """Named learnable tensor with an additively accumulated gradient."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: Tensor) -> None:
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value.data)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Param({self.name!r}, shape={self.value.shape})"


def zero_grads(params: Iterable[Param]) -> None:
    for p in params:
        p.zero_grad()


def _accum(adj: dict[int, np.ndarray], t: Tensor, g: np.ndarray) -> None:
    key = id(t)
    prior = adj.get(key)
    adj[key] = g if prior is None else prior + g


def _need_rank(t: Tensor, rank: int, op: str) -> None:
    if t.ndim != rank:
        raise ShapeError(f"{op} expects rank-{rank} input, got shape {t.shape}")


class Tape:
    """Ordered record of executed operations, replayable in reverse for adjoints.

    A tape has a single writer; tensors it produces are never mutated.
    Distinct tapes are independent and may run concurrently over shared
    read-only parameters.
    """

    def __init__(self) -> None:
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray, dict], None]]] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def _record(self, out: Tensor, backward: Callable[[np.ndarray, dict], None]) -> Tensor:
        self._nodes.append((out, backward))
        return out

    def backward(self, loss: Tensor, params: Iterable[Param]) -> None:
        """Accumulate d(loss)/d(param) into each param's grad buffer.

        Gradients add across calls; callers zero them explicitly.
        """
        if loss.ndim != 0:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        adj: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
        for out, backward in reversed(self._nodes):
            g = adj.pop(id(out), None)
            if g is not None:
                backward(g, adj)
        for p in params:
            g = adj.get(id(p.value))
            if g is not None:
                p.grad += g

    # -- binary ops ---------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul needs [m x k] by [k x n], got {a.shape} and {b.shape}")
        out = Tensor(a.data @ b.data)

        def backward(g, adj):
            _accum(adj, a, g @ b.data.T)
            _accum(adj, b, a.data.T @ g)

        return self._record(out, backward)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeError(f"add needs matching shapes, got {a.shape} and {b.shape}")
        out = Tensor(a.data + b.data)

        def backward(g, adj):
            _accum(adj, a, g)
            _accum(adj, b, g)

        return self._record(out, backward)

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeError(f"sub needs matching shapes, got {a.shape} and {b.shape}")
        out = Tensor(a.data - b.data)

        def backward(g, adj):
            _accum(adj, a, g)
            _accum(adj, b, -g)

        return self._record(out, backward)

    def scale(self, x: Tensor, s: float) -> Tensor:
        s = float(s)
        out = Tensor(x.data * s)

        def backward(g, adj):
            _accum(adj, x, g * s)

        return self._record(out, backward)

    # -- structural ops -----------------------------------------------------

    def transpose(self, x: Tensor) -> Tensor:
        _need_rank(x, 2, "transpose")
        out = Tensor(x.data.T.copy())

        def backward(g, adj):
            _accum(adj, x, g.T)

        return self._record(out, backward)

    def transpose_last2(self, x: Tensor) -> Tensor:
        """Swap the last two axes (batched transpose)."""
        if x.ndim < 2:
            raise ShapeError(f"transpose_last2 needs rank >= 2, got {x.shape}")
        out = Tensor(np.swapaxes(x.data, -1, -2).copy())

        def backward(g, adj):
            _accum(adj, x, np.swapaxes(g, -1, -2))

        return self._record(out, backward)

    def bmm(self, a: Tensor, b: Tensor) -> Tensor:
        """Batched matrix product over matching leading axes."""
        if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] \
                or a.shape[2] != b.shape[1]:
            raise ShapeError(f"bmm needs [B x m x k] by [B x k x n], "
                             f"got {a.shape} and {b.shape}")
        out = Tensor(a.data @ b.data)

        def backward(g, adj):
            _accum(adj, a, g @ np.swapaxes(b.data, -1, -2))
            _accum(adj, b, np.swapaxes(a.data, -1, -2) @ g)

        return self._record(out, backward)

    def reshape(self, x: Tensor, shape: Sequence[int]) -> Tensor:
        shape = tuple(int(s) for s in shape)
        if math.prod(shape) != x.size:
            raise ShapeError(f"cannot reshape {x.shape} to {shape}")
        out = Tensor(x.data.reshape(shape))

        def backward(g, adj):
            _accum(adj, x, g.reshape(x.shape))

        return self._record(out, backward)

    def concat(self, parts: Sequence[Tensor], axis: int) -> Tensor:
        if not parts:
            raise ShapeError("concat needs at least one part")
        out = Tensor(np.concatenate([p.data for p in parts], axis=axis))

        def backward(g, adj):
            offset = 0
            for p in parts:
                extent = p.shape[axis]
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offset, offset + extent)
                _accum(adj, p, g[tuple(sl)])
                offset += extent

        return self._record(out, backward)

    def stack(self, parts: Sequence[Tensor]) -> Tensor:
        if not parts:
            raise ShapeError("stack needs at least one part")
        shape = parts[0].shape
        for p in parts:
            if p.shape != shape:
                raise ShapeError(f"stack needs equal shapes, got {shape} and {p.shape}")
        out = Tensor(np.stack([p.data for p in parts], axis=0))

        def backward(g, adj):
            for i, p in enumerate(parts):
                _accum(adj, p, g[i])

        return self._record(out, backward)

    def gather_rows(self, x: Tensor, rows: Sequence[int]) -> Tensor:
        _need_rank(x, 2, "gather_rows")
        idx = np.asarray(list(rows), dtype=np.intp)
        if idx.size == 0:
            raise ShapeError("gather_rows needs at least one row index")
        if idx.min() < 0 or idx.max() >= x.shape[0]:
            raise IndexError(f"row index out of range for {x.shape[0]} rows: {list(rows)}")
        out = Tensor(x.data[idx])
        unique = idx.size == np.unique(idx).size  # plain fancy-index add is safe

        def backward(g, adj):
            d = np.zeros(x.shape, dtype=np.float64)
            if unique:
                d[idx] = g
            else:
                np.add.at(d, idx, g)
            _accum(adj, x, d)

        return self._record(out, backward)

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
        per_lead = (slice(None),) + (None,) * (x.ndim - 3)

        def backward(g, adj):
            _accum(adj, x, np.matmul(np.swapaxes(mix, 1, 2)[per_lead], g))

        return self._record(out, backward)

    # -- reductions and nonlinearities --------------------------------------

    def mean(self, x: Tensor, axis: int) -> Tensor:
        if not 0 <= axis < x.ndim:
            raise ShapeError(f"mean axis {axis} invalid for shape {x.shape}")
        n = x.shape[axis]
        out = Tensor(x.data.mean(axis=axis))

        def backward(g, adj):
            _accum(adj, x, np.broadcast_to(np.expand_dims(g, axis), x.shape) / n)

        return self._record(out, backward)

    def relu(self, x: Tensor) -> Tensor:
        mask = x.data > 0.0  # subgradient at exactly 0 is 0
        out = Tensor(np.where(mask, x.data, 0.0))

        def backward(g, adj):
            _accum(adj, x, g * mask)

        return self._record(out, backward)

    def softmax_rows(self, x: Tensor) -> Tensor:
        _need_rank(x, 2, "softmax_rows")
        return self.softmax_last(x)

    def softmax_last(self, x: Tensor) -> Tensor:
        """Stabilized softmax over the last axis (max subtraction per slice)."""
        if x.ndim < 1:
            raise ShapeError("softmax needs rank >= 1")
        shifted = x.data - x.data.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        s = e / e.sum(axis=-1, keepdims=True)
        out = Tensor(s)

        def backward(g, adj):
            dot = (g * s).sum(axis=-1, keepdims=True)
            _accum(adj, x, (g - dot) * s)

        return self._record(out, backward)

    def cross_entropy(self, probs: Tensor, target: int | Sequence[int]) -> Tensor:
        """Negative log-likelihood of `target` under a probability vector; for
        a matrix of row distributions and one target per row, the vector of
        per-row losses.

        Input must already be distributions; each picked probability is
        clamped at 1e-12 before the log so the loss stays finite.
        """
        if probs.ndim not in (1, 2):
            raise ShapeError(f"cross_entropy expects rank-1 or rank-2 input, got {probs.shape}")
        rows = probs.data.reshape(-1, probs.shape[-1])
        targets = [int(t) for t in np.reshape(target, -1)]
        if len(targets) != len(rows):
            raise ShapeError(f"cross_entropy needs one target per row, got "
                             f"{len(targets)} for shape {probs.shape}")
        picked = []
        for row, target in zip(rows, targets):
            total = float(row.sum())
            if not np.isfinite(row).all() or abs(total - 1.0) > 1e-9:
                raise ValueError(f"cross_entropy input is not a distribution (sum={total!r})")
            if not 0 <= target < len(row):
                raise IndexError(f"target {target} out of range for {len(row)} classes")
            picked.append(float(row[target]))
        clamped = [max(p, 1e-12) for p in picked]
        out = Tensor(np.reshape([-math.log(c) for c in clamped], probs.shape[:-1]))

        def backward(g, adj):
            d = np.zeros(rows.shape, dtype=np.float64)
            for i, (t, p, c, gi) in enumerate(zip(targets, picked, clamped, np.reshape(g, -1))):
                if p >= 1e-12:  # below the clamp the loss is locally constant
                    d[i, t] = -float(gi) / c
            _accum(adj, probs, d.reshape(probs.shape))

        return self._record(out, backward)

    def l2_norm(self, x: Tensor) -> Tensor:
        n = float(np.sqrt((x.data * x.data).sum()))
        out = Tensor(n)

        def backward(g, adj):
            if n > 0.0:
                _accum(adj, x, x.data * (float(g) / n))

        return self._record(out, backward)

    def rows_l2norm(self, x: Tensor) -> Tensor:
        """Euclidean norm of each row of a matrix."""
        _need_rank(x, 2, "rows_l2norm")
        norms = np.sqrt((x.data * x.data).sum(axis=1))
        out = Tensor(norms)

        def backward(g, adj):
            safe = np.where(norms > 0.0, norms, 1.0)
            _accum(adj, x, x.data * (g / safe)[:, None])

        return self._record(out, backward)

    def cosine(self, a: Tensor, b: Tensor) -> Tensor:
        """Cosine similarity of two vectors; zero if either has zero norm."""
        _need_rank(a, 1, "cosine")
        _need_rank(b, 1, "cosine")
        if a.shape != b.shape:
            raise ShapeError(f"cosine needs matching lengths, got {a.shape} and {b.shape}")
        na = float(np.sqrt((a.data * a.data).sum()))
        nb = float(np.sqrt((b.data * b.data).sum()))
        if na == 0.0 or nb == 0.0:
            out = Tensor(0.0)
            return self._record(out, lambda g, adj: None)
        c = float(a.data @ b.data) / (na * nb)
        out = Tensor(c)

        def backward(g, adj):
            gf = float(g)
            _accum(adj, a, gf * (b.data / (na * nb) - c * a.data / (na * na)))
            _accum(adj, b, gf * (a.data / (na * nb) - c * b.data / (nb * nb)))

        return self._record(out, backward)

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

        def backward(g, adj):
            # d(x / |x|) = (dx - u (u . dx)) / |x|
            dua = g @ ub
            dub = g.T @ ua
            _accum(adj, a, (dua - ua * (ua * dua).sum(axis=1, keepdims=True)) * inv_a)
            _accum(adj, b, (dub - ub * (ub * dub).sum(axis=1, keepdims=True)) * inv_b)

        return self._record(out, backward)

    def max_reduce(self, x: Tensor) -> Tensor:
        """Maximum over all elements; gradient routed to the first argmax."""
        if x.ndim == 0:
            raise ShapeError("max_reduce needs at least one axis")
        flat_idx = int(np.argmax(x.data))
        out = Tensor(x.data.reshape(-1)[flat_idx])

        def backward(g, adj):
            d = np.zeros(x.shape, dtype=np.float64)
            d.reshape(-1)[flat_idx] = float(g)
            _accum(adj, x, d)

        return self._record(out, backward)

    def max_rows(self, x: Tensor) -> Tensor:
        """Row-wise maximum; gradient routed to each row's first argmax."""
        _need_rank(x, 2, "max_rows")
        idx = np.argmax(x.data, axis=1)
        rows = np.arange(x.shape[0])
        out = Tensor(x.data[rows, idx])

        def backward(g, adj):
            d = np.zeros(x.shape, dtype=np.float64)
            d[rows, idx] = g
            _accum(adj, x, d)

        return self._record(out, backward)


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
