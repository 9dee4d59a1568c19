"""Tensor engine tests: op semantics, adjoints vs the central-difference
oracle, and determinism."""

import copy
import inspect
import math
import os
import pickle
import re
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import strm
from strm.diffcore import (HEAP_POLICY_SET, NumericalError, Param, ShapeError, Tape,
                           Tensor, finite_diff_gradients, seeded_init, zero_grads)


def as_param(name, values):
    return Param(name, Tensor(np.asarray(values, dtype=np.float64)))


def tape_grads(build_loss, params):
    """Analytic gradients of a scalar built by `build_loss(tape)`."""
    zero_grads(params)
    tape = Tape()
    loss = build_loss(tape)
    tape.backward(loss, params)
    return {p.name: p.grad.copy() for p in params}


def l2_norm(tape, x):
    """Euclidean norm of a whole tensor, as a scalar: the tensor as one row."""
    return tape.reshape(tape.rows_l2norm(tape.reshape(x, (1, x.size))), ())


def relative_errors(build_loss, params, step=1e-5):
    analytic = tape_grads(build_loss, params)
    numeric = finite_diff_gradients(
        lambda: build_loss(Tape()).item(), params, step=step)
    out = {}
    for p in params:
        a, f = analytic[p.name], numeric[p.name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
        out[p.name] = float(np.max(np.abs(a - f) / denom))
    return out


# -- matmul ---------------------------------------------------------------


def test_matmul_identity_left():
    tape = Tape()
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    assert np.array_equal(tape.matmul(a, eye).data, a.data)


def test_matmul_identity_times_column():
    tape = Tape()
    out = tape.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[5.0], [6.0]]))
    assert np.array_equal(out.data, [[5.0], [6.0]])


def test_matmul_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        Tape().matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))


def test_matmul_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    a = as_param("a", rng.standard_normal((3, 4)))
    b = as_param("b", rng.standard_normal((4, 2)))

    def loss(tape):
        prod = tape.matmul(a.value, b.value)
        return tape.mean(tape.reshape(prod, (6,)), axis=0)

    errs = relative_errors(loss, [a, b], step=1e-6)
    assert max(errs.values()) <= 1e-7


# -- softmax ---------------------------------------------------------------


def test_softmax_symmetry():
    out = Tape().softmax_last(Tensor([[0.0, 0.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]], atol=0)


def test_softmax_large_inputs_stable():
    out = Tape().softmax_last(Tensor([[1000.0, 1000.0, 1000.0]]))
    assert np.allclose(out.data, [[1 / 3] * 3], atol=1e-15)


def test_softmax_matches_bruteforce():
    x = np.array([[1.0, 2.0, 3.0]])
    out = Tape().softmax_last(Tensor(x))
    expected = np.exp(x) / np.exp(x).sum()
    assert np.abs(out.data - expected).max() <= 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 8)) * 5
    out = Tape().softmax_last(Tensor(x))
    assert np.abs(out.data.sum(axis=1) - 1.0).max() <= 1e-12
    assert (out.data >= 0).all()


def test_softmax_shift_invariance():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 5))
    a = Tape().softmax_last(Tensor(x))
    b = Tape().softmax_last(Tensor(x + 13.25))
    assert np.abs(a.data - b.data).max() <= 1e-10


# -- relu -------------------------------------------------------------------


def test_relu_values():
    out = Tape().relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_all_negative_zero_gradient():
    x = as_param("x", [[-1.0, -2.0], [-3.0, -0.5]])

    def loss(tape):
        return tape.mean(tape.reshape(tape.relu(x.value), (4,)), axis=0)

    grads = tape_grads(loss, [x])
    assert np.array_equal(grads["x"], np.zeros((2, 2)))
    tape = Tape()
    assert np.array_equal(tape.relu(x.value).data, np.zeros((2, 2)))


def test_relu_chain_gradient_away_from_kinks():
    rng = np.random.default_rng(11)
    x = as_param("x", rng.standard_normal((3, 4)))
    w = as_param("w", rng.standard_normal((4, 3)))
    # keep pre-activations away from the kink
    pre = x.value.data @ w.value.data
    assert np.abs(pre).min() > 1e-4

    def loss(tape):
        h = tape.relu(tape.matmul(x.value, w.value))
        return tape.mean(tape.reshape(h, (9,)), axis=0)

    errs = relative_errors(loss, [x, w], step=1e-6)
    assert max(errs.values()) <= 1e-6


def test_relu_bits_match_the_mask_form_at_signed_zeros_and_denormals():
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = [-0.0, 0.0, tiny, -tiny, 1e-310, -1e-310, 2.5, -2.5]
    rng = np.random.default_rng(4)
    bulk = rng.standard_normal(1000) * np.repeat([1.0, 1e-310], 500)
    bulk[::7] = -0.0
    bulk[3::11] = 0.0
    x = as_param("x", np.concatenate([edges, bulk]))
    tape = Tape()
    out = tape.relu(x.value)
    assert out.data.tobytes() == np.where(x.value.data > 0, x.value.data, 0.0).tobytes()
    tape.backward(tape.mean(out, axis=0), [x])
    data = x.value.data
    assert (data == 0.0).sum() > 100 and (data > 0).sum() > 100
    assert np.all(x.grad[data <= 0.0] == 0.0)
    assert np.all(x.grad[data > 0.0] == 1.0 / data.size)


# -- needs-grad and forward-only tapes ------------------------------------------


def test_ops_on_constants_record_no_node():
    tape = Tape()
    a = Tensor(np.ones((2, 3)))
    out = tape.relu(tape.matmul(a, Tensor(np.ones((3, 2)))))
    assert not out.needs_grad
    assert tape._nodes == [] and len(tape) == 2  # len counts the ops run
    w = as_param("w", np.ones((3, 2)))
    assert w.value.needs_grad
    mixed = tape.matmul(a, w.value)
    assert mixed.needs_grad
    assert len(tape._nodes) == 1 and len(tape) == 3


def test_forward_only_tape_records_nothing_and_refuses_backward():
    w = as_param("w", np.ones((3, 3)))
    tape = Tape(grad=False)
    loss = tape.mean(tape.reshape(tape.matmul(w.value, w.value), (9,)), axis=0)
    assert loss.item() == 3.0 and not loss.needs_grad
    assert tape._nodes == [] and len(tape) == 3
    with pytest.raises(RuntimeError, match="forward-only"):
        tape.backward(loss, [w])


# -- cross entropy: log_softmax_nll over logits --------------------------------


def test_cross_entropy_uniform():
    out = Tape().log_softmax_nll(Tensor(np.full((5, 5), 0.3)), range(5))
    assert np.abs(out.data - math.log(5)).max() <= 1e-12


def test_cross_entropy_certain():
    """A target 1000 above the other logits costs exactly nothing."""
    assert Tape().log_softmax_nll(Tensor([[1000.0, 0.0, 0.0]]), [0]).data[0] == 0.0


def test_cross_entropy_direct_value():
    """Logits log p of a distribution p cost -log p_t."""
    out = Tape().log_softmax_nll(Tensor(np.log([[0.7, 0.2, 0.1]])), [1])
    assert abs(out.data[0] - (-math.log(0.2))) <= 1e-12
    assert abs(out.data[0] - 1.60944) <= 1e-5


def test_log_softmax_nll_is_invariant_to_a_row_shift():
    """Any real rows are logits: shifting a row by a constant moves neither
    its loss nor its gradient."""
    x = np.array([[0.5, 0.2, -1.0], [3.0, -2.0, 0.25]])
    p = as_param("p", x)
    q = as_param("q", x + np.array([[40.0], [-7.5]]))
    losses = {}

    def loss(tape, param):
        rows = tape.log_softmax_nll(param.value, [0, 1])
        losses[param.name] = rows.data
        return tape.mean(rows, axis=0)

    grads = tape_grads(lambda tape: tape.add(loss(tape, p), loss(tape, q)), [p, q])
    assert np.allclose(losses["p"], losses["q"], rtol=0.0, atol=1e-13)
    assert np.allclose(grads["p"], grads["q"], rtol=0.0, atol=1e-15)


def test_cross_entropy_rows_match_one_row_calls():
    logits = np.array([[0.7, 0.2, 0.1], [0.25, -1.25, 2.5]])
    tape = Tape()
    rows = tape.log_softmax_nll(Tensor(logits), [1, 2])
    assert rows.shape == (2,)
    for i, target in enumerate([1, 2]):
        assert rows.data[i] == Tape().log_softmax_nll(Tensor(logits[i:i + 1]),
                                                      [target]).data[0]
    with pytest.raises(ShapeError, match="one target per row"):
        tape.log_softmax_nll(Tensor(logits), [1])


def test_cross_entropy_rejects_bad_rows_and_targets():
    good = Tensor([[0.7, 0.2, 0.1], [0.25, 0.25, 0.5]])
    for targets in ([0, 3], [-1, 0]):
        with pytest.raises(IndexError, match="out of range for 3 classes"):
            Tape().log_softmax_nll(good, targets)
    with pytest.raises(IndexError):
        Tape().log_softmax_nll(Tensor([[0.5, 0.5]]), [2])
    # one row of logits needs a row of its own
    with pytest.raises(ShapeError, match="rank-2"):
        Tape().log_softmax_nll(Tensor([0.5, 0.5]), [0])


def test_log_softmax_nll_far_target_keeps_its_loss_and_gradient():
    """A target logit 60 below its row's max costs about 60, and its gradient
    is about -1. A softmax followed by a log clamped at 1e-12 gave 27.6 and a
    zero gradient there."""
    p = as_param("p", [[60.0, 0.0, 1.0]])

    def loss(tape):
        return tape.mean(tape.log_softmax_nll(p.value, [1]), axis=0)

    assert abs(loss(Tape()).item() - 60.0) <= 1e-12
    grads = tape_grads(loss, [p])
    assert abs(grads["p"][0, 1] + 1.0) <= 1e-12
    probs = np.exp(p.value.data - 60.0) / np.exp(p.value.data - 60.0).sum()
    assert np.allclose(grads["p"], probs - [[0.0, 1.0, 0.0]], rtol=0.0, atol=1e-15)


def test_cross_entropy_gradient():
    """The adjoint is softmax - onehot."""
    p = as_param("p", [[0.6, 0.3, 0.1]])

    def loss(tape):
        return tape.mean(tape.log_softmax_nll(p.value, [1]), axis=0)

    grads = tape_grads(loss, [p])
    probs = np.exp(p.value.data) / np.exp(p.value.data).sum()
    assert np.allclose(grads["p"], probs - [[0.0, 1.0, 0.0]], rtol=0.0, atol=1e-15)


# -- aux ops -----------------------------------------------------------------


def test_mean_of_constant():
    out = Tape().mean(Tensor(np.full((4, 3), 2.5)), axis=0)
    assert np.array_equal(out.data, np.full(3, 2.5))


def test_cosine_self_is_one():
    v = Tensor([[0.3, -1.2, 0.7]])
    assert abs(Tape().cosine_matrix(v, v).data[0, 0] - 1.0) <= 1e-12


def test_cosine_zero_vector_guard():
    out = Tape().cosine_matrix(Tensor([[0.0, 0.0]]), Tensor([[1.0, 2.0]]))
    assert out.data[0, 0] == 0.0


def test_l2_norm_345():
    assert Tape().rows_l2norm(Tensor([[3.0, 4.0]])).data[0] == 5.0


def test_max_rows_tie_routes_to_lowest_index():
    x = as_param("x", [[2.0, 2.0, 1.0], [0.0, 5.0, 5.0]])

    def loss(tape):
        return tape.mean(tape.max_rows(x.value), axis=0)

    grads = tape_grads(loss, [x])
    assert np.array_equal(grads["x"], [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])


def test_concat_roundtrip_gradient():
    a = as_param("a", [[1.0, 2.0]])
    b = as_param("b", [[3.0, 4.0], [5.0, 6.0]])

    def loss(tape):
        joined = tape.concat([a.value, b.value])
        return l2_norm(tape, joined)

    errs = relative_errors(loss, [a, b])
    assert max(errs.values()) <= 1e-8
    with pytest.raises(ShapeError, match="one width"):
        Tape().concat([a.value, Tensor([[1.0, 2.0, 3.0]])])
    with pytest.raises(ShapeError, match="one width"):
        Tape().concat([Tensor([1.0, 2.0])])


# -- randomized adjoint checks over every op ----------------------------------


def _scalarize(tape, out):
    if out.ndim == 0:
        return out
    return l2_norm(tape, out)


def stacked(tape, parts):
    """Equally shaped tensors along a new leading axis: their rows joined,
    then reshaped."""
    shape = parts[0].shape
    rows = [tape.reshape(x, (x.size // shape[-1], shape[-1])) for x in parts]
    return tape.reshape(tape.concat(rows), (len(parts),) + shape)


OP_SCENARIOS = {
    "matmul": lambda tape, p, c: tape.matmul(p[0].value, p[1].value),
    "bmm": lambda tape, p, c: tape.bmm(p[2].value, p[3].value),
    # a matrix; "transpose_last2" covers a batch of matrices
    "transpose": lambda tape, p, c: tape.transpose(p[0].value),
    "transpose_last2": lambda tape, p, c: tape.transpose(p[2].value),
    "add": lambda tape, p, c: tape.add(p[0].value, p[0].value),
    "scale": lambda tape, p, c: tape.scale(p[0].value, -1.7),
    "concat": lambda tape, p, c: tape.concat([p[0].value, p[4].value]),
    # two matrices along a new leading axis, as the tests stack them
    "stack": lambda tape, p, c: stacked(tape, [p[0].value, p[4].value]),
    # copies of one tensor: a broadcast view whose adjoints add up
    "repeat": lambda tape, p, c: tape.repeat(p[0].value, 3),
    "reshape": lambda tape, p, c: tape.reshape(p[0].value, (p[0].value.size,)),
    "slice_rows": lambda tape, p, c: tape.slice_rows(p[0].value, 1, p[0].value.shape[0]),
    "combine_rows": lambda tape, p, c: tape.combine_rows(
        stacked(tape, [p[2].value, tape.scale(p[2].value, 0.5)]),
        np.eye(p[2].value.shape[1])[[[1, 0, 1], [0, 0, p[2].value.shape[1] - 1]]]),
    "mean0": lambda tape, p, c: tape.mean(p[0].value, axis=0),
    "mean1": lambda tape, p, c: tape.mean(p[0].value, axis=1),
    "relu": lambda tape, p, c: tape.relu(p[0].value),
    # softmax over the rows of a matrix; "softmax_last" covers rank 3
    "softmax_rows": lambda tape, p, c: tape.softmax_last(p[0].value),
    "softmax_last": lambda tape, p, c: tape.softmax_last(p[2].value),
    # the norm of a whole tensor, taken as one row
    "l2_norm": lambda tape, p, c: l2_norm(tape, p[0].value),
    "rows_l2norm": lambda tape, p, c: tape.rows_l2norm(p[0].value),
    # the cosine of two vectors, as one-row matrices
    "cosine": lambda tape, p, c: tape.cosine_matrix(
        tape.reshape(p[5].value, (1, p[5].value.size)),
        tape.reshape(p[6].value, (1, p[6].value.size))),
    "cosine_matrix": lambda tape, p, c: tape.cosine_matrix(p[0].value, p[4].value),
    # the maximum of a whole tensor, taken as one row
    "max_reduce": lambda tape, p, c: tape.max_rows(
        tape.reshape(p[0].value, (1, p[0].value.size))),
    "max_rows": lambda tape, p, c: tape.max_rows(p[0].value),
    # the mean loss of a head, as forward_episode scores each
    "cross_entropy": lambda tape, p, c: tape.mean(tape.log_softmax_nll(
        p[0].value, [i % p[0].value.shape[1] for i in range(p[0].value.shape[0])]), axis=0),
    "log_softmax_nll": lambda tape, p, c: tape.log_softmax_nll(
        tape.scale(p[0].value, 2.0), [(3 * i + 1) % p[0].value.shape[1]
                                      for i in range(p[0].value.shape[0])]),
    # one operand a constant (c[i] has the shape of p[i]): the adjoint toward
    # the constant is skipped, the one toward the Param must stay exact
    "matmul1": lambda tape, p, c: tape.matmul(p[0].value, c[1]),
    "matmul2": lambda tape, p, c: tape.matmul(c[0], p[1].value),
    "bmm1": lambda tape, p, c: tape.bmm(p[2].value, c[3]),
    "bmm2": lambda tape, p, c: tape.bmm(c[2], p[3].value),
    "add1": lambda tape, p, c: tape.add(c[0], p[0].value),
    "concat1": lambda tape, p, c: tape.concat([c[0], p[4].value, c[4]]),
    "cosine_matrix1": lambda tape, p, c: tape.cosine_matrix(p[0].value, c[4]),
    "cosine_matrix2": lambda tape, p, c: tape.cosine_matrix(c[0], p[4].value),
    "combine_rows1": lambda tape, p, c: tape.combine_rows(
        stacked(tape, [c[2], p[2].value]),
        np.eye(p[2].value.shape[1])[[[1, 0, 1], [0, 0, p[2].value.shape[1] - 1]]]),
}


@pytest.mark.parametrize("op", sorted(OP_SCENARIOS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_op_adjoint_matches_finite_differences(op, seed):
    rng = np.random.default_rng([seed, zlib.crc32(op.encode())])
    m = int(rng.integers(2, 9))
    n = int(rng.integers(2, 9))
    b = int(rng.integers(2, 5))
    k = int(rng.integers(2, 7))
    params = [
        as_param("p0", rng.standard_normal((m, n))),
        as_param("p1", rng.standard_normal((n, k))),
        as_param("p2", rng.standard_normal((b, m, n))),
        as_param("p3", rng.standard_normal((b, n, k))),
        as_param("p4", rng.standard_normal((m, n))),
        as_param("p5", rng.standard_normal(n)),
        as_param("p6", rng.standard_normal(n)),
    ]
    consts = [Tensor(rng.standard_normal(p.value.shape)) for p in params[:5]]

    def loss(tape):
        return _scalarize(tape, OP_SCENARIOS[op](tape, params, consts))

    errs = relative_errors(loss, params, step=1e-5)
    assert max(errs.values()) <= 1e-5, errs


def test_every_tape_op_has_an_adjoint_scenario():
    """A scenario key names the op it checks, optionally with a digit suffix."""
    ops = {name for name, member in vars(Tape).items()
           if callable(member) and not name.startswith("_")} - {"backward"}
    assert ops - {key.rstrip("0123456789") for key in OP_SCENARIOS} == set()


# Every public Tape method and its signature: the forms the model calls. A
# new op or a wider form (an axis argument, an unbatched variant) changes it.
TAPE_SURFACE = {
    "backward": "(self, loss: 'Tensor', params: 'Iterable[Param]') -> 'None'",
    "matmul": "(self, a: 'Tensor', b: 'Tensor') -> 'Tensor'",
    "add": "(self, a: 'Tensor', b: 'Tensor') -> 'Tensor'",
    "scale": "(self, x: 'Tensor', s: 'float') -> 'Tensor'",
    "transpose": "(self, x: 'Tensor') -> 'Tensor'",
    "bmm": "(self, a: 'Tensor', b: 'Tensor') -> 'Tensor'",
    "reshape": "(self, x: 'Tensor', shape: 'Sequence[int]') -> 'Tensor'",
    "concat": "(self, parts: 'Sequence[Tensor]') -> 'Tensor'",
    "repeat": "(self, x: 'Tensor', n: 'int') -> 'Tensor'",
    "slice_rows": "(self, x: 'Tensor', start: 'int', stop: 'int') -> 'Tensor'",
    "combine_rows": "(self, x: 'Tensor', mix: 'np.ndarray') -> 'Tensor'",
    "mean": "(self, x: 'Tensor', axis: 'int') -> 'Tensor'",
    "relu": "(self, x: 'Tensor') -> 'Tensor'",
    "softmax_last": "(self, x: 'Tensor') -> 'Tensor'",
    "log_softmax_nll": "(self, logits: 'Tensor', targets: 'Sequence[int]') -> 'Tensor'",
    "rows_l2norm": "(self, x: 'Tensor') -> 'Tensor'",
    "cosine_matrix": "(self, a: 'Tensor', b: 'Tensor') -> 'Tensor'",
    "max_rows": "(self, x: 'Tensor') -> 'Tensor'",
}


def test_tape_op_surface_is_pinned():
    surface = {name: str(inspect.signature(member)) for name, member in vars(Tape).items()
               if callable(member) and not name.startswith("_")}
    assert surface == TAPE_SURFACE


# -- finite-difference oracle itself -------------------------------------------


def test_finite_diff_linear_exact():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(6)
    w = as_param("w", rng.standard_normal(6))

    def loss_fn():
        return float(w.value.data @ x)

    grads = finite_diff_gradients(loss_fn, [w], step=1e-5)
    assert np.abs(grads["w"] - x).max() <= 1e-10


def test_finite_diff_quadratic():
    rng = np.random.default_rng(9)
    w = as_param("w", rng.uniform(0.5, 2.0, size=5))

    def loss_fn():
        return 0.5 * float((w.value.data ** 2).sum())

    grads = finite_diff_gradients(loss_fn, [w], step=1e-5)
    rel = np.abs(grads["w"] - w.value.data) / np.abs(w.value.data)
    assert rel.max() <= 1e-9


def test_finite_diff_reports_nonfinite_with_param_name():
    w = as_param("weights", [1.0])

    def loss_fn():
        return float("nan")

    with pytest.raises(NumericalError, match="weights"):
        finite_diff_gradients(loss_fn, [w], step=1e-5)


# -- accumulation and determinism ----------------------------------------------


def test_gradient_accumulation_is_additive():
    rng = np.random.default_rng(5)
    w = as_param("w", rng.standard_normal((3, 3)))
    x1 = Tensor(rng.standard_normal((3, 3)))
    x2 = Tensor(rng.standard_normal((3, 3)))

    def backward_once(x):
        tape = Tape()
        loss = l2_norm(tape, tape.matmul(x, w.value))
        tape.backward(loss, [w])

    w.zero_grad()
    backward_once(x1)
    g1 = w.grad.copy()
    w.zero_grad()
    backward_once(x2)
    g2 = w.grad.copy()
    w.zero_grad()
    backward_once(x1)
    backward_once(x2)
    assert np.array_equal(w.grad, g1 + g2)


def test_a_loss_that_is_a_param_value_adds_one_to_its_grad():
    w = as_param("w", 2.5)
    w.grad += 0.25
    Tape().backward(w.value, [w])
    assert w.grad.shape == () and w.grad == 1.25


@pytest.mark.parametrize("same_param", [True, False])
def test_backward_refuses_a_value_tensor_listed_twice(same_param):
    """One Param listed twice, or two Params over one Tensor, is refused by
    both names before any node runs; the tape stays differentiable."""
    w = as_param("w", [[1.0, -2.0], [3.0, 0.5]])
    other = w if same_param else Param("w_alias", w.value)
    x = Tensor([[0.5, 1.0], [2.0, -1.0]])
    tape = Tape()
    loss = l2_norm(tape, tape.matmul(x, w.value))
    with pytest.raises(ValueError, match=re.escape(f"{w!r} and {other!r}")):
        tape.backward(loss, [w, other])
    assert w._grad is None and other._grad is None
    tape.backward(loss, [w])
    assert np.abs(w.grad).sum() > 0


def test_gradient_buffer_is_allocated_on_first_read():
    """A forward pass and zero_grad leave a Param without a gradient buffer;
    the first read allocates zeros, and backward adds into that buffer."""
    w = as_param("w", [[1.0, -2.0], [3.0, 0.5]])
    x = Tensor([[0.5, 1.0], [2.0, -1.0]])
    zero_grads([w])
    for tape in (Tape(grad=False), Tape()):
        l2_norm(tape, tape.matmul(x, w.value))
    assert w._grad is None
    buffer = w.grad
    assert buffer is w.grad and np.array_equal(buffer, np.zeros((2, 2)))
    tape = Tape()
    tape.backward(l2_norm(tape, tape.matmul(x, w.value)), [w])
    assert w.grad is buffer and np.abs(buffer).sum() > 0


def test_scaling_grad_in_place_reaches_the_param():
    w = as_param("w", [[1.0, -2.0], [3.0, 0.5]])
    tape = Tape()
    tape.backward(l2_norm(tape, w.value), [w])
    expected = w.grad * 1.001
    w.grad *= 1.001
    assert np.array_equal(w.grad, expected)
    assert np.array_equal(copy.deepcopy(w).grad, expected)


def test_second_backward_on_one_tape_raises_and_adds_nothing():
    w = as_param("w", [[1.0, -2.0], [3.0, 0.5]])
    x = Tensor([[0.5, 1.0], [2.0, -1.0]])
    tape = Tape()
    loss = l2_norm(tape, tape.relu(tape.matmul(x, w.value)))
    tape.backward(loss, [w])
    once = w.grad.copy()
    assert tape._nodes == []  # backward releases every node
    with pytest.raises(RuntimeError, match="already differentiated"):
        tape.backward(loss, [w])
    assert np.array_equal(w.grad, once)


def test_copied_tensors_get_fresh_keys():
    t = as_param("t", np.ones((2, 2))).value
    copies = [copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))]
    assert len({t.key} | {c.key for c in copies}) == 4
    assert all(c.needs_grad and np.array_equal(c.data, t.data) for c in copies)
    assert copies[0].data is t.data and copies[1].data is not t.data


def test_deep_copied_param_beside_its_original_gets_its_own_gradient():
    """A deep copy used on one tape beside its original gets the gradient it
    gets alone; a shared adjoint key would hand both the sum."""
    rng = np.random.default_rng(12)
    w = as_param("w", rng.standard_normal((3, 3)))
    twin = copy.deepcopy(w)
    twin.name = "twin"
    x = Tensor(rng.standard_normal((2, 3)))

    def through_w(tape):
        return l2_norm(tape, tape.matmul(x, w.value))

    def through_twin(tape):
        return tape.scale(l2_norm(tape, tape.relu(tape.matmul(x, twin.value))), 3.0)

    alone_w = tape_grads(through_w, [w])["w"]
    alone_twin = tape_grads(through_twin, [twin])["twin"]
    both = tape_grads(lambda tape: tape.add(through_w(tape), through_twin(tape)),
                      [w, twin])
    assert not np.array_equal(alone_w, alone_twin)
    assert np.array_equal(both["w"], alone_w)
    assert np.array_equal(both["twin"], alone_twin)


def test_ops_are_deterministic():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 4))

    def run():
        tape = Tape()
        out = tape.softmax_last(tape.matmul(Tensor(x), tape.relu(Tensor(x))))
        return out.data

    assert np.array_equal(run(), run())


# -- seeded init ------------------------------------------------------------------


def test_seeded_init_deterministic():
    a = seeded_init((3, 4), 3, 4, seed=42)
    b = seeded_init((3, 4), 3, 4, seed=42)
    assert np.array_equal(a.data, b.data)
    c = seeded_init((3, 4), 3, 4, seed=43)
    assert not np.array_equal(a.data, c.data)


def test_seeded_init_bound():
    out = seeded_init((100, 100), 6, 6, seed=0)
    assert out.data.min() >= -1.0 and out.data.max() <= 1.0


def test_seeded_init_mean_near_zero():
    out = seeded_init((1000, 1000), 4, 4, seed=1)
    assert abs(out.data.mean()) <= 0.01


# -- misc contracts -----------------------------------------------------------------


def test_tensor_rejects_zero_extent():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((0, 3)))


def test_backward_requires_scalar_loss():
    tape = Tape()
    out = tape.relu(Tensor([1.0, 2.0]))
    with pytest.raises(ShapeError):
        tape.backward(out, [])


def test_slice_rows_out_of_range():
    x = Tensor(np.ones((2, 2)))
    for start, stop in ((0, 3), (-1, 1), (1, 1), (2, 1)):
        with pytest.raises(IndexError):
            Tape().slice_rows(x, start, stop)



def test_transpose_is_a_view():
    """transpose swaps strides instead of copying, for a matrix and a batch of
    matrices, recording or not."""
    for shape in ((3, 4), (2, 3, 4)):
        x = Tensor(np.arange(math.prod(shape), dtype=np.float64).reshape(shape))
        for tape in (Tape(), Tape(grad=False)):
            out = tape.transpose(x)
            assert np.shares_memory(out.data, x.data)
            assert np.array_equal(out.data, np.swapaxes(x.data, -1, -2))


def test_stack_of_one_tensor_is_a_read_only_view():
    """repeat stacks copies of one tensor that share its memory, recording or
    not, with the values of a copied stack."""
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    for tape in (Tape(), Tape(grad=False)):
        view = tape.repeat(x, 3)
        assert np.shares_memory(view.data, x.data) and not view.data.flags.writeable
        assert view.data.strides[0] == 0
        assert np.array_equal(view.data, np.stack([x.data] * 3))


def test_products_with_a_stack_view_are_bitwise_those_with_a_copy():
    """A batched product reads a repeat view as it reads the copied stack:
    the output and the other operand's gradient keep their bits."""
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((40, 16)))
    w = as_param("w", rng.standard_normal((3, 16, 8)))
    runs = []
    for stacked_x in (Tape().repeat(x, 3), Tensor(np.stack([x.data] * 3))):
        assert np.shares_memory(stacked_x.data, x.data) == (not runs)
        tape = Tape()
        out = tape.bmm(stacked_x, w.value)
        w.zero_grad()
        tape.backward(l2_norm(tape, out), [w])
        runs.append((out.data.tobytes(), w.grad.tobytes()))
    assert runs[0] == runs[1]


# -- heap policy ---------------------------------------------------------------------

TRAINING_FAULTS = """
import resource
from strm.diffcore import Tape
from strm.episodes import EpisodeSpec, SyntheticSpec, generate_synthetic, sample_episode
from strm.model import ModelConfig, build_params, forward_episode
from strm.training import sgd_step

dataset = generate_synthetic(SyntheticSpec(num_classes=6, clips_per_class=10, seed=0))
config = ModelConfig(seed=0)
params = build_params(config)
plist = params.all()
spec = EpisodeSpec(ways=5, shots=5, seed=0)


def episode(counter):
    tape = Tape()
    loss = forward_episode(tape, sample_episode(dataset, spec, counter), params,
                           config).loss
    tape.backward(loss, plist)
    sgd_step(plist, 0.1)


for counter in range(10):
    episode(counter)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for counter in range(10, 40):
    episode(counter)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 30)
"""


@pytest.mark.skipif(not HEAP_POLICY_SET, reason="mallopt is not available")
def test_heap_policy_keeps_training_episodes_free_of_page_faults():
    """Desk-config training episodes after warm-up reuse the heap they freed
    instead of faulting it back in (about 2,000 minor faults per episode
    with glibc's default trimming)."""
    src = str(Path(strm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", TRAINING_FAULTS], env=env,
                         capture_output=True, text=True, timeout=600, check=True)
    faults_per_episode = float(run.stdout)
    assert faults_per_episode < 100, faults_per_episode
