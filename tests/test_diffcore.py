"""Tensor engine tests: op semantics, adjoints vs the central-difference
oracle, and determinism."""

import math
import zlib

import numpy as np
import pytest

from strm.diffcore import (NumericalError, Param, ShapeError, Tape, Tensor,
                           finite_diff_gradients, seeded_init, zero_grads)


def as_param(name, values):
    return Param(name, Tensor(np.asarray(values, dtype=np.float64)))


def tape_grads(build_loss, params):
    """Analytic gradients of a scalar built by `build_loss(tape)`."""
    zero_grads(params)
    tape = Tape()
    loss = build_loss(tape)
    tape.backward(loss, params)
    return {p.name: p.grad.copy() for p in params}


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
    out = Tape().softmax_rows(Tensor([[0.0, 0.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]], atol=0)


def test_softmax_large_inputs_stable():
    out = Tape().softmax_rows(Tensor([[1000.0, 1000.0, 1000.0]]))
    assert np.allclose(out.data, [[1 / 3] * 3], atol=1e-15)


def test_softmax_matches_bruteforce():
    x = np.array([[1.0, 2.0, 3.0]])
    out = Tape().softmax_rows(Tensor(x))
    expected = np.exp(x) / np.exp(x).sum()
    assert np.abs(out.data - expected).max() <= 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 8)) * 5
    out = Tape().softmax_rows(Tensor(x))
    assert np.abs(out.data.sum(axis=1) - 1.0).max() <= 1e-12
    assert (out.data >= 0).all()


def test_softmax_shift_invariance():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 5))
    a = Tape().softmax_rows(Tensor(x))
    b = Tape().softmax_rows(Tensor(x + 13.25))
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


# -- cross entropy -----------------------------------------------------------


def test_cross_entropy_uniform():
    probs = Tensor(np.full(5, 0.2))
    for target in range(5):
        out = Tape().cross_entropy(probs, target)
        assert abs(out.item() - math.log(5)) <= 1e-12


def test_cross_entropy_certain():
    assert Tape().cross_entropy(Tensor([1.0, 0.0, 0.0]), 0).item() == 0.0


def test_cross_entropy_direct_value():
    out = Tape().cross_entropy(Tensor([0.7, 0.2, 0.1]), 1)
    assert abs(out.item() - (-math.log(0.2))) <= 1e-12
    assert abs(out.item() - 1.60944) <= 1e-5


def test_cross_entropy_rejects_non_distribution():
    with pytest.raises(ValueError, match="distribution"):
        Tape().cross_entropy(Tensor([0.5, 0.2]), 0)


def test_cross_entropy_rows_match_vector_form():
    probs = np.array([[0.7, 0.2, 0.1], [0.25, 0.25, 0.5]])
    tape = Tape()
    rows = tape.cross_entropy(Tensor(probs), [1, 2])
    assert rows.shape == (2,)
    for i, target in enumerate([1, 2]):
        assert rows.data[i] == Tape().cross_entropy(Tensor(probs[i]), target).item()
    with pytest.raises(ShapeError, match="one target per row"):
        tape.cross_entropy(Tensor(probs), [1])


def test_cross_entropy_gradient():
    p = as_param("p", [0.6, 0.3, 0.1])

    def loss(tape):
        return tape.cross_entropy(p.value, 1)

    grads = tape_grads(loss, [p])
    assert np.allclose(grads["p"], [0.0, -1.0 / 0.3, 0.0])


# -- aux ops -----------------------------------------------------------------


def test_mean_of_constant():
    out = Tape().mean(Tensor(np.full((4, 3), 2.5)), axis=0)
    assert np.array_equal(out.data, np.full(3, 2.5))


def test_cosine_self_is_one():
    v = Tensor([0.3, -1.2, 0.7])
    assert abs(Tape().cosine(v, v).item() - 1.0) <= 1e-12


def test_cosine_zero_vector_guard():
    out = Tape().cosine(Tensor([0.0, 0.0]), Tensor([1.0, 2.0]))
    assert out.item() == 0.0


def test_l2_norm_345():
    assert Tape().l2_norm(Tensor([3.0, 4.0])).item() == 5.0


def test_max_reduce_tie_routes_to_lowest_index():
    x = as_param("x", [1.0, 3.0, 3.0, 2.0])

    def loss(tape):
        return tape.max_reduce(x.value)

    grads = tape_grads(loss, [x])
    assert np.array_equal(grads["x"], [0.0, 1.0, 0.0, 0.0])


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
        joined = tape.concat([a.value, b.value], axis=0)
        return tape.l2_norm(joined)

    errs = relative_errors(loss, [a, b])
    assert max(errs.values()) <= 1e-8


# -- randomized adjoint checks over every op ----------------------------------


def _scalarize(tape, out):
    if out.ndim == 0:
        return out
    flat = tape.reshape(out, (out.size,))
    return tape.l2_norm(flat)


OP_SCENARIOS = {
    "matmul": lambda tape, p: tape.matmul(p[0].value, p[1].value),
    "bmm": lambda tape, p: tape.bmm(p[2].value, p[3].value),
    "transpose": lambda tape, p: tape.transpose(p[0].value),
    "transpose_last2": lambda tape, p: tape.transpose_last2(p[2].value),
    "add": lambda tape, p: tape.add(p[0].value, p[0].value),
    "sub": lambda tape, p: tape.sub(p[0].value, p[4].value),
    "scale": lambda tape, p: tape.scale(p[0].value, -1.7),
    "concat": lambda tape, p: tape.concat([p[0].value, p[4].value], axis=1),
    "stack": lambda tape, p: tape.stack([p[0].value, p[4].value]),
    "reshape": lambda tape, p: tape.reshape(p[0].value, (p[0].value.size,)),
    "gather_rows": lambda tape, p: tape.gather_rows(
        p[0].value, [1, 0, 1, p[0].value.shape[0] - 1]),
    "combine_rows": lambda tape, p: tape.combine_rows(
        tape.stack([p[2].value, tape.scale(p[2].value, 0.5)]),
        np.eye(p[2].value.shape[1])[[[1, 0, 1], [0, 0, p[2].value.shape[1] - 1]]]),
    "mean0": lambda tape, p: tape.mean(p[0].value, axis=0),
    "mean1": lambda tape, p: tape.mean(p[0].value, axis=1),
    "relu": lambda tape, p: tape.relu(p[0].value),
    "softmax_rows": lambda tape, p: tape.softmax_rows(p[0].value),
    "softmax_last": lambda tape, p: tape.softmax_last(p[2].value),
    "l2_norm": lambda tape, p: tape.l2_norm(p[0].value),
    "rows_l2norm": lambda tape, p: tape.rows_l2norm(p[0].value),
    "cosine": lambda tape, p: tape.cosine(p[5].value, p[6].value),
    "cosine_matrix": lambda tape, p: tape.cosine_matrix(p[0].value, p[4].value),
    "max_reduce": lambda tape, p: tape.max_reduce(p[0].value),
    "max_rows": lambda tape, p: tape.max_rows(p[0].value),
    "cross_entropy": lambda tape, p: tape.cross_entropy(
        tape.softmax_last(p[0].value), [i % p[0].value.shape[1]
                                        for i in range(p[0].value.shape[0])]),
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

    def loss(tape):
        return _scalarize(tape, OP_SCENARIOS[op](tape, params))

    errs = relative_errors(loss, params, step=1e-5)
    assert max(errs.values()) <= 1e-5, errs


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
        loss = tape.l2_norm(tape.matmul(x, w.value))
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


def test_ops_are_deterministic():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 4))

    def run():
        tape = Tape()
        out = tape.softmax_rows(tape.matmul(Tensor(x), tape.relu(Tensor(x))))
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


def test_gather_rows_out_of_range():
    with pytest.raises(IndexError):
        Tape().gather_rows(Tensor(np.ones((2, 2))), [0, 2])
