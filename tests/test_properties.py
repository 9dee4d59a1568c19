"""Property tests of tape adjoints over random shapes: every analytic
gradient matches central finite differences within the bound of
test_op_adjoint_matches_finite_differences (1e-5 at step 1e-5). Inputs are
drawn away from the kinks of relu, max_rows and the norms, and examples are
derandomized so a run is reproducible."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from strm.diffcore import Tensor  # noqa: E402
from test_diffcore import as_param, relative_errors  # noqa: E402

BOUND = 1e-5
MARGIN = 0.05  # distance from every kink, far beyond the 1e-5 probe step

dims = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
property_settings = settings(derandomize=True, deadline=None, max_examples=30)


def check_adjoint(op, inputs, seed):
    """Gradient of <w, op(tape, *params)> for a fixed random weight w, which
    keeps the scalarization linear and free of kinks."""
    params = [as_param(f"x{i}", x) for i, x in enumerate(inputs)]

    def loss(tape):
        out = op(tape, *(p.value for p in params))
        weights = Tensor(np.random.default_rng([seed, 1]).standard_normal((out.size, 1)))
        return tape.reshape(tape.matmul(tape.reshape(out, (1, out.size)), weights), ())

    errs = relative_errors(loss, params, step=1e-5)
    assert max(errs.values()) <= BOUND, errs


def away_from_zero(rng, shape):
    """Entries with magnitude at least MARGIN, of random sign."""
    return rng.choice([-1.0, 1.0], size=shape) * (MARGIN + np.abs(rng.standard_normal(shape)))


def rows_away_from_zero(rng, shape):
    """Rows with L2 norm at least MARGIN."""
    x = rng.standard_normal(shape)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x * np.maximum(1.0, MARGIN / np.maximum(norms, 1e-300))


@property_settings
@given(batch=st.integers(0, 3), rows=dims, cols=st.integers(2, 6),
       scale=st.floats(0.1, 1.0), seed=seeds)
def test_softmax_last_adjoint(batch, rows, cols, scale, seed):
    """Logits of scale at most 1 keep every probability, and so every
    gradient entry, well above the probe's rounding error."""
    shape = (rows, cols) if batch == 0 else (batch, rows, cols)
    x = scale * np.random.default_rng(seed).standard_normal(shape)
    check_adjoint(lambda tape, a: tape.softmax_last(a), [x], seed)


@property_settings
@given(rows=dims, cols=st.integers(2, 6), scale=st.floats(0.1, 1.0), seed=seeds)
def test_log_softmax_nll_adjoint(rows, cols, scale, seed):
    """Any targets, in logits of scale at most 1, as for softmax_last."""
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((rows, cols))
    targets = rng.integers(0, cols, rows)
    check_adjoint(lambda tape, a: tape.log_softmax_nll(a, targets), [x], seed)


@property_settings
@given(rows=dims, cols=dims, axis=st.sampled_from([0, 1]), seed=seeds)
def test_mean_adjoint(rows, cols, axis, seed):
    x = np.random.default_rng(seed).standard_normal((rows, cols))
    check_adjoint(lambda tape, a: tape.mean(a, axis=axis), [x], seed)


@property_settings
@given(rows=dims, cols=dims, seed=seeds)
def test_relu_adjoint(rows, cols, seed):
    x = away_from_zero(np.random.default_rng(seed), (rows, cols))
    check_adjoint(lambda tape, a: tape.relu(a), [x], seed)


@property_settings
@given(rows=dims, cols=dims, seed=seeds)
def test_rows_l2norm_adjoint(rows, cols, seed):
    x = rows_away_from_zero(np.random.default_rng(seed), (rows, cols))
    check_adjoint(lambda tape, a: tape.rows_l2norm(a), [x], seed)


@property_settings
@given(m=dims, k=dims, cols=st.integers(2, 6), seed=seeds)
def test_cosine_matrix_adjoint(m, k, cols, seed):
    """At least 2 columns: the cosine of two scalars is constant (+-1)."""
    rng = np.random.default_rng(seed)
    a, b = rows_away_from_zero(rng, (m, cols)), rows_away_from_zero(rng, (k, cols))
    check_adjoint(lambda tape, x, y: tape.cosine_matrix(x, y), [a, b], seed)


@property_settings
@given(rows=dims, cols=st.integers(2, 6), seed=seeds)
def test_max_rows_adjoint(rows, cols, seed):
    """Each row's entries are spread at least MARGIN apart, so the maximum is
    unique and stays put under the probe."""
    rng = np.random.default_rng(seed)
    spread = np.stack([rng.permutation(cols) for _ in range(rows)]) * (2 * MARGIN)
    x = spread + rng.uniform(0.0, MARGIN, (rows, cols)) + rng.standard_normal((rows, 1))
    check_adjoint(lambda tape, a: tape.max_rows(a), [x], seed)


@property_settings
@given(batch=st.integers(0, 3), m=dims, k=dims, n=dims,
       transposed=st.sampled_from(["left", "right", "both"]), seed=seeds)
def test_transpose_product_chain_adjoint(batch, m, k, n, transposed, seed):
    """Products of transposed views: matmul (batch 0) or bmm reads operands
    with swapped strides, and the adjoints flow back through np.swapaxes
    views of the product's gradient."""
    rng = np.random.default_rng(seed)
    lead = () if batch == 0 else (batch,)
    a_shape = lead + ((k, m) if transposed != "right" else (m, k))
    b_shape = lead + ((n, k) if transposed != "left" else (k, n))

    def chain(tape, a, b):
        left = tape.transpose(a) if transposed != "right" else a
        right = tape.transpose(b) if transposed != "left" else b
        product = tape.matmul(left, right) if batch == 0 else tape.bmm(left, right)
        return tape.transpose(product)

    check_adjoint(chain, [rng.standard_normal(a_shape), rng.standard_normal(b_shape)], seed)
