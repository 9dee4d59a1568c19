"""Matching tests: tuple combinatorics against a recursive enumerator, and
distance/similarity against brute-force nested-loop oracles."""

import inspect
import math

import numpy as np
import pytest

from strm import matching
from strm.diffcore import ShapeError, Tape, Tensor, finite_diff_gradients, zero_grads
from strm.matching import (check_class_sizes, embed_class_supports,
                           enumerate_tuples, init_qc_params, init_trm_params,
                           project_tuples, qc_logits, qc_similarity,
                           select_tuples, trm_distance, trm_logits, tuple_count)


def seed_for(name):
    return [0, sum(name.encode())]


def recursive_tuples(frames, omega, start=0):
    """Independent enumerator used to cross-check itertools-based counting."""
    if omega == 0:
        return [()]
    return [(i,) + rest
            for i in range(start, frames)
            for rest in recursive_tuples(frames, omega - 1, i + 1)]


def tuple_repr(tape, frames, t):
    """Oracle: the selected frame rows, in tuple order, as one vector."""
    rows = tape.concat([tape.slice_rows(frames, i, i + 1) for i in t])
    return tape.reshape(rows, (len(t) * frames.shape[1],))


def tuple_matrix(tape, frames, tuples):
    """Oracle: every tuple representation, one per row."""
    width = len(tuples[0]) * frames.shape[1]
    return tape.concat([tape.reshape(tuple_repr(tape, frames, t), (1, width))
                        for t in tuples])


def support_block(classes):
    """Class-major support block of frame rows from per-class clip lists."""
    return Tensor(np.concatenate([clip.data for group in classes for clip in group]))


def trm_distance_oracle(query, supports, tuples_by_omega, params):
    """Naive nested-loop evaluation of the tuple-matching distance."""
    total = 0.0
    for omega, tuples in tuples_by_omega.items():
        w_key = params[omega].key_proj.value.data
        w_val = params[omega].value_proj.value.data
        d_embed = w_key.shape[1]
        sup_tuples = [np.concatenate([s[i] for i in t]) for s in supports for t in tuples]
        acc = 0.0
        for t in tuples:
            q_vec = np.concatenate([query[i] for i in t])
            q_key = q_vec @ w_key
            q_val = q_vec @ w_val
            logits = np.array([(q_key @ (s @ w_key)) / math.sqrt(d_embed)
                               for s in sup_tuples])
            e = np.exp(logits - logits.max())
            att = e / e.sum()
            proto = sum(a * (s @ w_val) for a, s in zip(att, sup_tuples))
            acc += float(np.linalg.norm(q_val - proto))
        total += acc / len(tuples)
    return total


def qc_similarity_oracle(query, supports, tuples_by_omega, params):
    """Naive nested-loop evaluation of the best-cosine tuple similarity."""
    total = 0.0
    for omega, tuples in tuples_by_omega.items():
        w = params[omega].class_proj.value.data
        sup_codes = [np.maximum(np.concatenate([s[i] for i in t]) @ w, 0.0)
                     for s in supports for t in tuples]
        acc = 0.0
        for t in tuples:
            q_code = np.maximum(np.concatenate([query[i] for i in t]) @ w, 0.0)
            best = -np.inf
            for s_code in sup_codes:
                nq, ns = np.linalg.norm(q_code), np.linalg.norm(s_code)
                sim = 0.0 if nq == 0.0 or ns == 0.0 else float(q_code @ s_code / (nq * ns))
                best = max(best, sim)
            acc += best
        total += acc / len(tuples)
    return total


# -- enumeration -----------------------------------------------------------------


def test_tuple_counts_match_reference_row():
    combos = [((2,), 28), ((3,), 56), ((4,), 70), ((2, 3), 84),
              ((2, 4), 98), ((3, 4), 126), ((2, 3, 4), 154)]
    for omegas, expected in combos:
        assert len(enumerate_tuples(8, omegas)) == expected
        assert sum(tuple_count(8, w) for w in omegas) == expected


def test_tuples_listing_l4():
    out = enumerate_tuples(4, [2])
    assert out == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("frames", range(2, 11))
@pytest.mark.parametrize("omega", range(1, 5))
def test_counts_match_recursive_enumerator(frames, omega):
    if omega > frames:
        pytest.skip("cardinality exceeds frames")
    ours = enumerate_tuples(frames, [omega])
    reference = recursive_tuples(frames, omega)
    assert ours == reference
    assert len(ours) == math.comb(frames, omega)
    assert len(set(ours)) == len(ours)
    assert all(all(t[i] < t[i + 1] for i in range(len(t) - 1)) for t in ours)


def test_cardinality_above_frames_rejected():
    with pytest.raises(ShapeError):
        enumerate_tuples(3, [4])
    with pytest.raises(ShapeError):
        tuple_count(3, 4)


# -- tuple representation -----------------------------------------------------------


def test_tuple_repr_concatenates_rows():
    e = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    out = tuple_repr(Tape(), e, (0, 1))
    assert np.array_equal(out.data, [1.0, 2.0, 3.0, 4.0])


def test_tuple_repr_single_index():
    e = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    out = tuple_repr(Tape(), e, (2,))
    assert np.array_equal(out.data, [5.0, 6.0])


def test_tuple_repr_matches_indexing_oracle_bitwise():
    rng = np.random.default_rng(0)
    e = rng.standard_normal((6, 3))
    for t in enumerate_tuples(6, [3]):
        out = tuple_repr(Tape(), Tensor(e), t)
        assert np.array_equal(out.data, np.concatenate([e[i] for i in t]))


def test_tuple_matrix_rows_are_tuple_reprs():
    rng = np.random.default_rng(1)
    e = rng.standard_normal((5, 4))
    tuples = enumerate_tuples(5, [2])
    mat = tuple_matrix(Tape(), Tensor(e), tuples)
    assert mat.shape == (len(tuples), 8)
    for row, t in zip(mat.data, tuples):
        assert np.array_equal(row, np.concatenate([e[i] for i in t]))


@pytest.mark.parametrize("omega", [2, 3])
def test_factorized_projection_matches_tuple_matrix(omega):
    rng = np.random.default_rng(omega)
    frames, channels, width = 6, 3, 5
    tuples = select_tuples(frames, [omega], keep_ratio=0.5, tuple_seed=4)[omega]
    assert tuples != sorted(tuples)  # a shuffled subsample, not the enumeration
    clips = [rng.standard_normal((frames, channels)) for _ in range(3)]
    weight = rng.standard_normal((omega * channels, width))
    out = project_tuples(Tape(), Tensor(np.concatenate(clips)), frames,
                         Tensor(weight), tuples)
    assert out.shape == (3, len(tuples), width)
    for projected, clip in zip(out.data, clips):
        expected = tuple_matrix(Tape(), Tensor(clip), tuples).data @ weight
        assert np.abs(projected - expected).max() <= 1e-12


def test_tuple_repr_out_of_range():
    with pytest.raises(IndexError):
        tuple_repr(Tape(), Tensor(np.ones((3, 2))), (1, 3))


# -- subsampling -------------------------------------------------------------------


def test_subsample_ratio_one_is_identity():
    full = select_tuples(8, [2], keep_ratio=1.0, tuple_seed=9)
    assert full[2] == enumerate_tuples(8, [2])


def test_subsample_deterministic_and_sized():
    a = select_tuples(8, [2], keep_ratio=0.2, tuple_seed=3)
    b = select_tuples(8, [2], keep_ratio=0.2, tuple_seed=3)
    assert a == b
    assert len(a[2]) == math.ceil(0.2 * 28)
    c = select_tuples(8, [2], keep_ratio=0.2, tuple_seed=4)
    assert a != c
    assert set(a[2]) <= set(enumerate_tuples(8, [2]))


# -- distances ----------------------------------------------------------------------


def test_trm_distance_identical_query_support_is_zero():
    rng = np.random.default_rng(2)
    params = {2: init_trm_params(2, 3, 4, seed_for)}
    clip = Tensor(rng.standard_normal((2, 3)))
    tuples = {2: enumerate_tuples(2, [2])}
    out = trm_distance(Tape(), clip, [clip], tuples, params)
    assert abs(out.item()) <= 1e-12


def test_trm_distance_invariant_to_duplicated_supports():
    rng = np.random.default_rng(3)
    params = {2: init_trm_params(2, 3, 4, seed_for)}
    tuples = {2: enumerate_tuples(3, [2])}
    query = Tensor(rng.standard_normal((3, 3)))
    support = Tensor(rng.standard_normal((3, 3)))
    one = trm_distance(Tape(), query, [support], tuples, params)
    many = trm_distance(Tape(), query, [support] * 4, tuples, params)
    assert abs(one.item() - many.item()) <= 1e-10


def test_trm_distance_invariant_to_support_order():
    rng = np.random.default_rng(4)
    params = {2: init_trm_params(2, 4, 5, seed_for)}
    tuples = {2: enumerate_tuples(4, [2])}
    query = Tensor(rng.standard_normal((4, 4)))
    supports = [Tensor(rng.standard_normal((4, 4))) for _ in range(3)]
    fwd = trm_distance(Tape(), query, supports, tuples, params)
    rev = trm_distance(Tape(), query, supports[::-1], tuples, params)
    assert abs(fwd.item() - rev.item()) <= 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_trm_distance_matches_bruteforce_oracle(seed):
    rng = np.random.default_rng(seed)
    frames, channels, embed = 3, 3, 4
    shots = int(rng.integers(1, 4))
    params = {2: init_trm_params(2, channels, embed, lambda n: [seed, sum(n.encode())])}
    tuples = {2: enumerate_tuples(frames, [2])}
    query = rng.standard_normal((frames, channels))
    supports = [rng.standard_normal((frames, channels)) for _ in range(shots)]
    out = trm_distance(Tape(), Tensor(query), [Tensor(s) for s in supports],
                       tuples, params)
    expected = trm_distance_oracle(query, supports, tuples, params)
    assert abs(out.item() - expected) <= 1e-10


def test_trm_distance_multi_cardinality_matches_oracle():
    rng = np.random.default_rng(42)
    frames, channels, embed = 4, 2, 3
    params = {w: init_trm_params(w, channels, embed, lambda n: [w, sum(n.encode())])
              for w in (2, 3)}
    tuples = {w: enumerate_tuples(frames, [w]) for w in (2, 3)}
    query = rng.standard_normal((frames, channels))
    supports = [rng.standard_normal((frames, channels)) for _ in range(2)]
    out = trm_distance(Tape(), Tensor(query), [Tensor(s) for s in supports],
                       tuples, params)
    expected = trm_distance_oracle(query, supports, tuples, params)
    assert abs(out.item() - expected) <= 1e-10


def test_trm_distance_rejects_empty_support():
    params = {2: init_trm_params(2, 3, 4, seed_for)}
    with pytest.raises(ShapeError):
        trm_distance(Tape(), Tensor(np.ones((3, 3))), [],
                     {2: enumerate_tuples(3, [2])}, params)


@pytest.mark.parametrize("support_frames", [4, 5])
def test_one_class_support_must_match_query_frames(support_frames):
    """L=4 support clips against an L=2 query hold as many rows as twice the
    clips of 2 frames: only the per-clip frame count tells them apart."""
    rng = np.random.default_rng(17)
    trm = {2: init_trm_params(2, 3, 4, seed_for)}
    qc = {2: init_qc_params(2, 3, 4, seed_for)}
    tuples = {2: enumerate_tuples(2, [2])}
    query = Tensor(rng.standard_normal((2, 3)))
    supports = [Tensor(rng.standard_normal((support_frames, 3))) for _ in range(2)]
    with pytest.raises(ShapeError, match=f"support clips have {support_frames} frames"):
        trm_distance(Tape(), query, supports, tuples, trm)
    with pytest.raises(ShapeError, match=f"support clips have {support_frames} frames"):
        qc_similarity(Tape(), query, supports, tuples, qc)


# -- logits --------------------------------------------------------------------------


def test_trm_logits_argmax_on_identical_class():
    rng = np.random.default_rng(5)
    params = {2: init_trm_params(2, 3, 4, seed_for)}
    tuples = {2: enumerate_tuples(3, [2])}
    query = Tensor(rng.standard_normal((3, 3)))
    far = [[Tensor(rng.standard_normal((3, 3)) + 5.0)] for _ in range(2)]
    logits = trm_logits(Tape(), query, support_block([[query]] + far), tuples, params,
                        classes=3)
    assert int(np.argmax(logits.data)) == 0


def test_trm_logits_uniform_when_supports_identical():
    rng = np.random.default_rng(6)
    params = {2: init_trm_params(2, 3, 4, seed_for)}
    tuples = {2: enumerate_tuples(3, [2])}
    query = Tensor(rng.standard_normal((3, 3)))
    shared = Tensor(rng.standard_normal((3, 3)))
    tape = Tape()
    logits = trm_logits(tape, query, support_block([[shared]] * 4), tuples, params,
                        classes=4)
    probs = tape.softmax_last(tape.reshape(logits, (1, 4)))
    assert np.abs(probs.data - 0.25).max() <= 1e-9


def test_trm_logits_two_way_matches_distances():
    rng = np.random.default_rng(7)
    params = {2: init_trm_params(2, 3, 4, seed_for)}
    tuples = {2: enumerate_tuples(3, [2])}
    query = rng.standard_normal((3, 3))
    s0 = [rng.standard_normal((3, 3))]
    s1 = [rng.standard_normal((3, 3))]
    logits = trm_logits(Tape(), Tensor(query), Tensor(np.concatenate(s0 + s1)),
                        tuples, params, classes=2)
    d0 = trm_distance_oracle(query, s0, tuples, params)
    d1 = trm_distance_oracle(query, s1, tuples, params)
    assert np.abs(logits.data - np.array([-d0, -d1])).max() <= 1e-10


def test_trm_logits_same_for_clips_embeddings_and_block():
    rng = np.random.default_rng(15)
    params = {w: init_trm_params(w, 3, 4, seed_for) for w in (2, 3)}
    qc = {w: init_qc_params(w, 3, 4, seed_for) for w in (2, 3)}
    tuples = {w: enumerate_tuples(4, [w]) for w in (2, 3)}
    classes = [[Tensor(rng.standard_normal((4, 3))) for _ in range(2)] for _ in range(3)]
    queries = [Tensor(rng.standard_normal((4, 3))) for _ in range(2)]
    tape = Tape()
    embeds = [embed_class_supports(tape, group, tuples, params) for group in classes]
    block = support_block(classes)
    stacked = Tensor(np.stack([query.data for query in queries]))
    batched = trm_logits(tape, stacked, block, tuples, params, classes=3)
    assert batched.shape == (2, 3)
    batched_qc = qc_logits(tape, stacked, block, tuples, qc, classes=3)
    assert batched_qc.shape == (2, 3)
    for q, query in enumerate(queries):
        per_class = [-trm_distance(tape, query, group, tuples, params).item()
                     for group in classes]
        assert np.abs(np.array(per_class) - batched.data[q]).max() <= 1e-12
        per_class_qc = [qc_similarity(tape, query, group, tuples, qc).item()
                        for group in classes]
        assert np.abs(np.array(per_class_qc) - batched_qc.data[q]).max() <= 1e-12
        for supports, count in ((embeds, None), (block, 3)):
            logits = trm_logits(tape, query, supports, tuples, params, classes=count)
            assert np.abs(logits.data - batched.data[q]).max() <= 1e-12


def test_support_block_must_fit_its_classes():
    rng = np.random.default_rng(16)
    trm = {2: init_trm_params(2, 3, 4, seed_for)}
    qc = {2: init_qc_params(2, 3, 4, seed_for)}
    tuples = {2: enumerate_tuples(4, [2])}
    query = Tensor(rng.standard_normal((4, 3)))
    block = Tensor(rng.standard_normal((20, 3)))  # five clips of 4 frames
    for classes in (None, 2, 3):
        with pytest.raises(ShapeError):
            trm_logits(Tape(), query, block, tuples, trm, classes=classes)
    for classes in (2, 3):
        with pytest.raises(ShapeError):
            qc_logits(Tape(), Tensor(query.data[None]), block, tuples, qc, classes=classes)
    with pytest.raises(ShapeError, match=r"query block must be \[Q x L x D\]"):
        qc_logits(Tape(), query, block, tuples, qc, classes=5)
    with pytest.raises(ShapeError, match="at least 2 classes"):
        trm_logits(Tape(), query, block, tuples, trm, classes=1)
    assert trm_logits(Tape(), query, block, tuples, trm, classes=5).shape == (5,)


def test_unequal_class_sizes_rejected():
    rng = np.random.default_rng(14)
    trm = {2: init_trm_params(2, 3, 4, seed_for)}
    qc = {2: init_qc_params(2, 3, 4, seed_for)}
    tuples = {2: enumerate_tuples(3, [2])}
    query = Tensor(rng.standard_normal((3, 3)))
    classes = [[Tensor(rng.standard_normal((3, 3))) for _ in range(n)] for n in (2, 2, 3)]
    message = r"class 2 has 3 support clips but class 0 has 2"
    with pytest.raises(ShapeError, match=message):
        check_class_sizes([len(group) for group in classes])
    tape = Tape()
    embeds = [embed_class_supports(tape, group, tuples, trm) for group in classes]
    with pytest.raises(ShapeError, match=message):
        trm_logits(tape, query, embeds, tuples, trm)


# -- query-class similarity -----------------------------------------------------------


def test_qc_identical_clip_scores_cardinality_count():
    rng = np.random.default_rng(8)
    for omegas in ((2,), (2, 3)):
        params = {w: init_qc_params(w, 3, 5, seed_for) for w in omegas}
        tuples = {w: enumerate_tuples(4, [w]) for w in omegas}
        clip = Tensor(rng.standard_normal((4, 3)))
        out = qc_similarity(Tape(), clip, [clip], tuples, params)
        assert abs(out.item() - len(omegas)) <= 1e-12


def test_qc_zero_projection_scores_zero():
    rng = np.random.default_rng(9)
    params = {2: init_qc_params(2, 3, 5, seed_for)}
    params[2].class_proj.value.data[...] = 0.0
    tuples = {2: enumerate_tuples(3, [2])}
    query = Tensor(rng.standard_normal((3, 3)))
    support = Tensor(rng.standard_normal((3, 3)))
    out = qc_similarity(Tape(), query, [support], tuples, params)
    assert out.item() == 0.0
    tape = Tape()
    logits = qc_logits(tape, Tensor(query.data[None]), support_block([[support]] * 3),
                       tuples, params, classes=3)
    probs = tape.softmax_last(logits)
    assert np.abs(probs.data - 1 / 3).max() <= 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_qc_similarity_matches_bruteforce_oracle(seed):
    rng = np.random.default_rng([seed, 5])
    frames, channels, code = 3, 2, 4
    shots = int(rng.integers(1, 4))
    params = {2: init_qc_params(2, channels, code, lambda n: [seed, sum(n.encode())])}
    tuples = {2: enumerate_tuples(frames, [2])}
    query = rng.standard_normal((frames, channels))
    supports = [rng.standard_normal((frames, channels)) for _ in range(shots)]
    out = qc_similarity(Tape(), Tensor(query), [Tensor(s) for s in supports],
                        tuples, params)
    expected = qc_similarity_oracle(query, supports, tuples, params)
    assert abs(out.item() - expected) <= 1e-10


def test_qc_bounded_by_cardinality_count():
    rng = np.random.default_rng(11)
    for omegas in ((2,), (2, 3)):
        params = {w: init_qc_params(w, 3, 4, seed_for) for w in omegas}
        tuples = {w: enumerate_tuples(5, [w]) for w in omegas}
        for trial in range(5):
            query = Tensor(rng.standard_normal((5, 3)))
            supports = [Tensor(rng.standard_normal((5, 3))) for _ in range(2)]
            out = qc_similarity(Tape(), query, supports, tuples, params)
            assert -len(omegas) <= out.item() <= len(omegas)


def test_qc_argmax_invariant_to_shared_code_rescale():
    rng = np.random.default_rng(12)
    params = {2: init_qc_params(2, 3, 4, seed_for)}
    tuples = {2: enumerate_tuples(4, [2])}
    query = Tensor(rng.standard_normal((1, 4, 3)))
    classes = [[Tensor(rng.standard_normal((4, 3)))] for _ in range(3)]
    base = qc_logits(Tape(), query, support_block(classes), tuples, params, classes=3)
    params[2].class_proj.value.data *= 7.5  # scales every code by the same factor
    scaled = qc_logits(Tape(), query, support_block(classes), tuples, params, classes=3)
    assert int(np.argmax(base.data)) == int(np.argmax(scaled.data))
    assert np.abs(base.data - scaled.data).max() <= 1e-9


# -- gradients ------------------------------------------------------------------------


def test_matching_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    frames, channels, embed, code = 3, 2, 4, 3
    trm = {2: init_trm_params(2, channels, embed, seed_for)}
    qc = {2: init_qc_params(2, channels, code, seed_for)}
    params = trm[2].all() + qc[2].all()
    tuples = {2: enumerate_tuples(frames, [2])}
    query = rng.standard_normal((frames, channels))
    supports = [rng.standard_normal((frames, channels)) for _ in range(2)]

    def build(tape):
        d = trm_distance(tape, Tensor(query), [Tensor(s) for s in supports],
                         tuples, trm)
        m = qc_similarity(tape, Tensor(query), [Tensor(s) for s in supports],
                          tuples, qc)
        return tape.add(d, m)

    zero_grads(params)
    tape = Tape()
    tape.backward(build(tape), params)
    analytic = {p.name: p.grad.copy() for p in params}
    numeric = finite_diff_gradients(lambda: build(Tape()).item(), params, step=1e-5)
    for p in params:
        a, f = analytic[p.name], numeric[p.name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
        assert np.max(np.abs(a - f) / denom) <= 1e-5, p.name


# -- public surface -------------------------------------------------------------------

# Every public name and its signature (the alias TupleIndex by its value): one
# support form for scoring, the class-major block, and the per-class adapters
# that perfbench names. A second form (an embeddings type, a single-query or
# classes-free qc_logits) changes it.
MATCHING_SURFACE = {
    "TupleIndex": "tuple[int, ...]",
    "TupleEmbedParams": "(key_proj: 'Param', value_proj: 'Param') -> None",
    "QCParams": "(class_proj: 'Param') -> None",
    "init_trm_params": "(omega: 'int', channels: 'int', embed_dim: 'int', seed_for) "
                       "-> 'TupleEmbedParams'",
    "init_qc_params": "(omega: 'int', channels: 'int', code_dim: 'int', seed_for) "
                      "-> 'QCParams'",
    "enumerate_tuples": "(frames: 'int', omegas: 'Sequence[int]') -> 'list[TupleIndex]'",
    "tuple_count": "(frames: 'int', omega: 'int') -> 'int'",
    "select_tuples": "(frames: 'int', omegas: 'Sequence[int]', keep_ratio: 'float' = 1.0, "
                     "tuple_seed: 'int' = 0) -> 'dict[int, list[TupleIndex]]'",
    "project_tuples": "(tape: 'Tape', frames: 'Tensor', clip_frames: 'int', "
                      "weight: 'Tensor', tuples: 'Sequence[TupleIndex]') -> 'Tensor'",
    "check_class_sizes": "(sizes: 'Sequence[int]') -> 'None'",
    "embed_class_supports": "(tape: 'Tape', support_frames: 'Sequence[Tensor]', "
                            "tuple_sets: 'dict[int, list[TupleIndex]]', "
                            "trm_params: 'dict[int, TupleEmbedParams]') -> 'Tensor'",
    "trm_distance": "(tape: 'Tape', query_frames: 'Tensor', support_frames: 'Sequence[Tensor]', "
                    "tuple_sets: 'dict[int, list[TupleIndex]]', "
                    "trm_params: 'dict[int, TupleEmbedParams]') -> 'Tensor'",
    "trm_logits": "(tape: 'Tape', query_frames: 'Tensor', "
                  "class_supports: 'Tensor | Sequence[Tensor]', "
                  "tuple_sets: 'dict[int, list[TupleIndex]]', "
                  "trm_params: 'dict[int, TupleEmbedParams]', "
                  "classes: 'int | None' = None) -> 'Tensor'",
    "encode_class_supports": "(tape: 'Tape', support_frames: 'Sequence[Tensor]', "
                             "tuple_sets: 'dict[int, list[TupleIndex]]', "
                             "qc_params: 'dict[int, QCParams]') -> 'dict[int, Tensor]'",
    "qc_similarity": "(tape: 'Tape', query_frames: 'Tensor', support_frames: 'Sequence[Tensor]', "
                     "tuple_sets: 'dict[int, list[TupleIndex]]', "
                     "qc_params: 'dict[int, QCParams]') -> 'Tensor'",
    "qc_logits": "(tape: 'Tape', query_frames: 'Tensor', support: 'Tensor', "
                 "tuple_sets: 'dict[int, list[TupleIndex]]', "
                 "qc_params: 'dict[int, QCParams]', classes: 'int') -> 'Tensor'",
}


def test_matching_surface_is_pinned():
    surface = {}
    for name in matching.__all__:
        member = getattr(matching, name)
        surface[name] = repr(member) if name == "TupleIndex" else str(inspect.signature(member))
    assert surface == MATCHING_SURFACE
