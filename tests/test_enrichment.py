"""Enrichment tests: residual identities, straight-line oracles,
permutation behavior, and gradient checks."""

import numpy as np
import pytest

from strm.diffcore import Param, ShapeError, Tape, Tensor, finite_diff_gradients, zero_grads
from strm.enrichment import (fle_forward, fle_forward_batch,
                             init_fle_params, init_ple_params, ple_forward,
                             ple_folds, ple_forward_batch, ple_patch_diagnostics)
from strm import enrichment, training
from strm.episodes import ClipRecord, Episode, FeatureClip
from strm.model import ModelConfig, build_params, enrich_block, forward_episode

from test_diffcore import l2_norm


def seed_for(name):
    return [0, sum(name.encode())]


def zero_ple(channels, hidden):
    p = init_ple_params(channels, hidden, seed_for)
    for param in p.all():
        param.value.data[...] = 0.0
    return p


def zero_fle(frames, channels):
    p = init_fle_params(frames, channels, seed_for)
    for param in p.all():
        param.value.data[...] = 0.0
    return p


def ple_oracle(x, p):
    """Straight-line evaluation of the patch-enrichment equations."""
    q = x @ p.query_proj.value.data
    k = x @ p.key_proj.value.data
    v = x @ p.value_proj.value.data
    scores = q @ k.T / np.sqrt(x.shape[1])
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    att = e / e.sum(axis=1, keepdims=True)
    alpha = att @ v + x
    h = np.maximum(alpha @ p.refine1.value.data, 0.0)
    h = np.maximum(h @ p.refine2.value.data, 0.0)
    return h @ p.refine3.value.data + alpha


def fle_oracle(h, p):
    """Straight-line evaluation of the frame-enrichment equations."""
    flipped = h.T
    star = np.maximum(flipped @ p.token_mix1.value.data, 0.0) \
        @ p.token_mix2.value.data + flipped
    back = star.T
    return np.maximum(back @ p.channel_mix1.value.data, 0.0) \
        @ p.channel_mix2.value.data + back


# -- identities ---------------------------------------------------------------


def test_ple_zero_params_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 6))
    out = ple_forward(Tape(), Tensor(x), zero_ple(6, 5))
    assert np.abs(out.data - x).max() <= 1e-12


def test_fle_zero_params_is_identity():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((5, 3))
    out = fle_forward(Tape(), Tensor(h), zero_fle(5, 3))
    assert np.abs(out.data - h).max() <= 1e-12


def test_ple_single_patch_attention_is_one():
    rng = np.random.default_rng(2)
    params = init_ple_params(3, 4, seed_for)
    for p in (params.refine1, params.refine2, params.refine3):
        p.value.data[...] = 0.0
    x = rng.standard_normal((1, 3))
    out = ple_forward(Tape(), Tensor(x), params)
    expected = x @ params.value_proj.value.data + x
    assert np.abs(out.data - expected).max() <= 1e-12


def test_fle_single_frame_degenerates_to_scalar_arithmetic():
    params = init_fle_params(1, 4, seed_for)
    h = np.array([[0.5, -1.5, 2.0, -0.25]])
    out = fle_forward(Tape(), Tensor(h), params)
    t1 = float(params.token_mix1.value.data[0, 0])
    t2 = float(params.token_mix2.value.data[0, 0])
    star = np.array([max(t1 * v, 0.0) * t2 + v for v in h[0]])
    r1 = params.channel_mix1.value.data
    r2 = params.channel_mix2.value.data
    expected = np.maximum(star @ r1, 0.0) @ r2 + star
    assert np.abs(out.data - expected).max() <= 1e-12


# -- oracles --------------------------------------------------------------------


def test_ple_matches_oracle_tiny():
    rng = np.random.default_rng(3)
    params = init_ple_params(2, 3, seed_for)
    x = rng.standard_normal((2, 2))
    out = ple_forward(Tape(), Tensor(x), params)
    assert np.abs(out.data - ple_oracle(x, params)).max() <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_ple_matches_oracle_random(seed):
    rng = np.random.default_rng(seed)
    channels, hidden, patches = 5, 4, 6
    params = init_ple_params(channels, hidden, lambda n: [seed, sum(n.encode())])
    x = rng.standard_normal((patches, channels))
    out = ple_forward(Tape(), Tensor(x), params)
    assert np.abs(out.data - ple_oracle(x, params)).max() <= 1e-12


def test_fle_matches_oracle_tiny():
    rng = np.random.default_rng(4)
    params = init_fle_params(3, 2, seed_for)
    h = rng.standard_normal((3, 2))
    out = fle_forward(Tape(), Tensor(h), params)
    assert np.abs(out.data - fle_oracle(h, params)).max() <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_fle_matches_oracle_random(seed):
    rng = np.random.default_rng(seed)
    params = init_fle_params(6, 5, lambda n: [seed, sum(n.encode())])
    h = rng.standard_normal((6, 5))
    out = fle_forward(Tape(), Tensor(h), params)
    assert np.abs(out.data - fle_oracle(h, params)).max() <= 1e-12


def test_batched_paths_match_single():
    rng = np.random.default_rng(5)
    ple = init_ple_params(4, 3, seed_for)
    fle = init_fle_params(3, 4, seed_for)
    frames = rng.standard_normal((6, 2, 4))
    tape = Tape()
    batched = ple_forward_batch(tape, Tensor(frames), ple, ple_folds(tape, ple))
    for i in range(6):
        single = ple_forward(Tape(), Tensor(frames[i]), ple)
        assert np.abs(batched.data[i] - single.data.mean(axis=0)).max() <= 1e-12
        assert np.abs(batched.data[i] - ple_oracle(frames[i], ple).mean(axis=0)).max() <= 1e-12
    clips = rng.standard_normal((4, 3, 4))
    fbatched = fle_forward_batch(Tape(), Tensor(clips), fle)
    for i in range(4):
        single = fle_forward(Tape(), Tensor(clips[i]), fle)
        assert np.abs(fbatched.data[i] - single.data).max() <= 1e-12


@pytest.mark.parametrize("frames,patches,channels,hidden",
                         [(5, 1, 4, 3), (2, 3, 9, 4), (3, 16, 256, 128)])
def test_pooled_ple_matches_oracle_mean(frames, patches, channels, hidden):
    """One patch per frame; more channels than patch rows in the block, where
    the folded score product is the costlier form; and eval-wide sizes, where
    the value projection is folded into a narrower refiner."""
    rng = np.random.default_rng([frames, patches, channels])
    ple = init_ple_params(channels, hidden, lambda n: [channels, sum(n.encode())])
    x = rng.standard_normal((frames, patches, channels))
    tape = Tape()
    pooled = ple_forward_batch(tape, Tensor(x), ple, ple_folds(tape, ple))
    assert pooled.shape == (frames, channels)
    expected = np.stack([ple_oracle(x[i], ple).mean(axis=0) for i in range(frames)])
    assert np.abs(pooled.data - expected).max() <= 1e-12


def test_pooled_ple_zero_params_is_patch_mean():
    x = np.random.default_rng(16).standard_normal((3, 4, 6))
    tape, ple = Tape(), zero_ple(6, 5)
    out = ple_forward_batch(tape, Tensor(x), ple, ple_folds(tape, ple))
    assert np.abs(out.data - x.mean(axis=1)).max() <= 1e-12


# -- pooling -------------------------------------------------------------------


def in_memory(arrays):
    return [FeatureClip(a) for a in arrays]


def pooled_raw(clips):
    """Patch-averaged frame rows of raw clips [frames x patches x channels],
    from the model's block enrichment with both stages off."""
    frames, patches, channels = clips[0].shape
    cfg = ModelConfig(frames=frames, patches=patches, channels=channels,
                      use_ple=False, use_fle=False, use_qc=False)
    pooled, enriched = enrich_block(Tape(), in_memory(clips), build_params(cfg), cfg)
    assert pooled is enriched
    return pooled.data


def test_pool_equal_patches_returns_that_vector():
    v = np.array([1.5, -2.0, 0.25])
    clip = np.tile(v, (2, 4, 1))
    assert np.array_equal(pooled_raw([clip]), np.stack([v, v]))


def test_pool_arithmetic_mean():
    clip = np.array([[[1.0, 3.0], [3.0, 1.0]], [[0.0, 4.0], [2.0, 2.0]]])
    assert np.array_equal(pooled_raw([clip]), [[2.0, 2.0], [1.0, 3.0]])


def test_pool_matches_bruteforce_mean():
    rng = np.random.default_rng(6)
    clips = [rng.standard_normal((5, 7, 3)) for _ in range(2)]
    expected = np.concatenate([c.mean(axis=1) for c in clips])
    assert np.abs(pooled_raw(clips) - expected).max() <= 1e-12


def test_pool_rejects_inconsistent_shapes():
    with pytest.raises(ShapeError):
        pooled_raw([np.ones((2, 3, 3)), np.ones((3, 3, 3))])
    with pytest.raises(ShapeError, match=r"^clip #1: shape \(2, 4, 3\) does not match "):
        pooled_raw([np.ones((2, 3, 3)), np.ones((2, 4, 3))])


@pytest.mark.parametrize("use_ple", [True, False])
@pytest.mark.parametrize("use_fle", [True, False])
def test_enrich_block_rows_independent_of_grouping(use_ple, use_fle):
    """Patch enrichment never crosses a frame and frame enrichment never
    crosses a clip, so enrich_block over all the clips gives, bit for bit,
    the rows of per-chunk calls joined, which evaluate's cache relies on.
    The chunks share one set of PLE folds, as evaluate's do."""
    rng = np.random.default_rng(18)
    cfg = ModelConfig(patches=16, channels=64, use_ple=use_ple, use_fle=use_fle,
                      use_qc=False)
    params = build_params(cfg)
    clips = in_memory([rng.standard_normal((8, 16, 64)).astype(np.float32) for _ in range(7)])
    whole = enrich_block(Tape(grad=False), clips, params, cfg)
    tape = Tape(grad=False)
    folds = ple_folds(tape, params.ple) if use_ple else None
    chunks = [enrich_block(tape, clips[i:i + 3], params, cfg, folds=folds)
              for i in range(0, len(clips), 3)]
    for one, parts in zip(whole, zip(*chunks)):
        assert np.array_equal(one.data, np.concatenate([part.data for part in parts]))


# -- permutation structure ---------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_ple_patch_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    params = init_ple_params(6, 4, lambda n: [seed, sum(n.encode())])
    x = rng.standard_normal((8, 6))
    perm = rng.permutation(8)
    direct = ple_forward(Tape(), Tensor(x[perm]), params)
    permuted = ple_forward(Tape(), Tensor(x), params).data[perm]
    assert np.abs(direct.data - permuted).max() <= 1e-9


def test_ple_is_frame_local():
    rng = np.random.default_rng(12)
    params = init_ple_params(5, 4, seed_for)
    clip = rng.standard_normal((4, 3, 5))
    out_before = ple_forward(Tape(), Tensor(clip[1]), params)
    clip2 = clip.copy()
    clip2[2] += 10.0  # perturb a different frame
    out_after = ple_forward(Tape(), Tensor(clip2[1]), params)
    assert np.array_equal(out_before.data, out_after.data)
    tape = Tape()
    folds = ple_folds(tape, params)
    pooled = ple_forward_batch(tape, Tensor(clip), params, folds)
    pooled2 = ple_forward_batch(tape, Tensor(clip2), params, folds)
    assert np.array_equal(pooled.data[1], pooled2.data[1])
    assert not np.allclose(pooled.data[2], pooled2.data[2])


@pytest.mark.parametrize("seed", range(10))
def test_fle_is_order_sensitive(seed):
    rng = np.random.default_rng([seed, 99])
    params = init_fle_params(6, 5, lambda n: [seed, 7, sum(n.encode())])
    h = rng.standard_normal((6, 5))
    perm = rng.permutation(6)
    while np.array_equal(perm, np.arange(6)):
        perm = rng.permutation(6)
    out_base = fle_forward(Tape(), Tensor(h), params).data
    out_perm = fle_forward(Tape(), Tensor(h[perm]), params).data
    # permuting input frames must change the output beyond any row shuffle
    base_sorted = np.array(sorted(map(tuple, np.round(out_base, 6))))
    perm_sorted = np.array(sorted(map(tuple, np.round(out_perm, 6))))
    assert not np.allclose(base_sorted, perm_sorted, atol=1e-8)


# -- gradients ------------------------------------------------------------------


def assert_gradients_match(build, params):
    """The tape's gradients of build(tape)'s scalar against central
    differences, within 1e-5 relative."""
    zero_grads(params)
    tape = Tape()
    loss = build(tape)
    tape.backward(loss, params)
    analytic = {p.name: p.grad.copy() for p in params}
    numeric = finite_diff_gradients(lambda: build(Tape()).item(), params, step=1e-5)
    for p in params:
        a, f = analytic[p.name], numeric[p.name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
        assert np.max(np.abs(a - f) / denom) <= 1e-5


def check_enrichment_gradients(frames, patches, channels, hidden):
    """Batched PLE, then FLE, against central differences."""
    rng = np.random.default_rng(13)
    ple = init_ple_params(channels, hidden, seed_for)
    fle = init_fle_params(frames, channels, seed_for)
    x = rng.standard_normal((frames, patches, channels))

    def build(tape):
        pooled = ple_forward_batch(tape, Tensor(x), ple, ple_folds(tape, ple))
        out = fle_forward(tape, pooled, fle)
        return l2_norm(tape, out)

    assert_gradients_match(build, ple.all() + fle.all())


def test_enrichment_gradients_match_finite_differences():
    check_enrichment_gradients(frames=4, patches=2, channels=3, hidden=4)


def test_pooled_ple_gradients_with_narrow_refiner():
    """More patches and a refiner narrower than the channels: the value
    projection reaches the pooled output both through the folded refiner and
    through the pooled context."""
    check_enrichment_gradients(frames=3, patches=4, channels=5, hidden=3)


def test_a_recording_tape_enriches_an_episode_in_one_pass(monkeypatch):
    """Training enriches an episode's clips in one ple_forward_batch call,
    whatever evaluate's chunk budget (here one clip), and the episode loss's
    gradients match central differences."""
    rng = np.random.default_rng(17)
    cfg = ModelConfig(frames=4, patches=2, channels=3, refine_hidden=4, embed_dim=4,
                      use_qc=False)
    params = build_params(cfg)
    a, b, c = (ClipRecord(f"c{i}", i % 2, FeatureClip(rng.standard_normal((4, 2, 3))))
               for i in range(3))
    episode = Episode(class_labels=[0, 1], support=[[a], [b]], queries=[(c, 0)])
    monkeypatch.setattr(training, "ENRICH_GROUP_BYTES", 8 * a.features.payload.size)
    calls, ple = [], enrichment.ple_forward_batch
    monkeypatch.setattr(enrichment, "ple_forward_batch",
                        lambda *args: calls.append(args[1].shape) or ple(*args))
    forward_episode(Tape(), episode, params, cfg)
    assert calls == [(12, 2, 3)]
    assert_gradients_match(lambda tape: forward_episode(tape, episode, params, cfg).loss,
                           params.all())


# -- shape contracts ---------------------------------------------------------------


def test_shapes_preserved():
    rng = np.random.default_rng(14)
    ple = init_ple_params(5, 3, seed_for)
    fle = init_fle_params(4, 5, seed_for)
    x = rng.standard_normal((7, 5))
    assert ple_forward(Tape(), Tensor(x), ple).shape == (7, 5)
    h = rng.standard_normal((4, 5))
    assert fle_forward(Tape(), Tensor(h), fle).shape == (4, 5)


def test_channel_mismatch_rejected():
    ple = init_ple_params(5, 3, seed_for)
    with pytest.raises(ShapeError):
        ple_forward(Tape(), Tensor(np.ones((4, 6))), ple)
    fle = init_fle_params(4, 5, seed_for)
    with pytest.raises(ShapeError):
        fle_forward(Tape(), Tensor(np.ones((5, 5))), fle)


def test_diagnostics_match_recomputed_norms():
    """One pass over a whole clip gives every frame's scores and norms as a
    per-frame recomputation does."""
    rng = np.random.default_rng(15)
    params = init_ple_params(4, 3, seed_for)
    clip = rng.standard_normal((3, 4, 4))
    scores, norms = ple_patch_diagnostics(clip, params)
    assert scores.shape == (3, 4, 4) and norms.shape == (3, 4)
    for i, x in enumerate(clip):
        enriched = ple_forward(Tape(), Tensor(x), params)
        assert np.abs(norms[i] - np.linalg.norm(enriched.data, axis=1)).max() <= 1e-12
        q = x @ params.query_proj.value.data
        k = x @ params.key_proj.value.data
        assert np.abs(scores[i] - q @ k.T / np.sqrt(4)).max() <= 1e-12
    without_scores, without_norms = ple_patch_diagnostics(clip, None)
    assert not without_scores.any()
    assert np.abs(without_norms - np.linalg.norm(clip, axis=2)).max() <= 1e-12
    with pytest.raises(ShapeError):
        ple_patch_diagnostics(clip[0], params)


def test_diagnostics_form_the_folds_once(monkeypatch):
    """The scores and the enriched rows share one set of PLE folds, so a
    clip's diagnostics pay for one D x D x D key fold."""
    rng = np.random.default_rng(16)
    params = init_ple_params(4, 3, seed_for)
    clip = rng.standard_normal((3, 4, 4))
    calls = []
    folds = enrichment.ple_folds

    def counting(*args):
        calls.append(args)
        return folds(*args)

    monkeypatch.setattr(enrichment, "ple_folds", counting)
    ple_patch_diagnostics(clip, params)
    assert len(calls) == 1
