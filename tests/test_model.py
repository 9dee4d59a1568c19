"""Model assembly tests: config validation, parameter naming and seeding,
and batched-vs-single enrichment equivalence."""

import numpy as np
import pytest

from strm.diffcore import Tape, finite_diff_gradients, zero_grads
from strm.episodes import EpisodeSpec, SyntheticSpec, generate_synthetic, sample_episode
from strm.model import (ModelConfig, build_params, enrich_clip, enrich_clips,
                        forward_episode, params_from_arrays, validate_against)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(frames=1)
    with pytest.raises(ValueError):
        ModelConfig(omegas=())
    with pytest.raises(ValueError):
        ModelConfig(frames=4, omegas=(5,))
    with pytest.raises(ValueError):
        ModelConfig(qc_weight=-0.1)
    with pytest.raises(ValueError):
        ModelConfig(tuple_keep_ratio=0.0)
    with pytest.raises(ValueError):
        ModelConfig(tuple_keep_ratio=1.5)


def test_keep_ratio_must_be_small_denominator_rational():
    ModelConfig(tuple_keep_ratio=0.2)  # 1/5
    ModelConfig(tuple_keep_ratio=0.25)  # 1/4
    ModelConfig(tuple_keep_ratio=1 / 3)
    with pytest.raises(ValueError):
        ModelConfig(tuple_keep_ratio=0.123456789)


def test_omegas_sorted_and_deduplicated():
    cfg = ModelConfig(omegas=(3, 2, 3))
    assert cfg.omegas == (2, 3)


def test_param_names_and_seeding_deterministic():
    cfg = ModelConfig(seed=9)
    a = build_params(cfg)
    b = build_params(cfg)
    for pa, pb in zip(a.all(), b.all()):
        assert pa.name == pb.name
        assert np.array_equal(pa.value.data, pb.value.data)
    c = build_params(ModelConfig(seed=10))
    assert not np.array_equal(a.all()[0].value.data, c.all()[0].value.data)


def test_params_roundtrip_through_arrays():
    cfg = ModelConfig(omegas=(2, 3), seed=4)
    params = build_params(cfg)
    arrays = {p.name: p.value.data for p in params.all()}
    rebuilt = params_from_arrays(arrays)
    assert {p.name for p in rebuilt.all()} == set(arrays)
    validate_against(rebuilt, cfg)


def test_validate_against_flags_extent_mismatch():
    cfg = ModelConfig(seed=0)
    params = build_params(cfg)
    wrong = ModelConfig(channels=32, seed=0)
    with pytest.raises(Exception, match="mismatch"):
        validate_against(params, wrong)


def test_enrich_clips_matches_enrich_clip():
    ds = generate_synthetic(SyntheticSpec(num_classes=3, clips_per_class=2,
                                          frames=4, patches=4, channels=8,
                                          seed=2))
    cfg = ModelConfig(frames=4, patches=4, channels=8, refine_hidden=4,
                      embed_dim=6, code_dim=4, seed=1)
    params = build_params(cfg)
    values = [c.features.values for c in ds.clips[:5]]
    batched = enrich_clips(Tape(), values, params, cfg)
    for v, (pooled_b, enriched_b) in zip(values, batched):
        pooled, enriched = enrich_clip(Tape(), v, params, cfg)
        assert np.abs(pooled.data - pooled_b.data).max() <= 1e-12
        assert np.abs(enriched.data - enriched_b.data).max() <= 1e-12


@pytest.mark.parametrize("use_ple", [True, False])
def test_enrich_clips_gradients_match_finite_differences(use_ple):
    ds = generate_synthetic(SyntheticSpec(num_classes=2, clips_per_class=2,
                                          frames=3, patches=2, channels=3, seed=5))
    cfg = ModelConfig(frames=3, patches=2, channels=3, refine_hidden=2, embed_dim=2,
                      code_dim=2, use_ple=use_ple, seed=2)
    params = build_params(cfg)
    plist = [p for p in params.all() if p.name.startswith(("ple.", "fle."))]
    assert any(p.name.startswith("ple.") for p in plist) == use_ple
    values = [c.features.values for c in ds.clips[:3]]

    def build(tape):
        pairs = enrich_clips(tape, values, params, cfg)
        rows = tape.concat([t for pair in pairs for t in pair], axis=0)
        return tape.l2_norm(tape.reshape(rows, (rows.size,)))

    zero_grads(plist)
    tape = Tape()
    tape.backward(build(tape), plist)
    analytic = {p.name: p.grad.copy() for p in plist}
    numeric = finite_diff_gradients(lambda: build(Tape()).item(), plist, step=1e-5)
    for p in plist:
        a, f = analytic[p.name], numeric[p.name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
        assert np.max(np.abs(a - f) / denom) <= 1e-5, p.name


def test_forward_episode_scores_shape():
    ds = generate_synthetic(SyntheticSpec(num_classes=4, clips_per_class=3,
                                          frames=4, patches=4, channels=8,
                                          seed=3))
    cfg = ModelConfig(frames=4, patches=4, channels=8, refine_hidden=4,
                      embed_dim=6, code_dim=4, seed=0)
    episode = sample_episode(ds, EpisodeSpec(ways=3, shots=1,
                                             queries_per_class=2, seed=0), 0)
    res = forward_episode(Tape(), episode, build_params(cfg), cfg)
    assert len(res.scores) == 6
    for s in res.scores:
        assert s.trm_logits.shape == (3,)
        assert s.qc_logits.shape == (3,)
    assert res.loss.ndim == 0
    assert res.loss_qc > 0.0


def test_subsampled_tuple_sets_used_in_forward():
    cfg = ModelConfig(tuple_keep_ratio=0.25, tuple_seed=3, seed=0)
    sets = cfg.tuple_sets()
    assert len(sets[2]) == 7  # ceil(0.25 * 28)
    full = ModelConfig(seed=0).tuple_sets()
    assert len(full[2]) == 28
