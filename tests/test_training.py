"""Training tests: optimizer semantics, loss composition, checkpoints,
metric-log determinism, and the whole-model gradient check."""

import math
from dataclasses import replace

import numpy as np
import pytest

from strm.diffcore import NumericalError, Param, Tape, Tensor, zero_grads
from strm.episodes import EpisodeSpec, SyntheticSpec, filter_labels, \
    generate_synthetic, sample_episode
from strm.matching import enumerate_tuples, qc_similarity, trm_distance
from strm.model import (ModelConfig, build_params, enrich_clip, forward_episode,
                        infer_config, params_from_arrays)
from strm.training import (CheckpointFormatError, TrainConfig, evaluate,
                           format_metrics, gradcheck_model, load_checkpoint,
                           mean_pool_baseline, save_checkpoint, sgd_step, train)

TINY = dict(frames=4, patches=4, channels=8, refine_hidden=8, embed_dim=12,
            code_dim=6)


def tiny_dataset(num_classes=4, clips=4, seed=0, motif=0.3):
    return generate_synthetic(SyntheticSpec(
        num_classes=num_classes, clips_per_class=clips, frames=4, patches=4,
        channels=8, motif_strength=motif, seed=seed))


def tiny_episode(seed=0, ways=2, shots=1):
    # motif 1.0 keeps ReLU pre-activations clear of the probe step
    ds = tiny_dataset(num_classes=2, clips=2, seed=seed, motif=1.0)
    return sample_episode(ds, EpisodeSpec(ways=ways, shots=shots,
                                          queries_per_class=1, seed=seed), 0)


# -- sgd -----------------------------------------------------------------------


def test_sgd_single_step():
    p = Param("w", Tensor([1.0]))
    p.grad[...] = 2.0
    sgd_step([p], learning_rate=0.1)
    assert np.allclose(p.value.data, [0.8])
    assert np.array_equal(p.grad, [0.0])


def test_sgd_accumulation_mean_semantics():
    ds = tiny_dataset()
    episode = sample_episode(ds, EpisodeSpec(ways=2, shots=1, seed=0), 0)
    cfg = ModelConfig(seed=0, **TINY)

    def one_step(accumulate):
        params = build_params(cfg)
        plist = params.all()
        zero_grads(plist)
        for _ in range(accumulate):
            tape = Tape()
            res = forward_episode(tape, episode, params, cfg)
            tape.backward(res.loss, plist)
        sgd_step(plist, 0.05, accumulation_count=accumulate)
        return {p.name: p.value.data.copy() for p in plist}

    once = one_step(1)
    twice = one_step(2)
    for name in once:
        assert np.allclose(once[name], twice[name], atol=1e-15)


def test_sgd_quadratic_bowl_converges():
    rng = np.random.default_rng(0)
    w = Param("w", Tensor(rng.uniform(-1, 1, size=6)))
    for _ in range(200):
        w.grad[...] = w.value.data  # gradient of 0.5 * ||w||^2
        sgd_step([w], 0.1)
    assert np.abs(w.value.data).max() <= 1e-6


def test_sgd_aborts_on_nonfinite_gradient():
    p = Param("bad_param", Tensor([1.0]))
    p.grad[...] = np.nan
    with pytest.raises(NumericalError, match="bad_param"):
        sgd_step([p], 0.1)


# -- forward composition -----------------------------------------------------------


def test_all_toggles_off_is_bare_tuple_matcher():
    """With every enrichment disabled the episode logits equal distances
    computed directly on mean-pooled raw patches."""
    ds = tiny_dataset()
    episode = sample_episode(ds, EpisodeSpec(ways=2, shots=2, seed=1), 0)
    cfg = ModelConfig(use_ple=False, use_fle=False, use_qc=False, seed=0, **TINY)
    params = build_params(cfg)
    res = forward_episode(Tape(), episode, params, cfg)
    tuples = {2: enumerate_tuples(4, [2])}
    for scores, (record, _) in zip(res.scores, episode.queries):
        tape = Tape()
        query = Tensor(record.features.values.data.mean(axis=1))
        expected = []
        for way_clips in episode.support:
            sup = [Tensor(c.features.values.data.mean(axis=1)) for c in way_clips]
            expected.append(-trm_distance(tape, query, sup, tuples,
                                          params.trm).item())
        assert np.abs(scores.trm_logits.data - np.array(expected)).max() <= 1e-10


@pytest.mark.parametrize("omegas,keep_ratio", [((2,), 1.0), ((2, 3), 1.0), ((2,), 0.2)])
def test_episode_logits_match_per_class_matching(omegas, keep_ratio):
    """All queries scored against all classes in one pass equal the per-class
    distances and similarities of each query on its own."""
    ds = tiny_dataset(num_classes=3, clips=4)
    episode = sample_episode(ds, EpisodeSpec(ways=3, shots=2, queries_per_class=2,
                                             seed=5), 0)
    cfg = ModelConfig(omegas=omegas, tuple_keep_ratio=keep_ratio, tuple_seed=2,
                      seed=0, **TINY)
    params = build_params(cfg)
    res = forward_episode(Tape(), episode, params, cfg)
    tuples = cfg.tuple_sets()
    tape = Tape()
    support = [[enrich_clip(tape, c.features.values, params, cfg) for c in way_clips]
               for way_clips in episode.support]
    for scores, (record, _) in zip(res.scores, episode.queries):
        pooled, enriched = enrich_clip(tape, record.features.values, params, cfg)
        tm = [-trm_distance(tape, enriched, [e for _, e in pairs], tuples,
                            params.trm).item() for pairs in support]
        qc = [qc_similarity(tape, pooled, [p for p, _ in pairs], tuples,
                            params.qc).item() for pairs in support]
        assert np.abs(scores.trm_logits.data - np.array(tm)).max() <= 1e-10
        assert np.abs(scores.qc_logits.data - np.array(qc)).max() <= 1e-10


def test_loss_affine_in_qc_weight():
    ds = tiny_dataset()
    episode = sample_episode(ds, EpisodeSpec(ways=2, shots=1, seed=2), 0)
    base = ModelConfig(seed=0, **TINY)
    params = build_params(base)
    losses = {}
    for lam in (0.0, 0.5, 1.0):
        cfg = replace(base, qc_weight=lam)
        losses[lam] = forward_episode(Tape(), episode, params, cfg).loss.item()
    mid = 0.5 * (losses[0.0] + losses[1.0])
    assert abs(losses[0.5] - mid) <= 1e-12


def test_lambda_zero_loss_equals_pure_matching_term():
    ds = tiny_dataset()
    episode = sample_episode(ds, EpisodeSpec(ways=2, shots=1, seed=3), 0)
    cfg = ModelConfig(qc_weight=0.0, seed=0, **TINY)
    params = build_params(cfg)
    res = forward_episode(Tape(), episode, params, cfg)
    assert res.loss.item() == res.loss_tm
    assert res.loss.item() >= 0.0


def test_forward_matches_straightline_composition():
    """Tiny-config loss equals an independent composition of the per-module
    reference paths (per-clip enrichment + per-class distances + manual CE)."""
    ds = tiny_dataset()
    episode = sample_episode(ds, EpisodeSpec(ways=2, shots=2, seed=4), 0)
    cfg = ModelConfig(seed=0, **TINY)
    params = build_params(cfg)
    res = forward_episode(Tape(), episode, params, cfg)

    from strm.matching import qc_similarity
    tuples = cfg.tuple_sets()
    tm_losses, qc_losses = [], []
    for record, way in episode.queries:
        tape = Tape()
        q_pooled, q_enriched = enrich_clip(tape, record.features.values, params, cfg)
        dists, sims = [], []
        for way_clips in episode.support:
            pairs = [enrich_clip(tape, c.features.values, params, cfg)
                     for c in way_clips]
            dists.append(trm_distance(tape, q_enriched, [e for _, e in pairs],
                                      tuples, params.trm).item())
            sims.append(qc_similarity(tape, q_pooled, [p for p, _ in pairs],
                                      tuples, params.qc).item())
        tm_logits = -np.array(dists)
        e = np.exp(tm_logits - tm_logits.max())
        tm_losses.append(-math.log(e[way] / e.sum()))
        qs = np.array(sims)
        eq = np.exp(qs - qs.max())
        qc_losses.append(-math.log(eq[way] / eq.sum()))
    expected = float(np.mean(tm_losses)) + cfg.qc_weight * float(np.mean(qc_losses))
    assert abs(res.loss.item() - expected) <= 1e-10


def test_disabled_toggles_remove_parameters():
    cfg = ModelConfig(use_ple=False, use_fle=False, use_qc=False, seed=0, **TINY)
    params = build_params(cfg)
    names = {p.name for p in params.all()}
    assert names == {"trm.2.key_proj", "trm.2.value_proj"}
    full = build_params(ModelConfig(seed=0, **TINY))
    assert {p.name for p in full.all()} > names


# -- training loop ------------------------------------------------------------------


def test_zero_learning_rate_flat_accuracy_trace():
    ds = tiny_dataset(num_classes=4, clips=4)
    cfg = ModelConfig(seed=0, **TINY)
    tc = TrainConfig(episodes=40, learning_rate=0.0, eval_every=10, eval_episodes=8)
    _, metrics = train(ds, cfg, tc, EpisodeSpec(ways=2, shots=1, seed=0))
    accs = {m.accuracy for m in metrics}
    assert len(accs) == 1  # same eval episodes, unchanged parameters


def test_training_deterministic_logs():
    ds = tiny_dataset(num_classes=4, clips=4)
    cfg = ModelConfig(seed=0, **TINY)
    tc = TrainConfig(episodes=30, learning_rate=0.05, eval_every=10, eval_episodes=6)

    def run():
        params, metrics = train(ds, cfg, tc, EpisodeSpec(ways=2, shots=1, seed=0))
        return format_metrics(metrics), {p.name: p.value.data.copy()
                                         for p in params.all()}

    log_a, params_a = run()
    log_b, params_b = run()
    assert log_a == log_b
    for name in params_a:
        assert np.array_equal(params_a[name], params_b[name])


def test_loss_finite_and_nonnegative_throughout():
    ds = tiny_dataset()
    cfg = ModelConfig(seed=0, **TINY)
    params = build_params(cfg)
    spec = EpisodeSpec(ways=2, shots=1, seed=5)
    plist = params.all()
    for i in range(10):
        tape = Tape()
        res = forward_episode(tape, sample_episode(ds, spec, i), params, cfg)
        assert math.isfinite(res.loss.item()) and res.loss.item() >= 0.0
        tape.backward(res.loss, plist)
        sgd_step(plist, 0.05)


def test_overfit_loss_decreases_quickly():
    ds = tiny_dataset()
    episode = sample_episode(ds, EpisodeSpec(ways=2, shots=1, seed=6), 0)
    cfg = ModelConfig(seed=0, **TINY)
    start = forward_episode(Tape(), episode, build_params(cfg), cfg).loss_tm
    tc = TrainConfig(episodes=60, learning_rate=0.01, eval_every=60, eval_episodes=2)
    params, _ = train(ds, cfg, tc, EpisodeSpec(ways=2, shots=1, seed=6),
                      fixed_episode=episode)
    end = forward_episode(Tape(), episode, params, cfg).loss_tm
    assert end < 0.5 * start


# -- evaluation ----------------------------------------------------------------------


def test_evaluate_rejects_single_way():
    with pytest.raises(ValueError):
        EpisodeSpec(ways=1, shots=1)


def test_evaluate_perfect_margin_toy_task():
    ds = tiny_dataset(motif=50.0)  # content dwarfs noise, margins are huge
    cfg = ModelConfig(use_ple=False, use_fle=False, use_qc=False, seed=0, **TINY)
    params = build_params(cfg)
    rep = evaluate(ds, params, cfg, EpisodeSpec(ways=2, shots=2, seed=1), 50)
    assert rep.accuracy == 1.0
    assert rep.ci95_halfwidth == 0.0
    assert all(acc == 1.0 for _, acc in rep.per_class_accuracy)


def test_evaluate_report_fields():
    ds = tiny_dataset()
    cfg = ModelConfig(seed=0, **TINY)
    rep = evaluate(ds, build_params(cfg), cfg, EpisodeSpec(ways=2, shots=1, seed=2), 20)
    assert 0.0 <= rep.accuracy <= 1.0
    expected_ci = 1.96 * math.sqrt(rep.accuracy * (1 - rep.accuracy) / (20 * 2))
    assert abs(rep.ci95_halfwidth - expected_ci) <= 1e-12
    assert rep.episodes == 20


def test_mean_pool_baseline_at_chance_on_order_task():
    ds = generate_synthetic(SyntheticSpec(num_classes=5, clips_per_class=20,
                                          seed=2))
    rep = mean_pool_baseline(ds, EpisodeSpec(ways=5, shots=5, seed=0), 1000)
    assert abs(rep.accuracy - 0.2) <= 0.05


def test_untrained_model_between_chance_and_trained():
    """An untrained metric matcher is far above chance on this task family
    (random projections preserve distances) but well below a trained model;
    the band freezes the measured value at the standard task seeds."""
    ds = filter_labels(generate_synthetic(SyntheticSpec(seed=1)), range(10, 15))
    cfg = ModelConfig(seed=0)
    rep = evaluate(ds, build_params(cfg), cfg, EpisodeSpec(seed=777), 300)
    assert 0.50 <= rep.accuracy <= 0.75  # measured 0.632 +/- 0.019


def test_identical_permutation_classes_score_at_chance():
    # 3 classes over 2 frames force a permutation collision
    spec = SyntheticSpec(num_classes=3, clips_per_class=40, frames=2, patches=2,
                         channels=6, motif_strength=1.0, noise_sigma=0.3, seed=0)
    from strm.episodes import class_prototype_sequence
    protos = [class_prototype_sequence(spec, c) for c in range(3)]
    clash = next((a, b) for a in range(3) for b in range(a + 1, 3)
                 if np.array_equal(protos[a], protos[b]))
    ds = filter_labels(generate_synthetic(spec), clash)
    cfg = ModelConfig(frames=2, patches=2, channels=6, refine_hidden=4,
                      embed_dim=6, code_dim=4, seed=0)
    rep = evaluate(ds, build_params(cfg), cfg,
                   EpisodeSpec(ways=2, shots=3, seed=4), 400)
    assert abs(rep.accuracy - 0.5) <= 0.07
    mp = mean_pool_baseline(ds, EpisodeSpec(ways=2, shots=3, seed=4), 400)
    assert abs(mp.accuracy - 0.5) <= 0.07


# -- checkpoints ---------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    cfg = ModelConfig(seed=3, **TINY)
    params = build_params(cfg)
    path = tmp_path / "model.stck"
    save_checkpoint(params, path)
    arrays = load_checkpoint(path)
    for p in params.all():
        assert np.array_equal(arrays[p.name], p.value.data)
    rebuilt = params_from_arrays(arrays)
    assert {p.name for p in rebuilt.all()} == {p.name for p in params.all()}
    # a round-tripped model evaluates identically
    ds = tiny_dataset()
    spec = EpisodeSpec(ways=2, shots=1, seed=0)
    cfg2 = infer_config(rebuilt, frames=4, patches=4)
    a = evaluate(ds, params, cfg, spec, 10)
    b = evaluate(ds, rebuilt, cfg2, spec, 10)
    assert a.accuracy == b.accuracy
    save_checkpoint(rebuilt, tmp_path / "again.stck")
    assert path.read_bytes() == (tmp_path / "again.stck").read_bytes()


def test_checkpoint_format_header(tmp_path):
    cfg = ModelConfig(use_ple=False, use_fle=False, use_qc=False, seed=0, **TINY)
    path = tmp_path / "m.stck"
    save_checkpoint(build_params(cfg), path)
    raw = path.read_bytes()
    assert raw[:4] == b"STCK"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:12], "little") == 2  # param count


def test_checkpoint_corruption_detected(tmp_path):
    cfg = ModelConfig(seed=0, **TINY)
    path = tmp_path / "m.stck"
    save_checkpoint(build_params(cfg), path)
    raw = path.read_bytes()
    (tmp_path / "trunc.stck").write_bytes(raw[:-9])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(tmp_path / "trunc.stck")
    bad = bytearray(raw)
    bad[:4] = b"NOPE"
    (tmp_path / "magic.stck").write_bytes(bytes(bad))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(tmp_path / "magic.stck")


def test_infer_config_from_params():
    cfg = ModelConfig(seed=1, omegas=(2, 3), **TINY)
    params = build_params(cfg)
    inferred = infer_config(params, frames=4, patches=4)
    assert inferred.omegas == (2, 3)
    assert inferred.channels == 8
    assert inferred.embed_dim == 12
    assert inferred.code_dim == 6
    assert inferred.use_ple and inferred.use_fle and inferred.use_qc


# -- whole-model gradient check ------------------------------------------------------


def test_gradcheck_model_passes_on_tiny_config():
    cfg = ModelConfig(seed=0, **TINY)
    rows = gradcheck_model(cfg, tiny_episode(), step=1e-5, threshold=1e-5)
    assert rows and all(r.passed for r in rows)


def test_gradcheck_corruption_hook_flags_exact_params():
    cfg = ModelConfig(seed=0, **TINY)
    rows = gradcheck_model(cfg, tiny_episode(), corrupt=["fle.token_mix1"])
    failed = {r.name for r in rows if not r.passed}
    assert failed == {"fle.token_mix1"}


def test_gradcheck_lambda_zero_skips_qc_params():
    cfg = ModelConfig(qc_weight=0.0, use_qc=False, seed=0, **TINY)
    rows = gradcheck_model(cfg, tiny_episode())
    names = {r.name for r in rows}
    assert not any(n.startswith("qc.") for n in names)
    assert all(r.passed for r in rows)
