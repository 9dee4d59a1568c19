"""Training tests: optimizer semantics, loss composition, checkpoints,
metric-log determinism, and the whole-model gradient check."""

import collections
import hashlib
import math
import os
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from strm import cli, enrichment, episodes, model, training
from strm.diffcore import NumericalError, Param, Tape, Tensor, zero_grads
from strm.episodes import ClipRecord, Dataset, EpisodeSpec, FeatureClip, SyntheticSpec, \
    filter_labels, generate_synthetic, load_clip, load_dataset, sample_episode, save_clip, \
    write_manifest
from strm.matching import (embed_class_supports, enumerate_tuples, qc_similarity,
                           trm_distance, trm_logits)
from strm.model import (ModelConfig, build_params, enrich_clips, forward_episode,
                        infer_config, params_from_arrays, score_episode)
from strm.training import (CheckpointFormatError, TrainConfig, evaluate,
                           format_metrics, gradcheck_model, load_checkpoint,
                           mean_pool_baseline, save_checkpoint, sgd_step, train)

from test_model import enrich_clip

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


def test_sgd_refuses_a_gradient_whose_square_sum_overflows_before_any_update():
    keep = Param("kept", Tensor([1.0, 2.0]))
    keep.grad[...] = 1.0
    huge = Param("huge_param", Tensor([1.0]))
    huge.grad[...] = 1e200
    with pytest.raises(NumericalError, match="huge_param"):
        sgd_step([keep, huge], 0.1)
    assert np.array_equal(keep.value.data, [1.0, 2.0])


def random_params(scale, seed=0):
    rng = np.random.default_rng(seed)
    params = [Param(f"p{i}", Tensor(rng.standard_normal(shape)))
              for i, shape in enumerate([(3, 4), (5,), (2, 2, 2)])]
    for p in params:
        p.grad[...] = scale * rng.standard_normal(p.value.shape)
    return params


@pytest.mark.parametrize("count", [1, 3])
def test_a_huge_gradient_moves_the_parameters_by_lr_times_the_cap(count):
    """A gradient 1e6 times too large is applied along its own direction with
    global norm exactly learning_rate * MAX_GRAD_NORM."""
    params = random_params(1e6)
    before = [p.value.data.copy() for p in params]
    grads = [p.grad.copy() for p in params]
    mean_norm = math.sqrt(sum(float((g * g).sum()) for g in grads)) / count
    assert mean_norm > 1e6 * training.MAX_GRAD_NORM / 100
    norm = sgd_step(params, 0.1, accumulation_count=count)
    assert norm == pytest.approx(mean_norm, rel=1e-12)
    moves = [b - p.value.data for b, p in zip(before, params)]
    moved = math.sqrt(sum(float((m * m).sum()) for m in moves))
    assert moved == pytest.approx(0.1 * training.MAX_GRAD_NORM, rel=1e-12)
    for move, grad in zip(moves, grads):
        assert np.allclose(move, grad * (moved / (mean_norm * count)), rtol=1e-12, atol=0.0)
    assert all(not p.grad.any() for p in params)


@pytest.mark.parametrize("count", [1, 3])
def test_a_step_under_the_cap_is_the_plain_update_bit_for_bit(count):
    params = random_params(1.0)
    want = [p.value.data - 0.1 * (p.grad / count) for p in params]
    assert sgd_step(params, 0.1, accumulation_count=count) < training.MAX_GRAD_NORM
    for p, w in zip(params, want):
        assert np.array_equal(p.value.data, w)


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
    for logits, (record, _) in zip(res.trm_logits, episode.queries):
        tape = Tape()
        query = Tensor(record.features.values.data.mean(axis=1))
        expected = []
        for way_clips in episode.support:
            sup = [Tensor(c.features.values.data.mean(axis=1)) for c in way_clips]
            expected.append(-trm_distance(tape, query, sup, tuples,
                                          params.trm).item())
        assert np.abs(logits - np.array(expected)).max() <= 1e-10


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
    for tm_row, qc_row, (record, _) in zip(res.trm_logits, res.qc_logits, episode.queries):
        pooled, enriched = enrich_clip(tape, record.features.values, params, cfg)
        tm = [-trm_distance(tape, enriched, [e for _, e in pairs], tuples,
                            params.trm).item() for pairs in support]
        qc = [qc_similarity(tape, pooled, [p for p, _ in pairs], tuples,
                            params.qc).item() for pairs in support]
        assert np.abs(tm_row - np.array(tm)).max() <= 1e-10
        assert np.abs(qc_row - np.array(qc)).max() <= 1e-10


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


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, -0.1])
def test_train_config_refuses_a_non_finite_or_negative_learning_rate(rate):
    with pytest.raises(ValueError, match="^" + re.escape(
            f"learning_rate must be finite and nonnegative, got {rate}") + "$"):
        TrainConfig(learning_rate=rate)
    assert TrainConfig(learning_rate=0.0).learning_rate == 0.0


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
    # plain Python numbers, so that a report's repr is stable
    assert type(rep.accuracy) is type(rep.ci95_halfwidth) is float
    assert {(type(label), type(acc)) for label, acc in rep.per_class_accuracy} == {(int, float)}


def test_zero_eval_episodes_rejected_naming_the_count(monkeypatch):
    ds = tiny_dataset()
    cfg = ModelConfig(seed=0, **TINY)
    spec = EpisodeSpec(ways=2, shots=1, seed=0)
    with pytest.raises(ValueError, match="got 0"):
        evaluate(ds, build_params(cfg), cfg, spec, 0)
    with pytest.raises(ValueError, match="got -1"):
        mean_pool_baseline(ds, spec, -1)

    def no_training(*args, **kwargs):
        raise AssertionError("run_ablation trained before checking eval_episodes")

    monkeypatch.setattr(training, "train", no_training)
    with pytest.raises(ValueError, match="got 0"):
        training.run_ablation(ds, ds, cfg, TrainConfig(episodes=1), spec, spec, 0)


def per_query_accuracy(ds, params, cfg, spec, n_episodes):
    """Accuracy and per-class accuracy with every query scored on its own by
    trm_logits against per-class support blocks."""
    tuples = cfg.tuple_sets()
    flags, per_class = [], {}
    for counter in range(n_episodes):
        episode = sample_episode(ds, spec, counter)
        tape = Tape()
        values = [rec.features.values for group in episode.support for rec in group]
        values += [rec.features.values for rec, _ in episode.queries]
        enriched = [e for _, e in enrich_clips(tape, values, params, cfg, need_pooled=False)]
        shots = spec.shots
        embeds = [embed_class_supports(tape, enriched[w * shots:(w + 1) * shots],
                                       tuples, params.trm) for w in range(spec.ways)]
        for (record, way), query in zip(episode.queries, enriched[spec.ways * shots:]):
            logits = trm_logits(tape, query, embeds, tuples, params.trm)
            flags.append(int(np.argmax(logits.data)) == way)
            per_class.setdefault(record.label, []).append(flags[-1])
    return (sum(flags) / len(flags),
            [(label, float(np.mean(f))) for label, f in sorted(per_class.items())])


@pytest.mark.parametrize("omegas,keep_ratio", [((2,), 1.0), ((2, 3), 1.0), ((2,), 0.2)])
def test_evaluate_matches_per_query_scoring(omegas, keep_ratio):
    ds = filter_labels(generate_synthetic(SyntheticSpec(seed=1)), range(10, 15))
    cfg = ModelConfig(omegas=omegas, tuple_keep_ratio=keep_ratio, tuple_seed=1, seed=0)
    params = build_params(cfg)
    spec = EpisodeSpec(ways=5, shots=3, queries_per_class=2, seed=777)
    rep = evaluate(ds, params, cfg, spec, 12)
    accuracy, per_class = per_query_accuracy(ds, params, cfg, spec, 12)
    assert 0.0 < accuracy < 1.0
    assert rep.accuracy == accuracy
    assert rep.per_class_accuracy == per_class


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
    from test_episodes import class_prototype_sequence
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


# -- forward-only tapes ----------------------------------------------------------------

STAGES = {"all-on": dict(use_ple=True, use_fle=True, use_qc=True),
          "all-off": dict(use_ple=False, use_fle=False, use_qc=False)}


@pytest.mark.parametrize("stages", sorted(STAGES))
@pytest.mark.parametrize("omegas,keep_ratio", [((2,), 1.0), ((2, 3), 1.0), ((2,), 0.2)])
def test_forward_only_logits_bit_identical_to_recording_tape(omegas, keep_ratio, stages):
    ds = tiny_dataset()
    cfg = ModelConfig(omegas=omegas, tuple_keep_ratio=keep_ratio, tuple_seed=1, seed=0,
                      **STAGES[stages], **TINY)
    params = build_params(cfg)
    episode = sample_episode(ds, EpisodeSpec(ways=3, shots=2, queries_per_class=2,
                                             seed=5), 0)
    recording, forward_only = Tape(), Tape(grad=False)
    tm, qc = score_episode(recording, episode, params, cfg)
    tm_f, qc_f = score_episode(forward_only, episode, params, cfg)
    assert tm_f.data.tobytes() == tm.data.tobytes()
    assert (qc is None) == (qc_f is None) == (not cfg.use_qc)
    if qc is not None:
        assert qc_f.data.tobytes() == qc.data.tobytes()
    # a whole episode, loss included, keeps no node and runs the same ops
    forward_episode(recording, episode, params, cfg)
    forward_episode(forward_only, episode, params, cfg)
    assert forward_only._nodes == [] and len(recording._nodes) > 0
    assert len(forward_only) == len(recording)


def recording_evaluate(monkeypatch):
    """Make training.evaluate score its episodes on a recording tape."""
    monkeypatch.setattr(training, "Tape", lambda grad=True: Tape())


@pytest.mark.parametrize("omegas,keep_ratio", [((2,), 1.0), ((2, 3), 1.0), ((2,), 0.2)])
def test_evaluate_report_unchanged_by_forward_only_tape(omegas, keep_ratio, monkeypatch):
    ds = tiny_dataset(num_classes=5)
    cfg = ModelConfig(omegas=omegas, tuple_keep_ratio=keep_ratio, seed=0, **TINY)
    params = build_params(cfg)
    spec = EpisodeSpec(ways=4, shots=2, queries_per_class=2, seed=3)
    forward_only = evaluate(ds, params, cfg, spec, 15)
    recording_evaluate(monkeypatch)
    assert evaluate(ds, params, cfg, spec, 15) == forward_only


def test_evaluate_peak_memory_below_recording_tape(monkeypatch):
    """tracemalloc peak of one evaluate episode at P^2=16, D=64; a recording
    tape keeps the arrays its adjoints read (product operands, softmax and
    ReLU outputs) until the episode ends, so the forward-only peak is about
    0.6 of its peak here (5.5 against 9.0 MB)."""
    ds = generate_synthetic(SyntheticSpec(num_classes=5, clips_per_class=6, frames=8,
                                          patches=16, channels=64, seed=0))
    cfg = ModelConfig(patches=16, channels=64, refine_hidden=32, embed_dim=32,
                      code_dim=32, seed=0)
    params = build_params(cfg)
    spec = EpisodeSpec(ways=5, shots=5, seed=0)

    def peak_bytes() -> int:
        tracemalloc.start()
        try:
            evaluate(ds, params, cfg, spec, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    forward_only = peak_bytes()
    recording_evaluate(monkeypatch)
    assert forward_only < 0.75 * peak_bytes()


def test_evaluate_peak_memory_within_a_few_episode_blocks():
    """One forward-only evaluate episode at P^2=16, D=64 peaks, by
    tracemalloc, at no more than 3.1 times the bytes of its widened clip
    block (30 clips x 8 frames x 16 patches x 64 channels in float64, one
    enrichment chunk): the widest moment is PLE's first refiner layer, where
    the block, the attention weights (a quarter block here) and three [rows x
    hidden] terms (half a block each) are alive. PLE's keys die as soon as
    the scores exist, the scores as soon as their softmax exists, the keys'
    transpose is a view, and PLE forms no value or attended rows."""
    ds = generate_synthetic(SyntheticSpec(num_classes=5, clips_per_class=6, frames=8,
                                          patches=16, channels=64, seed=0))
    cfg = ModelConfig(patches=16, channels=64, refine_hidden=32, embed_dim=32,
                      code_dim=32, seed=0)
    params = build_params(cfg)
    spec = EpisodeSpec(ways=5, shots=5, seed=0)
    block_bytes = 5 * (5 + 1) * 8 * 16 * 64 * 8
    assert block_bytes <= training.ENRICH_GROUP_BYTES
    tracemalloc.start()
    try:
        evaluate(ds, params, cfg, spec, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * block_bytes, peak / block_bytes


def test_evaluate_peak_memory_flat_in_episode_ways():
    """At P^2=64, D=64 a clip widens to 256 KiB, so evaluate enriches an
    episode in chunks of 8 clips. Going from 5-way to 10-way (30 to 60 clips)
    leaves the tracemalloc peak of one evaluate episode within 5%: the chunk's
    intermediates, and at 10-way matching's attention softmax, set it, not
    the clip count (one block per episode would double it)."""

    def peak_bytes(ways: int) -> int:
        ds = generate_synthetic(SyntheticSpec(num_classes=ways, clips_per_class=6,
                                              frames=8, patches=64, channels=64, seed=0))
        cfg = ModelConfig(patches=64, channels=64, refine_hidden=32, embed_dim=32,
                          code_dim=32, seed=0)
        params = build_params(cfg)
        tracemalloc.start()
        try:
            evaluate(ds, params, cfg, EpisodeSpec(ways=ways, shots=5, seed=0), 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert 8 * 8 * 64 * 64 * 8 <= training.ENRICH_GROUP_BYTES < 9 * 8 * 64 * 64 * 8
    five, ten = peak_bytes(5), peak_bytes(10)
    assert ten <= 1.05 * five, ten / five


# -- clips as stored ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def loaded_and_widened(tmp_path_factory):
    """One clip set twice: loaded from files (float32 payloads) and held in
    memory as the same values widened to float64."""
    root = tmp_path_factory.mktemp("clips")
    rows = []
    for record in tiny_dataset(num_classes=5, clips=5, seed=2).clips:
        save_clip(record, root / f"{record.clip_id}.stfb")
        rows.append((f"{record.clip_id}.stfb", record.label))
    write_manifest(rows, root / "manifest.tsv")
    loaded = load_dataset(root / "manifest.tsv")
    assert all(c.features.payload.dtype == np.float32 for c in loaded.clips)
    widened = Dataset([ClipRecord(c.clip_id, c.label,
                                  FeatureClip(Tensor(c.features.payload.astype(np.float64))))
                       for c in loaded.clips])
    return loaded, widened


def run_digest(ds, cfg) -> str:
    """sha256 over the logits, losses, gradients and parameters of a few SGD
    steps, then over evaluate's and mean_pool_baseline's reports."""
    digest = hashlib.sha256()
    params = build_params(cfg)
    plist = params.all()
    spec = EpisodeSpec(ways=3, shots=2, queries_per_class=2, seed=7)
    for counter in range(3):
        episode = sample_episode(ds, spec, counter)
        tape = Tape()
        tm, qc = score_episode(Tape(grad=False), episode, params, cfg)
        digest.update(tm.data.tobytes())
        if qc is not None:
            digest.update(qc.data.tobytes())
        result = forward_episode(tape, episode, params, cfg)
        tape.backward(result.loss, plist)
        digest.update(result.loss.data.tobytes())
        for p in plist:
            digest.update(p.grad.tobytes())
        sgd_step(plist, 0.1)
        for p in plist:
            digest.update(p.value.data.tobytes())
    for report in (evaluate(ds, params, cfg, spec, 4), mean_pool_baseline(ds, spec, 4)):
        digest.update(repr(report).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("stages", sorted(STAGES))
@pytest.mark.parametrize("omegas,keep_ratio", [((2,), 1.0), ((2, 3), 1.0), ((2,), 0.2)])
def test_float32_clips_train_and_evaluate_bit_identical_to_widened(
        loaded_and_widened, omegas, keep_ratio, stages):
    cfg = ModelConfig(omegas=omegas, tuple_keep_ratio=keep_ratio, tuple_seed=1, seed=0,
                      **STAGES[stages], **TINY)
    loaded, widened = loaded_and_widened
    assert run_digest(loaded, cfg) == run_digest(widened, cfg)


def test_no_payload_outlives_evaluate_or_the_baseline(loaded_and_widened, monkeypatch):
    """A loaded clip set reads each clip's payload when a call first uses it,
    once per call, and the bytes die with the call."""
    loaded, _ = loaded_and_widened
    refs = []
    payload = FeatureClip.payload

    def logged(clip):
        array = payload.fget(clip)
        refs.append(weakref.ref(array))
        return array

    monkeypatch.setattr(FeatureClip, "payload", property(logged))
    cfg = ModelConfig(seed=0, **TINY)
    spec = EpisodeSpec(ways=3, shots=2, queries_per_class=2, seed=7)
    evaluate(loaded, build_params(cfg), cfg, spec, 3)
    mean_pool_baseline(loaded, spec, 3)
    assert len(refs) == 2 * len(distinct_clips(loaded, spec, 3))
    assert [ref for ref in refs if ref() is not None] == []


# -- one enrichment per distinct clip per evaluate call ---------------------------------


def episode_records(episode):
    return [rec for group in episode.support for rec in group] + \
        [rec for rec, _ in episode.queries]


def distinct_clips(ds, spec, n_episodes):
    """Every record the first n_episodes episodes draw, once each."""
    seen = {}
    for counter in range(n_episodes):
        for record in episode_records(sample_episode(ds, spec, counter)):
            seen.setdefault(id(record), record)
    return list(seen.values())


def count_reads(monkeypatch):
    """Count the payload reads of loaded clips, per file."""
    reads = collections.Counter()
    reread = episodes._reread

    def counting(path, *args):
        reads[path] += 1
        return reread(path, *args)

    monkeypatch.setattr(episodes, "_reread", counting)
    return reads


def once_each(records):
    return {record.features._path: 1 for record in records}


def test_evaluate_and_the_baseline_read_each_distinct_clip_once_per_call(
        loaded_and_widened, monkeypatch):
    loaded, _ = loaded_and_widened
    cfg = ModelConfig(seed=0, **TINY)
    params = build_params(cfg)
    spec = EpisodeSpec(ways=3, shots=2, queries_per_class=2, seed=7)
    reads = count_reads(monkeypatch)
    for n_episodes in (1, 3, 40):
        drawn = distinct_clips(loaded, spec, n_episodes)
        for call in (lambda: evaluate(loaded, params, cfg, spec, n_episodes),
                     lambda: mean_pool_baseline(loaded, spec, n_episodes)):
            reads.clear()
            call()
            assert reads == once_each(drawn)
    assert len(drawn) == len(loaded.clips)  # 40 episodes draw 480 clips of 25


def test_training_reads_each_episode_clip_once_and_each_eval_clip_once_per_call(
        loaded_and_widened, monkeypatch):
    loaded, _ = loaded_and_widened
    cfg = ModelConfig(seed=0, **TINY)
    params = build_params(cfg)
    plist = params.all()
    spec = EpisodeSpec(ways=3, shots=2, queries_per_class=2, seed=7)
    reads = count_reads(monkeypatch)
    for counter in range(3):
        episode = sample_episode(loaded, spec, counter)
        reads.clear()
        tape = Tape()
        tape.backward(forward_episode(tape, episode, params, cfg).loss, plist)
        assert reads == once_each(episode_records(episode))
    zero_grads(plist)
    reads.clear()
    train(loaded, cfg, TrainConfig(episodes=4, eval_every=2, eval_episodes=10), spec,
          params=params)
    eval_spec = replace(spec, seed=spec.seed + training._EVAL_SEED_OFFSET)
    assert sum(reads.values()) == 4 * 12 + 2 * len(distinct_clips(loaded, eval_spec, 10))


def test_evaluate_reads_one_chunk_of_payloads_at_a_time(tmp_path, monkeypatch):
    """evaluate reads a loaded clip when its chunk is widened, and the
    payload dies with the widening: while a chunk is patch-enriched, only
    that chunk's payloads are alive (at eval-wide sizes one chunk's 1 MiB,
    not an episode's 3.75 MiB). The chunking leaves the report unchanged."""
    rows = []
    for record in generate_synthetic(SyntheticSpec(num_classes=2, clips_per_class=6,
                                                   seed=1)).clips:
        save_clip(record, tmp_path / f"{record.clip_id}.stfb")
        rows.append((f"{record.clip_id}.stfb", record.label))
    write_manifest(rows, tmp_path / "manifest.tsv")
    loaded = load_dataset(tmp_path / "manifest.tsv")
    cfg = ModelConfig(seed=0)
    params = build_params(cfg)
    spec = EpisodeSpec(ways=2, shots=5, seed=0)
    whole = evaluate(loaded, params, cfg, spec, 1)
    reads, events = [], []
    reread, ple = episodes._reread, enrichment.ple_forward_batch

    def logged_read(*args):
        payload = reread(*args)
        reads.append(weakref.ref(payload))
        events.append("r")
        return payload

    def logged_ple(*args):
        events.append(f"ple({sum(ref() is not None for ref in reads)} alive)")
        return ple(*args)

    monkeypatch.setattr(episodes, "_reread", logged_read)
    monkeypatch.setattr(enrichment, "ple_forward_batch", logged_ple)
    monkeypatch.setattr(training, "ENRICH_GROUP_BYTES",
                        5 * 8 * math.prod(loaded.clips[0].features.shape))
    assert evaluate(loaded, params, cfg, spec, 1) == whole
    assert "".join(events) == "rrrrrple(0 alive)rrrrrple(0 alive)rrple(0 alive)"


def test_evaluate_forms_the_ple_folds_once_per_call(monkeypatch):
    """At P^2=16, D=256 a clip widens to 256 KiB, so a 5-way 5-shot episode's
    30 clips are enriched in 4 chunks of at most 8, which share one set of
    PLE folds: a fold per chunk would add ~0.66 ms each."""
    ds = generate_synthetic(SyntheticSpec(num_classes=5, clips_per_class=6, frames=8,
                                          patches=16, channels=256, seed=0))
    cfg = ModelConfig(patches=16, channels=256, refine_hidden=32, embed_dim=32,
                      use_qc=False, seed=0)
    calls, folds, ple = [], enrichment.ple_folds, enrichment.ple_forward_batch
    monkeypatch.setattr(enrichment, "ple_folds",
                        lambda *args: calls.append("folds") or folds(*args))
    monkeypatch.setattr(enrichment, "ple_forward_batch",
                        lambda *args: calls.append("ple") or ple(*args))
    evaluate(ds, build_params(cfg), cfg, EpisodeSpec(ways=5, shots=5, seed=0), 1)
    assert calls == ["folds"] + ["ple"] * 4


def reference_report(ds, params, cfg, spec, n_episodes):
    """evaluate as one score_episode per episode, each on a fresh
    forward-only tape, and the matching logits of every episode."""
    labels, hits, logits = [], [], []
    for counter in range(n_episodes):
        episode = sample_episode(ds, spec, counter)
        tm, _ = score_episode(Tape(grad=False), episode, params, replace(cfg, use_qc=False))
        logits.append(tm.data)
        labels += [record.label for record, _ in episode.queries]
        hits += [pred == way for (_, way), pred
                 in zip(episode.queries, np.argmax(tm.data, axis=1))]
    return training._report(labels, hits, n_episodes), logits


def logged_evaluate(monkeypatch):
    """evaluate that also returns every episode's matching logits, and the
    root array under the rows each episode was scored from."""
    score_rows = model.score_rows
    logits, roots = [], []

    def logged(tape, rows, *args, **kwargs):
        root = rows.data
        while root.base is not None:
            root = root.base
        roots.append(weakref.ref(root))
        out = score_rows(tape, rows, *args, **kwargs)
        logits.append(out.data)
        return out

    def run(*args):
        logits.clear()
        monkeypatch.setattr(model, "score_rows", logged)
        try:
            return evaluate(*args), list(logits)
        finally:
            monkeypatch.setattr(model, "score_rows", score_rows)

    return run, roots


@pytest.mark.parametrize("clips", ["loaded", "in-memory"])
@pytest.mark.parametrize("stages", sorted(STAGES))
@pytest.mark.parametrize("omegas,keep_ratio", [((2,), 1.0), ((2, 3), 1.0), ((2,), 0.2)])
def test_evaluate_from_cached_rows_equals_scoring_each_episode(
        loaded_and_widened, monkeypatch, omegas, keep_ratio, stages, clips):
    """Each distinct clip is enriched once per call, in chunks of one
    episode's clip count; every episode's logits, one-episode calls
    included, are bitwise those of score_episode on that episode alone."""
    ds = dict(zip(["loaded", "in-memory"], loaded_and_widened))[clips]
    cfg = ModelConfig(omegas=omegas, tuple_keep_ratio=keep_ratio, tuple_seed=1, seed=0,
                      **STAGES[stages], **TINY)
    params = build_params(cfg)
    spec = EpisodeSpec(ways=3, shots=2, queries_per_class=2, seed=7)
    run, _ = logged_evaluate(monkeypatch)
    for n_episodes in (1, 25):
        expected, expected_logits = reference_report(ds, params, cfg, spec, n_episodes)
        report, logits = run(ds, params, cfg, spec, n_episodes)
        assert report == expected
        assert [a.tobytes() for a in logits] == [a.tobytes() for a in expected_logits]


@pytest.fixture(scope="module")
def baseline_clips(tmp_path_factory):
    """Five classes of eight clips, held in memory and loaded from files."""
    root = tmp_path_factory.mktemp("baseline")
    ds = tiny_dataset(num_classes=5, clips=8, seed=3)
    for record in ds.clips:
        save_clip(record, root / f"{record.clip_id}.stfb")
    write_manifest([(f"{r.clip_id}.stfb", r.label) for r in ds.clips], root / "manifest.tsv")
    return {"in-memory": ds, "loaded": load_dataset(root / "manifest.tsv")}


def mean_pool_by_query(ds, spec, n_episodes):
    """mean_pool_baseline one query at a time: every clip's mean over frames
    and patches, each class's support means averaged, and the nearest class
    by Euclidean distance."""
    def mean(record):
        return record.features.values.data.mean(axis=(0, 1))

    labels, hits = [], []
    for counter in range(n_episodes):
        episode = sample_episode(ds, spec, counter)
        prototypes = np.stack([np.mean([mean(record) for record in group], axis=0)
                               for group in episode.support])
        for record, way in episode.queries:
            dists = np.linalg.norm(prototypes - mean(record)[None, :], axis=1)
            labels.append(record.label)
            hits.append(int(np.argmin(dists)) == way)
    return training._report(labels, hits, n_episodes)


@pytest.mark.parametrize("clips", ["loaded", "in-memory"])
@pytest.mark.parametrize("spec", [EpisodeSpec(ways=5, shots=5, seed=5),
                                  EpisodeSpec(ways=5, shots=1, seed=6),
                                  EpisodeSpec(ways=3, shots=2, queries_per_class=3, seed=7)],
                         ids=["5way5shot", "5way1shot", "3queries"])
def test_mean_pool_baseline_equals_scoring_each_query(baseline_clips, clips, spec):
    ds = baseline_clips[clips]
    for n_episodes in (1, 30):
        assert mean_pool_baseline(ds, spec, n_episodes) == \
            mean_pool_by_query(ds, spec, n_episodes)


def test_each_evaluate_call_scores_its_own_parameters_and_drops_its_cache(
        loaded_and_widened, monkeypatch):
    """Training changes the parameters between evaluate calls, so no call
    may reuse another's enriched rows: after an SGD step the next call gives
    the reference report for the new parameters, and each call's cache (the
    array under its first episode's rows, L x D x 8 bytes per distinct clip)
    is gone when the call returns."""
    loaded, _ = loaded_and_widened
    cfg = ModelConfig(seed=0, **TINY)
    params = build_params(cfg)
    plist = params.all()
    spec = EpisodeSpec(ways=3, shots=2, queries_per_class=2, seed=7)
    run, roots = logged_evaluate(monkeypatch)
    calls = []
    for step in range(2):
        expected, expected_logits = reference_report(loaded, params, cfg, spec, 10)
        roots.clear()
        report, logits = run(loaded, params, cfg, spec, 10)
        assert report == expected
        assert [a.tobytes() for a in logits] == [a.tobytes() for a in expected_logits]
        cache = roots[0]
        assert [ref for ref in roots if ref() is not None] == []
        calls.append(logits)
        tape = Tape()
        tape.backward(forward_episode(tape, sample_episode(loaded, spec, step), params,
                                      cfg).loss, plist)
        sgd_step(plist, 0.5)
    assert calls[0][0].tobytes() != calls[1][0].tobytes()
    assert cache() is None


def test_evaluate_peak_memory_grows_by_the_cache_only():
    """A 200-episode evaluate call at P^2=16, D=64 on 100 clips peaks, by
    tracemalloc, at no more than a one-episode call plus its cache (the
    enriched rows of every distinct clip, 8 x 64 x 8 bytes each) plus 224
    bytes per episode for its bookkeeping (its row of the int32 slot and way
    tables and its queries' hits, 145 bytes, and the per-call dicts and
    lists spread over 200 episodes: 186 bytes measured): the enrichment and
    matching transients stay one episode's. One enrich_block call for all
    100 clips (6.2 MB), keeping each episode's gathered rows (27 MB) or
    keeping each episode's slots and queries as Python objects (0.89 KiB
    per episode) fails it."""
    ds = generate_synthetic(SyntheticSpec(num_classes=10, clips_per_class=10, frames=8,
                                          patches=16, channels=64, seed=0))
    cfg = ModelConfig(patches=16, channels=64, refine_hidden=32, embed_dim=32,
                      code_dim=32, seed=0)
    params = build_params(cfg)
    spec = EpisodeSpec(ways=5, shots=5, seed=0)

    def peak_bytes(n_episodes: int) -> int:
        tracemalloc.start()
        try:
            evaluate(ds, params, cfg, spec, n_episodes)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cache_bytes = len(distinct_clips(ds, spec, 200)) * 8 * 64 * 8
    one, many = peak_bytes(1), peak_bytes(200)
    assert many <= one + cache_bytes + 200 * 224, (one, many, cache_bytes)


def test_needs_grad_survives_checkpoint_and_sgd(tmp_path):
    cfg = ModelConfig(seed=3, **TINY)
    path = tmp_path / "model.stck"
    save_checkpoint(build_params(cfg), path)
    params = params_from_arrays(load_checkpoint(path))
    plist = params.all()
    values = [p.value for p in plist]
    assert all(v.needs_grad for v in values)
    episode = tiny_episode()
    for _ in range(2):
        tape = Tape()
        tape.backward(forward_episode(tape, episode, params, cfg).loss, plist)
        assert all(np.abs(p.grad).sum() > 0 for p in plist)
        sgd_step(plist, 0.1)
    assert all(p.value is v for p, v in zip(plist, values))
    assert all(v.needs_grad for v in values)


# -- checkpoints ---------------------------------------------------------------------


def u32(*values) -> bytes:
    return b"".join(int(v).to_bytes(4, "little") for v in values)


def v1_reference(params, plist=None) -> bytes:
    """The v1 checkpoint layout, assembled field by field: magic, version and
    count, then per parameter its name, rank, extents and values. `plist`
    overrides the records written (params.all() by default)."""
    plist = params.all() if plist is None else plist
    out = b"STCK" + u32(1, len(plist))
    for p in plist:
        name = p.name.encode("utf-8")
        out += u32(len(name)) + name + u32(p.value.ndim, *p.value.shape)
        out += p.value.data.astype("<f8").tobytes()
    return out


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
    """Each malformed file raises CheckpointFormatError with its own message,
    which starts with the file's path; a truncation names the parameter."""
    params = build_params(ModelConfig(seed=0, **TINY))
    raw = v1_reference(params)
    last = params.all()[-1].name
    cases = {
        "magic": (b"NOPE" + raw[4:], r"bad magic b'NOPE'"),
        "version": (raw[:4] + u32(2) + raw[8:], r"version 2, expected 1"),
        "trailing": (raw + b"abc", r": 3 trailing bytes"),
        "short": (raw[:10], r"shorter than the fixed header"),
        "values": (raw[:-9], rf"truncated at byte \d+ in parameter {re.escape(last)}: "),
    }
    for case, (data, message) in cases.items():
        path = tmp_path / f"{case}.stck"
        path.write_bytes(data)
        with pytest.raises(CheckpointFormatError, match=message) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: "), case


def test_checkpoint_write_failing_midway_keeps_previous_file(tmp_path, monkeypatch):
    cfg = ModelConfig(seed=0, **TINY)
    path = tmp_path / "model.stck"
    save_checkpoint(build_params(cfg), path)
    before = path.read_bytes()

    def disk_full(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fsync", disk_full)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(build_params(replace(cfg, seed=1)), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.stck"]
    monkeypatch.undo()
    save_checkpoint(build_params(replace(cfg, seed=1)), path)
    assert path.read_bytes() != before

    # the eval report, behind a run manifest that is allowed to land
    data = tmp_path / "ds"
    assert cli.main(["synth", "--out", str(data), "--classes", "3", "--clips", "3",
                     "--frames", "4", "--patches", "2", "--dim", "8"]) == cli.EXIT_OK
    out = tmp_path / "eval"
    flags = ["eval", "--data", str(data), "--checkpoint", str(path), "--out", str(out),
             "--episodes", "2", "--ways", "2", "--shots", "1"]
    assert cli.main(flags + ["--seed", "1"]) == cli.EXIT_OK
    report = (out / "report.json").read_bytes()
    monkeypatch.setattr(cli, "_write_run_manifest", lambda *args: None)
    monkeypatch.setattr(os, "fsync", disk_full)
    assert cli.main(flags + ["--seed", "2"]) == cli.EXIT_IO
    assert (out / "report.json").read_bytes() == report
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "run_manifest.json"]


def test_checkpoint_nonfinite_value_names_parameter_and_index(tmp_path):
    cfg = ModelConfig(seed=0, **TINY)
    params = build_params(cfg)
    params.fle.channel_mix1.value.data[1, 2] = np.inf
    path = tmp_path / "inf.stck"
    save_checkpoint(params, path)
    with pytest.raises(CheckpointFormatError,
                       match=r"fle\.channel_mix1 .* flat index 10\b") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_checkpoint_with_a_repeated_name_is_refused(tmp_path):
    """Two records of one name would load as one array, the later record
    winning; the file is refused, naming the parameter and both records."""
    params = build_params(ModelConfig(seed=0, **TINY))
    plist = params.all()
    path = tmp_path / "twice.stck"
    path.write_bytes(v1_reference(params, plist + [plist[1]]))
    message = (rf"^{re.escape(str(path))}: parameter {re.escape(plist[1].name)} "
               rf"is repeated: records #1 and #{len(plist)}$")
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(path)


def test_checkpoint_short_reads_are_resumed_and_an_early_end_is_a_truncation(
        tmp_path, monkeypatch):
    """As for clips: a read returning fewer bytes than asked is resumed from
    where it stopped, and a read that ends early (the file shrank after its
    size was checked) raises, naming the parameter."""
    params = build_params(ModelConfig(seed=0, **TINY))
    path = tmp_path / "m.stck"
    save_checkpoint(params, path)
    preadv = os.preadv
    cap = [40]

    def short_preadv(fd, buffers, offset):
        view = memoryview(buffers[0]).cast("B")
        return preadv(fd, [view[:cap[0]]], offset)

    monkeypatch.setattr(os, "preadv", short_preadv)
    arrays = load_checkpoint(path)
    for p in params.all():
        assert arrays[p.name].tobytes() == p.value.data.tobytes()
    cap[0] = 0
    with pytest.raises(CheckpointFormatError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: truncated in parameter {params.all()[0].name}"


@pytest.mark.parametrize("field", ["name length", "name"])
def test_a_short_read_of_a_record_field_is_a_truncation(tmp_path, monkeypatch, field):
    """A record field whose read ends early (the file shrank after its size
    was checked) is refused naming the file and the parameter: neither a bare
    struct error from a short u32 nor a load under a cut-off name."""
    path = tmp_path / "m.stck"
    save_checkpoint(build_params(ModelConfig(seed=0, **TINY)), path)
    at = training._CHECKPOINT_HEADER.size + (4 if field == "name" else 0)
    pread = os.pread

    def short_pread(fd, n, offset):
        return pread(fd, n, offset)[:n - 1] if offset == at else pread(fd, n, offset)

    monkeypatch.setattr(os, "pread", short_pread)
    with pytest.raises(CheckpointFormatError,
                       match=rf"^{re.escape(str(path))}: truncated in parameter #0: "):
        load_checkpoint(path)


def test_clips_and_checkpoints_share_one_reader(tmp_path, monkeypatch):
    """load_clip, a loaded clip's payload re-read and load_checkpoint read
    their values through one array reader, and check their fixed headers
    with one function; a re-read checks the file's identity, not its header."""
    calls = collections.Counter()

    def spy(name):
        shared = getattr(episodes, name)

        def counting(fd, path, *args):
            calls[name, os.path.basename(path)] += 1
            return shared(fd, path, *args)

        monkeypatch.setattr(episodes, name, counting)

    spy("_read_array")
    spy("_check_header")
    save_clip(ClipRecord("a", 0, FeatureClip(np.ones((2, 2, 2)))), tmp_path / "a.stfb")
    clip = load_clip(tmp_path / "a.stfb").features
    assert calls == {("_read_array", "a.stfb"): 1, ("_check_header", "a.stfb"): 1}
    clip.payload
    assert calls == {("_read_array", "a.stfb"): 2, ("_check_header", "a.stfb"): 1}
    params = build_params(ModelConfig(seed=0, **TINY))
    save_checkpoint(params, tmp_path / "m.stck")
    load_checkpoint(tmp_path / "m.stck")
    assert calls[("_read_array", "m.stck")] == len(params.all())
    assert calls[("_check_header", "m.stck")] == 1


# Eval-wide sizes: 4.85 MB of parameters, the largest 0.52 MB.
WIDE = dict(patches=16, channels=256, refine_hidden=128, embed_dim=128, code_dim=128)


def test_checkpoint_bytes_are_the_v1_layout_both_ways(tmp_path):
    params = build_params(ModelConfig(seed=2, omegas=(2, 3), **TINY))
    path = tmp_path / "m.stck"
    save_checkpoint(params, path)
    assert path.read_bytes() == v1_reference(params)
    (tmp_path / "ref.stck").write_bytes(v1_reference(params))
    arrays = load_checkpoint(tmp_path / "ref.stck")
    assert list(arrays) == [p.name for p in params.all()]
    for p in params.all():
        assert arrays[p.name].dtype == np.float64
        assert arrays[p.name].tobytes() == p.value.data.tobytes()


def traced_peak(fn) -> tuple[int, object]:
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_save_checkpoint_streams_the_parameters(tmp_path):
    """Each value array is written as it is: the tracemalloc peak stays below
    the largest parameter plus 1 MiB (writing a joined copy would peak at
    twice the 4.85 MB of parameters)."""
    params = build_params(ModelConfig(seed=0, **WIDE))
    largest = max(p.value.data.nbytes for p in params.all())
    peak, _ = traced_peak(lambda: save_checkpoint(params, tmp_path / "w.stck"))
    assert peak < largest + (1 << 20), (peak, largest)


def test_loaded_parameters_are_held_once(tmp_path):
    """load_checkpoint plus params_from_arrays peaks at no more than 1.1x the
    parameter bytes (the file's bytes and a widened copy beside them would be
    2x), and evaluate on the loaded parameters allocates no gradient buffer."""
    path = tmp_path / "w.stck"
    save_checkpoint(build_params(ModelConfig(seed=0, **WIDE)), path)
    peak, params = traced_peak(lambda: params_from_arrays(load_checkpoint(path)))
    total = sum(p.value.data.nbytes for p in params.all())
    assert peak <= 1.1 * total, peak / total
    cfg = ModelConfig(seed=0, **TINY)
    path = tmp_path / "tiny.stck"
    save_checkpoint(build_params(cfg), path)
    params = params_from_arrays(load_checkpoint(path))
    evaluate(tiny_dataset(), params, cfg, EpisodeSpec(ways=2, shots=1, seed=0), 3)
    assert all(p._grad is None for p in params.all())


NAME = b"ple.query_proj"
HUGE_RECORDS = {  # each claims 2^32 - 1 name bytes, 2^32 - 1 extents or 2^32 values
    "name": (u32((1 << 32) - 1) + NAME, r"parameter #0: 4294967295 bytes claimed"),
    "rank": (u32(len(NAME)) + NAME + u32((1 << 32) - 1, 4),
             r"parameter ple\.query_proj: 17179869180 bytes claimed"),
    "values": (u32(len(NAME)) + NAME + u32(2, 1 << 16, 1 << 16) + bytes(64),
               r"parameter ple\.query_proj: 34359738368 bytes claimed, 64 left"),
}


@pytest.mark.parametrize("field", sorted(HUGE_RECORDS))
def test_checkpoint_claims_beyond_the_file_are_refused_before_allocating(tmp_path, field):
    """A record claiming more bytes than the file holds is a format error
    naming the parameter, raised before anything is allocated, not a
    MemoryError."""
    record, message = HUGE_RECORDS[field]
    path = tmp_path / "huge.stck"
    path.write_bytes(b"STCK" + u32(1, 1) + record)
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("disabled", [dict(use_ple=False), dict(use_fle=False),
                                      dict(use_qc=False), dict(omegas=(2,))],
                         ids=["no-ple", "no-fle", "no-qc", "omega2-of-23"])
def test_train_returns_only_the_groups_its_config_scores_with(tmp_path, disabled):
    """Full parameters trained under a config that disables a stage come
    back without it, so the saved checkpoint infers the training config."""
    full = ModelConfig(seed=0, omegas=(2, 3), **TINY)
    cfg = replace(full, **disabled)
    ds = tiny_dataset()
    params, _ = train(ds, cfg, TrainConfig(episodes=2, eval_every=2, eval_episodes=2),
                      EpisodeSpec(ways=2, shots=1, seed=0), params=build_params(full))
    assert {p.name for p in params.all()} == {p.name for p in build_params(cfg).all()}
    save_checkpoint(params, tmp_path / "run.stck")
    inferred = infer_config(params_from_arrays(load_checkpoint(tmp_path / "run.stck")),
                            frames=cfg.frames, patches=cfg.patches)
    assert (inferred.use_ple, inferred.use_fle, inferred.use_qc, inferred.omegas) == \
        (cfg.use_ple, cfg.use_fle, cfg.use_qc, cfg.omegas)


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
