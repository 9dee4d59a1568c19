"""Model assembly tests: config validation, parameter naming and seeding,
batched-vs-single enrichment equivalence, and the block-valued episode path
against the per-clip one."""

import math
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from strm import enrichment, episodes, matching, model
from strm.diffcore import ShapeError, Tape, Tensor, finite_diff_gradients, zero_grads
from strm.enrichment import fle_forward, ple_forward
from strm.episodes import (Episode, EpisodeSpec, SyntheticSpec, generate_synthetic,
                           load_dataset, sample_episode, save_clip, write_manifest)
from strm.matching import qc_logits, trm_logits
from strm.model import (ModelConfig, build_params, enrich_clips, forward_episode,
                        params_from_arrays, score_episode, validate_against)

from test_diffcore import l2_norm


def enrich_clip(tape, values, params, cfg):
    """Single-clip reference enrichment: ple_forward on every frame, the
    patch average, then fle_forward. Returns (pooled, enriched), each
    [frames x channels]; with both stages off they are the pooled raw rows."""
    frames = [Tensor(values.data[i]) for i in range(cfg.frames)]
    if params.ple is not None:
        frames = [ple_forward(tape, f, params.ple) for f in frames]
    pooled = tape.concat([tape.reshape(tape.mean(f, axis=0), (1, cfg.channels))
                          for f in frames])
    enriched = fle_forward(tape, pooled, params.fle) if params.fle is not None else pooled
    return pooled, enriched


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


@pytest.mark.parametrize("stray", ["ple.junk", "trm.x.key_proj", "trm.2.key_proj.extra",
                                   "qc.2", "head.0.weights"])
def test_params_from_arrays_refuses_a_name_it_cannot_place(stray):
    """A name outside the model's layout is refused by name, not dropped and
    not failing on its cardinality field."""
    arrays = {p.name: p.value.data for p in build_params(ModelConfig(seed=4)).all()}
    arrays[stray] = np.zeros((2, 2))
    with pytest.raises(KeyError, match=rf"parameter {re.escape(stray)} has no place"):
        params_from_arrays(arrays)


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
        rows = tape.concat([t for pair in pairs for t in pair])
        return l2_norm(tape, rows)

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
    assert res.trm_logits.shape == (6, 3)
    assert res.qc_logits.shape == (6, 3)
    assert res.loss.ndim == 0
    assert res.loss_qc > 0.0


def test_subsampled_tuple_sets_used_in_forward():
    cfg = ModelConfig(tuple_keep_ratio=0.25, tuple_seed=3, seed=0)
    sets = cfg.tuple_sets()
    assert len(sets[2]) == 7  # ceil(0.25 * 28)
    full = ModelConfig(seed=0).tuple_sets()
    assert len(full[2]) == 28


def per_clip_loss(tape, episode, params, cfg):
    """The joint episode loss through per-clip tensors: enrich_clips splits
    the enriched block into clips, the queries are joined again into a query
    block and the support clips into the class-major block."""
    shots = [len(group) for group in episode.support]
    values = [rec.features.values for group in episode.support for rec in group]
    values += [rec.features.values for rec, _ in episode.queries]
    pairs = enrich_clips(tape, values, params, cfg)
    support, queries = pairs[:sum(shots)], pairs[sum(shots):]
    targets = [way for _, way in episode.queries]
    tuples = cfg.tuple_sets()
    block = (len(queries), cfg.frames, cfg.channels)
    tm = trm_logits(tape, tape.reshape(tape.concat([e for _, e in queries]), block),
                    tape.concat([e for _, e in support]), tuples, params.trm,
                    classes=len(shots))
    tm_mean = tape.mean(tape.cross_entropy(tape.softmax_last(tm), targets), axis=0)
    qc = qc_logits(tape, tape.reshape(tape.concat([p for p, _ in queries]), block),
                   tape.concat([p for p, _ in support]), tuples, params.qc,
                   classes=len(shots))
    qc_mean = tape.mean(tape.cross_entropy(tape.softmax_last(qc), targets), axis=0)
    return tape.add(tm_mean, tape.scale(qc_mean, cfg.qc_weight))


@pytest.mark.parametrize("use_ple,use_fle", [(True, True), (False, False)])
def test_block_path_loss_and_gradients_bit_identical_to_per_clip_path(use_ple, use_fle):
    """Desk config (5-way 5-shot, L=8, P2=4, D=64, omega=2), seeded episode."""
    ds = generate_synthetic(SyntheticSpec(num_classes=6, clips_per_class=7, seed=4))
    episode = sample_episode(ds, EpisodeSpec(ways=5, shots=5, seed=21), 3)
    cfg = ModelConfig(use_ple=use_ple, use_fle=use_fle, seed=21)
    params = build_params(cfg)
    plist = params.all()
    runs = []
    for build in (lambda tape: forward_episode(tape, episode, params, cfg).loss,
                  lambda tape: per_clip_loss(tape, episode, params, cfg)):
        zero_grads(plist)
        tape = Tape()
        loss = build(tape)
        tape.backward(loss, plist)
        runs.append((loss.data.tobytes(), [p.grad.tobytes() for p in plist]))
    zero_grads(plist)
    assert runs[0][0] == runs[1][0]
    for p, block_grad, clip_grad in zip(plist, runs[0][1], runs[1][1]):
        assert block_grad == clip_grad, p.name


def test_unequal_shots_raise_naming_the_class():
    ds = generate_synthetic(SyntheticSpec(num_classes=3, clips_per_class=4, frames=4,
                                          patches=4, channels=8, seed=3))
    cfg = ModelConfig(frames=4, patches=4, channels=8, refine_hidden=4,
                      embed_dim=6, code_dim=4, seed=0)
    episode = sample_episode(ds, EpisodeSpec(ways=3, shots=2, seed=0), 0)
    episode = Episode(episode.class_labels,
                      [episode.support[0], episode.support[1][:1], episode.support[2]],
                      episode.queries)
    with pytest.raises(ShapeError, match="class 1 has 1 support clips but class 0 has 2"):
        forward_episode(Tape(), episode, build_params(cfg), cfg)


# -- what a recording tape keeps --------------------------------------------------

LEAN_CELL_TYPES = (bool, int, float, np.integer, np.ndarray, slice, type(None))


def cell_contents(fn):
    """Everything an adjoint closure's cells hold, lists and tuples unpacked."""
    out, todo = [], [cell.cell_contents for cell in fn.__closure__ or ()]
    while todo:
        obj = todo.pop()
        if isinstance(obj, (list, tuple)):
            todo.extend(obj)
        else:
            out.append(obj)
    return out


def desk_episode(cfg, seed=21):
    ds = generate_synthetic(SyntheticSpec(num_classes=6, clips_per_class=7,
                                          patches=cfg.patches, channels=cfg.channels,
                                          seed=4))
    return sample_episode(ds, EpisodeSpec(ways=5, shots=5, seed=seed), 3)


def test_recorded_nodes_keep_keys_flags_shapes_and_arrays_only():
    """No adjoint closure of a whole episode holds a Tensor (or anything but
    keys, needs-grad bits, shapes, constants and arrays), so no op keeps an
    intermediate alive that its formula does not read."""
    cfg = ModelConfig(omegas=(2, 3), use_ple=True, use_fle=True, use_qc=True, seed=2)
    tape = Tape()
    forward_episode(tape, desk_episode(cfg), build_params(cfg), cfg)
    assert len(tape._nodes) > 100
    for key, adjoint in tape._nodes:
        assert isinstance(key, int)
        for obj in cell_contents(adjoint):
            assert isinstance(obj, LEAN_CELL_TYPES), (adjoint.__qualname__, type(obj))


def test_scores_and_similarities_are_freed_on_a_recording_tape(monkeypatch):
    """PLE's and TRM's attention scores (the rank-3 softmax inputs) and QC's
    cosine matrices feed ops whose adjoints do not read them, so they are
    gone once forward returns, while the tape and its result are kept."""
    refs = []
    softmax, cosine = Tape.softmax_last, Tape.cosine_matrix

    def logged_softmax(tape, x):
        if x.ndim == 3:
            refs.append(("scores", weakref.ref(x.data)))
        return softmax(tape, x)

    def logged_cosine(tape, a, b):
        out = cosine(tape, a, b)
        refs.append(("similarities", weakref.ref(out.data)))
        return out

    monkeypatch.setattr(Tape, "softmax_last", logged_softmax)
    monkeypatch.setattr(Tape, "cosine_matrix", logged_cosine)
    cfg = ModelConfig(omegas=(2, 3), seed=2)
    tape = Tape()
    result = forward_episode(tape, desk_episode(cfg), build_params(cfg), cfg)
    assert result.loss.needs_grad and tape._nodes
    assert sorted({name for name, _ in refs}) == ["scores", "similarities"]
    assert len(refs) == 1 + 2 + 2  # one PLE group; TRM and QC per cardinality
    assert [name for name, ref in refs if ref() is not None] == []


def test_live_bytes_after_a_desk_forward_stay_bounded():
    """tracemalloc's live bytes after forward_episode on a recording tape at
    the desk config (5-way 5-shot, L=8, P2=4, D=64, omega=2, QC on), with
    the tape and result kept: 5.07 MB measured (median over model seeds
    0-19), the arrays the adjoints read, the largest being TRM's
    [5 x 140 x 140] attention weights and the widened clip block. The bound
    is that plus 20%; a tape that keeps every recorded output and every op
    input (12.5 MB here) fails it."""
    cfg = ModelConfig(seed=2)
    episode, params = desk_episode(cfg), build_params(cfg)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tape = Tape()
        result = forward_episode(tape, episode, params, cfg)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.loss.needs_grad and tape._nodes
    assert live <= 1.2 * 5.07e6, live / 1e6


def test_repeated_stacks_are_read_only_broadcast_views(monkeypatch):
    """TRM repeats each cardinality's query keys and values once per class,
    and project_tuples repeats a block's frames once per tuple position (for
    TRM's support and query embeddings and QC's codes). Tape.repeat returns
    a read-only broadcast view with leading stride 0. Copies instead would
    hold 0.78 MB more of a desk forward's live bytes, less than the
    live-bytes bound's margin, so they are counted here; a repeat that
    copies fails."""
    cfg = ModelConfig(seed=2)
    episode, params = desk_episode(cfg), build_params(cfg)
    repeat = Tape.repeat

    def repeated(impl):
        outputs = []

        def logged(tape, x, n):
            out = impl(tape, x, n)
            outputs.append(out.data)
            return out

        monkeypatch.setattr(Tape, "repeat", logged)
        forward_episode(Tape(), episode, params, cfg)
        return [a.strides[0] == 0 and not a.flags.writeable for a in outputs]

    # per cardinality: TRM's support and query keys and values, QC's support
    # and query codes (six per-position repeats), and TRM's two per-class ones
    assert repeated(repeat) == [True] * 8
    copying = repeated(lambda tape, x, n: tape.reshape(tape.concat([x] * n), (n,) + x.shape))
    assert copying == [False] * 8


def test_enrich_block_reads_one_group_of_payloads_at_a_time(tmp_path, monkeypatch):
    """A loaded clip is read when its group is widened, and its payload dies
    with the widening: while a group is patch-enriched, only that group's
    payloads are alive (at eval-wide sizes one group's 1 MiB, not an
    episode's 3.75 MiB)."""
    rows = []
    for record in generate_synthetic(SyntheticSpec(num_classes=2, clips_per_class=6,
                                                   seed=1)).clips:
        save_clip(record, tmp_path / f"{record.clip_id}.stfb")
        rows.append((f"{record.clip_id}.stfb", record.label))
    write_manifest(rows, tmp_path / "manifest.tsv")
    clips = [record.features for record in load_dataset(tmp_path / "manifest.tsv").clips]
    cfg = ModelConfig(seed=0)
    params = build_params(cfg)
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
    monkeypatch.setattr(model, "ENRICH_GROUP_BYTES", 5 * 8 * math.prod(clips[0].shape))
    _, grouped = model.enrich_block(Tape(grad=False), clips, params, cfg)
    assert "".join(events) == "rrrrrple(0 alive)rrrrrple(0 alive)rrple(0 alive)"
    monkeypatch.setattr(model, "ENRICH_GROUP_BYTES", 12 * 8 * math.prod(clips[0].shape))
    _, whole = model.enrich_block(Tape(grad=False), clips, params, cfg)
    assert whole.data.tobytes() == grouped.data.tobytes()


@pytest.mark.parametrize("use_fle", [True, False])
def test_unscored_pooled_rows_are_dropped_before_matching(monkeypatch, use_fle):
    """Without the similarity head (here: on in the parameters, off in the
    config), score_episode lets the pooled rows go before tuple matching
    (with frame enrichment on they are a block of their own; with it off they
    are the enriched rows, which matching needs)."""
    cfg = ModelConfig(use_fle=use_fle, seed=2)
    episode, params = desk_episode(cfg), build_params(cfg)
    pooled_refs, alive_in_matching = [], []
    enrich, trm = model.enrich_block, matching.trm_logits

    def logged_enrich(*args):
        pooled, enriched = enrich(*args)
        pooled_refs.append(weakref.ref(pooled.data))
        return pooled, enriched

    def logged_trm(*args, **kwargs):
        alive_in_matching.append(pooled_refs[-1]() is not None)
        return trm(*args, **kwargs)

    monkeypatch.setattr(model, "enrich_block", logged_enrich)
    monkeypatch.setattr(matching, "trm_logits", logged_trm)
    tm, qc = score_episode(Tape(grad=False), episode, params, replace(cfg, use_qc=False))
    assert qc is None
    tm_qc, _ = score_episode(Tape(grad=False), episode, params, cfg)
    assert tm.data.tobytes() == tm_qc.data.tobytes()
    assert alive_in_matching == [not use_fle, True]
