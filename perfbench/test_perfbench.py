"""Tests of the episode benchmark itself.

Run from the repository root with: python -m pytest perfbench
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import tracer as tracer_mod  # noqa: E402
import workloads as wl  # noqa: E402
from strm import diffcore, episodes, model  # noqa: E402

# A scaled-down forward-only workload, so the evaluate path is covered quickly.
EVAL_SMALL = wl.Workload("eval-small", False, (2,), dict(channels=16, refine_hidden=8,
                                                        embed_dim=8, code_dim=8))


def _state(tmp_path: Path, workload: wl.Workload, seed: int = 3) -> wl.State:
    manifest = wl.write_clips(tmp_path, workload, seed)
    checkpoint = None if workload.train else wl.write_checkpoint(tmp_path, workload, seed)
    return wl.set_up(workload, seed, manifest, checkpoint)


def _loss_and_grads(state: wl.State, counter: int):
    episode = episodes.sample_episode(state.dataset, state.spec(counter), counter)
    plist = state.params.all()
    diffcore.zero_grads(plist)
    tape = diffcore.Tape()
    loss = model.forward_episode(tape, episode, state.params, state.config).loss
    tape.backward(loss, plist)
    grads = [p.grad.copy() for p in plist]
    diffcore.zero_grads(plist)
    return loss.item(), grads


@pytest.mark.parametrize("name", ["train-desk", "train-omega23"])
def test_tracing_is_transparent(tmp_path, name):
    state = _state(tmp_path, wl.WORKLOADS[name])
    originals = [owner.__dict__[attr] for _, owner, attr in tracer_mod.LAYERS]
    plain_loss, plain_grads = _loss_and_grads(state, 5)
    tracer = tracer_mod.Tracer()
    with tracer:
        traced_loss, traced_grads = _loss_and_grads(state, 5)
    assert traced_loss == plain_loss
    for a, b in zip(plain_grads, traced_grads):
        assert a.tobytes() == b.tobytes()
    assert [owner.__dict__[attr] for _, owner, attr in tracer_mod.LAYERS] == originals
    assert {s.name for s in tracer.spans} >= {"model.loss", "matching.trm", "enrichment.ple"}


@pytest.mark.parametrize("workload", [wl.WORKLOADS["train-desk"], EVAL_SMALL],
                         ids=lambda w: w.name)
def test_layer_self_times_fit_in_the_episode(tmp_path, workload):
    state = _state(tmp_path, workload)
    tracer = tracer_mod.Tracer()
    walls = {}
    for counter in range(1, 5):
        tracer.episode = counter
        t0 = time.perf_counter()
        with tracer, tracer.span("bench.episode"):
            wl.step(state, counter)
        walls[counter] = time.perf_counter() - t0
    per_episode = tracer.per_episode()
    assert sorted(per_episode) == list(walls)
    for counter, layers in per_episode.items():
        total = sum(row["self_s"] for row in layers.values())
        root = next(s for s in tracer.spans if s.episode == counter and s.parent < 0)
        assert sum(row["self_s"] for name, row in layers.items()
                   if name != "bench.episode") <= root.seconds
        assert total == pytest.approx(root.seconds, rel=1e-9)
        assert total <= walls[counter]
        assert all(row["self_s"] >= 0 for row in layers.values())
    # Counts come from shapes and tape lengths, so they repeat exactly.
    counts = [{name: (row["nodes"], row["flops"]) for name, row in layers.items()}
              for layers in per_episode.values()]
    assert all(c == counts[0] for c in counts)
    assert sum(n for n, _ in counts[0].values()) > 0


def test_same_seed_writes_identical_clip_files(tmp_path):
    workload = wl.WORKLOADS["train-desk"]
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (11, 11, 12)):
        wl.write_clips(d, workload, seed)

    def contents(root: Path) -> dict[str, bytes]:
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    first = contents(dirs[0])
    assert len(first) == wl.CLASSES * wl.CLIPS_PER_CLASS + 1
    assert contents(dirs[1]) == first
    assert contents(dirs[2]) != first


@pytest.mark.parametrize("workload", [wl.WORKLOADS["train-desk"], EVAL_SMALL],
                         ids=lambda w: w.name)
def test_gates_pass_and_catch_a_wrong_gradient(tmp_path, workload, monkeypatch):
    state = _state(tmp_path, workload)
    assert wl.directional_check(state) <= wl.GRAD_BOUND
    assert wl.matching_check(state) <= wl.ORACLE_BOUND
    backward = diffcore.Tape.backward

    def skewed(self, loss, params):
        params = list(params)
        backward(self, loss, params)
        for p in params:
            p.grad *= 1.001

    monkeypatch.setattr(diffcore.Tape, "backward", skewed)
    assert wl.directional_check(state) > wl.GRAD_BOUND
