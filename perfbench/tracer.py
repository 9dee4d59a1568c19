"""Runtime span tracing of strm's public layer functions.

The tracer wraps module attributes of `strm` while installed and restores
them on removal, so the program under test carries no tracing code. Each
wrapped call records a span (name, start, end, parent, episode id), the
growth of the tape it was given, and the floating-point operations
(2*m*k*n per product) of every `Tape.matmul`, `Tape.bmm` and
`Tape.cosine_matrix` it issued itself.
Spans stay in memory until `write_jsonl` is called.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from strm import diffcore, enrichment, episodes, matching, model, training

# (span name, module, attribute). A function bound by name into a second
# module is listed once per module that calls it through that name.
LAYERS = [
    ("episodes.sample", episodes, "sample_episode"),
    ("episodes.sample", training, "sample_episode"),
    ("episodes.load_dataset", episodes, "load_dataset"),
    ("training.load_checkpoint", training, "load_checkpoint"),
    ("model.build_params", model, "build_params"),
    ("enrichment.ple", enrichment, "ple_forward_batch"),
    ("enrichment.fle", enrichment, "fle_forward_batch"),
    ("model.enrich_clips", model, "enrich_clips"),
    ("matching.embed_support", matching, "embed_class_supports"),
    ("matching.trm", matching, "trm_logits"),
    ("matching.qc_support", matching, "encode_class_supports"),
    ("matching.qc", matching, "qc_logits"),
    ("model.loss", model, "forward_episode"),
    ("diffcore.backward", diffcore.Tape, "backward"),
    ("training.sgd", training, "sgd_step"),
    ("training.evaluate", training, "evaluate"),
]

# Per-episode layers, in report order; setup layers are reported in seconds.
EPISODE_LAYERS = [
    "episodes.sample", "enrichment.ple", "enrichment.fle", "model.enrich_clips",
    "matching.embed_support", "matching.trm", "matching.qc_support", "matching.qc",
    "model.loss", "diffcore.backward", "training.sgd", "training.evaluate",
]
SETUP_LAYERS = ["episodes.load_dataset", "training.load_checkpoint", "model.build_params"]
FLOP_LAYERS = ["enrichment.ple", "enrichment.fle", "matching.embed_support",
               "matching.trm", "matching.qc_support", "matching.qc"]
NODE_LAYERS = ["enrichment.ple", "enrichment.fle", "model.enrich_clips",
               "matching.embed_support", "matching.trm", "matching.qc_support",
               "matching.qc", "model.loss"]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a root
    episode: int = -1  # -1 for set-up spans
    nodes: int | None = None  # tape growth during the call, when the tape is known
    flops: int = 0  # product flops issued while this span was innermost
    child_time: float = 0.0
    child_nodes: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_time

    @property
    def total_nodes(self) -> int:
        return self.child_nodes if self.nodes is None else self.nodes

    @property
    def self_nodes(self) -> int:
        return self.total_nodes - self.child_nodes


@dataclass
class Tracer:
    """The spans of one run; `episode` tags every span opened after it is set."""

    spans: list[Span] = field(default_factory=list)
    episode: int = -1
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    # -- span recording -----------------------------------------------------

    def open(self, name: str, tape=None) -> tuple[int, int]:
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1,
                    episode=self.episode)
        self.spans.append(span)
        index = len(self.spans) - 1
        self._stack.append(index)
        before = len(tape) if tape is not None else -1
        span.start = time.perf_counter()
        return index, before

    def close(self, index: int, before: int, tape=None) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span.end = end
        if tape is not None:
            span.nodes = len(tape) - before
        self._stack.pop()
        if span.parent >= 0:
            parent = self.spans[span.parent]
            parent.child_time += span.seconds
            parent.child_nodes += span.total_nodes

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a block of calls."""
        index, before = self.open(name)
        try:
            yield
        finally:
            self.close(index, before)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tape = args[0] if args and isinstance(args[0], diffcore.Tape) else None
            index, before = tracer.open(name, tape)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index, before, tape)

        return wrapper

    def _wrap_flops(self, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(tape, a, b):
            if tracer._stack:
                tracer.spans[tracer._stack[-1]].flops += count(a.shape, b.shape)
            return fn(tape, a, b)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owner, attr in LAYERS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        for attr, count in (("matmul", _matmul_flops), ("bmm", _bmm_flops),
                            ("cosine_matrix", _cosine_flops)):
            original = diffcore.Tape.__dict__[attr]
            self._saved.append((diffcore.Tape, attr, original))
            setattr(diffcore.Tape, attr, self._wrap_flops(original, count))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.remove()
        return False

    # -- reports ------------------------------------------------------------

    def per_episode(self) -> dict[int, dict[str, dict[str, float]]]:
        """episode id -> layer name -> {self_s, nodes, flops}, summed over calls."""
        out: dict[int, dict[str, dict[str, float]]] = {}
        for s in self.spans:
            if s.episode < 0:
                continue
            row = out.setdefault(s.episode, {}).setdefault(
                s.name, {"self_s": 0.0, "nodes": 0, "flops": 0})
            row["self_s"] += s.self_seconds
            row["nodes"] += s.self_nodes
            row["flops"] += s.flops
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics: set-up layers as the median wall time of their
        spans in seconds, episode layers as the median over traced episodes.
        A layer that never ran reads 0."""
        rows = list(self.per_episode().values())

        def median_of(layer: str, key: str) -> float:
            return statistics.median(row.get(layer, {}).get(key, 0) for row in rows)

        out: dict[str, float] = {}
        for layer in SETUP_LAYERS:
            times = [s.seconds for s in self.spans if s.episode < 0 and s.name == layer]
            out[f"{layer}_s"] = statistics.median(times) if times else 0.0
        for layer in EPISODE_LAYERS:
            name = "training.evaluate_self" if layer == "training.evaluate" else layer
            out[f"{name}_ms"] = median_of(layer, "self_s") * 1e3
        for layer in FLOP_LAYERS:
            out[f"{layer}_gflop"] = median_of(layer, "flops") / 1e9
        out["diffcore.nodes"] = statistics.median(
            sum(r["nodes"] for r in row.values()) for row in rows)
        for layer in NODE_LAYERS:
            out[f"{layer}.nodes"] = median_of(layer, "nodes")
        return out

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "episode": s.episode,
                    "nodes": s.total_nodes, "flops": s.flops,
                }) + "\n")


def _matmul_flops(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return 2 * a[0] * a[1] * b[1]


def _bmm_flops(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return 2 * a[0] * a[1] * a[2] * b[2]


def _cosine_flops(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """The a @ b.T product only; the norms are linear in the inputs."""
    return 2 * a[0] * a[1] * b[0]
