"""Clip datasets: binary feature files, synthetic order-sensitive data, and
deterministic episode sampling.

A clip is L frames of P^2 patch features with D channels. The synthetic
generator builds classes that share the exact same unordered frame content
and differ only in temporal order, so any order-blind classifier is at
chance by construction.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diffcore import Tensor

__all__ = [
    "ClipFormatError",
    "BadMagicError",
    "VersionMismatchError",
    "TruncatedPayloadError",
    "ExtentOverflowError",
    "NonFiniteClipError",
    "InsufficientClipsError",
    "FeatureClip",
    "ClipRecord",
    "Dataset",
    "Episode",
    "EpisodeSpec",
    "SyntheticSpec",
    "save_clip",
    "load_clip",
    "write_manifest",
    "write_atomic",
    "load_dataset",
    "generate_synthetic",
    "filter_labels",
    "sample_episode",
]

CLIP_MAGIC = b"STFB"
CLIP_VERSION = 1
_HEADER = struct.Struct("<4sIIIII")  # magic, version, label, frames, patches, channels
_MAX_ELEMENTS = 1 << 31


class ClipFormatError(ValueError):
    """Malformed clip file."""


class BadMagicError(ClipFormatError):
    pass


class VersionMismatchError(ClipFormatError):
    pass


class TruncatedPayloadError(ClipFormatError):
    pass


class ExtentOverflowError(ClipFormatError):
    pass


class NonFiniteClipError(ClipFormatError):
    """A clip payload holds a NaN or an infinity."""


class InsufficientClipsError(ValueError):
    """A class does not own enough clips for the requested episode."""


class FeatureClip:
    """One clip's features, [frames x patches x channels], kept as given: a
    loaded clip holds its float32 payload as a read-only view of the file's
    bytes, a clip built in memory from a Tensor holds its float64 array.
    `values` is the float64 Tensor of the features, widened when stored as
    float32; the model widens an episode's clips a group at a time instead
    (enrich_block).
    """

    __slots__ = ("payload",)

    def __init__(self, values: Tensor | np.ndarray) -> None:
        payload = values.data if isinstance(values, Tensor) else values
        if payload.ndim != 3:
            raise ValueError(f"clip features must be rank-3, got {payload.shape}")
        if payload.shape[0] < 2:
            raise ValueError(f"clips need at least 2 frames, got {payload.shape[0]}")
        self.payload = payload

    @property
    def values(self) -> Tensor:
        return Tensor(self.payload)

    @property
    def frames(self) -> int:
        return self.payload.shape[0]

    @property
    def patches(self) -> int:
        return self.payload.shape[1]

    @property
    def channels(self) -> int:
        return self.payload.shape[2]


@dataclass
class ClipRecord:
    clip_id: str
    label: int
    features: FeatureClip


@dataclass
class Dataset:
    """Immutable collection of clips with uniform extents."""

    clips: list[ClipRecord]
    by_label: dict[int, list[ClipRecord]] = field(init=False)

    def __post_init__(self) -> None:
        if not self.clips:
            raise ValueError("dataset is empty")
        for c in self.clips:
            if c.features.payload.shape != self.clips[0].features.payload.shape:
                raise ValueError(_extents_mismatch(c, self.clips[0]))
        by_label: dict[int, list[ClipRecord]] = {}
        for c in self.clips:
            by_label.setdefault(c.label, []).append(c)
        # Sampling keys on sorted clip ids so iteration order never matters.
        self.by_label = {
            label: sorted(group, key=lambda c: c.clip_id)
            for label, group in sorted(by_label.items())
        }

    @property
    def labels(self) -> list[int]:
        return list(self.by_label.keys())

    @property
    def frames(self) -> int:
        return self.clips[0].features.frames

    @property
    def patches(self) -> int:
        return self.clips[0].features.patches

    @property
    def channels(self) -> int:
        return self.clips[0].features.channels


@dataclass
class EpisodeSpec:
    """One C-way K-shot task layout plus the sampling seed."""

    ways: int = 5
    shots: int = 5
    queries_per_class: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ways < 2:
            raise ValueError(f"need at least 2 ways, got {self.ways}")
        if self.shots < 1:
            raise ValueError(f"need at least 1 shot, got {self.shots}")
        if self.queries_per_class < 1:
            raise ValueError(f"need at least 1 query per class, got {self.queries_per_class}")


@dataclass
class Episode:
    """Sampled task: per-way support clips and (clip, way-index) queries."""

    class_labels: list[int]
    support: list[list[ClipRecord]]
    queries: list[tuple[ClipRecord, int]]


@dataclass
class SyntheticSpec:
    num_classes: int = 15
    clips_per_class: int = 20
    frames: int = 8
    patches: int = 4
    channels: int = 64
    motif_strength: float = 0.1
    noise_sigma: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_classes", "clips_per_class", "patches", "channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.frames < 2:
            raise ValueError(f"need at least 2 frames, got {self.frames}")
        if self.motif_strength <= 0:
            raise ValueError(f"motif_strength must be positive, got {self.motif_strength}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be nonnegative, got {self.noise_sigma}")


# -- binary clip format -------------------------------------------------------


def save_clip(record: ClipRecord, path: str | Path) -> None:
    clip = record.features
    header = _HEADER.pack(CLIP_MAGIC, CLIP_VERSION, record.label,
                          clip.frames, clip.patches, clip.channels)
    write_atomic(path, [header, np.ascontiguousarray(clip.payload, dtype="<f4")])


def load_clip(path: str | Path) -> ClipRecord:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise TruncatedPayloadError(f"{path}: shorter than the fixed header")
    magic, version, label, frames, patches, channels = _HEADER.unpack_from(raw)
    if magic != CLIP_MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    if version != CLIP_VERSION:
        raise VersionMismatchError(f"{path}: version {version}, expected {CLIP_VERSION}")
    if min(frames, patches, channels) == 0 or frames * patches * channels > _MAX_ELEMENTS:
        raise ExtentOverflowError(
            f"{path}: bad extents frames={frames} patches={patches} channels={channels}")
    if frames < 2:
        raise ClipFormatError(f"{path}: clips need at least 2 frames, got {frames}")
    count = frames * patches * channels
    expected = _HEADER.size + 4 * count
    if len(raw) < expected:
        raise TruncatedPayloadError(
            f"{path}: payload holds {(len(raw) - _HEADER.size) // 4} of {count} floats")
    if len(raw) > expected:
        raise TruncatedPayloadError(f"{path}: {len(raw) - expected} trailing bytes")
    values = np.frombuffer(raw, dtype="<f4", count=count, offset=_HEADER.size)
    finite = np.isfinite(values)
    if not finite.all():
        first = int(np.argmin(finite))
        frame, patch, channel = np.unravel_index(first, (frames, patches, channels))
        raise NonFiniteClipError(
            f"{path}: non-finite value {values[first]} at frame {frame}, "
            f"patch {patch}, channel {channel}")
    return ClipRecord(clip_id=path.stem, label=label,
                      features=FeatureClip(values.reshape(frames, patches, channels)))


def write_manifest(records: list[tuple[str, int]], path: str | Path) -> None:
    """Write one `path<TAB>label` line per clip."""
    lines = [f"{rel}\t{label}\n" for rel, label in records]
    write_atomic(path, "".join(lines).encode("utf-8"))


def write_atomic(path: str | Path, data: bytes | list) -> None:
    """Replace `path` with `data` (bytes, or a list of C-contiguous buffers
    written back to back), never leaving a torn file: a temp file in the same
    directory is written, flushed to disk and renamed over `path`, and the
    directory is then flushed so that the rename survives a crash."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in [data] if isinstance(data, bytes) else data:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_dataset(manifest_path: str | Path) -> Dataset:
    manifest_path = Path(manifest_path)
    clips = []
    for lineno, line in enumerate(manifest_path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            rel, label_text = line.split("\t")
        except ValueError as exc:
            raise ClipFormatError(f"{manifest_path}:{lineno}: expected `path<TAB>label`") from exc
        record_path = manifest_path.parent / rel
        record = load_clip(record_path)
        if record.label != int(label_text):
            raise ClipFormatError(
                f"{manifest_path}:{lineno}: manifest label {label_text} != "
                f"file label {record.label}")
        if clips and record.features.payload.shape != clips[0].features.payload.shape:
            raise ClipFormatError(f"{manifest_path}:{lineno}: {record_path}: "
                                  f"{_extents_mismatch(record, clips[0])}")
        clips.append(record)
    return Dataset(clips)


def _extents_mismatch(clip: ClipRecord, first: ClipRecord) -> str:
    return (f"clip {clip.clip_id!r} has extents {clip.features.payload.shape}, "
            f"clip {first.clip_id!r} has {first.features.payload.shape}")


# -- synthetic data -----------------------------------------------------------


def _class_permutations(spec: SyntheticSpec) -> list[np.ndarray]:
    """One frame-order permutation per class, distinct whenever the space allows."""
    rng = np.random.default_rng([spec.seed, 1])
    space = math.factorial(spec.frames)
    perms: list[np.ndarray] = []
    seen: set[tuple[int, ...]] = set()
    for _ in range(spec.num_classes):
        perm = rng.permutation(spec.frames)
        if len(seen) < space:
            attempts = 0
            while tuple(perm) in seen and attempts < 1000:
                perm = rng.permutation(spec.frames)
                attempts += 1
        seen.add(tuple(perm))
        perms.append(perm)
    return perms


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Classes are permutations of one shared bank of frame prototypes.

    Every class plays the same L prototype vectors, in its own order, with
    each frame broadcast across patches plus Gaussian noise. Averaging over
    frames is therefore identical across classes in expectation.
    """
    bank_rng = np.random.default_rng([spec.seed, 0])
    bank = spec.motif_strength * bank_rng.standard_normal((spec.frames, spec.channels))
    perms = _class_permutations(spec)
    clips = []
    for label, perm in enumerate(perms):
        prototype = bank[perm]  # frames x channels
        base = np.broadcast_to(prototype[:, None, :],
                               (spec.frames, spec.patches, spec.channels))
        for k in range(spec.clips_per_class):
            noise_rng = np.random.default_rng([spec.seed, 2, label, k])
            values = base + spec.noise_sigma * noise_rng.standard_normal(base.shape)
            clips.append(ClipRecord(
                clip_id=f"class{label:03d}_clip{k:03d}",
                label=label,
                features=FeatureClip(Tensor(values)),
            ))
    return Dataset(clips)


def class_prototype_sequence(spec: SyntheticSpec, label: int) -> np.ndarray:
    """The noiseless frame sequence a class's clips are built from."""
    bank_rng = np.random.default_rng([spec.seed, 0])
    bank = spec.motif_strength * bank_rng.standard_normal((spec.frames, spec.channels))
    return bank[_class_permutations(spec)[label]]


def filter_labels(dataset: Dataset, labels) -> Dataset:
    """Restrict a dataset to the given class labels (e.g. a train/test split)."""
    keep = set(labels)
    clips = [c for c in dataset.clips if c.label in keep]
    if not clips:
        raise ValueError(f"no clips with labels {sorted(keep)}")
    return Dataset(clips)


# -- episode sampling ---------------------------------------------------------


def sample_episode(dataset: Dataset, spec: EpisodeSpec, counter: int) -> Episode:
    """Draw one episode, fully determined by (spec.seed, counter)."""
    needed = spec.shots + spec.queries_per_class
    labels = dataset.labels
    if len(labels) < spec.ways:
        raise InsufficientClipsError(
            f"dataset has {len(labels)} classes, episode needs {spec.ways}")
    rng = np.random.default_rng([spec.seed, counter])
    chosen = rng.choice(len(labels), size=spec.ways, replace=False)
    class_labels = [labels[i] for i in chosen]
    support: list[list[ClipRecord]] = []
    queries: list[tuple[ClipRecord, int]] = []
    for way, label in enumerate(class_labels):
        group = dataset.by_label[label]
        if len(group) < needed:
            raise InsufficientClipsError(
                f"class {label} owns {len(group)} clips, episode needs {needed}")
        picked = rng.choice(len(group), size=needed, replace=False)
        support.append([group[i] for i in picked[:spec.shots]])
        queries.extend((group[i], way) for i in picked[spec.shots:])
    return Episode(class_labels=class_labels, support=support, queries=queries)
