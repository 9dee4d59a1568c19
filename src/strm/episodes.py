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
    "save_dataset",
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
    """One clip's features, [frames x patches x channels].

    A clip built in memory keeps its array as given (a Tensor's float64
    array). A clip loaded from a file keeps only the file's path, the
    extents and the file's identity (device, inode, size, mtime) taken when
    load_clip validated it: each read of `payload` re-reads the float32
    values from the file into a fresh read-only array, and raises
    ClipFormatError naming the file if it was replaced, rewritten, truncated
    or removed since, or NonFiniteClipError if a value is no longer finite.
    `values` is the float64 Tensor of the features, widened when stored as
    float32; the model widens the clips it enriches in one stacking instead
    (enrich_block).
    """

    __slots__ = ("shape", "_array", "_path", "_identity")

    def __init__(self, values: Tensor | np.ndarray) -> None:
        payload = values.data if isinstance(values, Tensor) else values
        if payload.ndim != 3:
            raise ValueError(f"clip features must be rank-3, got {payload.shape}")
        if payload.shape[0] < 2:
            raise ValueError(f"clips need at least 2 frames, got {payload.shape[0]}")
        self.shape = payload.shape
        self._array = payload
        self._path = self._identity = None

    @classmethod
    def _in_file(cls, path: str, shape: tuple[int, int, int],
                 identity: tuple[int, int, int, int]) -> FeatureClip:
        clip = cls.__new__(cls)
        clip.shape, clip._array, clip._path, clip._identity = shape, None, path, identity
        return clip

    @property
    def payload(self) -> np.ndarray:
        if self._path is None:
            return self._array
        return _reread(self._path, self.shape, self._identity)

    @property
    def values(self) -> Tensor:
        return Tensor(self.payload)

    @property
    def frames(self) -> int:
        return self.shape[0]

    @property
    def patches(self) -> int:
        return self.shape[1]

    @property
    def channels(self) -> int:
        return self.shape[2]


@dataclass
class ClipRecord:
    clip_id: str
    label: int
    features: FeatureClip


@dataclass
class Dataset:
    """Immutable collection of clips with uniform extents and distinct ids."""

    clips: list[ClipRecord]
    by_label: dict[int, list[ClipRecord]] = field(init=False)

    def __post_init__(self) -> None:
        if not self.clips:
            raise ValueError("dataset is empty")
        first_of: dict[str, int] = {}
        for i, c in enumerate(self.clips):
            if c.features.shape != self.clips[0].features.shape:
                raise ValueError(_extents_mismatch(c, self.clips[0]))
            if first_of.setdefault(c.clip_id, i) != i:
                a, b = (self.clips[j].features._path or f"#{j}" for j in (first_of[c.clip_id], i))
                raise ValueError(f"clips {a} and {b} have one clip id {c.clip_id!r}; "
                                 f"sampling orders each class by id")
        by_label: dict[int, list[ClipRecord]] = {}
        for c in self.clips:
            by_label.setdefault(c.label, []).append(c)
        # Sampling keys on sorted (distinct) clip ids so iteration order never matters.
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
        if not 0.0 < self.motif_strength < math.inf:
            raise ValueError(
                f"motif_strength must be finite and positive, got {self.motif_strength}")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(
                f"noise_sigma must be finite and nonnegative, got {self.noise_sigma}")


# -- binary files: clips, and the reader and writer shared with checkpoints ---


def save_clip(record: ClipRecord, path: str | Path) -> None:
    """Write a clip file; a label outside u32 or a value that is not finite as
    float32 is refused, naming the file, before anything is written."""
    write_atomic(path, _clip_chunks(record, path))


def _clip_chunks(record: ClipRecord, path: str | Path) -> list:
    """The header and the float32 payload of `record`'s clip file at `path`,
    refused as save_clip refuses them."""
    if not 0 <= record.label < 1 << 32:
        raise ValueError(f"{path}: label {record.label} does not fit the file's u32 label")
    clip = record.features
    payload = clip.payload
    with np.errstate(over="ignore"):  # an overflow to inf is refused just below
        values = np.ascontiguousarray(payload, dtype="<f4")
    _refuse_nonfinite(values, path, ValueError, lambda _, i: (
        "value {} at frame {}, patch {}, channel {} is not finite as float32".format(
            payload.reshape(-1)[i], *np.unravel_index(i, clip.shape))))
    return [_HEADER.pack(CLIP_MAGIC, CLIP_VERSION, record.label,
                         clip.frames, clip.patches, clip.channels), values]


def save_dataset(dataset: Dataset, root: str | Path) -> Path:
    """Write each clip to root/clips/<clip_id>.stfb and list them in
    root/manifest.tsv, whose path is returned. Every clip, clip id and
    manifest line is checked, with save_clip's and write_manifest's refusals,
    before any file is written, so a refused set leaves `root` as it was; a
    write that fails part way (a full disk) can still leave a mix. Once the
    manifest is written, each `*.stfb` directly under root/clips that it does
    not list is removed, so clips/ holds exactly the set. One clip's payload
    is held at a time."""
    root = Path(root)
    manifest = root / "manifest.tsv"
    rows = [(f"clips/{c.clip_id}.stfb", c.label) for c in dataset.clips]
    listing = _manifest_bytes(rows, manifest)
    for c, (rel, _) in zip(dataset.clips, rows):
        if Path(rel).parent != Path("clips") or Path(rel).stem != c.clip_id or "\0" in rel:
            raise ValueError(f"{root}: clip id {c.clip_id!r} is not a file stem")
        _clip_chunks(c, root / rel)
    (root / "clips").mkdir(parents=True, exist_ok=True)
    for c, (rel, _) in zip(dataset.clips, rows):
        save_clip(c, root / rel)
    write_atomic(manifest, listing)
    named = {f"{c.clip_id}.stfb" for c in dataset.clips}
    for stale in (root / "clips").glob("*.stfb"):
        if stale.name not in named:
            stale.unlink()
    return manifest


def load_clip(path: str | Path) -> ClipRecord:
    """Validate a clip file (header, extents, size, finite values) and return
    its record; the features keep the file's identity, not its values."""
    path = Path(path)
    fd = os.open(path, os.O_RDONLY)
    try:
        st = os.fstat(fd)
        label, frames, patches, channels = _check_header(
            fd, path, _HEADER, CLIP_MAGIC, CLIP_VERSION,
            (TruncatedPayloadError, BadMagicError, VersionMismatchError))
        if min(frames, patches, channels) == 0 or frames * patches * channels > _MAX_ELEMENTS:
            raise ExtentOverflowError(
                f"{path}: bad extents frames={frames} patches={patches} channels={channels}")
        if frames < 2:
            raise ClipFormatError(f"{path}: clips need at least 2 frames, got {frames}")
        count = frames * patches * channels
        expected = _HEADER.size + 4 * count
        if st.st_size < expected:
            raise TruncatedPayloadError(
                f"{path}: payload holds {(st.st_size - _HEADER.size) // 4} of {count} floats")
        if st.st_size > expected:
            raise TruncatedPayloadError(f"{path}: {st.st_size - expected} trailing bytes")
        shape = (frames, patches, channels)
        _clip_values(fd, path, shape)
    finally:
        os.close(fd)
    return ClipRecord(clip_id=path.stem, label=label,
                      features=FeatureClip._in_file(os.fspath(path), shape, _identity(st)))


def _identity(st: os.stat_result) -> tuple[int, int, int, int]:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _clip_values(fd: int, path: str | Path, shape: tuple[int, int, int]) -> np.ndarray:
    """The payload after the header of the open clip file `fd`, as a fresh
    read-only float32 array, refused unless every value is finite."""
    values = _read_array(
        fd, path, _HEADER.size, shape, "<f4", (TruncatedPayloadError, NonFiniteClipError),
        lambda done: f"payload holds {done} of {math.prod(shape)} floats",
        lambda value, i: "non-finite value {} at frame {}, patch {}, channel {}".format(
            value, *np.unravel_index(i, shape)))
    values.flags.writeable = False
    return values


def _reread(path: str, shape: tuple[int, int, int],
            identity: tuple[int, int, int, int]) -> np.ndarray:
    """A loaded clip's payload, read again from its file, which must still be
    the file load_clip validated."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError as exc:
        raise ClipFormatError(f"{path}: removed since it was loaded") from exc
    try:
        now = _identity(os.fstat(fd))
        if now != identity:
            if now[:2] != identity[:2]:
                change = "replaced by another file"
            elif now[2] != identity[2]:
                change = f"{now[2]} bytes, {identity[2]} when loaded"
            else:
                change = "rewritten in place"
            raise ClipFormatError(f"{path}: changed since it was loaded ({change})")
        return _clip_values(fd, path, shape)
    finally:
        os.close(fd)


def write_manifest(records: list[tuple[str, int]], path: str | Path) -> None:
    """Write one `path<TAB>label` line per clip; a path that holds a TAB or
    a line break, which would split its line, is refused."""
    write_atomic(path, _manifest_bytes(records, path))


def _manifest_bytes(records: list[tuple[str, int]], path: str | Path) -> bytes:
    for rel, _ in records:
        if "\t" in rel or "".join(rel.splitlines()) != rel:
            raise ValueError(f"{path}: clip path {rel!r} holds a TAB or a line break")
    return "".join(f"{rel}\t{label}\n" for rel, label in records).encode("utf-8")


def _check_header(fd: int, path: str | Path, layout: struct.Struct, magic: bytes,
                  version: int, errors: tuple[type, type, type]) -> list[int]:
    """The fields after the magic and the version in the fixed header of the
    open file `fd`; raises `errors`' short-file, bad-magic or version class."""
    head = os.pread(fd, layout.size, 0)
    if len(head) < layout.size:
        raise errors[0](f"{path}: shorter than the fixed header")
    found, found_version, *fields = layout.unpack(head)
    if found != magic:
        raise errors[1](f"{path}: bad magic {found!r}")
    if found_version != version:
        raise errors[2](f"{path}: version {found_version}, expected {version}")
    return fields


def _read_array(fd: int, path: str | Path, offset: int, shape: tuple[int, ...], dtype: str,
                errors: tuple[type, type], truncated, nonfinite) -> np.ndarray:
    """The `shape` `dtype` values at `offset` of the open file `fd`, streamed into a
    fresh array. It raises errors[0] with `truncated(values read)` if the file ends
    first, and errors[1] with `nonfinite(value, flat index)` at a non-finite value."""
    values = np.empty(shape, dtype=dtype)
    done = os.preadv(fd, [values], offset)
    while done < values.nbytes:  # one read returns at most ~2 GiB; resume after it
        got = os.preadv(fd, [memoryview(values).cast("B")[done:]], offset + done)
        if got == 0:
            raise errors[0](f"{path}: {truncated(done // values.itemsize)}")
        done += got
    _refuse_nonfinite(values, path, errors[1], nonfinite)
    return values


def _refuse_nonfinite(values: np.ndarray, path: str | Path, error: type, describe) -> None:
    """Raise `error` with `describe(value, flat index)` of the first
    non-finite value, if `values` holds one."""
    if not np.isfinite(values).all():
        first = int(np.argmin(np.isfinite(values)))
        raise error(f"{path}: {describe(values.reshape(-1)[first], first)}")


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
    """Load and validate every clip a manifest lists, one `path<TAB>label`
    line each; errors name the manifest line. A file listed twice (the same
    device and inode, whatever the path) is refused, and so are two files
    with one clip id (one file stem, as in a/x.stfb and b/x.stfb): sampling
    orders each class by id."""
    manifest_path = Path(manifest_path)
    clips = []
    lines_by_file: dict[tuple[int, int], int] = {}
    lines_by_id: dict[str, int] = {}
    for lineno, line in enumerate(manifest_path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        where = f"{manifest_path}:{lineno}"
        try:
            rel, label_text = line.split("\t")
        except ValueError as exc:
            raise ClipFormatError(f"{where}: expected `path<TAB>label`") from exc
        try:
            label = int(label_text)
        except ValueError as exc:
            raise ClipFormatError(f"{where}: label {label_text!r} is not an integer") from exc
        record_path = manifest_path.parent / rel
        record = load_clip(record_path)
        if record.label != label:
            raise ClipFormatError(
                f"{where}: manifest label {label_text} != file label {record.label}")
        first = lines_by_file.setdefault(record.features._identity[:2], lineno)
        if first != lineno:
            raise ClipFormatError(f"{where}: {record_path} is the file of line {first}")
        first = lines_by_id.setdefault(record.clip_id, lineno)
        if first != lineno:
            raise ClipFormatError(
                f"{where}: {record_path} has clip id {record.clip_id!r}, as has line {first}")
        if clips and record.features.shape != clips[0].features.shape:
            raise ClipFormatError(f"{where}: {record_path}: "
                                  f"{_extents_mismatch(record, clips[0])}")
        clips.append(record)
    if not clips:
        raise ClipFormatError(f"{manifest_path}: lists no clips")
    return Dataset(clips)


def _extents_mismatch(clip: ClipRecord, first: ClipRecord) -> str:
    return (f"clip {clip.clip_id!r} has extents {clip.features.shape}, "
            f"clip {first.clip_id!r} has {first.features.shape}")


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
