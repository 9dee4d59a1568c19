"""Dataset tests: binary round trips, distinct error cases, synthetic
structure, and episode sampling determinism."""

import os
import stat
import struct
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from strm import episodes
from strm.diffcore import Tensor
from strm.episodes import (BadMagicError, ClipFormatError, ClipRecord, Dataset, Episode,
                           EpisodeSpec, ExtentOverflowError, FeatureClip,
                           InsufficientClipsError, NonFiniteClipError, SyntheticSpec,
                           TruncatedPayloadError, VersionMismatchError,
                           filter_labels, generate_synthetic,
                           load_clip, load_dataset, sample_episode, save_clip,
                           write_atomic, write_manifest)


def make_clip(label=3, frames=4, patches=2, channels=3, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((frames, patches, channels)).astype("<f4")
    return ClipRecord(clip_id=f"clip{seed}", label=label,
                      features=FeatureClip(Tensor(values.astype(np.float64))))


# -- binary format ---------------------------------------------------------------


def test_clip_roundtrip_bit_identical(tmp_path):
    record = make_clip()
    path = tmp_path / "a.stfb"
    save_clip(record, path)
    loaded = load_clip(path)
    assert loaded.label == record.label
    assert np.array_equal(loaded.features.values.data, record.features.values.data)
    # a second save of the loaded clip is byte-identical
    path2 = tmp_path / "b.stfb"
    save_clip(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_clip_format_layout(tmp_path):
    record = make_clip(label=7, frames=2, patches=2, channels=2, seed=1)
    path = tmp_path / "c.stfb"
    save_clip(record, path)
    raw = path.read_bytes()
    assert raw[:4] == b"STFB"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:12], "little") == 7
    assert int.from_bytes(raw[12:16], "little") == 2
    assert len(raw) == 24 + 4 * 8
    payload = np.frombuffer(raw, dtype="<f4", offset=24)
    expected = record.features.values.data.astype("<f4").reshape(-1)
    assert np.array_equal(payload, expected)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.stfb"
    record = make_clip()
    save_clip(record, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        load_clip(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "v.stfb"
    save_clip(make_clip(), path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (9).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatchError):
        load_clip(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.stfb"
    save_clip(make_clip(), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(TruncatedPayloadError):
        load_clip(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "x.stfb"
    save_clip(make_clip(), path)
    path.write_bytes(path.read_bytes() + b"\0\0\0\0")
    with pytest.raises(TruncatedPayloadError):
        load_clip(path)


def test_extent_overflow(tmp_path):
    path = tmp_path / "e.stfb"
    save_clip(make_clip(), path)
    raw = bytearray(path.read_bytes())
    raw[12:16] = (2**30).to_bytes(4, "little")  # frames
    raw[16:20] = (2**10).to_bytes(4, "little")  # patches
    path.write_bytes(bytes(raw))
    with pytest.raises(ExtentOverflowError):
        load_clip(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_payload_names_file_and_element(tmp_path, bad):
    record = make_clip(frames=4, patches=2, channels=3)
    record.features.values.data[2, 1, 0] = bad
    record.features.values.data[3, 0, 2] = np.nan
    path = tmp_path / "nan.stfb"
    write_raw_clip(path, record.label, record.features.payload)
    with pytest.raises(NonFiniteClipError, match="frame 2, patch 1, channel 0") as info:
        load_clip(path)
    assert str(path) in str(info.value)


def write_raw_clip(path, label, values):
    """A clip file written byte by byte, for extents or values save_clip refuses."""
    frames, patches, channels = values.shape
    path.write_bytes(struct.pack("<4sIIIII", b"STFB", 1, label, frames, patches, channels)
                     + values.astype("<f4").tobytes())


def test_single_frame_clip_file_names_the_file(tmp_path):
    path = tmp_path / "short.stfb"
    write_raw_clip(path, 0, np.ones((1, 2, 3)))
    with pytest.raises(ClipFormatError, match="at least 2 frames, got 1") as info:
        load_clip(path)
    assert str(path) in str(info.value)


def test_mixed_extents_name_the_manifest_line_and_file(tmp_path):
    rows = []
    for i, patches in enumerate([2, 2, 3, 2]):
        record = make_clip(label=i, patches=patches, seed=i)
        save_clip(record, tmp_path / f"{record.clip_id}.stfb")
        rows.append((f"{record.clip_id}.stfb", i))
    write_manifest(rows, tmp_path / "manifest.tsv")
    with pytest.raises(ClipFormatError) as info:
        load_dataset(tmp_path / "manifest.tsv")
    message = str(info.value)
    assert message.startswith(f"{tmp_path / 'manifest.tsv'}:3: {tmp_path / 'clip2.stfb'}: ")
    assert "(4, 3, 3)" in message and "(4, 2, 3)" in message and "'clip0'" in message


def test_in_memory_mixed_extents_name_the_clip():
    clips = [make_clip(patches=patches, seed=i) for i, patches in enumerate([2, 3])]
    with pytest.raises(ValueError, match="clip 'clip1' has extents \\(4, 3, 3\\), "
                                         "clip 'clip0' has \\(4, 2, 3\\)"):
        Dataset(clips)


def test_loaded_clip_keeps_its_float32_payload_read_only(tmp_path):
    record = make_clip()
    path = tmp_path / "a.stfb"
    save_clip(record, path)
    payload = load_clip(path).features.payload
    assert payload.dtype == np.float32 and payload.shape == (4, 2, 3)
    assert not payload.flags.writeable
    with pytest.raises(ValueError):
        payload[0, 0, 0] = 1.0
    widened = load_clip(path).features.values
    assert isinstance(widened, Tensor) and widened.data.dtype == np.float64
    assert widened.data.tobytes() == payload.astype(np.float64).tobytes()


def test_in_memory_clip_keeps_its_float64_tensor():
    values = np.random.default_rng(0).standard_normal((3, 2, 4))
    clip = FeatureClip(Tensor(values))
    assert clip.payload is values
    assert clip.values.data is values
    assert (clip.frames, clip.patches, clip.channels) == (3, 2, 4)


def test_manifest_roundtrip(tmp_path):
    records = [make_clip(label=i, seed=i) for i in range(4)]
    rows = []
    for r in records:
        rel = f"{r.clip_id}.stfb"
        save_clip(r, tmp_path / rel)
        rows.append((rel, r.label))
    write_manifest(rows, tmp_path / "manifest.tsv")
    text = (tmp_path / "manifest.tsv").read_text()
    assert text.splitlines()[0] == "clip0.stfb\t0"
    ds = load_dataset(tmp_path / "manifest.tsv")
    assert len(ds.clips) == 4
    assert sorted(ds.labels) == [0, 1, 2, 3]


def test_clip_and_manifest_writes_failing_midway_keep_previous_files(tmp_path, monkeypatch):
    clip, manifest = tmp_path / "a.stfb", tmp_path / "manifest.tsv"
    save_clip(make_clip(seed=0), clip)
    write_manifest([("a.stfb", 3)], manifest)
    before = {p.name: p.read_bytes() for p in (clip, manifest)}

    def disk_full(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fsync", disk_full)
    with pytest.raises(OSError, match="No space"):
        save_clip(make_clip(seed=1), clip)
    with pytest.raises(OSError, match="No space"):
        write_manifest([("a.stfb", 3), ("b.stfb", 4)], manifest)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_write_atomic_writes_buffers_back_to_back_and_flushes_the_directory(
        tmp_path, monkeypatch):
    """The file is flushed, renamed into place, and then its directory is
    flushed, so that the rename itself survives a crash."""
    path = tmp_path / "out.bin"
    synced = []
    fsync = os.fsync

    def recording_fsync(fd):
        st = os.fstat(fd)
        synced.append(("dir" if stat.S_ISDIR(st.st_mode) else "file",
                       path.exists() and path.read_bytes()))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    grid = np.arange(6, dtype="<f4").reshape(2, 3)
    write_atomic(path, [b"head", grid, np.float64(2.5).tobytes()])
    expected = b"head" + grid.tobytes() + np.float64(2.5).tobytes()
    assert path.read_bytes() == expected
    assert synced == [("file", False), ("dir", expected)]
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
    synced.clear()
    write_atomic(path, b"bytes alone")
    assert path.read_bytes() == b"bytes alone"
    assert [kind for kind, _ in synced] == ["file", "dir"]


def write_clip_set(root, classes=3, clips=2, **extents):
    """Clips saved one file each plus their manifest; returns the manifest."""
    rows = []
    for label in range(classes):
        for k in range(clips):
            record = make_clip(label=label, seed=10 * label + k, **extents)
            save_clip(record, root / f"{record.clip_id}.stfb")
            rows.append((f"{record.clip_id}.stfb", label))
    write_manifest(rows, root / "manifest.tsv")
    return root / "manifest.tsv"


# Each malformed file, and the message load_clip rejects it with.
LOAD_REJECTIONS = {
    "short header": (lambda raw: raw[:10], "shorter than the fixed header",
                     TruncatedPayloadError),
    "bad magic": (lambda raw: b"XXXX" + raw[4:], "bad magic b'XXXX'", BadMagicError),
    "version": (lambda raw: raw[:4] + struct.pack("<I", 9) + raw[8:],
                "version 9, expected 1", VersionMismatchError),
    "extent overflow": (lambda raw: raw[:12] + struct.pack("<II", 2**30, 2**10) + raw[20:],
                        "bad extents frames=1073741824 patches=1024 channels=3",
                        ExtentOverflowError),
    "zero extent": (lambda raw: raw[:20] + struct.pack("<I", 0) + raw[24:],
                    "bad extents frames=4 patches=2 channels=0", ExtentOverflowError),
    "one frame": (lambda raw: raw[:12] + struct.pack("<I", 1) + raw[16:],
                  "clips need at least 2 frames, got 1", ClipFormatError),
    "truncated": (lambda raw: raw[:-5], "payload holds 22 of 24 floats",
                  TruncatedPayloadError),
    "trailing": (lambda raw: raw + b"\0" * 4, "4 trailing bytes", TruncatedPayloadError),
    "nan": (lambda raw: raw[:24 + 4 * 15] + np.float32(np.nan).tobytes() + raw[28 + 4 * 15:],
            "non-finite value nan at frame 2, patch 1, channel 0", NonFiniteClipError),
    "-inf": (lambda raw: raw[:-4] + np.float32(-np.inf).tobytes(),
             "non-finite value -inf at frame 3, patch 1, channel 2", NonFiniteClipError),
}


@pytest.mark.parametrize("case", sorted(LOAD_REJECTIONS))
def test_every_load_time_rejection_fires_at_load_with_its_message(tmp_path, case):
    edit, message, error = LOAD_REJECTIONS[case]
    path = tmp_path / "a.stfb"
    save_clip(make_clip(), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(error) as info:
        load_clip(path)
    assert str(info.value) == f"{path}: {message}"
    write_manifest([("a.stfb", 3)], tmp_path / "manifest.tsv")
    with pytest.raises(error) as info:
        load_dataset(tmp_path / "manifest.tsv")
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("line,message", [
    ("a.stfb\t4", "manifest label 4 != file label 3"),
    ("a.stfb", "expected `path<TAB>label`"),
    ("a.stfb\tzero", "label 'zero' is not an integer"),
])
def test_manifest_errors_name_the_line(tmp_path, line, message):
    save_clip(make_clip(label=3, seed=0), tmp_path / "a.stfb")
    save_clip(make_clip(label=3, seed=1), tmp_path / "b.stfb")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"b.stfb\t3\n\n{line}\n")
    with pytest.raises(ClipFormatError) as info:
        load_dataset(manifest)
    assert str(info.value) == f"{manifest}:3: {message}"


def test_empty_manifest_names_its_path(tmp_path):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("\n  \n")
    with pytest.raises(ClipFormatError) as info:
        load_dataset(manifest)
    assert str(info.value) == f"{manifest}: lists no clips"


def test_a_file_listed_twice_names_both_lines(tmp_path):
    """A second path to one file (here a hard link) is the same clip, which
    an episode could otherwise draw as both a support and a query."""
    manifest = write_clip_set(tmp_path, classes=1, clips=2)
    os.link(tmp_path / "clip0.stfb", tmp_path / "again.stfb")
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("again.stfb\t0\n")
    with pytest.raises(ClipFormatError) as info:
        load_dataset(manifest)
    assert str(info.value) == f"{manifest}:3: {tmp_path / 'again.stfb'} is the file of line 1"


def test_two_files_with_one_clip_id_name_both_lines(tmp_path):
    """Ids come from file stems, and sampling orders each class by id, so
    a/x.stfb and b/x.stfb (different files, one id) would leave the order
    of their class, and so the episodes, to the manifest's order."""
    for sub, seed in (("a", 1), ("b", 2)):
        (tmp_path / sub).mkdir()
        save_clip(make_clip(label=0, seed=seed), tmp_path / sub / "x.stfb")
    save_clip(make_clip(label=0, seed=3), tmp_path / "y.stfb")
    manifest = tmp_path / "manifest.tsv"
    write_manifest([("a/x.stfb", 0), ("y.stfb", 0), ("b/x.stfb", 0)], manifest)
    with pytest.raises(ClipFormatError) as info:
        load_dataset(manifest)
    assert str(info.value) == (f"{manifest}:3: {tmp_path / 'b' / 'x.stfb'} has clip id "
                               f"'x', as has line 1")


def test_a_dataset_refuses_two_records_with_one_clip_id(tmp_path):
    """Every constructor refuses equal ids, since sampling orders each class
    by id: the error names both records, by index, or by file when loaded."""
    clips = [make_clip(label=0, seed=seed) for seed in (1, 2, 1)]
    with pytest.raises(ValueError) as info:
        Dataset(clips)
    assert str(info.value) == ("clips #0 and #2 have one clip id 'clip1'; "
                               "sampling orders each class by id")
    with pytest.raises(ValueError, match="clips #0 and #1 have one clip id 'clip1'"):
        Dataset([clips[0], clips[0]])
    for sub, seed in (("a", 1), ("b", 2)):
        (tmp_path / sub).mkdir()
        save_clip(make_clip(label=0, seed=seed), tmp_path / sub / "x.stfb")
    loaded = [load_clip(tmp_path / sub / "x.stfb") for sub in ("a", "b")]
    with pytest.raises(ValueError) as info:
        Dataset(loaded)
    assert str(info.value) == (f"clips {tmp_path / 'a' / 'x.stfb'} and "
                               f"{tmp_path / 'b' / 'x.stfb'} have one clip id 'x'; "
                               f"sampling orders each class by id")


def test_a_loaded_clip_set_holds_no_payloads(tmp_path):
    """At eval-wide's clip size (L=8, P2=16, D=256; 128 KiB of float32 each)
    the loaded set costs under 1% of its payload bytes."""
    manifest = write_clip_set(tmp_path, classes=5, clips=6, frames=8, patches=16,
                              channels=256)
    payload_bytes = 30 * 8 * 16 * 256 * 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dataset = load_dataset(manifest)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(dataset.clips) == 30
    assert live < 0.01 * payload_bytes, live / payload_bytes


def test_dataset_checks_and_sampling_read_no_payload(tmp_path, monkeypatch):
    manifest = write_clip_set(tmp_path, classes=3, clips=2)

    def no_read(*args):
        raise AssertionError("payload read")

    monkeypatch.setattr(episodes, "_reread", no_read)
    dataset = load_dataset(manifest)
    assert (dataset.frames, dataset.patches, dataset.channels) == (4, 2, 3)
    filter_labels(Dataset(list(reversed(dataset.clips))), [0, 1])
    sample_episode(dataset, EpisodeSpec(ways=3, shots=1, seed=0), 0)
    with pytest.raises(AssertionError, match="payload read"):
        dataset.clips[0].features.payload


def test_each_read_of_a_loaded_clip_is_a_fresh_read_only_array(tmp_path):
    path = tmp_path / "a.stfb"
    record = make_clip()
    save_clip(record, path)
    clip = load_clip(path).features
    first, second = clip.payload, clip.payload
    assert first is not second and not first.flags.writeable
    expected = record.features.payload.astype("<f4").tobytes()
    assert first.tobytes() == second.tobytes() == expected
    with ThreadPoolExecutor(max_workers=2) as pool:
        reads = list(pool.map(lambda _: clip.payload.tobytes(), range(40)))
    assert set(reads) == {first.tobytes()}


def test_short_reads_are_resumed_and_an_early_end_is_a_truncation(tmp_path, monkeypatch):
    """A read may return fewer bytes than asked (at most ~2 GiB at once);
    the rest is read from where it stopped. A read that ends early (the file
    shrank after its size was checked) raises instead of returning junk."""
    path = tmp_path / "a.stfb"
    record = make_clip()
    save_clip(record, path)
    preadv = os.preadv
    cap = [40]

    def short_preadv(fd, buffers, offset):
        view = memoryview(buffers[0]).cast("B")
        return preadv(fd, [view[:cap[0]]], offset)

    monkeypatch.setattr(os, "preadv", short_preadv)
    clip = load_clip(path).features
    assert clip.payload.tobytes() == record.features.payload.astype("<f4").tobytes()
    cap[0] = 0
    with pytest.raises(TruncatedPayloadError) as info:
        clip.payload
    assert str(info.value) == f"{path}: payload holds 0 of 24 floats"


@pytest.mark.parametrize("label", [-1, 1 << 32])
def test_save_clip_refuses_a_label_outside_u32(tmp_path, label):
    """The header stores the label as a u32: a label outside it is refused,
    naming the file and the label, before any file is written."""
    path = tmp_path / "a.stfb"
    with pytest.raises(ValueError) as info:
        save_clip(make_clip(label=label), path)
    assert str(info.value) == f"{path}: label {label} does not fit the file's u32 label"
    assert list(tmp_path.iterdir()) == []
    for kept in (0, (1 << 32) - 1):
        save_clip(make_clip(label=kept), path)
        assert load_clip(path).label == kept


@pytest.mark.parametrize("value", [np.nan, -np.inf, 1e39])
def test_save_clip_refuses_a_payload_not_finite_as_float32(tmp_path, value):
    """A value the float32 payload cannot hold (1e39 overflows the cast) is
    refused, naming the file, the value and its place, before any file is
    written and without numpy's overflow warning."""
    path = tmp_path / "a.stfb"
    values = make_clip().features.payload.copy()
    values[1, 0, 2] = value
    record = ClipRecord(clip_id="a", label=0, features=FeatureClip(values))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            save_clip(record, path)
    assert str(info.value) == \
        f"{path}: value {value} at frame 1, patch 0, channel 2 is not finite as float32"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rel", ["a\tb.stfb", "a\nb.stfb", "a.stfb\r", "a\u2028b.stfb"])
def test_write_manifest_refuses_a_path_that_splits_its_line(tmp_path, rel):
    """load_dataset reads one `path<TAB>label` per line, so a path holding a
    TAB or a line break is refused by name before the manifest is written."""
    manifest = tmp_path / "manifest.tsv"
    with pytest.raises(ValueError) as info:
        write_manifest([("b.stfb", 0), (rel, 1)], manifest)
    assert str(info.value) == f"{manifest}: clip path {rel!r} holds a TAB or a line break"
    assert list(tmp_path.iterdir()) == []


def replace_file(path):
    save_clip(make_clip(seed=1), path)


def rewrite(path, value, mtime_step_ns):
    """Overwrite value #5 (frame 0, patch 1, channel 2) in place and move the
    modification time by mtime_step_ns."""
    st = os.stat(path)
    with open(path, "r+b") as fh:
        fh.seek(24 + 4 * 5)
        fh.write(np.float32(value).tobytes())
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + mtime_step_ns))


# Each change to a file after load, and the message its next read raises.
CHANGES_AFTER_LOAD = {
    "replaced": (replace_file, "changed since it was loaded (replaced by another file)",
                 ClipFormatError),
    "rewritten": (lambda path: rewrite(path, 7.0, 10**9),
                  "changed since it was loaded (rewritten in place)", ClipFormatError),
    "nan in place, same mtime": (lambda path: rewrite(path, np.nan, 0),
                                 "non-finite value nan at frame 0, patch 1, channel 2",
                                 NonFiniteClipError),
    "truncated": (lambda path: os.truncate(path, 116),
                  "changed since it was loaded (116 bytes, 120 when loaded)", ClipFormatError),
    "removed": (os.remove, "removed since it was loaded", ClipFormatError),
}


@pytest.mark.parametrize("case", sorted(CHANGES_AFTER_LOAD))
def test_a_clip_file_changed_after_load_raises_at_its_next_read(tmp_path, case):
    change, message, error = CHANGES_AFTER_LOAD[case]
    manifest = write_clip_set(tmp_path, classes=2, clips=1)
    dataset = load_dataset(manifest)
    path = tmp_path / "clip0.stfb"
    change(path)
    with pytest.raises(error) as info:
        dataset.clips[0].features.values
    assert str(info.value) == f"{path}: {message}"
    assert dataset.clips[1].features.payload.shape == (4, 2, 3)


# -- synthetic structure -----------------------------------------------------------


def class_prototype_sequence(spec, label):
    """The noiseless frame sequence a class's clips are built from."""
    bank_rng = np.random.default_rng([spec.seed, 0])
    bank = spec.motif_strength * bank_rng.standard_normal((spec.frames, spec.channels))
    return bank[episodes._class_permutations(spec)[label]]


def test_zero_noise_matches_prototype_sequence():
    spec = SyntheticSpec(num_classes=3, clips_per_class=2, frames=4, patches=2,
                         channels=5, noise_sigma=0.0, seed=11)
    ds = generate_synthetic(spec)
    for record in ds.clips:
        proto = class_prototype_sequence(spec, record.label)
        expected = np.broadcast_to(proto[:, None, :], record.features.values.shape)
        assert np.array_equal(record.features.values.data, expected)


def test_classes_share_unordered_content():
    spec = SyntheticSpec(num_classes=4, clips_per_class=1, frames=5, patches=2,
                         channels=3, noise_sigma=0.0, seed=12)
    protos = [class_prototype_sequence(spec, c) for c in range(4)]
    sorted_rows = [np.array(sorted(map(tuple, p))) for p in protos]
    for other in sorted_rows[1:]:
        assert np.array_equal(sorted_rows[0], other)
    # frame-mean is therefore identical across classes
    means = [p.mean(axis=0) for p in protos]
    for m in means[1:]:
        assert np.abs(means[0] - m).max() <= 1e-12


def test_class_permutations_distinct_when_space_allows():
    spec = SyntheticSpec(num_classes=15, clips_per_class=1, frames=8, patches=2,
                         channels=2, seed=13)
    protos = [class_prototype_sequence(spec, c) for c in range(15)]
    keys = {tuple(np.round(p.flatten(), 9)) for p in protos}
    assert len(keys) == 15


def test_forced_identical_permutations_are_indistinguishable():
    # with 2 frames there are only 2 orders, so 3 classes must collide
    spec = SyntheticSpec(num_classes=3, clips_per_class=4, frames=2, patches=2,
                         channels=4, noise_sigma=0.0, seed=0)
    protos = [class_prototype_sequence(spec, c) for c in range(3)]
    pairs = [(a, b) for a in range(3) for b in range(a + 1, 3)
             if np.array_equal(protos[a], protos[b])]
    assert pairs, "three classes over two orders must share a permutation"
    a, b = pairs[0]
    ds = generate_synthetic(spec)
    clips_a = [c for c in ds.clips if c.label == a]
    clips_b = [c for c in ds.clips if c.label == b]
    assert np.array_equal(clips_a[0].features.values.data,
                          clips_b[0].features.values.data)


def test_generation_deterministic():
    spec = SyntheticSpec(num_classes=3, clips_per_class=2, seed=5)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    for ca, cb in zip(a.clips, b.clips):
        assert ca.clip_id == cb.clip_id
        assert np.array_equal(ca.features.values.data, cb.features.values.data)


@pytest.mark.parametrize("field,value,rule", [
    ("motif_strength", np.nan, "finite and positive"),
    ("motif_strength", np.inf, "finite and positive"),
    ("motif_strength", 0.0, "finite and positive"),
    ("noise_sigma", np.nan, "finite and nonnegative"),
    ("noise_sigma", np.inf, "finite and nonnegative"),
    ("noise_sigma", -0.1, "finite and nonnegative"),
])
def test_synthetic_spec_refuses_a_non_finite_strength_or_noise(field, value, rule):
    with pytest.raises(ValueError) as info:
        SyntheticSpec(**{field: value})
    assert str(info.value) == f"{field} must be {rule}, got {value}"


def test_frames_below_two_rejected():
    with pytest.raises(ValueError):
        SyntheticSpec(frames=1)
    with pytest.raises(ValueError):
        FeatureClip(Tensor(np.ones((1, 2, 3))))


# -- episode sampling ------------------------------------------------------------


@pytest.fixture(scope="module")
def small_dataset():
    return generate_synthetic(SyntheticSpec(num_classes=6, clips_per_class=8,
                                            frames=4, patches=2, channels=3,
                                            seed=21))


def test_sampling_deterministic(small_dataset):
    spec = EpisodeSpec(ways=3, shots=2, queries_per_class=2, seed=9)
    a = sample_episode(small_dataset, spec, 17)
    b = sample_episode(small_dataset, spec, 17)
    assert a.class_labels == b.class_labels
    assert [[c.clip_id for c in way] for way in a.support] == \
        [[c.clip_id for c in way] for way in b.support]
    assert [(c.clip_id, w) for c, w in a.queries] == \
        [(c.clip_id, w) for c, w in b.queries]
    c = sample_episode(small_dataset, spec, 18)
    assert a.class_labels != c.class_labels or \
        [[x.clip_id for x in way] for way in a.support] != \
        [[x.clip_id for x in way] for way in c.support]


def test_sampling_ignores_dataset_order(small_dataset):
    spec = EpisodeSpec(ways=3, shots=2, queries_per_class=1, seed=4)
    shuffled = Dataset(list(reversed(small_dataset.clips)))
    a = sample_episode(small_dataset, spec, 3)
    b = sample_episode(shuffled, spec, 3)
    assert a.class_labels == b.class_labels
    assert [[c.clip_id for c in way] for way in a.support] == \
        [[c.clip_id for c in way] for way in b.support]


def test_support_queries_disjoint(small_dataset):
    spec = EpisodeSpec(ways=3, shots=3, queries_per_class=2, seed=2)
    for counter in range(20):
        ep = sample_episode(small_dataset, spec, counter)
        support_ids = {c.clip_id for way in ep.support for c in way}
        query_ids = {c.clip_id for c, _ in ep.queries}
        assert not support_ids & query_ids


def test_insufficient_clips_names_class(small_dataset):
    spec = EpisodeSpec(ways=3, shots=7, queries_per_class=2, seed=0)
    with pytest.raises(InsufficientClipsError, match=r"class \d"):
        sample_episode(small_dataset, spec, 0)


def test_class_frequency_balanced():
    ds = generate_synthetic(SyntheticSpec(num_classes=24, clips_per_class=7,
                                          frames=4, patches=2, channels=2,
                                          seed=33))
    spec = EpisodeSpec(ways=5, shots=2, queries_per_class=1, seed=1)
    counts = np.zeros(24)
    n = 10_000
    for counter in range(n):
        ep = sample_episode(ds, spec, counter)
        for label in ep.class_labels:
            counts[label] += 1
    per_episode_rate = counts / n
    assert np.abs(per_episode_rate - 5 / 24).max() <= 0.02


def test_episode_spec_validation():
    with pytest.raises(ValueError):
        EpisodeSpec(ways=1)
    with pytest.raises(ValueError):
        EpisodeSpec(shots=0)
