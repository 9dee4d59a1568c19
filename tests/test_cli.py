"""Command-line tests: file outputs, determinism, exit codes, manifests."""

import hashlib
import json
import os
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from strm import cli
from strm.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main
from strm.diffcore import Tensor
from strm.episodes import ClipRecord, FeatureClip, load_clip, save_clip
from strm.model import ModelConfig, build_params
from strm.training import save_checkpoint


def run(argv):
    return main(argv)


def tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "run_manifest.json":
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    code = run(["synth", "--out", str(out), "--classes", "4", "--clips", "4",
                "--frames", "4", "--patches", "2", "--dim", "8",
                "--motif-strength", "1.0", "--seed", "3"])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory, tiny_data):
    out = tmp_path_factory.mktemp("run") / "train"
    code = run(["train", "--data", str(tiny_data), "--out", str(out),
                "--episodes", "12", "--eval-every", "12", "--eval-episodes", "4",
                "--ways", "2", "--shots", "1", "--refine-hidden", "4",
                "--embed-dim", "6", "--code-dim", "4", "--seed", "0"])
    assert code == EXIT_OK
    return out / "checkpoint.stck"


# -- synth ------------------------------------------------------------------------


def test_synth_writes_expected_clip_count(tmp_path):
    out = tmp_path / "ds"
    assert run(["synth", "--out", str(out), "--classes", "10", "--clips", "20",
                "--frames", "8", "--patches", "4", "--dim", "16",
                "--seed", "7"]) == EXIT_OK
    clips = list((out / "clips").glob("*.stfb"))
    assert len(clips) == 200
    manifest = (out / "manifest.tsv").read_text().splitlines()
    assert len(manifest) == 200
    record = load_clip(clips[0])
    assert record.features.patches == 16  # patch side 4 -> 16 patches


def test_synth_deterministic_tree(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    flags = ["--classes", "3", "--clips", "2", "--frames", "4", "--patches", "2",
             "--dim", "6", "--seed", "11"]
    assert run(["synth", "--out", str(a), *flags]) == EXIT_OK
    assert run(["synth", "--out", str(b), *flags]) == EXIT_OK
    assert tree_digest(a) == tree_digest(b)


def test_synth_failing_midway_keeps_previous_files(tmp_path, monkeypatch):
    out = tmp_path / "ds"
    flags = ["synth", "--out", str(out), "--classes", "2", "--clips", "2",
             "--frames", "4", "--patches", "2", "--dim", "4"]
    assert run(flags + ["--seed", "0"]) == EXIT_OK
    before = tree_digest(out)

    def disk_full(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write_run_manifest", lambda *args: None)
    monkeypatch.setattr(os, "fsync", disk_full)
    assert run(flags + ["--seed", "1"]) == EXIT_IO
    assert tree_digest(out) == before
    assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]


def test_synth_rejects_single_frame(tmp_path):
    assert run(["synth", "--out", str(tmp_path / "x"), "--frames", "1"]) == EXIT_USAGE


def test_synth_writes_manifest_first(tmp_path):
    out = tmp_path / "ds"
    assert run(["synth", "--out", str(out), "--classes", "2", "--clips", "2",
                "--frames", "4", "--patches", "2", "--dim", "4",
                "--seed", "0"]) == EXIT_OK
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["resolved"]["seed"] == 0
    assert "clips" in manifest["outputs"]


# -- tuples ------------------------------------------------------------------------


def test_tuples_reference_counts(capsys):
    assert run(["tuples", "--frames", "8", "--omega", "2,3,4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cardinality 2: 28" in out
    assert "cardinality 3: 56" in out
    assert "cardinality 4: 70" in out
    assert "total: 154" in out


def test_tuples_single_cardinality(capsys):
    assert run(["tuples", "--frames", "8", "--omega", "1"]) == EXIT_OK
    assert "total: 8" in capsys.readouterr().out
    assert run(["tuples", "--frames", "5", "--omega", "2,3"]) == EXIT_OK
    assert "total: 20" in capsys.readouterr().out


def test_tuples_rejects_cardinality_above_frames():
    assert run(["tuples", "--frames", "3", "--omega", "4"]) == EXIT_USAGE


# -- gradcheck ----------------------------------------------------------------------


def test_gradcheck_default_passes(capsys):
    assert run(["gradcheck"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "13/13 parameters pass" in out


def test_gradcheck_lambda_zero_skips_qc(capsys):
    assert run(["gradcheck", "--lambda", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "qc." not in out
    assert "12/12 parameters pass" in out


def test_gradcheck_cap_exceeded():
    assert run(["gradcheck", "--dim", "200", "--embed-dim", "200"]) == EXIT_USAGE


# -- train / eval ---------------------------------------------------------------------


def test_train_outputs(tiny_checkpoint):
    outdir = tiny_checkpoint.parent
    assert tiny_checkpoint.exists()
    metrics = (outdir / "metrics.tsv").read_text().splitlines()
    assert len(metrics) == 1
    fields = metrics[0].split("\t")
    assert len(fields) == 5
    manifest = json.loads((outdir / "run_manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["outputs"]["checkpoint"] == "checkpoint.stck"


def test_train_does_not_mutate_dataset(tmp_path, tiny_data):
    before = tree_digest(tiny_data)
    out = tmp_path / "t"
    assert run(["train", "--data", str(tiny_data), "--out", str(out),
                "--episodes", "4", "--eval-every", "4", "--eval-episodes", "2",
                "--ways", "2", "--shots", "1", "--refine-hidden", "4",
                "--embed-dim", "6", "--code-dim", "4", "--seed", "1"]) == EXIT_OK
    assert tree_digest(tiny_data) == before


def test_train_determinism_bit_identical(tmp_path, tiny_data):
    flags = ["--data", str(tiny_data), "--episodes", "8", "--eval-every", "4",
             "--eval-episodes", "3", "--ways", "2", "--shots", "1",
             "--refine-hidden", "4", "--embed-dim", "6", "--code-dim", "4",
             "--seed", "5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["train", "--out", str(a), *flags]) == EXIT_OK
    assert run(["train", "--out", str(b), *flags]) == EXIT_OK
    assert (a / "checkpoint.stck").read_bytes() == (b / "checkpoint.stck").read_bytes()
    assert (a / "metrics.tsv").read_text() == (b / "metrics.tsv").read_text()


def test_eval_reports_accuracy(tiny_data, tiny_checkpoint, capsys, tmp_path):
    out = tmp_path / "eval"
    assert run(["eval", "--data", str(tiny_data), "--checkpoint",
                str(tiny_checkpoint), "--episodes", "10", "--ways", "2",
                "--shots", "1", "--out", str(out)]) == EXIT_OK
    assert "accuracy" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["episodes"] == 10


def test_eval_extent_mismatch_rejected(tmp_path, tiny_data):
    cfg = ModelConfig(frames=4, patches=4, channels=16, refine_hidden=4,
                      embed_dim=6, code_dim=4, seed=0)
    bad = tmp_path / "bad.stck"
    save_checkpoint(build_params(cfg), bad)
    code = run(["eval", "--data", str(tiny_data), "--checkpoint", str(bad),
                "--episodes", "4", "--ways", "2", "--shots", "1"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("frames,patches", [(1, 4), (4, 3)])
def test_eval_bad_clip_extents_are_io_errors_naming_the_file(
        tmp_path, tiny_data, tiny_checkpoint, capsys, frames, patches):
    """A one-frame clip, or one whose extents differ from the first clip's,
    exits 3 and names the clip file."""
    data = tmp_path / "ds"
    shutil.copytree(tiny_data, data)
    rel, label = (data / "manifest.tsv").read_text().splitlines()[1].split("\t")
    header = struct.pack("<4sIIIII", b"STFB", 1, int(label), frames, patches, 8)
    (data / rel).write_bytes(header + np.ones(frames * patches * 8, "<f4").tobytes())
    assert run(["eval", "--data", str(data), "--checkpoint", str(tiny_checkpoint),
                "--episodes", "2", "--ways", "2", "--shots", "1"]) == EXIT_IO
    assert str(data / rel) in capsys.readouterr().err


def test_eval_missing_files_are_io_errors(tmp_path, tiny_data):
    assert run(["eval", "--data", str(tmp_path / "nope"), "--checkpoint",
                str(tmp_path / "nope.stck")]) == EXIT_IO
    assert run(["eval", "--data", str(tiny_data), "--checkpoint",
                str(tmp_path / "nope.stck")]) == EXIT_IO


def test_labels_filter(tiny_data, tmp_path):
    out = tmp_path / "t"
    assert run(["train", "--data", str(tiny_data), "--labels", "0-1",
                "--out", str(out), "--episodes", "4", "--eval-every", "4",
                "--eval-episodes", "2", "--ways", "2", "--shots", "1",
                "--refine-hidden", "4", "--embed-dim", "6", "--code-dim", "4",
                "--seed", "2"]) == EXIT_OK


def test_env_seed_override(tmp_path, tiny_data, monkeypatch):
    flags = ["--data", str(tiny_data), "--episodes", "4", "--eval-every", "4",
             "--eval-episodes", "2", "--ways", "2", "--shots", "1",
             "--refine-hidden", "4", "--embed-dim", "6", "--code-dim", "4"]
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run(["train", "--out", str(a), *flags, "--seed", "1"]) == EXIT_OK
    monkeypatch.setenv("STRM_SEED", "1")
    assert run(["train", "--out", str(b), *flags, "--seed", "99"]) == EXIT_OK
    assert (a / "checkpoint.stck").read_bytes() == (b / "checkpoint.stck").read_bytes()
    monkeypatch.setenv("STRM_SEED", "not-a-number")
    assert run(["train", "--out", str(c), *flags]) == EXIT_USAGE


# -- ablate -------------------------------------------------------------------------


def test_ablate_emits_five_ordered_rows(tmp_path, tiny_data):
    out = tmp_path / "ab"
    assert run(["ablate", "--data", str(tiny_data), "--out", str(out),
                "--episodes", "6", "--eval-episodes", "4", "--ways", "2",
                "--shots", "1", "--refine-hidden", "4", "--embed-dim", "6",
                "--code-dim", "4", "--seed", "0"]) == EXIT_OK
    rows = (out / "ablation.tsv").read_text().splitlines()
    names = [r.split("\t")[0] for r in rows]
    assert names == ["baseline", "+ple", "+fle", "+ple+fle", "full"]
    for variant in ("baseline", "ple", "fle", "ple+fle", "full"):
        assert (out / f"checkpoint_{variant}.stck").exists()


def test_ablate_deterministic(tmp_path, tiny_data):
    flags = ["--data", str(tiny_data), "--episodes", "4", "--eval-episodes", "3",
             "--ways", "2", "--shots", "1", "--refine-hidden", "4",
             "--embed-dim", "6", "--code-dim", "4", "--seed", "1"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["ablate", "--out", str(a), *flags]) == EXIT_OK
    assert run(["ablate", "--out", str(b), *flags]) == EXIT_OK
    assert (a / "ablation.tsv").read_text() == (b / "ablation.tsv").read_text()


# -- attention export ----------------------------------------------------------------


def test_attn_export_formats(tmp_path, tiny_data, tiny_checkpoint):
    clip = next((tiny_data / "clips").glob("*.stfb"))
    out = tmp_path / "attn"
    assert run(["attn-export", "--checkpoint", str(tiny_checkpoint),
                "--clip", str(clip), "--out", str(out)]) == EXIT_OK
    pgms = sorted(out.glob("*.pgm"))
    csvs = sorted(out.glob("frame_*.csv"))
    score_csvs = sorted(out.glob("scores_*.csv"))
    assert len(pgms) == 4 and len(csvs) == 4 and len(score_csvs) == 4
    raw = pgms[0].read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    assert len(raw) == len(b"P5\n2 2\n255\n") + 4
    grid = np.array([[float(v) for v in line.split(",")]
                     for line in csvs[0].read_text().strip().splitlines()])
    assert grid.shape == (2, 2)
    scores = np.array([[float(v) for v in line.split(",")]
                       for line in score_csvs[0].read_text().strip().splitlines()])
    assert scores.shape == (4, 4)  # patch-by-patch attention logits


def test_attn_export_csv_matches_recomputed_norms(tmp_path, tiny_data, tiny_checkpoint):
    from strm.enrichment import ple_patch_diagnostics
    from strm.model import params_from_arrays
    from strm.training import load_checkpoint

    clip_path = next((tiny_data / "clips").glob("*.stfb"))
    out = tmp_path / "attn"
    assert run(["attn-export", "--checkpoint", str(tiny_checkpoint),
                "--clip", str(clip_path), "--out", str(out)]) == EXIT_OK
    params = params_from_arrays(load_checkpoint(tiny_checkpoint))
    record = load_clip(clip_path)
    _, all_norms = ple_patch_diagnostics(record.features.payload, params.ple)
    for i, norms in enumerate(all_norms):
        grid = np.array([[float(v) for v in line.split(",")]
                         for line in (out / f"frame_{i:02d}.csv")
                         .read_text().strip().splitlines()])
        assert np.abs(grid.reshape(-1) - norms).max() <= 1e-9


def test_attn_export_uniform_clip_is_midgray(tmp_path, tiny_checkpoint):
    values = np.ones((4, 4, 8))
    clip = ClipRecord(clip_id="flat", label=0,
                      features=FeatureClip(Tensor(values)))
    clip_path = tmp_path / "flat.stfb"
    save_clip(clip, clip_path)
    out = tmp_path / "attn"
    assert run(["attn-export", "--checkpoint", str(tiny_checkpoint),
                "--clip", str(clip_path), "--out", str(out)]) == EXIT_OK
    for pgm in out.glob("*.pgm"):
        payload = pgm.read_bytes().split(b"255\n", 1)[1]
        assert set(payload) == {128}


def test_attn_export_missing_inputs(tmp_path, tiny_checkpoint):
    assert run(["attn-export", "--checkpoint", str(tiny_checkpoint),
                "--clip", str(tmp_path / "nope.stfb"),
                "--out", str(tmp_path / "o")]) == EXIT_IO
