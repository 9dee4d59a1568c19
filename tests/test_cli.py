"""Command-line tests: file outputs, determinism, exit codes, manifests."""

import argparse
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
from strm.diffcore import NumericalError, Tensor
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


# -- parser surface -----------------------------------------------------------------

# Every subcommand's options as {option strings: (dest, default, type, required)}.
# Help text is free to change; anything pinned here is part of the CLI contract.
PARSER_SURFACE = {
    'synth': {
        '--out': ('out', None, None, True),
        '--classes': ('classes', 15, int, False),
        '--clips': ('clips', 20, int, False),
        '--frames': ('frames', 8, int, False),
        '--patches': ('patches', 2, int, False),
        '--dim': ('dim', 64, int, False),
        '--motif-strength': ('motif_strength', 0.1, float, False),
        '--noise-sigma': ('noise_sigma', 0.3, float, False),
        '--seed': ('seed', 0, int, False),
    },
    'train': {
        '--data': ('data', None, None, True),
        '--out': ('out', None, None, True),
        '--labels': ('labels', None, None, False),
        '--eval-data': ('eval_data', None, None, False),
        '--eval-labels': ('eval_labels', None, None, False),
        '--eval-every': ('eval_every', 250, int, False),
        '--eval-episodes': ('eval_episodes', 200, int, False),
        '--seed': ('seed', 0, int, False),
        '--refine-hidden': ('refine_hidden', 32, int, False),
        '--embed-dim': ('embed_dim', 64, int, False),
        '--code-dim': ('code_dim', 64, int, False),
        '--omega': ('omega', '2', None, False),
        '--lambda': ('qc_weight', 0.1, float, False),
        '--no-ple': ('no_ple', False, None, False),
        '--no-fle': ('no_fle', False, None, False),
        '--no-qc': ('no_qc', False, None, False),
        '--keep-ratio': ('keep_ratio', 1.0, float, False),
        '--tuple-seed': ('tuple_seed', 0, int, False),
        '--episodes': ('episodes', 2000, int, False),
        '--lr': ('lr', 0.1, float, False),
        '--accumulate-every': ('accumulate_every', 1, int, False),
        '--ways': ('ways', 5, int, False),
        '--shots': ('shots', 5, int, False),
        '--queries': ('queries', 1, int, False),
    },
    'eval': {
        '--data': ('data', None, None, True),
        '--labels': ('labels', None, None, False),
        '--checkpoint': ('checkpoint', None, None, True),
        '--out': ('out', None, None, False),
        '--episodes': ('episodes', 1000, int, False),
        '--ways': ('ways', 5, int, False),
        '--shots': ('shots', 5, int, False),
        '--queries': ('queries', 1, int, False),
        '--keep-ratio': ('keep_ratio', 1.0, float, False),
        '--tuple-seed': ('tuple_seed', 0, int, False),
        '--seed': ('seed', 12345, int, False),
    },
    'gradcheck': {
        '--frames': ('frames', 4, int, False),
        '--patches': ('patches', 2, int, False),
        '--dim': ('dim', 8, int, False),
        '--refine-hidden': ('refine_hidden', 8, int, False),
        '--embed-dim': ('embed_dim', 12, int, False),
        '--code-dim': ('code_dim', 6, int, False),
        '--omega': ('omega', '2', None, False),
        '--lambda': ('qc_weight', 0.1, float, False),
        '--ways': ('ways', 2, int, False),
        '--shots': ('shots', 1, int, False),
        '--step': ('step', 1e-05, float, False),
        '--threshold': ('threshold', 1e-05, float, False),
        '--seed': ('seed', 0, int, False),
        '--out': ('out', None, None, False),
    },
    'tuples': {
        '--frames': ('frames', None, int, True),
        '--omega': ('omega', None, None, True),
    },
    'ablate': {
        '--data': ('data', None, None, True),
        '--out': ('out', None, None, True),
        '--labels': ('labels', None, None, False),
        '--eval-data': ('eval_data', None, None, False),
        '--eval-labels': ('eval_labels', None, None, False),
        '--eval-episodes': ('eval_episodes', 1000, int, False),
        '--eval-seed': ('eval_seed', 777, int, False),
        '--seed': ('seed', 0, int, False),
        '--refine-hidden': ('refine_hidden', 32, int, False),
        '--embed-dim': ('embed_dim', 64, int, False),
        '--code-dim': ('code_dim', 64, int, False),
        '--omega': ('omega', '2', None, False),
        '--lambda': ('qc_weight', 0.1, float, False),
        '--no-ple': ('no_ple', False, None, False),
        '--no-fle': ('no_fle', False, None, False),
        '--no-qc': ('no_qc', False, None, False),
        '--keep-ratio': ('keep_ratio', 1.0, float, False),
        '--tuple-seed': ('tuple_seed', 0, int, False),
        '--episodes': ('episodes', 2000, int, False),
        '--lr': ('lr', 0.1, float, False),
        '--accumulate-every': ('accumulate_every', 1, int, False),
        '--ways': ('ways', 5, int, False),
        '--shots': ('shots', 5, int, False),
        '--queries': ('queries', 1, int, False),
    },
    'attn-export': {
        '--checkpoint': ('checkpoint', None, None, True),
        '--clip': ('clip', None, None, True),
        '--out': ('out', None, None, True),
    },
}


def _parser_surface() -> dict:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {" ".join(a.option_strings): (a.dest, a.default, a.type, a.required)
                   for a in sp._actions if not isinstance(a, argparse._HelpAction)}
            for name, sp in sub.choices.items()}


def test_parser_surface_is_pinned():
    surface = _parser_surface()
    assert list(surface) == list(PARSER_SURFACE)
    for name, options in PARSER_SURFACE.items():
        assert surface[name] == options, name


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


@pytest.mark.parametrize("flag,value", [("--noise-sigma", "nan"),
                                        ("--motif-strength", "inf"),
                                        ("--motif-strength", "1e39")])
def test_synth_refuses_values_its_clips_cannot_hold(tmp_path, capsys, flag, value):
    """NaN noise and an infinite strength are refused by name before anything
    is written; a strength of 1e39 is finite, but its clips overflow float32,
    and save_clip refuses the first clip, naming the value, so no clip and no
    manifest is left for load_dataset to refuse."""
    out = tmp_path / "x"
    assert run(["synth", "--out", str(out), "--classes", "2", "--clips", "2",
                "--frames", "4", "--dim", "4", flag, value]) == EXIT_USAGE
    err = capsys.readouterr().err
    if value == "1e39":
        assert err.startswith(f"strm: {out}/clips/class000_clip000.stfb: value ")
        assert err.endswith("e+39 at frame 0, patch 0, channel 0 is not finite as float32\n")
        assert sorted(p.name for p in out.rglob("*")) == ["clips", "run_manifest.json"]
    else:
        rule = "finite and positive" if flag == "--motif-strength" else "finite and nonnegative"
        assert err == f"strm: {flag[2:].replace('-', '_')} must be {rule}, got {float(value)}\n"
        assert not out.exists()


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


@pytest.mark.parametrize("command", ["eval", "gradcheck"])
def test_the_run_manifest_is_written_before_computing(tmp_path, tiny_data, tiny_checkpoint,
                                                      monkeypatch, capsys, command):
    """With the evaluation or the check failing, the manifest is there."""
    def broken(*args, **kwargs):
        raise NumericalError("computation failed")

    monkeypatch.setattr(cli, "evaluate" if command == "eval" else "gradcheck_model", broken)
    out = tmp_path / command
    argv = (["eval", "--data", str(tiny_data), "--checkpoint", str(tiny_checkpoint),
             "--episodes", "4", "--ways", "2", "--shots", "1"] if command == "eval"
            else ["gradcheck"])
    assert run(argv + ["--out", str(out)]) == cli.EXIT_NUMERIC
    assert "computation failed" in capsys.readouterr().err
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == command
    assert sorted(path.name for path in out.iterdir()) == ["run_manifest.json"]


def test_eval_extent_mismatch_rejected(tmp_path, tiny_data, capsys):
    cfg = ModelConfig(frames=4, patches=4, channels=16, refine_hidden=4,
                      embed_dim=6, code_dim=4, seed=0)
    bad = tmp_path / "bad.stck"
    save_checkpoint(build_params(cfg), bad)
    code = run(["eval", "--data", str(tiny_data), "--checkpoint", str(bad),
                "--episodes", "4", "--ways", "2", "--shots", "1"])
    assert code == EXIT_USAGE
    assert "ple.query_proj: extent mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("omega", [2, 3])
def test_eval_refuses_a_checkpoint_lacking_a_group_it_enables(tmp_path, tiny_data, capsys,
                                                             omega):
    """A checkpoint whose similarity head lacks one of its cardinalities,
    the first or a later one, is refused by name with exit 2, not scored or
    read up to a bare KeyError."""
    params = build_params(ModelConfig(frames=4, patches=4, channels=8, refine_hidden=4,
                                      embed_dim=6, code_dim=4, omegas=(2, 3), seed=0))
    del params.qc[omega]
    bad = tmp_path / f"no_qc{omega}.stck"
    save_checkpoint(params, bad)
    code = run(["eval", "--data", str(tiny_data), "--checkpoint", str(bad),
                "--episodes", "4", "--ways", "2", "--shots", "1"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == \
        f"strm: parameters lack qc.{omega}, which the config scores with\n"


def test_eval_zero_episodes_exits_2_naming_the_count(tiny_data, tiny_checkpoint, capsys):
    assert run(["eval", "--data", str(tiny_data), "--checkpoint", str(tiny_checkpoint),
                "--episodes", "0", "--ways", "2", "--shots", "1"]) == EXIT_USAGE
    assert "got 0" in capsys.readouterr().err


def test_ablate_zero_eval_episodes_exits_2_before_training(tmp_path, tiny_data, capsys):
    out = tmp_path / "ab"
    assert run(["ablate", "--data", str(tiny_data), "--out", str(out),
                "--episodes", "2", "--eval-episodes", "0", "--ways", "2",
                "--shots", "1"]) == EXIT_USAGE
    assert "got 0" in capsys.readouterr().err
    assert not list(out.glob("checkpoint_*.stck"))


@pytest.mark.parametrize("flag,value", [("--labels", "a"), ("--eval-labels", "9-"),
                                        ("--labels", "1-2-3"), ("--eval-labels", ","),
                                        ("--labels", "5-3,7")])
def test_label_errors_name_the_flag(tmp_path, tiny_data, capsys, flag, value):
    assert run(["train", "--data", str(tiny_data), "--out", str(tmp_path / "t"),
                flag, value]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        f"strm: bad {flag} value {value!r}, expected e.g. 0-9 or 3,5,7\n"


@pytest.mark.parametrize("rate", ["nan", "inf", "-0.5"])
def test_train_refuses_a_bad_learning_rate_before_writing(tmp_path, tiny_data, capsys, rate):
    out = tmp_path / "t"
    assert run(["train", "--data", str(tiny_data), "--out", str(out),
                "--lr", rate]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        f"strm: learning_rate must be finite and nonnegative, got {float(rate)}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate", "gradcheck"])
@pytest.mark.parametrize("weight", ["nan", "inf", "-0.5"])
def test_model_commands_refuse_a_bad_lambda_before_writing(tmp_path, tiny_data, capsys,
                                                           command, weight):
    """A NaN --lambda would silently drop gradcheck's similarity head, and
    fail train at episode 0 after its manifest is written."""
    out = tmp_path / "t"
    data = [] if command == "gradcheck" else ["--data", str(tiny_data)]
    assert run([command, *data, "--out", str(out), "--lambda", weight]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        f"strm: qc_weight must be finite and nonnegative, got {float(weight)}\n"
    assert not out.exists()


def test_train_eval_labels_filter_the_eval_split(tmp_path, tiny_data, monkeypatch):
    """--eval-labels alone restricts --data for the accuracy trace."""
    seen = {}
    real_train = cli.train

    def spy(dataset, *args, eval_dataset=None, **kwargs):
        seen["train"], seen["eval"] = dataset.labels, eval_dataset.labels
        return real_train(dataset, *args, eval_dataset=eval_dataset, **kwargs)

    monkeypatch.setattr(cli, "train", spy)
    out = tmp_path / "t"
    assert run(["train", "--data", str(tiny_data), "--out", str(out),
                "--labels", "0-1", "--eval-labels", "2-3", "--episodes", "4",
                "--eval-every", "4", "--eval-episodes", "2", "--ways", "2",
                "--shots", "1", "--refine-hidden", "4", "--embed-dim", "6",
                "--code-dim", "4"]) == EXIT_OK
    assert seen == {"train": [0, 1], "eval": [2, 3]}
    assert len((out / "metrics.tsv").read_text().splitlines()) == 1


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


@pytest.mark.parametrize("edit,where", [
    (lambda lines: lines[:1] + [lines[1].split("\t")[0] + "\tzero"], ":2: label 'zero' is"),
    (lambda lines: lines + lines[:1], f":{4 * 4 + 1}: "),
    (lambda lines: [], ": lists no clips"),
], ids=["label", "listed-twice", "empty"])
def test_eval_manifest_errors_are_io_errors_naming_the_line(
        tmp_path, tiny_data, tiny_checkpoint, capsys, edit, where):
    """A label that is not an integer, a clip listed twice and an empty
    manifest each exit 3 and name the manifest (and its line)."""
    data = tmp_path / "ds"
    shutil.copytree(tiny_data, data)
    manifest = data / "manifest.tsv"
    manifest.write_text("".join(f"{line}\n" for line in
                                edit(manifest.read_text().splitlines())))
    assert run(["eval", "--data", str(data), "--checkpoint", str(tiny_checkpoint),
                "--episodes", "2", "--ways", "2", "--shots", "1"]) == EXIT_IO
    assert f"{manifest}{where}" in capsys.readouterr().err


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
