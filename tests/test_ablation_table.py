"""Tests of tools/ablation_table.py, the multi-seed ablation table."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from strm import training
from strm.episodes import EpisodeSpec, SyntheticSpec, generate_synthetic
from strm.model import ModelConfig

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ablation_table.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("ablation_table", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tiny_table_prints_every_cell_once_per_thread_count():
    out = subprocess.run([sys.executable, str(TOOL), "--seeds", "0,1", "--episodes", "2",
                          "--eval-episodes", "2"], check=True, capture_output=True,
                         text=True).stdout
    lines = out.splitlines()
    assert lines[0].split("\t") == list(load_tool().HEADER)
    rows = [line.split("\t") for line in lines[1:]]
    assert [row[:3] for row in rows] == [
        [str(t), str(s), name] for t in (1, 2) for s in (0, 1)
        for name, *_ in training.ABLATION_VARIANTS]
    for row in rows:
        assert 0.0 <= float(row[3]) <= 1.0
        assert float(row[4]) > 0.0 and row[5] in ("1", "2") and row[6] == "0"
        assert float(row[7]) > 0.0


def test_a_cell_counts_the_scaled_steps_and_restores_training(monkeypatch):
    """With the cap below every norm, each step is counted as scaled; the
    logging wrappers are gone afterwards, and the closing loss is the mean
    over the last episodes."""
    tool = load_tool()
    sgd_step, forward_episode = training.sgd_step, training.forward_episode
    monkeypatch.setattr(training, "MAX_GRAD_NORM", 1e-9)
    monkeypatch.setattr(tool, "LAST", 2)
    monkeypatch.setattr(tool, "TRAIN_SPEC", EpisodeSpec(ways=2, shots=1, seed=0))
    monkeypatch.setattr(tool, "EVAL_SPEC", EpisodeSpec(ways=2, shots=1, seed=1))
    data = generate_synthetic(SyntheticSpec(num_classes=3, clips_per_class=3, frames=4,
                                            patches=4, channels=8, seed=0))
    config = ModelConfig(frames=4, patches=4, channels=8, refine_hidden=4, embed_dim=6,
                         code_dim=4, seed=0)
    losses = []

    def logged(*args):
        result = forward_episode(*args)
        losses.append(result.loss.item())
        return result

    monkeypatch.setattr(training, "forward_episode", logged)
    accuracy, norm, episode, scaled, closing = tool.cell((data, data), config, 3, 2)
    assert scaled == 3 and norm > 1e-9 and 1 <= episode <= 3 and 0.0 <= accuracy <= 1.0
    assert len(losses) == 3 and closing == sum(losses[-2:]) / 2
    assert training.sgd_step is sgd_step and training.forward_episode is logged
