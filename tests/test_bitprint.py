"""Tests of tools/bitprint.py, the bit-fingerprint sweep."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from strm.diffcore import Tape, Tensor

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bitprint.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bitprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_of_a_tiny_sweep_print_the_same_output():
    runs = [subprocess.run([sys.executable, str(TOOL), "--episodes", "1"], check=True,
                           capture_output=True, text=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert lines[0] == "threads\tconfig\tstages\tsha256"
    rows = [line.split("\t") for line in lines[1:]]
    assert [(t, c, s) for t, c, s, _ in rows] == [
        (str(t), c, s) for t in (1, 2) for c in ("omega2", "omega23", "keep0.2", "loaded")
        for s in ("all-on", "all-off", "ple+qc")]
    assert all(len(digest) == 64 for *_, digest in rows)


def test_a_reassociated_sum_in_one_op_changes_only_the_rows_that_use_it(monkeypatch):
    """cosine_matrix on channel-reversed rows is the same function with every
    dot product and norm summed in another order. Only the similarity head
    calls it, so exactly the rows with QC on change."""
    tool = load_tool()
    before = tool.sweep(1)
    cosine_matrix = Tape.cosine_matrix

    def reassociated(tape, a, b):
        reverse = Tensor(np.eye(a.shape[1])[::-1])
        return cosine_matrix(tape, tape.matmul(a, reverse), tape.matmul(b, reverse))

    monkeypatch.setattr(Tape, "cosine_matrix", reassociated)
    after = tool.sweep(1)
    changed = {(c, s) for (c, s, d0), (_, _, d1) in zip(before, after) if d0 != d1}
    assert changed == {(c, s) for c, s, _ in before if tool.STAGES[s]["use_qc"]}
