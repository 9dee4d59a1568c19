"""Tests of tools/loc.py, the line counts of the package by kind."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
SRC = TOOL.parent.parent / "src" / "strm"


def load_tool():
    spec = importlib.util.spec_from_file_location("loc", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_line_is_counted_once_by_kind():
    source = '''"""Module docstring.

Its blank line counts as docstring."""

# a comment line
X = "# not a comment"  # a trailing comment leaves this a code line


class A:
    """One line."""

    def f(self):
        text = """a string that is
        not a docstring"""
        return text
'''
    counts = load_tool().classify(source)
    assert counts == {"code": 6, "docstring": 4, "comment": 1, "blank": 4}


def test_the_total_row_adds_up_to_every_line_of_the_package():
    out = subprocess.run([sys.executable, str(TOOL)], check=True, capture_output=True,
                         text=True).stdout.splitlines()
    assert out[0] == "file\tcode\tdocstring\tcomment\tblank\ttotal"
    rows = {name: [int(v) for v in values] for name, *values in
            (line.split("\t") for line in out[1:])}
    files = sorted(SRC.glob("*.py"))
    assert list(rows) == [p.name for p in files] + ["total"]
    for p in files:
        assert sum(rows[p.name][:4]) == rows[p.name][4] == len(p.read_text().splitlines())
    assert rows["total"] == [sum(rows[p.name][i] for p in files) for i in range(5)]
