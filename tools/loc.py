"""Line counts of the strm package, split into code, docstring, comment and
blank lines.

Prints a TSV with one row per module of src/strm and a total row:

    python tools/loc.py

A docstring line is any line of a module, class or function docstring, blank
lines inside it included. A comment line holds a comment and nothing else. A
blank line is empty or whitespace outside a docstring. Every other line is
code, so the four columns add up to `wc -l`.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "strm"
KINDS = ("code", "docstring", "comment", "blank")
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def classify(source: str) -> dict[str, int]:
    """How many lines of `source` are of each kind."""
    lines = source.splitlines()
    kinds = ["blank" if not line.strip() else "code" for line in lines]
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        row = token.start[0] - 1
        if token.type == tokenize.COMMENT and lines[row].lstrip().startswith("#"):
            kinds[row] = "comment"
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            for row in range(doc.lineno - 1, doc.end_lineno):
                kinds[row] = "docstring"
    return {kind: kinds.count(kind) for kind in KINDS}


def main() -> int:
    print("file\t" + "\t".join(KINDS) + "\ttotal")
    totals = dict.fromkeys(KINDS, 0)
    for path in sorted(SRC.glob("*.py")):
        counts = classify(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            totals[kind] += counts[kind]
        print(f"{path.name}\t" + "\t".join(str(counts[k]) for k in KINDS)
              + f"\t{sum(counts.values())}")
    print("total\t" + "\t".join(str(totals[k]) for k in KINDS) + f"\t{sum(totals.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
