"""Code lines of a Python package, per module and in total.

    python3 scripts/code_lines.py [DIR]

A line counts when it holds a token outside a docstring or a comment, so
blank lines, comment lines and docstring lines do not, and a statement
written over several lines counts each of them.  A docstring is the
string a module, class or function body starts with (``ast.get_docstring``
reads the same one).  ``DIR`` defaults to ``src/repairnet`` beside this
script; every ``*.py`` file under it is read.  Prints one JSON line per
module, ``{"module": ..., "lines": ...}`` in path order, then one with
the total.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parent.parent / "src" / "repairnet"
# Tokens that hold no code of their own.
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstrings(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) position of every docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                spans.append(
                    ((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset))
                )
    return spans


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token outside a
    docstring or a comment."""
    docstrings = _docstrings(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in LAYOUT:
            continue
        if token.type == tokenize.STRING and any(
            start <= token.start and token.end <= end for start, end in docstrings
        ):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    root = Path(argv[0]) if argv else DEFAULT_DIR
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(json.dumps({"module": path.relative_to(root).as_posix(), "lines": count}))
    print(json.dumps({"total": total}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
