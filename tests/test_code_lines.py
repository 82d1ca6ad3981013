"""``scripts/code_lines.py``: the code lines of ``src/repairnet``."""

import json

from conftest import load_code_lines

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment

TEXT = """a string that is not a docstring
counts on each of its lines"""


def f(x):
    """A function docstring."""
    # A comment line.
    return math.sqrt(
        x
    )
'''


def test_code_lines_script_reports_each_module_and_the_total(capsys):
    assert load_code_lines().main([]) == 0
    *modules, total = map(json.loads, capsys.readouterr().out.splitlines())
    names = [line["module"] for line in modules]
    assert names == sorted(names) and {"dp.py", "mdp.py", "opi.py"} <= set(names)
    assert total["total"] == sum(line["lines"] for line in modules) > 0


def test_only_lines_with_a_token_outside_docstrings_and_comments_count():
    code_lines = load_code_lines().code_lines
    # import, TEXT's two lines, def, and the three lines of the return.
    assert code_lines(SOURCE) == 7
    edited = (
        SOURCE.replace("over two lines.", "over\nthree lines.")
        .replace("a trailing comment", "another comment")
        .replace("A function docstring.", "Another\n\n    docstring.")
        .replace("# A comment line.", "# A comment line.\n    # And one more.")
    )
    assert code_lines(edited) == 7
    assert code_lines(SOURCE + "\ny = f(4)\n") == 8


def test_editing_a_docstring_or_a_comment_alone_leaves_the_count(tmp_path, capsys):
    script = load_code_lines()
    text = (script.DEFAULT_DIR / "dp.py").read_text(encoding="utf-8")
    (tmp_path / "extra.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "dp.py").write_text(text, encoding="utf-8")
    assert script.main([str(tmp_path)]) == 0
    before = capsys.readouterr().out
    edited = text.replace('"""Exact average-cost', '"""Exact,\n\naverage-cost', 1).replace(
        "# Policy evaluation raises", "# Policy\n# evaluation raises", 1
    )
    assert edited.count("\n") == text.count("\n") + 3
    (tmp_path / "dp.py").write_text(edited, encoding="utf-8")
    assert script.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == before
    assert json.loads(before.splitlines()[1]) == {"module": "extra.py", "lines": 7}
