"""The repository's own tooling: ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines_module)
code_lines = code_lines_module.code_lines


@pytest.mark.parametrize(
    "source, count",
    [
        ("", 0),
        ("\n\n   \n", 0),  # blank lines
        ("x = 1\n\n\ny = 2\n", 2),
        ("# a comment\n    # an indented one\nx = 1\n", 1),  # comment-only lines
        ("x = 1  # a trailing comment\n", 1),
        ("x = (\n    1,\n    # inside\n    2,\n)\n", 4),  # a multi-line statement, its comment line aside
        ('s = """one\ntwo\nthree"""\n', 3),  # a string that is no docstring is code
        ('"""A module docstring\nover two lines."""\nx = 1\n', 1),
        ('def f():\n    """Doc."""\n    return 1\n', 2),
        ('class C:\n    """Doc\n    more."""\n\n    x = 1\n', 2),
        ('def f(): """doc"""; return 1\n', 1),  # a same-line docstring leaves its code counted
        ('def f():\n    """doc"""; return 1\n', 2),
        ('def f():\n    """doc\n    more"""; return 1\n', 2),
    ],
)
def test_code_lines_counts_lines_that_hold_code(source, count):
    assert code_lines(source) == count


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "bb.py").write_text("def f(): return 1\n\n# end\n")
    assert code_lines_module.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a          1\nbb         1\ntotal      2\n"
