"""Count the code lines of ``src/ensvar``: lines that are not blank, not
comments and not docstrings, per module and in total.

Standard library only::

    python3 tools/code_lines.py [DIRECTORY]   # DIRECTORY defaults to src/ensvar

A docstring is the string literal that opens a module, class or function
body; every line it spans is left out.  A line holding code and a
trailing comment counts as code.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in skip:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "ensvar"
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8")) for path in sorted(root.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
