"""Count the code lines of ``src/ensvar``: lines that are not blank, not
comments and not docstrings, per module and in total.

Standard library only::

    python3 tools/code_lines.py [DIRECTORY]   # DIRECTORY defaults to src/ensvar

A docstring is the string literal that opens a module, class or function
body.  A line is left out when it holds nothing but docstring, comment
and blank; a line holding code counts, whatever docstring or trailing
comment shares it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = []  # the (start, end) positions of each docstring statement
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    code = set()
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        in_docstring = any(start <= token.start and token.end <= end for start, end in docstrings)
        if token.type not in skip and not in_docstring:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "ensvar"
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8")) for path in sorted(root.glob("*.py"))}
    width = max(map(len, [*counts, "total"]))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
