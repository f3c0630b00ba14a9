"""Code lines per module of a Python package directory.

    python3 tests/code_lines.py [DIR]      (DIR defaults to src/latkit)

A code line is a line that is not blank, not only a comment and not part
of a docstring: ast finds the docstrings (a string constant that opens a
module, class or function body) and tokenize the comments. Every line
that a code token spans counts, so a call split over three lines is three
code lines. Prints one line per module and the total, so that a change's
claim that code lines fell can be checked in any checkout. The name does
not start with test_, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every docstring in the module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines in one source file."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    lines: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else ROOT / "src" / "latkit"
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
