"""Line-oriented text format for exact rational matrices.

Layout: a header line "m n", then m*n whitespace-separated tokens in
row-major order. Tokens are integers or fractions "p/q". Anything after
'#' on a line is a comment; blank lines are skipped. Parsing preserves
values exactly and round-trips with serialize_matrix. An integer token
(an optional sign and ASCII digits) is read through rational(), so a
small entry is the shared Fraction of its value; every other token is
read by Fraction itself.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .qlinalg import QMatrix, rational

_TOKEN = re.compile(r"\S+")
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _tokens_with_positions(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for match in _TOKEN.finditer(body):
            yield match.group(), lineno, match.start() + 1


def parse_basis_text(text: str) -> QMatrix:
    toks = list(_tokens_with_positions(text))
    if len(toks) < 2:
        raise ParseError("missing 'm n' header", 1, 1)
    header = []
    for tok, line, col in toks[:2]:
        try:
            header.append(int(tok))
        except ValueError:
            raise ParseError(f"bad header token {tok!r}", line, col) from None
    m, n = header
    if m < 1 or n < 1:
        raise ParseError("header dimensions must be positive", toks[0][1], toks[0][2])
    body = toks[2:]
    if len(body) != m * n:
        if len(body) < m * n:
            line, col = (body[-1][1], body[-1][2]) if body else (toks[1][1], toks[1][2])
            raise ParseError(
                f"expected {m * n} entries, found {len(body)}", line, col
            )
        tok, line, col = body[m * n]
        raise ParseError(f"unexpected extra token {tok!r}", line, col)
    values: list[Fraction] = []
    for tok, line, col in body:
        try:
            values.append(rational(int(tok)) if _INTEGER.fullmatch(tok) else Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational token {tok!r}", line, col) from None
    return QMatrix([values[i * n:(i + 1) * n] for i in range(m)])


def parse_basis_file(path: str) -> QMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_basis_text(fh.read())


def format_token(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def serialize_matrix(m: QMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for row in m.data:
        lines.append(" ".join(format_token(e) for e in row))
    return "\n".join(lines) + "\n"


def write_basis_file(path: str, m: QMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_matrix(m))


def frac_str(f: Fraction) -> str:
    """Canonical 'p/q' form used in machine-readable output."""
    return f"{f.numerator}/{f.denominator}"
