"""Text form of interpretation certificates.

    poly                              matrix 2
    [s](x) = x + 1                    [a](x) = [[1, 1], [0, 0]]*x + [0, 1]
    [0] = 0                           [b](x) = [[1, 0], [0, 0]]*x + [0, 0]

The first line picks the kind. Argument variables are named in the header
of each equation; coefficients are nonnegative integers or fractions like
1/2. Lines starting with '#', 'rule', 'epsilon' or 'shape:', and a line
'YES', are ignored, so the full output of a prover run can be fed back in
as a certificate.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .interpretations import (
    Certificate,
    Interpretation,
    Matrix,
    MatrixInterpretation,
    PolyInterpretation,
    Vector,
)
from .rewriting import PTRS

_ARG_NAMES = ("x", "y", "z")


class CertParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _arg_names(arity: int) -> list[str]:
    if arity <= len(_ARG_NAMES):
        return list(_ARG_NAMES[:arity])
    return [f"x{i}" for i in range(1, arity + 1)]


def _render_poly_rhs(interp: PolyInterpretation, sym: str) -> str:
    names = _arg_names(interp.arity(sym))
    row = interp.coeffs[sym]
    bits: list[str] = []
    for V in sorted(row, key=lambda V: (-len(V), sorted(V))):
        c = row[V]
        if not V:
            bits.append(str(c))
            continue
        vars_part = "*".join(names[i - 1] for i in sorted(V))
        bits.append(vars_part if c == 1 else f"{c}*{vars_part}")
    return " + ".join(bits) if bits else "0"


def _render_vector(v: Vector) -> str:
    return "[" + ", ".join(str(e) for e in v) + "]"


def _render_matrix(M: Matrix) -> str:
    return "[" + ", ".join(_render_vector(row) for row in M) + "]"


def render_interpretation(interp: Interpretation) -> str:
    lines: list[str] = []
    if interp.kind == "poly":
        lines.append("poly")
        for sym in interp.symbols():
            head = f"[{sym}]"
            arity = interp.arity(sym)
            if arity:
                head += "(" + ", ".join(_arg_names(arity)) + ")"
            lines.append(f"{head} = {_render_poly_rhs(interp, sym)}")
    else:
        lines.append(f"matrix {interp.dim}")
        for sym in interp.symbols():
            names = _arg_names(interp.arity(sym))
            head = f"[{sym}]"
            if names:
                head += "(" + ", ".join(names) + ")"
            parts = [
                f"{_render_matrix(M)}*{name}" for M, name in zip(interp.matrices(sym), names)
            ]
            parts.append(_render_vector(interp.constant(sym)))
            lines.append(f"{head} = {' + '.join(parts)}")
    return "\n".join(lines) + "\n"


def render_certificate(cert: Certificate, system: PTRS | None = None) -> str:
    text = render_interpretation(cert.interpretation)
    lines = [text.rstrip("\n")]
    if system is not None:
        for index, (rule, margin) in enumerate(zip(system.rules, cert.margins), start=1):
            lines.append(f"rule {index}: margin {margin}   [{rule}]")
    lines.append(f"epsilon = {cert.epsilon}")
    return "\n".join(lines) + "\n"


def _split_top_level(text: str, sep: str, line: int) -> list[str]:
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise CertParseError("unbalanced ']'", line)
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise CertParseError("unbalanced '['", line)
    parts.append("".join(current))
    return parts


def _parse_scalar(text: str, line: int) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise CertParseError(f"cannot read number {text.strip()!r}", line) from None


def _parse_vector(text: str, line: int) -> Vector:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise CertParseError(f"expected a vector like [0, 1], got {text!r}", line)
    return tuple(_parse_scalar(p, line) for p in _split_top_level(text[1:-1], ",", line))


def _parse_matrix(text: str, line: int) -> Matrix:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise CertParseError(f"expected a matrix like [[1, 0], [0, 1]], got {text!r}", line)
    rows = _split_top_level(text[1:-1], ",", line)
    return tuple(_parse_vector(row, line) for row in rows)


# an equation's symbol name: a WST name may hold `]` and `=` but no `(` or
# space, so it ends at the last `]` before spaces and then `(` or `=`
_SYMBOL = re.compile(r"\[(.*)\](?=\s*[(=])")


def _parse_equation(text: str, line: int) -> tuple[str, list[str], str]:
    if not text.startswith("["):
        raise CertParseError("expected an equation like [f](x) = ...", line)
    symbol = _SYMBOL.match(text)
    if symbol is None:
        if "]" not in text:
            raise CertParseError("missing ']' after symbol name", line)
        raise CertParseError("expected '=' in equation", line)
    sym = symbol.group(1)
    if not sym:
        raise CertParseError("empty symbol name", line)
    rest = text[symbol.end() :].strip()
    args: list[str] = []
    if rest.startswith("("):
        close = rest.find(")")
        if close < 0:
            raise CertParseError("missing ')' after argument list", line)
        inner = rest[1:close].strip()
        args = [a.strip() for a in inner.split(",")] if inner else []
        if not all(args) or len(set(args)) < len(args):
            raise CertParseError(f"argument names must be distinct and nonempty: ({inner})", line)
        for name in args:
            # a right-hand side reads a factor as an argument first, so a
            # numeral as a name would shadow the number
            try:
                Fraction(name)
            except (ValueError, ZeroDivisionError):
                continue
            raise CertParseError(f"argument name {name!r} reads as a number", line)
        rest = rest[close + 1 :].strip()
    if not rest.startswith("="):
        raise CertParseError("expected '=' in equation", line)
    return sym, args, rest[1:].strip()


def _parse_poly_rhs(expr: str, args: list[str], line: int) -> dict[frozenset[int], Fraction]:
    index = {name: i for i, name in enumerate(args, start=1)}
    coeffs: dict[frozenset[int], Fraction] = {}
    for raw_term in expr.split("+"):
        factors = [f.strip() for f in raw_term.split("*")]
        coeff = Fraction(1)
        mono: set[int] = set()
        saw_number = False
        for factor in factors:
            if not factor:
                raise CertParseError(f"empty factor in {raw_term.strip()!r}", line)
            if factor in index:
                if index[factor] in mono:
                    raise CertParseError(f"variable {factor!r} repeats in one monomial", line)
                mono.add(index[factor])
            else:
                coeff *= _parse_scalar(factor, line)
                saw_number = True
        if not mono and not saw_number:
            raise CertParseError(f"cannot read term {raw_term.strip()!r}", line)
        key = frozenset(mono)
        coeffs[key] = coeffs.get(key, Fraction(0)) + coeff
    return coeffs


def _parse_matrix_rhs(
    expr: str, args: list[str], dim: int, line: int
) -> tuple[list[Matrix], Vector]:
    index = {name: i for i, name in enumerate(args)}
    mats: list[Matrix | None] = [None] * len(args)
    const: Vector | None = None
    for raw_term in _split_top_level(expr, "+", line):
        term = raw_term.strip()
        if "*" in term:
            mat_text, _, name = term.rpartition("*")
            name = name.strip()
            if name not in index:
                raise CertParseError(f"unknown argument {name!r}", line)
            if mats[index[name]] is not None:
                raise CertParseError(f"argument {name!r} appears twice", line)
            mats[index[name]] = _parse_matrix(mat_text, line)
        else:
            if const is not None:
                raise CertParseError("two constant vectors in one equation", line)
            const = _parse_vector(term, line)
    filled = [M if M is not None else tuple((Fraction(0),) * dim for _ in range(dim)) for M in mats]
    return filled, const if const is not None else (Fraction(0),) * dim


def parse_interpretation(text: str) -> Interpretation:
    """Read a certificate; inverse of render_interpretation."""
    kind: str | None = None
    dim = 0
    equations: list[tuple[int, str, list[str], str]] = []
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line == "YES" or line.startswith(("#", "rule ", "epsilon", "shape:")):
            continue
        if kind is None:
            words = line.split()
            if words[0] == "poly" and len(words) == 1:
                kind = "poly"
            elif words[0] == "matrix" and len(words) == 2 and words[1].isdigit():
                kind = "matrix"
                dim = int(words[1])
                if dim < 1:
                    raise CertParseError("matrix dimension must be at least 1", number)
            else:
                raise CertParseError(
                    f"expected 'poly' or 'matrix N' on the first line, got {line!r}", number
                )
            continue
        sym, args, expr = _parse_equation(line, number)
        equations.append((number, sym, args, expr))
    if kind is None:
        raise CertParseError("empty certificate", 1)
    if not equations:
        raise CertParseError("certificate interprets no symbols", 1)
    arities: dict[str, int] = {}
    for number, sym, args, _ in equations:
        if sym in arities:
            raise CertParseError(f"symbol {sym!r} interpreted twice", number)
        arities[sym] = len(args)
    if kind == "poly":
        coeffs = {}
        for number, sym, args, expr in equations:
            coeffs[sym] = _parse_poly_rhs(expr, args, number)
        return PolyInterpretation(arities, coeffs)
    entries = {}
    for number, sym, args, expr in equations:
        mats, const = _parse_matrix_rhs(expr, args, dim, number)
        if len(const) != dim or any(len(M) != dim or any(len(r) != dim for r in M) for M in mats):
            raise CertParseError(f"entries of [{sym}] do not match dimension {dim}", number)
        entries[sym] = (mats, const)
    return MatrixInterpretation(arities, dim, entries)


def load_interpretation(path: str) -> Interpretation:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_interpretation(handle.read())
