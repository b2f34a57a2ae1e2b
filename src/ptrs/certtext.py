"""Text form of interpretation certificates.

    poly                              matrix 2
    [s](x) = x + 1                    [a](x) = [[1, 1], [0, 0]]*x + [0, 1]
    [0] = 0                           [b](x) = [[1, 0], [0, 0]]*x + [0, 0]

The first line picks the kind. Argument variables are named in the header
of each equation; coefficients are numbers as `Fraction` reads them, like 2,
1/2 or 1.5. Lines starting with '#', 'rule', 'epsilon' or 'shape:', and a
line 'YES', are ignored, so the full output of a prover run can be fed back
in as a certificate. An error names the line and column where reading stopped.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .interpretations import (
    Certificate,
    Interpretation,
    Matrix,
    MatrixInterpretation,
    PolyInterpretation,
    Vector,
)
from .rules import PTRS

_ARG_NAMES = ("x", "y", "z")


class CertParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line, self.col = line, col


def _arg_names(arity: int) -> list[str]:
    if arity <= len(_ARG_NAMES):
        return list(_ARG_NAMES[:arity])
    return [f"x{i}" for i in range(1, arity + 1)]


def _render_poly_rhs(interp: PolyInterpretation, sym: str) -> str:
    """The largest monomials first, each size in the table's order."""
    names = _arg_names(interp.arity(sym))
    bits: list[str] = []
    for indices, c in sorted(interp.table[sym], key=lambda entry: -len(entry[0])):
        if not indices:
            bits.append(str(c))
            continue
        vars_part = "*".join(names[i] for i in indices)
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
            mats, const = interp.table[sym]
            parts = [f"{_render_matrix(M)}*{name}" for M, name in zip(mats, names)]
            parts.append(_render_vector(const))
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


# an equation's symbol name: a WST name may hold `]` and `=` but no `(` or
# space, so it ends at the last `]` before spaces and then `(` or `=`
_SYMBOL = re.compile(r"\[(.*)\](?=\s*[(=])")
# the rest of the line: punctuation, or a word (a number or an argument
# name) that holds none and so is no substring of _PUNCTUATION
_PUNCTUATION = "[](),*+="
_TOKEN = re.compile(r"[\[\](),*+=]|[^\[\](),*+=\s]+")
_HEADER = re.compile(r"\s*(?:poly|matrix\s+(\d+))\s*")


class _Equation:
    """Reads an equation from its tokens after the symbol: (text, column)
    pairs that end in two ('', the column past the end of the line)."""

    def __init__(self, line: str, start: int, number: int):
        self.tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line, start)]
        self.tokens += [("", len(line.rstrip()) + 1)] * 2
        self.pos = 0
        self.line = number

    def peek(self, ahead: int = 0) -> str:
        return self.tokens[self.pos + ahead][0]

    def fail(self, message: str, col: int | None = None) -> CertParseError:
        return CertParseError(message, self.line, self.tokens[self.pos][1] if col is None else col)

    def accept(self, punctuation: str) -> bool:
        if self.peek() != punctuation:
            return False
        self.pos += 1
        return True

    def next(self, expected: str) -> tuple[str, int]:
        """Step over the punctuation `expected`, or over a word where
        `expected` describes one."""
        text, col = self.tokens[self.pos]
        punctuation = expected in _PUNCTUATION
        if (text != expected) if punctuation else (text in _PUNCTUATION):
            what = repr(expected) if punctuation else expected
            raise self.fail(f"expected {what}, found {repr(text) if text else 'end of line'}")
        self.pos += 1
        return text, col

    def number(self, expected: str = "a number") -> Fraction:
        text, col = self.next(expected)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise self.fail(f"cannot read number {text!r}", col) from None

    def args(self) -> list[str]:
        """The argument list, if any, and the '=' after it."""
        args: list[str] = []
        if self.accept("("):
            while not self.accept(")"):
                if args:
                    self.next(",")
                name, col = self.next("an argument name")
                if name in args:
                    raise self.fail(f"argument {name!r} named twice", col)
                try:
                    Fraction(name)
                except (ValueError, ZeroDivisionError):
                    args.append(name)
                    continue
                # a right-hand side reads a factor as an argument first, so
                # a numeral as a name would shadow the number
                raise self.fail(f"argument name {name!r} reads as a number", col)
        self.next("=")
        return args

    def poly(self, args: list[str]) -> dict[frozenset[int], Fraction]:
        index = {name: i for i, name in enumerate(args, start=1)}
        coeffs: dict[frozenset[int], Fraction] = {}
        coeff, mono = Fraction(1), set()
        while True:
            if self.peek() in index:
                name, col = self.next("an argument name")
                if index[name] in mono:
                    raise self.fail(f"variable {name!r} repeats in one monomial", col)
                mono.add(index[name])
            else:
                coeff *= self.number("a number or an argument name")
            if self.accept("*"):
                continue
            key = frozenset(mono)
            coeffs[key] = coeffs.get(key, Fraction(0)) + coeff
            if not self.accept("+"):
                return coeffs
            coeff, mono = Fraction(1), set()

    def bracketed(self, item, dim: int) -> tuple:
        """`[item, ..., item]` with `dim` items. A matrix is a list of
        vectors and nothing nests deeper, so deep brackets cost no recursion."""
        _, col = self.next("[")
        items = [item()]
        while self.accept(","):
            items.append(item())
        self.next("]")
        if len(items) != dim:
            raise self.fail(f"expected a list of {dim} entries, found {len(items)}", col)
        return tuple(items)

    def affine(self, args: list[str], dim: int) -> tuple[list[Matrix], Vector]:
        index = {name: i for i, name in enumerate(args)}
        mats: list[Matrix | None] = [None] * len(args)
        const: Vector | None = None
        while True:
            if self.peek(1) == "[":
                M = self.bracketed(lambda: self.bracketed(self.number, dim), dim)
                self.next("*")
                name, col = self.next("an argument name")
                if name not in index:
                    raise self.fail(f"unknown argument {name!r}", col)
                if mats[index[name]] is not None:
                    raise self.fail(f"argument {name!r} appears twice", col)
                mats[index[name]] = M
            elif const is not None:
                raise self.fail("two constant vectors in one equation")
            else:
                const = self.bracketed(self.number, dim)
            if not self.accept("+"):
                break
        # a list of `dim` entries has been read, so these are no larger
        zero = (Fraction(0),) * dim
        return [(zero,) * dim if M is None else M for M in mats], zero if const is None else const


def parse_interpretation(text: str) -> Interpretation:
    """Read a certificate; inverse of render_interpretation. Each equation
    is read whole on its line, so an error names the first bad line."""
    dim: int | None = None  # 0 for poly
    arities: dict[str, int] = {}
    rows: dict = {}
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line == "YES" or line.startswith(("#", "rule ", "epsilon", "shape:")):
            continue
        col = len(raw) - len(raw.lstrip()) + 1
        if dim is None:
            header = _HEADER.fullmatch(raw)
            if header is None:
                raise CertParseError(f"expected 'poly' or 'matrix N' on the first line, got {line!r}", number, col)
            dim = int(header.group(1) or 0)
            if header.group(1) and dim < 1:
                raise CertParseError("matrix dimension must be at least 1", number, header.start(1) + 1)
            continue
        head = _SYMBOL.match(raw, col - 1)
        if head is None:
            raise CertParseError("expected an equation like [f](x) = ...", number, col)
        sym = head.group(1)
        if not sym:
            raise CertParseError("empty symbol name", number, col + 1)
        if sym in arities:
            raise CertParseError(f"symbol {sym!r} interpreted twice", number, col + 1)
        equation = _Equation(raw, head.end(), number)
        args = equation.args()
        rows[sym] = equation.affine(args, dim) if dim else equation.poly(args)
        if equation.peek():
            raise equation.fail(f"expected '+' or the end of the line, found {equation.peek()!r}")
        arities[sym] = len(args)
    if not arities:
        raise CertParseError("certificate interprets no symbols", 1, 1)
    if dim:
        return MatrixInterpretation(arities, dim, rows)
    return PolyInterpretation(arities, rows)


def load_interpretation(path: str) -> Interpretation:
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_interpretation(handle.read())
