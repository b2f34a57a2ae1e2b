"""Polynomial and matrix interpretations, orientation and certificates.

An interpretation maps every n-ary symbol to a monotone function over the
nonnegative rationals (multilinear polynomials) or over vectors thereof
(affine matrix functions, compared in the first component). A rule is
oriented when the interpretation of the left-hand side exceeds the expected
interpretation of the right-hand side with a positive constant margin under
every nonnegative assignment; since the difference has nonnegative
coefficients everywhere else, its value at the zero assignment is that
margin. The minimum margin over all rules bounds the expected derivation
length from above via the induced ranking function.

An interpretation is its coefficient table, `table`: per symbol, a
polynomial's nonzero (argument indices from 0, coefficient) pairs by
monomial size, or a matrix interpretation's argument grids and constant
vector, with integral coefficients as ints. The constructors check their
input and build it; `smt.decode` fills a shape's table from a model.

One evaluator, `Differences`, computes rule differences for both the
checker and the encoder, over plain dicts, reading each symbol from such
a table. A coefficient is a number when a concrete certificate is checked
(`NUMBERS`: the interpretation's own table), and the position of a solver
unknown when a shape is encoded (`UNKNOWNS`); there, values are
polynomials over the unknowns, dicts from sorted tuples of positions to
nonzero ints.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .rules import PTRS, ProbRule
from .terms import App, Term, fold_term

Coeff = Any  # Fraction | int
Matrix = tuple[tuple[Coeff, ...], ...]
Vector = tuple[Coeff, ...]


class DegreeOverflow(ArithmeticError):
    """Symbolic evaluation left the representable multilinear fragment."""


class NotOriented(Exception):
    """The rule's difference polynomial is not absolutely positive."""


class CertificateInvalid(Exception):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def _mono(key: Any) -> frozenset[int]:
    if isinstance(key, int):
        return frozenset((key,))
    return frozenset(key)


def _by_size(V: frozenset) -> tuple:
    return len(V), sorted(V)


def _exact(c: Coeff) -> Coeff:
    """An integral coefficient as an int; others stay as they are.

    Integer arithmetic is exact and much cheaper than Fraction arithmetic,
    so values of terms under an all-integer interpretation stay ints.
    """
    return c.numerator if c.denominator == 1 else c


def _poly_value(monomials: tuple, args: Sequence[Coeff]) -> Coeff:
    """A polynomial's value from its table row and its argument values."""
    total = 0
    for indices, c in monomials:
        for i in indices:
            c = c * args[i]
        total = total + c
    return total


def _matrix_value(entry: tuple, args: Sequence[Vector]) -> Vector:
    """An affine function's value from its argument matrices, its constant
    vector and its argument vectors."""
    mats, out = entry
    for M, v in zip(mats, args):
        out = tuple([a + sum(map(mul, row, v)) for a, row in zip(out, M)])
    return out


class PolyInterpretation:
    """Multilinear polynomial per symbol: sum over V of c_V * prod_{i in V} x_i.

    `table` maps each symbol to its nonzero (argument indices from 0,
    coefficient) pairs by monomial size, the constant first, with
    integral coefficients as ints."""

    kind = "poly"

    def __init__(self, arities: Mapping[str, int], coeffs: Mapping[str, Mapping[Any, Coeff]]):
        self.arities = dict(arities)
        self.table: dict[str, tuple] = {}
        for sym, arity in self.arities.items():
            row: dict[frozenset[int], Coeff] = {}
            for key, value in coeffs.get(sym, {}).items():
                V = _mono(key)
                if not V <= set(range(1, arity + 1)):
                    raise ValueError(f"monomial {sorted(V)} outside the arguments of {sym}/{arity}")
                if value != 0:
                    row[V] = _exact(value)
            self.table[sym] = tuple(
                (tuple(i - 1 for i in sorted(V)), row[V]) for V in sorted(row, key=_by_size)
            )

    @classmethod
    def _from_table(cls, arities: dict[str, int], table: dict[str, tuple]) -> "PolyInterpretation":
        """Wrap a table already in the stored form: every monomial within
        its symbol's arguments, every coefficient a nonzero int or Fraction."""
        interp = cls.__new__(cls)
        interp.arities, interp.table = arities, table
        return interp

    def arity(self, symbol: str) -> int:
        return self.arities[symbol]

    def symbols(self) -> list[str]:
        return sorted(self.arities)

    def validate(self) -> list[str]:
        """Nonnegative coefficients plus the monotonicity witnesses c_{i} >= 1."""
        problems: list[str] = []
        for sym in self.symbols():
            linear = {}
            for indices, c in self.table[sym]:
                if c < 0:
                    monomial = "*".join(f"x{i + 1}" for i in indices) or "the constant"
                    problems.append(f"[{sym}] has negative coefficient {c} on {monomial}")
                if len(indices) == 1:
                    linear[indices[0]] = c
            for i in range(self.arities[sym]):
                if linear.get(i, 0) < 1:
                    problems.append(
                        f"[{sym}] is not monotone in argument {i + 1}: coefficient {linear.get(i, 0)} < 1"
                    )
        return problems


class MatrixInterpretation:
    """Affine vector function per symbol: sum of C_i x_i plus a constant.

    `table` maps each symbol to its argument matrices and constant vector,
    as tuples, with integral entries as ints."""

    kind = "matrix"

    def __init__(
        self,
        arities: Mapping[str, int],
        dim: int,
        entries: Mapping[str, tuple[Sequence[Matrix], Vector]],
    ):
        if dim < 1:
            raise ValueError("matrix dimension must be at least 1")
        self.arities = dict(arities)
        self.dim = dim
        self.table: dict[str, tuple[tuple[Matrix, ...], Vector]] = {}
        for sym, arity in self.arities.items():
            mats, const = entries[sym]
            mats = tuple(tuple(tuple(map(_exact, row)) for row in M) for M in mats)
            const = tuple(map(_exact, const))
            if len(mats) != arity:
                raise ValueError(f"[{sym}] needs {arity} argument matrices, got {len(mats)}")
            for M in mats:
                if len(M) != dim or any(len(row) != dim for row in M):
                    raise ValueError(f"[{sym}] has a matrix that is not {dim}x{dim}")
            if len(const) != dim:
                raise ValueError(f"[{sym}] constant vector is not of length {dim}")
            self.table[sym] = (mats, const)

    @classmethod
    def _from_table(cls, arities: dict[str, int], dim: int, table: dict[str, tuple]) -> "MatrixInterpretation":
        """Wrap a table already in the stored form: per symbol, one dim x dim
        matrix per argument and a constant vector of length dim."""
        interp = cls.__new__(cls)
        interp.arities, interp.dim, interp.table = arities, dim, table
        return interp

    def arity(self, symbol: str) -> int:
        return self.arities[symbol]

    def symbols(self) -> list[str]:
        return sorted(self.arities)

    def validate(self) -> list[str]:
        problems: list[str] = []
        for sym in self.symbols():
            mats, const = self.table[sym]
            for i, M in enumerate(mats, start=1):
                for r, row in enumerate(M, start=1):
                    for c, value in enumerate(row, start=1):
                        if value < 0:
                            problems.append(
                                f"[{sym}] argument {i} matrix has negative entry {value} at ({r},{c})"
                            )
                if M[0][0] < 1:
                    problems.append(
                        f"[{sym}] is not monotone in argument {i}: top-left entry {M[0][0]} < 1"
                    )
            for r, value in enumerate(const, start=1):
                if value < 0:
                    problems.append(f"[{sym}] constant vector has negative entry {value} at {r}")
        return problems


Interpretation = PolyInterpretation | MatrixInterpretation


def eval_term(
    interp: Interpretation,
    term: Term,
    assignment: Mapping[str, Any],
    memo: dict[Term, Any] | None = None,
) -> Any:
    """Numeric evaluation; unassigned variables read as zero.

    Values are exact: ints where the coefficients and the assignment are
    ints, Fractions where a Fraction enters the arithmetic.

    A memo passed in collects the value of every subterm and answers later
    calls from it; reuse it only with the same interpretation and assignment.
    """
    table = interp.table
    zero: Any = 0 if interp.kind == "poly" else (0,) * interp.dim
    value = _poly_value if interp.kind == "poly" else _matrix_value

    def apply(node: App, args: list[Any]) -> Any:
        return value(_symbol_entry(table, node), args)

    return fold_term(term, lambda var: assignment.get(var.name, zero), apply, memo)


def _symbol_entry(table: Mapping[str, Any], node: App) -> Any:
    """The table entry of the node's symbol."""
    entry = table.get(node.symbol)
    if entry is None:
        raise KeyError(f"no interpretation for symbol {node.symbol!r}")
    return entry


# ---------------------------------------------------------------------------
# Rule differences over plain dicts


class Ring(NamedTuple):
    """What a coefficient of a table is, and how the values of forms
    combine. `add` and `scaled` may update their first argument, which is
    always a value the evaluator made itself."""

    zero: Any
    one: Any
    lift: Callable[[Any], Any]  # a coefficient as a value
    times: Callable[[Any, Any], Any]  # coefficient * value
    dot: Callable[[Sequence, Sequence], Any]  # sum of coefficient * value
    mul: Callable[[Any, Any], Any]  # value * value
    add: Callable[[Any, Any], Any]
    scaled: Callable[[Any, Any, int], Any]  # acc + value * k, acc None for 0


def _scaled_number(acc: Any, value: Any, k: int) -> Any:
    return value * k if acc is None else acc + value * k


NUMBERS = Ring(0, 1, lambda c: c, mul, lambda cs, vs: sum(map(mul, cs, vs)), mul, add, _scaled_number)


# A monomial times unknown p: p goes last unless a position in it is larger.


def _times_unknown(p: int, poly: dict) -> dict:
    return {(m + (p,) if not m or m[-1] <= p else tuple(sorted(m + (p,)))): c for m, c in poly.items()}


def _dot_unknowns(ps: Sequence[int], polys: Sequence[dict]) -> dict:
    out: dict = {}
    for p, poly in zip(ps, polys):
        for m, c in poly.items():
            m = m + (p,) if not m or m[-1] <= p else tuple(sorted(m + (p,)))
            out[m] = out.get(m, 0) + c
    return out


def _mul_polys(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(sorted(m1 + m2)) if m1 and m2 else m1 or m2
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _add_polys(a: dict, b: dict) -> dict:
    for m, c in b.items():
        a[m] = a.get(m, 0) + c
    return a


def _scaled_poly(acc: dict | None, poly: dict, k: int) -> dict:
    if acc is None:
        return {m: c * k for m, c in poly.items()}
    for m, c in poly.items():
        c = acc.get(m, 0) + c * k
        if c:
            acc[m] = c
        else:
            del acc[m]
    return acc


# Evaluation with unknowns has no cancellation: every unknown enters
# with coefficient 1 and is multiplied and added only, so `_mul_polys`,
# `_add_polys` and `_dot_unknowns` drop no zeros. Only the difference can
# cancel, in `_scaled_poly`.
UNKNOWNS = Ring({}, {(): 1}, lambda p: {(p,): 1}, _times_unknown, _dot_unknowns, _mul_polys, _add_polys, _scaled_poly)

_CONSTANT: frozenset[str] = frozenset()


class Differences:
    """Forms of terms and differences of rules under one coefficient table.

    A poly form maps each monomial over term variables, a frozenset of
    names, to its value; a matrix form is a grid per variable and a
    constant vector. `cap` bounds a poly monomial's degree while encoding;
    a checked certificate runs uncapped, where only squaring is fatal.
    Every distinct subterm is evaluated once per instance: a subterm whose
    evaluation raises leaves no entry.
    """

    def __init__(self, kind: str, dim: int, table: Mapping[str, Any], ring: Ring, cap: int | None = None):
        self.kind, self.dim, self.ring = kind, dim, ring
        self._memo: dict[Term, Any] = {}
        if kind == "poly":
            one = ring.one
            self._variable = lambda var: {frozenset((var.name,)): one}
            self._apply = _poly_apply(table, ring, cap)
        else:
            grid = tuple(tuple(ring.one if r == c else ring.zero for c in range(dim)) for r in range(dim))
            zeros = (ring.zero,) * dim
            self._variable = lambda var: ({var.name: grid}, zeros)
            self._apply = _matrix_apply(table, ring)

    @classmethod
    def checking(cls, interp: Interpretation) -> "Differences":
        return cls(interp.kind, getattr(interp, "dim", 1), interp.table, NUMBERS)

    def form(self, term: Term) -> Any:
        return fold_term(term, self._variable, self._apply, self._memo)

    def entries(self, rule: ProbRule) -> list[tuple[str, Any, bool]]:
        """The entries of d * [l] - (n1 * [r1] + ... + nk * [rk]) for
        l -> {n1/d: r1, ..., nk/d: rk} that absolute positiveness bounds,
        as (where, value, strict): every non-strict value must be >= 0 and
        the one strict value, the constant margin, must be > 0.

        Polynomials list their nonzero monomials by degree, the constant
        first, or last with value zero when it cancels. Matrices list each
        variable's nonzero grid row by row, then the constant vector, whose
        first component is the margin.
        """
        scaled = self.ring.scaled
        parts = [(rule.rhs.denominator, self.form(rule.lhs))]
        parts += [(-n, self.form(term)) for n, term in rule.rhs.numerators]
        if self.kind == "poly":
            diff: dict = {}
            for k, form in parts:
                for V, value in form.items():
                    diff[V] = scaled(diff.get(V), value, k)
            entries = [
                (f"coefficient of {'*'.join(sorted(V))}" if V else "constant margin", diff[V], not V)
                for V in sorted((V for V, value in diff.items() if value), key=_by_size)
            ]
            if not diff.get(_CONSTANT):
                # a fresh zero, not the one value the ring holds
                entries.append(("constant margin", scaled(None, self.ring.zero, 1), True))
            return entries
        dim = range(self.dim)
        grids: dict[str, list[list]] = {}
        vector: list = [None] * self.dim
        for k, (form_grids, form_vector) in parts:
            for name, B in form_grids.items():
                G = grids.get(name)
                if G is None:
                    G = grids[name] = [[None] * self.dim for _ in dim]
                for G_row, B_row in zip(G, B):
                    for c in dim:
                        G_row[c] = scaled(G_row[c], B_row[c], k)
            for r in dim:
                vector[r] = scaled(vector[r], form_vector[r], k)
        entries = [
            (f"coefficient of {name} at entry ({r},{c})", value, False)
            for name in sorted(grids)
            if any(value for row in grids[name] for value in row)
            for r, row in enumerate(grids[name], start=1)
            for c, value in enumerate(row, start=1)
        ]
        for r, value in enumerate(vector, start=1):
            where = "first-component margin" if r == 1 else f"constant difference at component {r}"
            entries.append((where, value, r == 1))
        return entries


def _poly_apply(table: Mapping[str, Any], ring: Ring, cap: int | None) -> Callable[[App, list], dict]:
    lift, times, mul, add = ring.lift, ring.times, ring.mul, ring.add

    def product(f: dict, g: dict) -> dict:
        out: dict = {}
        for V1, c1 in f.items():
            for V2, c2 in g.items():
                if not V1.isdisjoint(V2):
                    raise DegreeOverflow(
                        f"variable {min(V1 & V2)} would be squared; multilinear forms cannot express it"
                    )
                V = V1 | V2
                if cap is not None and len(V) > cap:
                    raise DegreeOverflow(f"monomial {'*'.join(sorted(V))} exceeds the degree cap {cap}")
                value = mul(c1, c2)
                old = out.get(V)
                out[V] = value if old is None else add(old, value)
        # only the negative coefficients of an unchecked interpretation cancel
        return {V: value for V, value in out.items() if value}

    def apply(node: App, args: list) -> dict:
        total: dict = {}
        for indices, coefficient in _symbol_entry(table, node):
            if not indices:
                total[_CONSTANT] = lift(coefficient)
                continue
            form = args[indices[0]]
            for i in indices[1:]:
                form = product(form, args[i])
            for V, value in form.items():
                value = times(coefficient, value)
                old = total.get(V)
                if old is not None:
                    value = add(old, value)
                    if not value:
                        del total[V]
                        continue
                total[V] = value
        return total

    return apply


def _matrix_apply(table: Mapping[str, Any], ring: Ring) -> Callable[[App, list], tuple]:
    lift, dot, add = ring.lift, ring.dot, ring.add

    def apply(node: App, args: list) -> tuple:
        mats, const = _symbol_entry(table, node)
        grids: dict = {}
        vector = [lift(c) for c in const]
        for M, (arg_grids, arg_vector) in zip(mats, args):
            for name, B in arg_grids.items():
                columns = tuple(zip(*B))
                grid = [[dot(row, column) for column in columns] for row in M]
                old = grids.get(name)
                if old is not None:
                    grid = [[add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(old, grid)]
                grids[name] = grid
            vector = [add(a, dot(row, arg_vector)) for a, row in zip(vector, M)]
        return grids, vector

    return apply


def _margin(entries: list[tuple[str, Any, bool]], d: int) -> Fraction:
    """The margin of a difference taken d > 0 times, or NotOriented with
    the first offending entry; each value reported is divided back by d."""
    for where, value, strict in entries:
        if not strict and value < 0:
            raise NotOriented(f"{where} is {Fraction(value, d)}, negative")
    [(where, margin)] = [(where, value) for where, value, strict in entries if strict]
    if margin <= 0:
        raise NotOriented(f"{where} is {Fraction(margin, d)}, not strictly positive")
    return Fraction(margin, d)


class Certificate(NamedTuple):
    interpretation: Interpretation
    margins: tuple[Fraction, ...]
    epsilon: Fraction

    @property
    def kind(self) -> str:
        return self.interpretation.kind


def check_certificate(interp: Interpretation, system: PTRS) -> Certificate:
    """Exact validation; collects every problem before rejecting."""
    if not system.rules:
        raise ValueError("system has no rules")
    problems: list[str] = []
    declared = system.signature.symbols()
    for sym, arity in sorted(declared.items()):
        if sym not in interp.arities:
            problems.append(f"no interpretation for symbol {sym}")
        elif interp.arities[sym] != arity:
            problems.append(
                f"[{sym}] interprets arity {interp.arities[sym]}, signature says {arity}"
            )
    if not problems:
        problems.extend(interp.validate())
    margins: list[Fraction] = []
    if not problems:
        # one evaluator for all the rules; the Certificate keeps `interp` as given
        differences = Differences.checking(interp)
        for index, rule in enumerate(system.rules, start=1):
            try:
                margins.append(_margin(differences.entries(rule), rule.rhs.denominator))
            except NotOriented as reason:
                problems.append(f"rule {index} ({rule}) is not oriented: {reason}")
            except DegreeOverflow as reason:
                problems.append(f"rule {index} ({rule}): {reason}")
    if problems:
        raise CertificateInvalid(problems)
    return Certificate(interp, tuple(margins), min(margins))


def ranking_from_certificate(
    cert: Certificate,
) -> tuple[Callable[[Term], int | Fraction], Fraction]:
    """The ranking function induced by a checked certificate.

    Terms evaluate at the zero assignment; matrix values collapse to their
    first component. Along any reduction step the expected rank drops by at
    least epsilon times the surviving mass.

    Ranks are exact: a rank is an int when every coefficient its
    evaluation uses is an integer, else a Fraction.
    Epsilon is always a Fraction (a certificate built in code may hold an
    int margin), so a rank divided by it is a Fraction, never a float.

    A rank is `eval_term` at the empty assignment over a memo the rank
    function holds, so a reduct that shares most of its structure with
    terms ranked before costs only its new spine, and a term ranked before
    costs one lookup.
    """
    interp = cert.interpretation
    values: dict[Term, Any] = {}
    lookup = values.get
    first_component = interp.kind == "matrix"

    def rank(term: Term) -> int | Fraction:
        value = lookup(term)
        if value is None:
            value = eval_term(interp, term, {}, values)
        return value[0] if first_component else value

    return rank, Fraction(cert.epsilon)
