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

Symbolic evaluation is generic in the coefficient type: exact Fractions for
checking concrete certificates, polynomials in solver unknowns for encoding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .rewriting import PTRS, ProbRule
from .terms import App, Term, Var, fold_term

Coeff = Any  # Fraction | int | smt.Poly, via duck typing


class DegreeOverflow(ArithmeticError):
    """Symbolic evaluation left the representable multilinear fragment."""


class NotOriented(Exception):
    """The rule's difference polynomial is not absolutely positive."""


class CertificateInvalid(Exception):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def _is_zero(c: Coeff) -> bool:
    if hasattr(c, "is_zero"):
        return c.is_zero()
    return c == 0


def _mono(key: Any) -> frozenset[int]:
    if isinstance(key, int):
        return frozenset((key,))
    return frozenset(key)


class PolyInterpretation:
    """Multilinear polynomial per symbol: sum over V of c_V * prod_{i in V} x_i."""

    kind = "poly"

    def __init__(self, arities: Mapping[str, int], coeffs: Mapping[str, Mapping[Any, Coeff]]):
        self.arities = dict(arities)
        table: dict[str, dict[frozenset[int], Coeff]] = {}
        for sym, arity in self.arities.items():
            row: dict[frozenset[int], Coeff] = {}
            for key, value in coeffs.get(sym, {}).items():
                V = _mono(key)
                if not V <= set(range(1, arity + 1)):
                    raise ValueError(f"monomial {sorted(V)} outside the arguments of {sym}/{arity}")
                if not _is_zero(value):
                    row[V] = value
            table[sym] = row
        self.coeffs = table

    def arity(self, symbol: str) -> int:
        return self.arities[symbol]

    def symbols(self) -> list[str]:
        return sorted(self.arities)

    def coefficient(self, symbol: str, key: Any) -> Coeff:
        return self.coeffs[symbol].get(_mono(key), Fraction(0))

    def apply_values(self, symbol: str, args: Sequence[Coeff]) -> Coeff:
        total = 0
        for V, c in self.coeffs[symbol].items():
            prod = c
            for i in V:
                prod = prod * args[i - 1]
            total = total + prod
        return total

    def apply_form(self, symbol: str, args: Sequence["PolyForm"], cap: int | None) -> "PolyForm":
        total = PolyForm.constant(self.coeffs[symbol].get(frozenset(), 0), cap)
        for V, c in sorted(self.coeffs[symbol].items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
            if not V:
                continue
            prod: PolyForm | None = None
            for i in sorted(V):
                prod = args[i - 1] if prod is None else prod.mul(args[i - 1])
            total = total.add(prod.scale(c))
        return total

    def validate(self) -> list[str]:
        """Nonnegative coefficients plus the monotonicity witnesses c_{i} >= 1."""
        problems: list[str] = []
        for sym in self.symbols():
            for V, c in sorted(self.coeffs[sym].items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
                if c < 0:
                    problems.append(f"[{sym}] has negative coefficient {c} on {_mono_name(V)}")
            for i in range(1, self.arities[sym] + 1):
                if self.coefficient(sym, (i,)) < 1:
                    problems.append(
                        f"[{sym}] is not monotone in argument {i}: "
                        f"coefficient {self.coefficient(sym, (i,))} < 1"
                    )
        return problems


def _mono_name(V: frozenset[int]) -> str:
    if not V:
        return "the constant"
    return "*".join(f"x{i}" for i in sorted(V))


Matrix = tuple[tuple[Coeff, ...], ...]
Vector = tuple[Coeff, ...]


def _dot(u: Sequence[Coeff], v: Sequence[Coeff]) -> Coeff:
    """The sum of the products, started from the first one, so no sum
    begins at the int 0 (a `Poly` would have to absorb it)."""
    total = u[0] * v[0]
    for j in range(1, len(v)):
        total = total + u[j] * v[j]
    return total


def _mat_vec(M: Matrix, v: Vector) -> Vector:
    return tuple(_dot(row, v) for row in M)


def _mat_mat(A: Matrix, B: Matrix) -> Matrix:
    columns = tuple(zip(*B))
    return tuple(tuple(_dot(row, column) for column in columns) for row in A)


def _mat_add(A: Matrix, B: Matrix) -> Matrix:
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def _vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def _scale_mat(c: Coeff, M: Matrix) -> Matrix:
    return tuple(tuple(c * e for e in row) for row in M)


def _scale_vec(c: Coeff, v: Vector) -> Vector:
    return tuple(c * e for e in v)


def _zero_mat(dim: int) -> Matrix:
    return tuple((0,) * dim for _ in range(dim))


class MatrixInterpretation:
    """Affine vector function per symbol: sum of C_i x_i plus a constant."""

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
        table: dict[str, tuple[tuple[Matrix, ...], Vector]] = {}
        for sym, arity in self.arities.items():
            mats, const = entries[sym]
            mats = tuple(tuple(tuple(row) for row in M) for M in mats)
            const = tuple(const)
            if len(mats) != arity:
                raise ValueError(f"[{sym}] needs {arity} argument matrices, got {len(mats)}")
            for M in mats:
                if len(M) != dim or any(len(row) != dim for row in M):
                    raise ValueError(f"[{sym}] has a matrix that is not {dim}x{dim}")
            if len(const) != dim:
                raise ValueError(f"[{sym}] constant vector is not of length {dim}")
            table[sym] = (mats, const)
        self.entries = table

    def arity(self, symbol: str) -> int:
        return self.arities[symbol]

    def symbols(self) -> list[str]:
        return sorted(self.arities)

    def matrices(self, symbol: str) -> tuple[Matrix, ...]:
        return self.entries[symbol][0]

    def constant(self, symbol: str) -> Vector:
        return self.entries[symbol][1]

    def apply_values(self, symbol: str, args: Sequence[Vector]) -> Vector:
        mats, const = self.entries[symbol]
        out = const
        for M, v in zip(mats, args):
            out = _vec_add(out, _mat_vec(M, v))
        return out

    def apply_form(self, symbol: str, args: Sequence["VecForm"], cap: int | None) -> "VecForm":
        mats, const = self.entries[symbol]
        out = VecForm({}, const, self.dim)
        for M, form in zip(mats, args):
            coeffs = {v: _mat_mat(M, B) for v, B in form.coeffs.items()}
            out = out.add(VecForm(coeffs, _mat_vec(M, form.const), self.dim))
        return out

    def validate(self) -> list[str]:
        problems: list[str] = []
        for sym in self.symbols():
            mats, const = self.entries[sym]
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


class PolyForm:
    """Multilinear polynomial in term variables; coefficients stay generic."""

    __slots__ = ("coeffs", "cap")

    def __init__(self, coeffs: Mapping[frozenset[str], Coeff], cap: int | None):
        self.coeffs = {V: c for V, c in coeffs.items() if not _is_zero(c)}
        self.cap = cap

    @classmethod
    def constant(cls, c: Coeff, cap: int | None) -> "PolyForm":
        return cls({frozenset(): c}, cap)

    @classmethod
    def variable(cls, name: str, cap: int | None) -> "PolyForm":
        return cls({frozenset((name,)): 1}, cap)

    def add(self, other: "PolyForm") -> "PolyForm":
        out = dict(self.coeffs)
        for V, c in other.coeffs.items():
            out[V] = out.get(V, 0) + c
        return PolyForm(out, self.cap)

    def sub(self, other: "PolyForm") -> "PolyForm":
        out = dict(self.coeffs)
        for V, c in other.coeffs.items():
            out[V] = out.get(V, 0) - c
        return PolyForm(out, self.cap)

    def scale(self, c: Coeff) -> "PolyForm":
        return PolyForm({V: c * value for V, value in self.coeffs.items()}, self.cap)

    def mul(self, other: "PolyForm") -> "PolyForm":
        out: dict[frozenset[str], Coeff] = {}
        for V1, c1 in self.coeffs.items():
            for V2, c2 in other.coeffs.items():
                if V1 & V2:
                    squared = sorted(V1 & V2)[0]
                    raise DegreeOverflow(
                        f"variable {squared} would be squared; multilinear forms cannot express it"
                    )
                V = V1 | V2
                if self.cap is not None and len(V) > self.cap:
                    raise DegreeOverflow(
                        f"monomial {'*'.join(sorted(V))} exceeds the degree cap {self.cap}"
                    )
                out[V] = out.get(V, 0) + c1 * c2
        return PolyForm(out, self.cap)

    def coefficient(self, V: frozenset[str]) -> Coeff:
        return self.coeffs.get(V, Fraction(0))

    def monomials(self) -> list[frozenset[str]]:
        return sorted(self.coeffs, key=lambda V: (len(V), sorted(V)))


class VecForm:
    """Affine form over vector-valued term variables."""

    __slots__ = ("coeffs", "const", "dim")

    def __init__(self, coeffs: Mapping[str, Matrix], const: Vector, dim: int):
        self.coeffs = {v: M for v, M in coeffs.items() if any(not _is_zero(e) for row in M for e in row)}
        self.const = tuple(const)
        self.dim = dim

    @classmethod
    def variable(cls, name: str, dim: int) -> "VecForm":
        identity = tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
        return cls({name: identity}, (0,) * dim, dim)

    def add(self, other: "VecForm") -> "VecForm":
        out = dict(self.coeffs)
        for v, M in other.coeffs.items():
            out[v] = _mat_add(out[v], M) if v in out else M
        return VecForm(out, _vec_add(self.const, other.const), self.dim)

    def sub(self, other: "VecForm") -> "VecForm":
        return self.add(other.scale(-1))

    def scale(self, c: Coeff) -> "VecForm":
        return VecForm(
            {v: _scale_mat(c, M) for v, M in self.coeffs.items()},
            _scale_vec(c, self.const),
            self.dim,
        )

    def matrix(self, name: str) -> Matrix:
        return self.coeffs.get(name, _zero_mat(self.dim))

    def variables(self) -> list[str]:
        return sorted(self.coeffs)


Form = PolyForm | VecForm


def symbolic_eval(
    interp: Interpretation,
    term: Term,
    cap: int | None = None,
    memo: dict[Term, Form] | None = None,
) -> Form:
    """Interpret a term as a form over its variables.

    The cap bounds monomial degree during encoding; checking concrete
    certificates runs uncapped (only squaring is fatal there).

    A memo passed in collects the form of every subterm and answers later
    calls from it; reuse it only with the same interpretation and cap. A
    subterm whose evaluation raises leaves no entry.
    """

    def variable(var: Var) -> Form:
        if interp.kind == "poly":
            return PolyForm.variable(var.name, cap)
        return VecForm.variable(var.name, interp.dim)

    def apply(node: App, args: list[Form]) -> Form:
        return interp.apply_form(_interpreted_symbol(interp, node), args, cap)

    return fold_term(term, variable, apply, memo)


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
    zero: Any = 0 if interp.kind == "poly" else (0,) * interp.dim

    def apply(node: App, args: list[Any]) -> Any:
        return interp.apply_values(_interpreted_symbol(interp, node), args)

    return fold_term(term, lambda var: assignment.get(var.name, zero), apply, memo)


def _interpreted_symbol(interp: Interpretation, node: App) -> str:
    if node.symbol not in interp.arities:
        raise KeyError(f"no interpretation for symbol {node.symbol!r}")
    return node.symbol


def weighted_difference(
    interp: Interpretation, rule: ProbRule, memo: dict[Term, Form], cap: int | None = None
) -> Form:
    """d * [l] - (n1 * [r1] + ... + nk * [rk]) for l -> {n1/d: r1, ..., nk/d: rk}:
    the interpretation of the left-hand side minus the expected
    interpretation of the right-hand side, in the rule's integer weights.

    Every term is read through `symbolic_eval` with the caller's memo, so
    the rules of one system evaluate each distinct subterm once.
    """
    diff = symbolic_eval(interp, rule.lhs, cap, memo).scale(rule.rhs.denominator)
    for n, term in rule.rhs.numerators:
        diff = diff.sub(symbolic_eval(interp, term, cap, memo).scale(n))
    return diff


def orientation_entries(diff: Form) -> list[tuple[str, Coeff, bool]]:
    """The entries of a rule difference that absolute positiveness bounds,
    as (where, value, strict): every non-strict value must be >= 0 and the
    one strict value, the constant margin, must be > 0.

    Polynomials list their monomials by degree, the constant first, or last
    with value 0 when the difference has none. Matrices list each variable's
    matrix row by row, then the constant vector, whose first component is
    the margin. The encoder and the checker both read this list.
    """
    if isinstance(diff, PolyForm):
        entries = [
            (f"coefficient of {'*'.join(sorted(V))}" if V else "constant margin", diff.coeffs[V], not V)
            for V in diff.monomials()
        ]
        if frozenset() not in diff.coeffs:
            entries.append(("constant margin", 0, True))
        return entries
    entries = [
        (f"coefficient of {name} at entry ({r},{c})", value, False)
        for name in diff.variables()
        for r, row in enumerate(diff.matrix(name), start=1)
        for c, value in enumerate(row, start=1)
    ]
    for r, value in enumerate(diff.const, start=1):
        where = "first-component margin" if r == 1 else f"constant difference at component {r}"
        entries.append((where, value, r == 1))
    return entries


def orientation_margin(
    interp: Interpretation, rule: ProbRule, memo: dict[Term, Form] | None = None
) -> Fraction:
    """The rule's constant margin, or NotOriented with the offending entry.

    Soundness rests on absolute positiveness: every non-constant coefficient
    of the difference is nonnegative, so the difference is minimized at the
    zero assignment, where it equals the returned constant.

    The signs are read off `weighted_difference`, which is the difference
    times the rule's denominator d > 0; each value reported is divided back
    by d. `memo` is passed on to it.
    """
    d = rule.rhs.denominator
    entries = orientation_entries(weighted_difference(interp, rule, {} if memo is None else memo))
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
        # integral coefficients as ints and one memo for all the rules: the
        # values are the same, and the Certificate keeps `interp` as given
        exact = _int_coefficients(interp)
        memo: dict[Term, Form] = {}
        for index, rule in enumerate(system.rules, start=1):
            try:
                margins.append(orientation_margin(exact, rule, memo))
            except NotOriented as reason:
                problems.append(f"rule {index} ({rule}) is not oriented: {reason}")
            except DegreeOverflow as reason:
                problems.append(f"rule {index} ({rule}): {reason}")
    if problems:
        raise CertificateInvalid(problems)
    return Certificate(interp, tuple(margins), min(margins))


def _int_coefficients(interp: Interpretation) -> Interpretation:
    """A copy of a concrete interpretation in which every integral
    coefficient is an int; the others stay Fractions.

    Integer arithmetic is exact and much cheaper than Fraction arithmetic,
    so values of terms under an all-integer interpretation stay ints.
    """

    def exact(c: Coeff) -> Coeff:
        return c.numerator if c.denominator == 1 else c

    if interp.kind == "poly":
        return PolyInterpretation(
            interp.arities,
            {sym: {V: exact(c) for V, c in row.items()} for sym, row in interp.coeffs.items()},
        )
    return MatrixInterpretation(
        interp.arities,
        interp.dim,
        {
            sym: ([[[exact(c) for c in row] for row in M] for M in mats], [exact(c) for c in const])
            for sym, (mats, const) in interp.entries.items()
        },
    )


def ranking_from_certificate(
    cert: Certificate,
) -> tuple[Callable[[Term], int | Fraction], Fraction]:
    """The ranking function induced by a checked certificate.

    Terms evaluate at the zero assignment; matrix values collapse to their
    first component. Along any reduction step the expected rank drops by at
    least epsilon times the surviving mass.

    Ranks are exact: a rank is an int when every coefficient its
    evaluation uses is an integer, else a Fraction. Epsilon is always a
    Fraction (a certificate built in code may hold an int margin), so a
    rank divided by it is a Fraction, never a float.

    Each returned rank function remembers the value of every subterm it has
    evaluated, so reducts that share most of their structure with terms
    ranked before cost only their new spine, and a term ranked before costs
    one lookup.
    """
    interp = _int_coefficients(cert.interpretation)
    first_component = interp.kind == "matrix"
    values: dict[Term, Any] = {}

    def rank(term: Term) -> int | Fraction:
        value = values.get(term)
        if value is None:
            value = eval_term(interp, term, {}, values)
        return value[0] if first_component else value

    return rank, Fraction(cert.epsilon)
