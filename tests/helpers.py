"""Shared oracles and random generators for the test suite.

Everything here is deliberately independent of the package's symbolic
machinery: expectations are computed by direct enumeration and linear
systems are solved directly, so these values can confront the production
code paths.
"""

from __future__ import annotations

import functools
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iter_product
from math import gcd, lcm, prod
from typing import Any, Hashable, Iterable, Iterator, Sequence

from ptrs.boxsolver import narrow
from ptrs.interpretations import (
    Coeff,
    DegreeOverflow,
    Differences,
    Interpretation,
    Matrix,
    MatrixInterpretation,
    PolyInterpretation,
    Vector,
    _margin,
    check_certificate,
    eval_term,
    ranking_from_certificate,
)
from ptrs.multidist import (
    FiniteDistribution,
    InvalidWeights,
    MultiDistribution,
    Rational,
    T,
    as_fraction,
    canonical_order,
    display_key,
    expected_value,
)
from ptrs.prover import ProverConfig, ShapeOutcome, Verdict, prove, verdict_json
from ptrs.rewriting import (
    PTRS,
    BudgetTracker,
    Pars,
    ProbRule,
    RuleError,
    TermPars,
    all_steps,
    random_chooser,
    random_term,
    step_multidist,
)
from ptrs import rewriting
from ptrs.simulator import (
    MODES,
    DriftReport,
    DriftViolation,
    RunConfig,
    RunReport,
    collapsed,
)
from ptrs.smt import ConstraintSet, Shape, decode, encode, in_process_limit, solve_box
from ptrs.terms import App, Position, Signature, Term, Var, fold_term, variables
from ptrs.wst import ElaborationError, ParseError, ProblemFile, RawRule, Token, tokenize

BOXSOLVER = f"{sys.executable} -m ptrs.boxsolver"  # the shipped box solver, run in process


# Symbolic evaluation as the package did it before it computed rule
# differences over plain dicts (`interpretations.Differences`): generic
# coefficients (Fractions, or polynomials over the unknowns) in `PolyForm`
# and `VecForm` objects, built and filtered at every node, read off a
# template interpretation laid out by callback. It shares no arithmetic
# with the package, and is the oracle of the differential tests of
# `smt.encode` and `check_certificate`.


def _is_zero(c: Coeff) -> bool:
    if hasattr(c, "is_zero"):
        return c.is_zero()
    return c == 0


def _dot(u: Sequence[Coeff], v: Sequence[Coeff]) -> Coeff:
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


class PolyForm:
    """Multilinear polynomial in term variables; coefficients stay generic."""

    __slots__ = ("coeffs", "cap")

    def __init__(self, coeffs, cap: int | None):
        self.coeffs = {V: c for V, c in coeffs.items() if not _is_zero(c)}
        self.cap = cap

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
        out: dict = {}
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

    def __init__(self, coeffs, const: Vector, dim: int):
        self.coeffs = {v: M for v, M in coeffs.items() if any(not _is_zero(e) for row in M for e in row)}
        self.const = tuple(const)
        self.dim = dim

    def add(self, other: "VecForm") -> "VecForm":
        out = dict(self.coeffs)
        for v, M in other.coeffs.items():
            out[v] = _mat_add(out[v], M) if v in out else M
        return VecForm(out, _vec_add(self.const, other.const), self.dim)

    def sub(self, other: "VecForm") -> "VecForm":
        return self.add(other.scale(-1))

    def scale(self, c: Coeff) -> "VecForm":
        return VecForm(
            {v: tuple(tuple(c * e for e in row) for row in M) for v, M in self.coeffs.items()},
            tuple(c * e for e in self.const),
            self.dim,
        )

    def matrix(self, name: str) -> Matrix:
        return self.coeffs.get(name, tuple((0,) * self.dim for _ in range(self.dim)))

    def variables(self) -> list[str]:
        return sorted(self.coeffs)


Form = PolyForm | VecForm


def coefficients(interp: Interpretation) -> dict:
    """The coefficients of `interp` as the tests read them: per symbol, a
    polynomial's {frozenset of argument numbers from 1: coefficient}, or a
    matrix interpretation's (argument matrices, constant vector)."""
    if interp.kind == "poly":
        return {
            sym: {frozenset(i + 1 for i in indices): c for indices, c in row}
            for sym, row in interp.table.items()
        }
    return dict(interp.table)


def apply_form(interp: Interpretation, row: Any, args: Sequence[Form], cap: int | None) -> Form:
    """The form of one symbol's application, from its `coefficients` row."""
    if interp.kind == "poly":
        total = PolyForm({frozenset(): row.get(frozenset(), 0)}, cap)
        for V, c in sorted(row.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
            if not V:
                continue
            prod: PolyForm | None = None
            for i in sorted(V):
                prod = args[i - 1] if prod is None else prod.mul(args[i - 1])
            total = total.add(prod.scale(c))
        return total
    mats, const = row
    out = VecForm({}, const, interp.dim)
    for M, form in zip(mats, args):
        coeffs = {v: _mat_mat(M, B) for v, B in form.coeffs.items()}
        out = out.add(VecForm(coeffs, _mat_vec(M, form.const), interp.dim))
    return out


def symbolic_eval(interp: Interpretation, term: Term, cap: int | None = None) -> Form:
    """A term as a form over its variables; the cap bounds monomial degree."""
    rows = coefficients(interp)

    def variable(var: Var) -> Form:
        if interp.kind == "poly":
            return PolyForm({frozenset((var.name,)): 1}, cap)
        identity = tuple(tuple(1 if i == j else 0 for j in range(interp.dim)) for i in range(interp.dim))
        return VecForm({var.name: identity}, (0,) * interp.dim, interp.dim)

    def apply(node: App, args: list[Form]) -> Form:
        if node.symbol not in interp.arities:
            raise KeyError(f"no interpretation for symbol {node.symbol!r}")
        return apply_form(interp, rows[node.symbol], args, cap)

    return fold_term(term, variable, apply)


def oracle_rank(interp: Interpretation, term: Term) -> Coeff:
    """A term's rank read off its oracle form: the value at the zero
    assignment, which is the constant (a matrix form's first constant
    entry). A ground term never raises DegreeOverflow here."""
    form = symbolic_eval(interp, term)
    return form.coefficient(frozenset()) if interp.kind == "poly" else form.const[0]


def apply_symbol(interp: Interpretation, symbol: str, args: Sequence[Any]) -> Any:
    """[symbol](args) through eval_term: the symbol applied to one variable
    per argument, each assigned its value."""
    names = [f"x{i}" for i in range(1, len(args) + 1)]
    return eval_term(interp, App(symbol, tuple(map(Var, names))), dict(zip(names, args)))


def reference_fold(term: Term, on_var, on_app, memo: dict | None = None) -> Any:
    """fold_term's contract as plain recursion: arguments left to right,
    every distinct subterm once, a memo shared across calls. For shallow
    terms only; the oracle of the fold's call order."""
    values = {} if memo is None else memo
    if term not in values:
        if term.__class__ is Var:
            values[term] = on_var(term)
        else:
            args = [reference_fold(a, on_var, on_app, values) for a in term.args]
            values[term] = on_app(term, args)
    return values[term]


def orientation_entries(diff: Form) -> list[tuple[str, Coeff, bool]]:
    """The entries of a rule difference that absolute positiveness bounds,
    as (where, value, strict), in the order the package lists them."""
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


def template(system: PTRS, shape: Shape, coefficient) -> Interpretation:
    """The shape's interpretation of every symbol, taking each coefficient
    from `coefficient(name, lo)` with `lo` its lower bound. The calls come
    in declaration order: symbols by name, then a polynomial's monomials by
    size, or a matrix's argument matrices row by row and its constant."""
    symbols = sorted(system.signature.symbols().items())
    n = shape.param
    # the table is built here, as `smt.decode` builds its own, since the
    # constructors take numbers only
    table: dict = {}
    if shape.kind == "poly":
        for index, (sym, arity) in enumerate(symbols):
            row = []
            subsets = [()] + [V for size in range(1, n + 1) for V in combinations(range(1, arity + 1), size)]
            for V in subsets:
                tag = "k" if not V else "_".join(str(i) for i in V)
                c = coefficient(f"c{index}_{tag}", 1 if len(V) == 1 else 0)
                if not _is_zero(c):
                    row.append((tuple(i - 1 for i in V), c))
            table[sym] = tuple(row)
        return PolyInterpretation._from_table(dict(symbols), table)
    for index, (sym, arity) in enumerate(symbols):
        mats = tuple(
            tuple(tuple(coefficient(f"m{index}_a{arg}_{r}_{c}", 1 if r == c == 1 else 0) for c in range(1, n + 1))
                  for r in range(1, n + 1))
            for arg in range(1, arity + 1)
        )
        table[sym] = (mats, tuple(coefficient(f"m{index}_k_{r}", 0) for r in range(1, n + 1)))
    return MatrixInterpretation._from_table(dict(symbols), n, table)


def rule_difference(interp: Interpretation, rule: ProbRule, cap: int | None = None) -> Form:
    """Interpretation of the left-hand side minus the expected interpretation
    of the right-hand side: each term evaluated afresh, each scaled by its
    Fraction probability."""
    lhs = symbolic_eval(interp, rule.lhs, cap)
    expected: Form | None = None
    for term, p in items(rule.rhs):
        part = symbolic_eval(interp, term, cap).scale(p)
        expected = part if expected is None else expected.add(part)
    return lhs.sub(expected)


def orientation_margin(interp: Interpretation, rule: ProbRule) -> Fraction:
    """The rule's constant margin, or NotOriented with the offending entry.

    Soundness rests on absolute positiveness: every non-constant coefficient
    of the difference is nonnegative, so the difference is minimized at the
    zero assignment, where it equals the returned constant.

    The signs are read off the difference times the rule's denominator
    d > 0 (`Differences.entries`); each value reported is divided back by d.
    """
    return _margin(Differences.checking(interp).entries(rule), rule.rhs.denominator)


def reference_orientation(interp: Interpretation, system: PTRS) -> list[Fraction | str]:
    """Per rule, in rule order, the margin `check_certificate` reports or
    its problem string, from `rule_difference` on `interp` as given: a fresh
    evaluation of every term and Fraction arithmetic throughout."""
    out: list[Fraction | str] = []
    for index, rule in enumerate(system.rules, start=1):
        try:
            entries = orientation_entries(rule_difference(interp, rule))
        except DegreeOverflow as reason:
            out.append(f"rule {index} ({rule}): {reason}")
            continue
        negative = [(where, value) for where, value, strict in entries if not strict and value < 0]
        [(where, margin)] = [(where, value) for where, value, strict in entries if strict]
        if negative:
            out.append(f"rule {index} ({rule}) is not oriented: {negative[0][0]} is {negative[0][1]}, negative")
        elif margin <= 0:
            out.append(f"rule {index} ({rule}) is not oriented: {where} is {margin}, not strictly positive")
        else:
            out.append(Fraction(margin))
    return out


def rand_fraction(rng: random.Random, max_num: int = 8, max_den: int = 4) -> Fraction:
    return Fraction(rng.randrange(0, max_num + 1), rng.randrange(1, max_den + 1))


def rand_poly_interp(
    rng: random.Random, arities: dict[str, int], degree: int, max_den: int = 4
) -> PolyInterpretation:
    coeffs = {}
    for sym, arity in arities.items():
        row = {frozenset(): rand_fraction(rng, max_den=max_den)}
        for i in range(1, arity + 1):
            row[frozenset((i,))] = 1 + rand_fraction(rng, max_den=max_den)  # monotone witness
        for size in range(2, degree + 1):
            for V in combinations(range(1, arity + 1), size):
                if rng.random() < 0.5:
                    row[frozenset(V)] = rand_fraction(rng, max_den=max_den)
        coeffs[sym] = row
    return PolyInterpretation(arities, coeffs)


def rand_matrix_interp(
    rng: random.Random, arities: dict[str, int], dim: int, max_den: int = 4
) -> MatrixInterpretation:
    entries = {}
    for sym, arity in arities.items():
        mats = []
        for _ in range(arity):
            M = [[rand_fraction(rng, max_den=max_den) for _ in range(dim)] for _ in range(dim)]
            M[0][0] = 1 + rand_fraction(rng, max_den=max_den)  # monotone witness
            mats.append(tuple(tuple(row) for row in M))
        const = tuple(rand_fraction(rng, max_den=max_den) for _ in range(dim))
        entries[sym] = (tuple(mats), const)
    return MatrixInterpretation(arities, dim, entries)


def rand_value_distribution(rng: random.Random, values: list) -> FiniteDistribution:
    """Random distribution over a few of the given (hashable) values."""
    support = rng.sample(values, k=min(len(values), rng.randrange(1, 4)))
    cuts = sorted(rng.randrange(1, 16) for _ in range(len(support) - 1))
    weights = []
    last = 0
    for cut in cuts + [16]:
        weights.append(Fraction(cut - last, 16))
        last = cut
    pairs = [(v, w) for v, w in zip(support, weights) if w > 0]
    return FiniteDistribution(pairs)


def poly_form_value(form: dict, assignment: dict[str, Fraction]) -> Fraction:
    """Evaluate a poly form of `interpretations.Differences` numerically,
    independent of eval_term."""
    total = Fraction(0)
    for V, c in form.items():
        value = Fraction(c)
        for name in V:
            value *= assignment[name]
        total += value
    return total


def vec_form_value(form: tuple, assignment: dict[str, tuple[Fraction, ...]]) -> tuple[Fraction, ...]:
    grids, vector = form
    out = [Fraction(v) for v in vector]
    for name, M in grids.items():
        vec = assignment[name]
        for r in range(len(out)):
            out[r] += sum(Fraction(M[r][j]) * vec[j] for j in range(len(out)))
    return tuple(out)


def dp_random_walk(p: Fraction, start: int, steps: int) -> list[dict[int, Fraction]]:
    """Collapsed state distributions of the biased walk, by direct iteration.

    Position 0 is absorbing and leaves the system (mass drops)."""
    states = [{start: Fraction(1)}]
    current = {start: Fraction(1)}
    for _ in range(steps):
        nxt: dict[int, Fraction] = {}
        for n, mass in current.items():
            if n == 0:
                continue  # terminal: entry vanishes
            nxt[n - 1] = nxt.get(n - 1, Fraction(0)) + mass * p
            nxt[n + 1] = nxt.get(n + 1, Fraction(0)) + mass * (1 - p)
        current = {k: v for k, v in nxt.items() if v > 0}
        states.append(dict(current))
    return states


def walk_masses(p: Fraction, start: int, steps: int) -> list[Fraction]:
    return [sum(d.values(), Fraction(0)) for d in dp_random_walk(p, start, steps)]


def walk_partial_edl(p: Fraction, start: int, steps: int) -> list[Fraction]:
    masses = walk_masses(p, start, steps)
    out = [Fraction(0)]
    for m in masses[1:]:
        out.append(out[-1] + m)
    return out


def hitting_times_truncated(p: Fraction, height: int) -> list[Fraction]:
    """Expected steps to absorption for the walk on 0..height with both ends
    absorbing: E_0 = E_height = 0, E_n = 1 + p E_{n-1} + (1-p) E_{n+1}.

    Solved exactly with the tridiagonal (Thomas) algorithm; index n in the
    returned list is the state."""
    size = height - 1  # unknowns E_1 .. E_{height-1}
    q = 1 - p
    # Row n: -p E_{n-1} + E_n - q E_{n+1} = 1
    sub = [-p] * size
    diag = [Fraction(1)] * size
    sup = [-q] * size
    rhs = [Fraction(1)] * size
    for i in range(1, size):
        factor = sub[i] / diag[i - 1]
        diag[i] -= factor * sup[i - 1]
        rhs[i] -= factor * rhs[i - 1]
    sol = [Fraction(0)] * size
    sol[-1] = rhs[-1] / diag[-1]
    for i in range(size - 2, -1, -1):
        sol[i] = (rhs[i] - sup[i] * sol[i + 1]) / diag[i]
    return [Fraction(0)] + sol + [Fraction(0)]


RANDOM_SIGNATURE = Signature({"f": 2, "g": 1, "s": 1, "a": 0, "0": 0})


def random_ptrs(rng, signature: Signature = RANDOM_SIGNATURE):
    """A small PTRS, by default over f/2, g/1, s/1, a/0 and 0/0; right-hand
    sides reuse left-hand variables, sometimes twice, so instantiation can
    merge them."""
    rules = []
    wanted = rng.randint(1, 4)
    while len(rules) < wanted:
        lhs = random_term(signature, rng, max_depth=3)
        if isinstance(lhs, Var):
            continue
        pool = sorted(variables(lhs)) or ("zz",)
        closed = [t for t in (random_term(signature, rng, max_depth=3, variable_pool=pool)
                              for _ in range(rng.randint(1, 3)))
                  if variables(t) <= variables(lhs)]
        if closed:
            alternatives = closed + closed[: rng.randint(0, 1)]
            weight = Fraction(1, len(alternatives))
            rhs = FiniteDistribution([(t, weight) for t in alternatives])
            rules.append(ProbRule(lhs, rhs))
    return PTRS(signature, tuple(rules))


def looping_ptrs(rng):
    """`random_ptrs` with one more alternative C[l] in every rule: its
    left-hand side wrapped in one or two random symbols whose other
    arguments are small terms over its variables. Weights are random."""
    base = random_ptrs(rng)
    functions = [(s, a) for s, a in sorted(base.signature.symbols().items()) if a > 0]
    rules = []
    for rule in base.rules:
        pool = sorted(variables(rule.lhs))
        wrapped = rule.lhs
        for _ in range(rng.randint(1, 2)):
            symbol, arity = rng.choice(functions)
            args = [random_term(base.signature, rng, max_depth=1, variable_pool=pool) for _ in range(arity)]
            args[rng.randrange(arity)] = wrapped
            wrapped = App(symbol, tuple(args))
        alternatives = [(rng.randint(1, 3), t) for t in (*rule.rhs.support(), wrapped)]
        total = sum(n for n, _ in alternatives)
        rhs = FiniteDistribution([(t, Fraction(n, total)) for n, t in alternatives])
        rules.append(ProbRule(rule.lhs, rhs))
    return PTRS(base.signature, tuple(rules))


def evaluate(poly: dict[tuple[int, ...], int], point: Sequence[int]) -> int:
    """The polynomial's value with unknown i at point[i]."""
    total = 0
    for mono, c in poly.items():
        value = c
        for position in mono:
            value *= point[position]
        total += value
    return total


def enumerate_box(cs: ConstraintSet, bound: int, limit: int | None = None) -> Iterator[dict[str, int]]:
    """Exhaustive models of the constraint set with every unknown from its
    lower end to `bound`.

    Independent of any solver; the test oracle for small bounds.
    """
    names = [spec.name for spec in cs.unknowns]
    ranges = [range(spec.lo, bound + 1) for spec in cs.unknowns]
    count = 1
    for r in ranges:
        count *= len(r)
    if limit is not None and count > limit:
        raise ValueError(f"box holds {count} assignments, over the limit {limit}")
    for values in iter_product(*ranges):
        if all(evaluate(poly, values) >= at_least for poly, at_least in cs.constraints):
            yield dict(zip(names, values))


def prove_encoding_every_shape(system: PTRS, config: ProverConfig) -> Verdict:
    """The sequential portfolio of `prover.prove` with the in-process box
    solver, encoding every shape: each shape is encoded, its narrowed box
    (`box_points`) is compared with the budget, and only a box within it is
    searched. The oracle for answering over-budget shapes unencoded."""
    limit = in_process_limit(config.solver)
    assert limit is not None, "the oracle runs the in-process box solver only"
    outcomes = []
    for shape in config.shapes:
        try:
            encoded = encode(system, shape)
        except DegreeOverflow as exc:
            outcomes.append(ShapeOutcome(shape, "degree-overflow", str(exc)))
            continue
        if box_points(encoded.constraint_set, config.coeff_bound) > limit:
            outcomes.append(ShapeOutcome(shape, "unknown", "solver answered unknown"))
            continue
        result = solve_box(encoded.constraint_set, config.coeff_bound, limit, timeout=config.timeout)
        if result.status == "sat":
            cert = check_certificate(decode(encoded, result.model, config.coeff_bound), system)
            outcomes.append(ShapeOutcome(shape, "proved", f"epsilon = {cert.epsilon}"))
            return Verdict("YES", cert, shape, tuple(outcomes))
        if result.status == "unsat":
            detail = f"no such interpretation with coefficients 0..{config.coeff_bound}"
        else:
            detail = result.detail
        outcomes.append(ShapeOutcome(shape, result.status, detail))
    return Verdict("MAYBE", outcomes=tuple(outcomes))


def brute_force_reducts(
    pars: Pars, start: Hashable, depth: int, node_budget: int = 10**6
) -> list[list[MultiDistribution]]:
    """All multidistributions reachable at each depth, every strategy."""
    tracker = BudgetTracker(node_budget)
    frontier: dict[MultiDistribution, None] = {MultiDistribution.point(start): None}
    levels = [canonical_order(frontier)]
    for _ in range(depth):
        successors: dict[MultiDistribution, None] = {}
        for state in frontier:
            for nu in all_steps(pars, state, tracker):
                successors[nu] = None
        frontier = successors
        levels.append(canonical_order(frontier))
    return levels


def _sorted(mu: MultiDistribution) -> MultiDistribution:
    """mu with its entries in display_key order; for merged mu, whose
    objects are distinct, that order is total."""
    # numerators over one denominator sort as the weights they stand for
    items = sorted(mu.numerators, key=display_key)
    return MultiDistribution._unchecked(tuple(items), mu.denominator, mu.mass_numerator)


def _hits_truncation(pars: Pars, mu: MultiDistribution) -> bool:
    return pars.truncate is not None and any(pars.truncates(obj) for _, obj in mu.numerators)


def reference_exhaustive(config: RunConfig) -> RunReport:
    """Exhaustive mode as `simulator.run` took it before it stepped over
    integer indices: states are multidistributions, hashed by their
    canonical form, each stepped by `all_steps` and, collapsed, by
    `collapsed`; each state keeps the first form met. The oracle of the
    differential test of exhaustive mode."""
    pars = config.pars
    tracker = BudgetTracker(config.node_budget)
    start = MultiDistribution.point(config.start)
    if config.collapse:
        start = collapsed(start)
    states: dict[MultiDistribution, tuple[Fraction, Fraction]] = {start: (Fraction(0), Fraction(0))}
    mass_min = [start.mass()]
    mass_max = [start.mass()]
    edl_min = [Fraction(0)]
    edl_max = [Fraction(0)]
    trace: list = [tuple(canonical_order(states))]
    truncated = _hits_truncation(pars, start)
    for _ in range(config.steps):
        successors: dict[MultiDistribution, tuple[Fraction, Fraction]] = {}
        for state, (lo, hi) in states.items():
            steps = all_steps(pars, state, tracker)
            # every successor keeps the mass of the nonterminal entries of state
            mass = steps[0].mass()
            reached = (lo + mass, hi + mass)
            for nu in steps:
                if config.collapse:
                    nu = collapsed(nu)
                old = successors.get(nu)
                successors[nu] = reached if old is None else (
                    min(old[0], reached[0]), max(old[1], reached[1]))
        states = successors
        mass_min.append(min(s.mass() for s in states))
        mass_max.append(max(s.mass() for s in states))
        edl_min.append(min(lo for lo, _ in states.values()))
        edl_max.append(max(hi for _, hi in states.values()))
        truncated = truncated or any(_hits_truncation(pars, s) for s in states)
        if config.keep_trace:
            trace.append(tuple(canonical_order(states)))
    return RunReport(
        mode="exhaustive",
        masses=None,
        edl=None,
        mass_min=mass_min,
        mass_max=mass_max,
        edl_min=edl_min,
        edl_max=edl_max,
        outcomes=tuple(canonical_order(states)),
        trace=trace if config.keep_trace else None,
        truncation_hit=truncated,
        nodes=tracker.spent,
    )


def value_iteration(pars: Pars, start: Hashable, steps: int) -> tuple[list[Fraction], ...]:
    """Exhaustive mode's four envelopes (mass_min, mass_max, edl_min,
    edl_max, by depth) by finite-horizon value iteration over objects,
    without listing a multidistribution. Mass and the edl prefix are sums
    over entries, and each entry's reduct is chosen on its own, so the best
    over every strategy is the best per object and horizon:
    M_0(o) = 1, E_0(o) = 0, and for h > 0 a terminal o has M_h = E_h = 0
    while any other has M_h(o) = best_r sum p * M_(h-1)(o') and
    E_h(o) = 1 + best_r sum p * E_(h-1)(o'), best being min or max.
    Values at horizon h are integer numerators over L^h, L the lcm of every
    option's denominator."""
    # distance[o]: the fewest steps that reach o; o needs horizons up to
    # steps - distance[o], and its options only when that is positive
    distance = {start: 0}
    rows: dict[Hashable, list[tuple[int, tuple]]] = {}
    frontier = [start]
    for depth in range(1, steps + 1):
        reached = []
        for obj in frontier:
            rows[obj] = [(dist.denominator, dist.numerators) for dist in pars.options(obj)]
            for _, pairs in rows[obj]:
                for _, image in pairs:
                    if image not in distance:
                        distance[image] = depth
                        reached.append(image)
        frontier = reached
    common = lcm(1, *(d for row in rows.values() for d, _ in row))
    # per object: (least, greatest) mass numerator and (least, greatest) edl numerator
    values = {obj: ((1, 1), (0, 0)) for obj in distance}
    envelopes = [(Fraction(1), Fraction(1), Fraction(0), Fraction(0))]
    den = 1
    for horizon in range(1, steps + 1):
        den *= common
        stepped = {}
        for obj, d in distance.items():
            if d > steps - horizon:
                continue
            if not rows[obj]:
                stepped[obj] = ((0, 0), (0, 0))
                continue
            sums = [[sum(n * (common // q) * values[image][kind][end] for n, image in pairs)
                     for q, pairs in rows[obj]] for kind in (0, 1) for end in (0, 1)]
            stepped[obj] = ((min(sums[0]), max(sums[1])), (den + min(sums[2]), den + max(sums[3])))
        values = stepped
        (m_lo, m_hi), (e_lo, e_hi) = values[start]
        envelopes.append((Fraction(m_lo, den), Fraction(m_hi, den), Fraction(e_lo, den), Fraction(e_hi, den)))
    return tuple(map(list, zip(*envelopes)))


# The Fraction-per-entry multidistribution step that the integer form
# replaced, kept as a reference. A state is (entries, mass): entries is a
# tuple of (Fraction, obj) in order, mass their sum.


def reference_convex_union(parts):
    """sum p_i * state_i over parts (p_i, state_i), every product a Fraction."""
    entries = []
    total = Fraction(0)
    mass = Fraction(0)
    for p, (part_entries, part_mass) in parts:
        p = as_fraction(p)
        if p < 0:
            raise ValueError(f"negative part weight {p}")
        if p == 0:
            continue
        total += p
        mass += p * part_mass
        entries.extend((p * q, obj) for q, obj in part_entries)
    if total > 1:
        raise ValueError(f"part weights sum to {total}, exceeding 1")
    return tuple(entries), mass


def reference_step(pars, state, chooser):
    parts = []
    for p, obj in state[0]:
        chosen = pars.choose(obj, chooser)
        if chosen is not None:
            parts.append((p, (tuple((q, image) for image, q in items(chosen)), Fraction(1))))
    return reference_convex_union(parts)


def reference_collapse(entries) -> dict:
    out = {}
    for p, obj in entries:
        seen = out.get(obj)
        out[obj] = p if seen is None else seen + p
    return out


def reference_collapsed(state):
    items = sorted(((p, obj) for obj, p in reference_collapse(state[0]).items()), key=display_key)
    return tuple(items), state[1]


def reference_all_steps(pars, state):
    """Every successor, one option per nonterminal entry, multiset duplicates
    dropped, first-seen order kept."""
    alternatives = []
    for p, obj in state[0]:
        options = pars.options(obj)
        if options:
            alternatives.append([(tuple((p * q, image) for image, q in items(d)), p) for d in options])
    if not alternatives:
        return [((), Fraction(0))]
    seen = {}
    for combo in iter_product(*alternatives):
        entries = tuple(entry for part, _ in combo for entry in part)
        key = frozenset(Counter(entries).items())
        if key not in seen:
            seen[key] = (entries, sum((mass for _, mass in combo), Fraction(0)))
    return list(seen.values())


def reference_merged_steps(pars, start, steps, chooser) -> list[MultiDistribution]:
    """The states of a collapsed single-strategy run as they were built
    before bind folded equal reducts: each step unmerged, then `merged()`,
    with the chooser asked afresh on every step."""
    mu = MultiDistribution.point(start)
    states = []
    for _ in range(steps):
        mu = step_multidist(pars, mu, chooser).merged()
        states.append(mu)
    return states


# A single-strategy run as `simulator.run` took it before it stepped over
# integer indices: a per-object chooser's answers kept in a `picks` dict
# for the whole run and started afresh before they could pass MEMO_LIMIT.
# Every step goes through `reference_bind`, the gather-then-union bind,
# which gives the same integer forms as `multidist._step` and shares no
# code with it. It is the oracle of the differential tests of `run`.


def picking_step(
    pars: Pars, mu: MultiDistribution, chooser, picks: dict | None = None, merge: bool = False
) -> MultiDistribution:
    """One step. A chooser marked `per_object` is asked once per distinct
    object that `picks` does not hold yet, in first-seen order, and each
    answer is added to `picks`; any other chooser is asked once per entry,
    in entry order, and leaves `picks` alone."""
    if getattr(chooser, "per_object", False):
        if picks is None:
            picks = {}
        for _, obj in mu.numerators:
            if obj not in picks:
                picks[obj] = pars.choose(obj, chooser)
        return reference_bind(mu, picks.__getitem__, merge)
    return reference_bind(mu, lambda obj: pars.choose(obj, chooser), merge)


def reference_run(config: RunConfig) -> RunReport:
    """`run` for every mode but exhaustive, stepping with `picking_step`."""
    pars = config.pars
    tracker = BudgetTracker(config.node_budget)
    chooser = MODES[config.mode] if isinstance(config.mode, str) else config.mode
    sort_each_step = config.keep_trace or not getattr(chooser, "per_object", False)
    picks: dict = {}
    mu = MultiDistribution.point(config.start)
    edl_num = 0
    sums = [(1, 0, 1)]
    trace = [mu]
    truncated = _hits_truncation(pars, mu)
    for _ in range(config.steps):
        tracker.spend(max(len(mu), 1))
        if len(picks) + len(mu) > rewriting.MEMO_LIMIT:
            picks = {}
        mu = picking_step(pars, mu, chooser, picks, merge=config.collapse)
        if config.collapse and sort_each_step:
            mu = _sorted(mu)
        truncated = truncated or _hits_truncation(pars, mu)
        den = mu.denominator
        edl_num = edl_num * (den // sums[-1][2]) + mu.mass_numerator
        sums.append((mu.mass_numerator, edl_num, den))
        if config.keep_trace:
            trace.append(mu)
    if config.collapse and not sort_each_step:
        mu = _sorted(mu)
    masses = [Fraction(m, den) for m, _, den in sums]
    edl = [Fraction(e, den) for _, e, den in sums]
    return RunReport(
        mode=config.mode if isinstance(config.mode, str) else "custom",
        masses=masses,
        edl=edl,
        mass_min=masses,
        mass_max=masses,
        edl_min=edl,
        edl_max=edl,
        outcomes=(mu,),
        trace=trace if config.keep_trace else None,
        truncation_hit=truncated,
        nodes=tracker.spent,
    )


def reference_expected_value(entries, fn) -> Fraction:
    return sum((p * as_fraction(fn(obj)) for p, obj in entries), Fraction(0))


def reference_drift_harness(
    system: PTRS,
    cert,
    *,
    trials: int,
    max_depth: int,
    rng: random.Random,
    epsilon: Fraction,
    term_depth: int = 4,
    max_width: int = 32,
) -> DriftReport:
    """The drift harness as it was before steps merged while they bind:
    each step unmerged, its expected rank a Fraction over every entry, the
    inequality in Fractions, then `collapsed` for the next state. The
    reported successor is the unmerged one."""
    pars = TermPars(system)
    rank, _ = ranking_from_certificate(cert)
    checks = 0
    for trial in range(trials):
        start = random_term(system.signature, rng, max_depth=term_depth)
        mu = MultiDistribution.point(start)
        before = Fraction(rank(start))
        chooser = random_chooser(rng)
        for depth in range(max_depth):
            if not mu.numerators:
                break
            nu = step_multidist(pars, mu, chooser)
            checks += 1
            after = expected_value(nu, rank)
            if before < after + epsilon * nu.mass():
                return DriftReport(trial + 1, checks, DriftViolation(
                    trial, depth, mu, nu, before, after, epsilon
                ))
            mu, before = collapsed(nu), after
            if len(mu) > max_width:
                heaviest = sorted(mu.numerators, key=lambda e: (-e[0], display_key(e)))[:max_width]
                mu = MultiDistribution._unchecked(
                    tuple(heaviest), mu.denominator, sum(n for n, _ in heaviest)
                )
                before = expected_value(mu, rank)
    return DriftReport(trials, checks, None)


def stepping_drift_harness(
    system: PTRS,
    cert,
    *,
    trials: int = 100,
    max_depth: int = 20,
    rng: random.Random,
    epsilon: Rational | str | None = None,
    term_depth: int = 4,
    max_width: int = 32,
) -> DriftReport:
    """The drift harness as it was before it stepped over integer indices:
    each step a merged `step_multidist`, sorted with `_sorted`, and each
    expected rank an `expected_numerator` over every entry."""
    pars = TermPars(system)
    rank, certified = ranking_from_certificate(cert)
    required = certified if epsilon is None else as_fraction(epsilon)
    e_num, e_den = required.numerator, required.denominator
    checks = 0
    for trial in range(trials):
        start = random_term(system.signature, rng, max_depth=term_depth)
        mu = MultiDistribution.point(start)
        before = expected_numerator(mu, rank)
        chooser = random_chooser(rng)
        for depth in range(max_depth):
            if not mu.numerators:
                break
            nu = _sorted(step_multidist(pars, mu, chooser).merged())
            checks += 1
            after = expected_numerator(nu, rank)
            (b, b_den), (a, a_den) = before, after
            den = e_den * nu.denominator
            if b * a_den * den < (a * den + e_num * nu.mass_numerator * a_den) * b_den:
                return DriftReport(trial + 1, checks, DriftViolation(
                    trial, depth, mu, nu, expected_value(mu, rank), expected_value(nu, rank), required
                ))
            mu, before = nu, after
            if len(mu) > max_width:
                heaviest = sorted(mu.numerators, key=lambda e: (-e[0], display_key(e)))[:max_width]
                mu = MultiDistribution._unchecked(
                    tuple(heaviest), mu.denominator, sum(n for n, _ in heaviest)
                )
                before = expected_numerator(mu, rank)
    return DriftReport(trials, checks, None)


@functools.lru_cache(maxsize=None)
def proved_certificates(seed: int = 20261019, count: int = 40) -> tuple[tuple[PTRS, str, Interpretation], ...]:
    """(system, certificate text, interpretation) of every YES that `prove`
    with the box solver, at coefficient bounds 1 and 2, gives on seeded
    `random_ptrs` systems; the text is the certificate `prove --json`
    prints, and the interpretation the one `smt.decode` built."""
    rng = random.Random(seed)
    proved = []
    for _ in range(count):
        system = random_ptrs(rng)
        for bound in (1, 2):
            verdict = prove(system, ProverConfig(solver=BOXSOLVER, coeff_bound=bound))
            if verdict.kind == "YES":
                text = verdict_json(verdict, system)["certificate"]
                proved.append((system, text, verdict.certificate.interpretation))
    return tuple(proved)


# Functions of the package that only tests call, moved here unchanged.


def reference_random_term(
    signature: Signature,
    rng: random.Random,
    *,
    max_depth: int = 4,
    variable_pool: Sequence[str] = ("x", "y"),
) -> Term:
    """`rewriting.random_term` as it was before `term_sampler` built its
    symbol and leaf lists once per sampler: both lists on every call."""
    symbols = sorted(signature.symbols().items())
    leaves: list[Term] = [App(s, ()) for s, a in symbols if a == 0]
    leaves.extend(Var(name) for name in variable_pool)
    if not leaves:
        raise ValueError("need a nullary symbol or a variable pool to close terms")

    def build(depth: int) -> Term:
        if depth >= max_depth or rng.random() < 0.25:
            return rng.choice(leaves)
        sym, arity = rng.choice(symbols)
        return App(sym, tuple(build(depth + 1) for _ in range(arity)))

    return build(0)


def expected_numerator(mu: MultiDistribution[T], fn) -> tuple[int, int]:
    """The sum of p * fn(obj) over the entries of mu, as an unreduced pair
    (numerator, denominator) of ints with a positive denominator.

    The weights are read as numerators over mu's denominator, and the
    products are added over one running common denominator of the values:
    an int value costs a multiplication and an addition of ints; any other
    value goes through as_fraction.
    """
    total, common = 0, 1
    for n, obj in mu.numerators:
        value = fn(obj)
        if value.__class__ is int:
            num, den = n * value, 1
        else:
            value = as_fraction(value)
            num, den = n * value.numerator, value.denominator
        if den == common:
            total += num
        else:
            g = gcd(common, den)
            total = total * (den // g) + num * (common // g)
            common = common // g * den
    return total, common * mu.denominator


def convex_union(
    parts: Iterable[tuple[Rational, MultiDistribution[T]]],
) -> MultiDistribution[T]:
    """Weighted multiset union sum pi * mui with pi >= 0 and sum pi <= 1."""
    ints = []
    total = Fraction(0)
    for p, mu in parts:
        p = as_fraction(p)
        if p < 0:
            raise InvalidWeights(f"negative part weight {p}")
        if p == 0:
            continue
        total += p
        ints.append((p.numerator, p.denominator * mu._den, mu._numerators, mu._mass_num))
    if total > 1:
        raise InvalidWeights(f"part weights sum to {total}, exceeding 1")
    # every p * q lies in (0, p], so the union needs no further check
    return _union(ints)


def _union(
    parts: list[tuple[int, int, tuple[tuple[int, T], ...], int]], outer: int = 1, merge: bool = False
) -> MultiDistribution[T]:
    """The union of the parts (a, d, pairs, mass): for every (m, obj) in
    pairs, an entry of weight a * m / (outer * d); mass is the sum of the
    m. One lcm of the d for the whole union, then products of ints. With
    `merge`, the numerators of equal objects are added up in first-seen
    order, as `merged()` would add them.

    `MultiDistribution.bind` was this union over a list of parts built
    first; the tests keep it as the oracle of the one-pass bind."""
    common = lcm(*{d for _, d, _, _ in parts})
    numerators: list[tuple[int, T]] = []
    sums: dict[T, int] = {}
    mass = 0
    for a, d, pairs, part_mass in parts:
        factor = a * (common // d)
        if merge:
            for m, obj in pairs:
                sums[obj] = sums.get(obj, 0) + factor * m
        else:
            numerators.extend([(factor * m, obj) for m, obj in pairs])
        mass += factor * part_mass
    if merge:
        numerators = [(n, obj) for obj, n in sums.items()]
    return MultiDistribution._unchecked(tuple(numerators), outer * common, mass)


def reference_bind(mu: MultiDistribution[T], fn, merge: bool = False) -> MultiDistribution:
    """mu.bind(fn), and with `merge` mu.bind(fn).merged(), as bind was
    built before it was one pass: the parts gathered first, then their
    union over one lcm."""
    parts = []
    for n, obj in mu.numerators:
        dist = fn(obj)
        if dist is not None:
            parts.append((n, dist.denominator, dist.numerators, dist.denominator))
    return _union(parts, mu.denominator, merge)


def collapse(mu: MultiDistribution[T]) -> dict[T, Fraction]:
    """Merge equal objects; the result is a subdistribution as a dict."""
    den = mu.denominator
    return {obj: Fraction(n, den) for n, obj in mu.merged().numerators}


def mapped(mu: MultiDistribution[T], fn) -> MultiDistribution:
    """mu with fn applied to every object. A FiniteDistribution's equal
    images are merged, so the result is one too."""
    out = MultiDistribution._unchecked(
        tuple((n, fn(obj)) for n, obj in mu.numerators), mu.denominator, mu.mass_numerator
    )
    if isinstance(mu, FiniteDistribution):
        return FiniteDistribution._unchecked(out.merged().numerators, mu.denominator, mu.denominator)
    return out


def scale(mu: MultiDistribution[T], factor: Rational) -> MultiDistribution[T]:
    factor = as_fraction(factor)
    if not 0 <= factor <= 1:
        # the checking constructor rejects the scaled weights unless
        # they still fit (a factor above 1 on a light multidistribution)
        return MultiDistribution([(factor * p, obj) for p, obj in mu.entries])
    if factor == 0:
        return MultiDistribution.empty()
    a = factor.numerator
    return MultiDistribution._unchecked(
        tuple((a * n, obj) for n, obj in mu.numerators),
        factor.denominator * mu.denominator,
        a * mu.mass_numerator,
    )


def probability(dist: FiniteDistribution[T], obj: T) -> Fraction:
    return collapse(dist).get(obj, Fraction(0))


def items(dist: FiniteDistribution[T]) -> Iterator[tuple[T, Fraction]]:
    return ((obj, p) for p, obj in dist.entries)


def expectation(mu: MultiDistribution[Any]) -> Fraction:
    """Expected value of a multidistribution over rational-valued objects."""
    return expected_value(mu, lambda value: value)


@dataclass
class EmbeddingReport:
    ok: bool
    problems: list[str]


def ars_embedding_check(pars: Pars, objects: Sequence[Hashable]) -> EmbeddingReport:
    """For non-probabilistic systems the multidistribution semantics must
    mirror plain rewriting: one-step reducts of {1: a} are exactly the point
    masses of the successors of a, and the empty multidistribution for
    normal forms."""
    problems: list[str] = []
    for obj in objects:
        options = pars.options(obj)
        for dist in options:
            if len(dist) != 1:
                problems.append(f"{obj} has a non-point reduct distribution {dist}")
        got = all_steps(pars, MultiDistribution.point(obj))
        if not options:
            expected = [MultiDistribution.empty()]
        else:
            expected = [from_distribution(d) for d in options]
        if Counter(got) != Counter(expected):
            problems.append(
                f"one-step reducts of {{1: {obj}}} are "
                f"{[str(m) for m in got]}, expected {[str(m) for m in expected]}"
            )
    return EmbeddingReport(not problems, problems)


def subterm_positions(term: Term) -> list[Position]:
    """All positions of the term in pre-order (root first, leftmost first)."""
    out: list[Position] = []
    stack: list[tuple[Position, Term]] = [((), term)]
    while stack:
        position, node = stack.pop()
        out.append(position)
        if node.__class__ is App:
            for i in range(len(node.args), 0, -1):
                stack.append(((*position, i), node.args[i - 1]))
    return out


def box_points(cs: ConstraintSet, bound: int) -> int:
    """The number of points the box solver compares with its budget."""
    lo, hi, constraints = cs.search_args(bound)
    return prod(max(0, h - l + 1) for l, h in zip(narrow(lo, constraints), hi))


def render_problem(problem: ProblemFile) -> str:
    """Canonical text form; parse(render(parse(t))) == parse(t)."""
    lines: list[str] = []
    if problem.variables:
        lines.append("(VAR " + " ".join(problem.variables) + ")")
    lines.append("(RULES")
    for rule in problem.rules:
        if len(rule.alternatives) == 1 and rule.alternatives[0][0] == 1:
            lines.append(f"  {rule.lhs} -> {rule.alternatives[0][1]}")
        else:
            alts = " || ".join(f"{w} : {r}" for w, r in rule.alternatives)
            lines.append(f"  {rule.lhs} -> {alts}")
    lines.append(")")
    return "\n".join(lines) + "\n"


def problem_of(system: PTRS) -> ProblemFile:
    """The system as rules written with its integer weights, for `render_problem`."""
    rules = tuple(RawRule(rule.lhs, rule.rhs.numerators) for rule in system.rules)
    names = sorted(set().union(*(variables(rule.lhs) for rule in system.rules)))
    return ProblemFile(tuple(names), rules, system.signature)


def term_size(term: Term) -> int:
    """Number of nodes, read from the annotation made at construction."""
    return term._size


def from_distribution(dist: FiniteDistribution[T]) -> MultiDistribution[T]:
    return MultiDistribution._unchecked(dist.numerators, dist.denominator, dist.denominator)


# The certificate reader as it was before certtext read one token stream:
# string surgery on each line, every head read before any right-hand side.
# It is the oracle of the differential test of `certtext.parse_interpretation`.


class ReferenceCertParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


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
                raise ReferenceCertParseError("unbalanced ']'", line)
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ReferenceCertParseError("unbalanced '['", line)
    parts.append("".join(current))
    return parts


def _parse_scalar(text: str, line: int) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ReferenceCertParseError(f"cannot read number {text.strip()!r}", line) from None


def _parse_vector(text: str, line: int) -> Vector:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ReferenceCertParseError(f"expected a vector like [0, 1], got {text!r}", line)
    return tuple(_parse_scalar(p, line) for p in _split_top_level(text[1:-1], ",", line))


def _parse_matrix(text: str, line: int) -> Matrix:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ReferenceCertParseError(f"expected a matrix like [[1, 0], [0, 1]], got {text!r}", line)
    rows = _split_top_level(text[1:-1], ",", line)
    return tuple(_parse_vector(row, line) for row in rows)


# an equation's symbol name: a WST name may hold `]` and `=` but no `(` or
# space, so it ends at the last `]` before spaces and then `(` or `=`
_SYMBOL = re.compile(r"\[(.*)\](?=\s*[(=])")


def _parse_equation(text: str, line: int) -> tuple[str, list[str], str]:
    if not text.startswith("["):
        raise ReferenceCertParseError("expected an equation like [f](x) = ...", line)
    symbol = _SYMBOL.match(text)
    if symbol is None:
        if "]" not in text:
            raise ReferenceCertParseError("missing ']' after symbol name", line)
        raise ReferenceCertParseError("expected '=' in equation", line)
    sym = symbol.group(1)
    if not sym:
        raise ReferenceCertParseError("empty symbol name", line)
    rest = text[symbol.end() :].strip()
    args: list[str] = []
    if rest.startswith("("):
        close = rest.find(")")
        if close < 0:
            raise ReferenceCertParseError("missing ')' after argument list", line)
        inner = rest[1:close].strip()
        args = [a.strip() for a in inner.split(",")] if inner else []
        if not all(args) or len(set(args)) < len(args):
            raise ReferenceCertParseError(f"argument names must be distinct and nonempty: ({inner})", line)
        for name in args:
            # a right-hand side reads a factor as an argument first, so a
            # numeral as a name would shadow the number
            try:
                Fraction(name)
            except (ValueError, ZeroDivisionError):
                continue
            raise ReferenceCertParseError(f"argument name {name!r} reads as a number", line)
        rest = rest[close + 1 :].strip()
    if not rest.startswith("="):
        raise ReferenceCertParseError("expected '=' in equation", line)
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
                raise ReferenceCertParseError(f"empty factor in {raw_term.strip()!r}", line)
            if factor in index:
                if index[factor] in mono:
                    raise ReferenceCertParseError(f"variable {factor!r} repeats in one monomial", line)
                mono.add(index[factor])
            else:
                coeff *= _parse_scalar(factor, line)
                saw_number = True
        if not mono and not saw_number:
            raise ReferenceCertParseError(f"cannot read term {raw_term.strip()!r}", line)
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
                raise ReferenceCertParseError(f"unknown argument {name!r}", line)
            if mats[index[name]] is not None:
                raise ReferenceCertParseError(f"argument {name!r} appears twice", line)
            mats[index[name]] = _parse_matrix(mat_text, line)
        else:
            if const is not None:
                raise ReferenceCertParseError("two constant vectors in one equation", line)
            const = _parse_vector(term, line)
    filled = [M if M is not None else tuple((Fraction(0),) * dim for _ in range(dim)) for M in mats]
    return filled, const if const is not None else (Fraction(0),) * dim


def reference_parse_interpretation(text: str) -> Interpretation:
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
                    raise ReferenceCertParseError("matrix dimension must be at least 1", number)
            else:
                raise ReferenceCertParseError(
                    f"expected 'poly' or 'matrix N' on the first line, got {line!r}", number
                )
            continue
        sym, args, expr = _parse_equation(line, number)
        equations.append((number, sym, args, expr))
    if kind is None:
        raise ReferenceCertParseError("empty certificate", 1)
    if not equations:
        raise ReferenceCertParseError("certificate interprets no symbols", 1)
    arities: dict[str, int] = {}
    for number, sym, args, _ in equations:
        if sym in arities:
            raise ReferenceCertParseError(f"symbol {sym!r} interpreted twice", number)
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
            raise ReferenceCertParseError(f"entries of [{sym}] do not match dimension {dim}", number)
        entries[sym] = (mats, const)
    return MatrixInterpretation(arities, dim, entries)


SYMBOL_ALPHABET = "fg01[]=*+-#$?!.\x0c\x85"


def random_certificate_text(rng: random.Random) -> str:
    """A rendered random poly or matrix certificate: one to three symbols
    over SYMBOL_ALPHABET, arities 0-4, Fraction coefficients."""
    from ptrs.certtext import render_interpretation

    arities: dict[str, int] = {}
    while len(arities) < rng.randint(1, 3):
        arities["".join(rng.choices(SYMBOL_ALPHABET, k=rng.randint(1, 4)))] = rng.randint(0, 4)
    if rng.random() < 0.5:
        interp: Interpretation = rand_poly_interp(rng, arities, rng.randint(1, 2))
    else:
        interp = rand_matrix_interp(rng, arities, rng.randint(1, 3))
    return render_interpretation(interp)


def garbled(rng: random.Random, text: str) -> str:
    """`text` with one character deleted, doubled, or swapped with the next."""
    i = rng.randrange(len(text) - 1)
    how = rng.randrange(3)
    if how == 0:
        return text[:i] + text[i + 1 :]
    if how == 1:
        return text[:i] + text[i] + text[i:]
    return text[:i] + text[i + 1] + text[i] + text[i + 2 :]


def certificate_corpus(seed: int, count: int) -> list[str]:
    """`count` rendered random certificates, each followed by three garbled
    copies of itself, some garbled twice."""
    rng = random.Random(seed)
    texts: list[str] = []
    for _ in range(count):
        text = random_certificate_text(rng)
        texts.append(text)
        for _ in range(3):
            bad = garbled(rng, text)
            texts.append(garbled(rng, bad) if rng.random() < 0.3 else bad)
    return texts


def lenient_argument_names(text: str) -> bool:
    """Whether the reference reader takes an argument name in `text` that
    holds whitespace or one of `[](),*+=`: `[g]((x)`, `[f](x y)`, `[f](]x)`."""
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line.startswith("["):
            try:
                _, args, _ = _parse_equation(line, number)
            except ReferenceCertParseError:
                continue
            if any(re.search(r"[\s\[\](),*+=]", name) for name in args):
                return True
    return False


# The WST reader as it was before it read plain string tokens: a cursor over
# `Token` records with the position of every token worked out up front, and
# the weight total divided out in `Fraction`s. It is the oracle of the
# differential tests of `wst.parse_problem`, `wst.parse_term_text` and
# `wst.elaborate`.


class _Cursor:
    def __init__(self, tokens: list[Token], end_line: int):
        self.tokens = tokens
        self.pos = 0
        self.end_line = end_line

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expected: str | None = None) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.end_line, 1)
        if expected is not None and tok.kind != expected:
            raise ParseError(f"expected {expected}, found {tok.text!r}", tok.line, tok.col)
        self.pos += 1
        return tok


class _TermReader:
    """Parses terms while inferring arities, first use winning."""

    def __init__(self, variables: set[str]):
        self.variables = variables
        # each symbol's arity and its first use; None for a declared symbol
        self.arities: dict[str, tuple[int, Token | None]] = {}

    def read(self, cur: _Cursor) -> Term:
        # Open applications wait on a stack, so nesting depth costs no
        # recursion. Symbols are noted in post-order, as they complete.
        pending: list[tuple[Token, list[Term]]] = []
        while True:
            head = cur.next("IDENT")
            nxt = cur.peek()
            if nxt is not None and nxt.kind == "LPAREN":
                if head.text in self.variables:
                    raise ParseError(f"variable {head.text!r} used with arguments", head.line, head.col)
                cur.next("LPAREN")
                if cur.peek() is not None and cur.peek().kind != "RPAREN":
                    pending.append((head, []))
                    continue
                cur.next("RPAREN")
                self._note(head, 0)
                term: Term = App(head.text, ())
            elif head.text in self.variables:
                term = Var(head.text)
            else:
                self._note(head, 0)
                term = App(head.text, ())
            while pending:
                head, args = pending[-1]
                args.append(term)
                if cur.peek() is not None and cur.peek().kind == "COMMA":
                    cur.next("COMMA")
                    break
                cur.next("RPAREN")
                pending.pop()
                self._note(head, len(args))
                term = App(head.text, tuple(args))
            else:
                return term

    def _note(self, tok: Token, arity: int) -> None:
        seen = self.arities.get(tok.text)
        if seen is None:
            self.arities[tok.text] = (arity, tok)
        elif seen[0] != arity:
            first = seen[1]
            if first is None:
                earlier = f"the system declares it with {seen[0]}"
            else:
                earlier = f"with {seen[0]} at line {first.line}, column {first.col}"
            raise ParseError(
                f"symbol {tok.text!r} used with {arity} arguments here but {earlier}",
                tok.line,
                tok.col,
            )


def _split_blocks(tokens: list[Token]) -> list[tuple[Token, list[Token]]]:
    blocks: list[tuple[Token, list[Token]]] = []
    i = 0
    while i < len(tokens):
        if tokens[i].kind != "LPAREN":
            raise ParseError(f"expected '(', found {tokens[i].text!r}", tokens[i].line, tokens[i].col)
        if i + 1 >= len(tokens) or tokens[i + 1].kind != "IDENT":
            tok = tokens[i + 1] if i + 1 < len(tokens) else tokens[i]
            raise ParseError("expected a block name after '('", tok.line, tok.col)
        name = tokens[i + 1]
        depth = 1
        j = i + 2
        while j < len(tokens) and depth > 0:
            if tokens[j].kind == "LPAREN":
                depth += 1
            elif tokens[j].kind == "RPAREN":
                depth -= 1
            j += 1
        if depth != 0:
            raise ParseError(f"unclosed block {name.text!r}", name.line, name.col)
        blocks.append((name, tokens[i + 2 : j - 1]))
        i = j
    return blocks


def reference_parse_problem(text: str) -> ProblemFile:
    tokens = tokenize(text)
    end_line = text.count("\n") + 1
    if not tokens:
        raise ParseError("empty problem file", 1, 1)
    blocks = _split_blocks(tokens)

    variables: list[str] = []
    for name, body in blocks:
        if name.text == "VAR":
            for tok in body:
                if tok.kind != "IDENT":
                    raise ParseError(f"unexpected {tok.text!r} in VAR block", tok.line, tok.col)
                if tok.text not in variables:
                    variables.append(tok.text)

    reader = _TermReader(set(variables))
    rules: list[RawRule] = []
    for name, body in blocks:
        if name.text == "VAR":
            continue
        if name.text != "RULES":
            raise ParseError(f"unknown block {name.text!r}", name.line, name.col)
        cur = _Cursor(body, end_line)
        while cur.peek() is not None:
            rules.append(_read_rule(cur, reader))
    if not rules:
        raise ParseError("no rules found", end_line, 1)
    return ProblemFile(tuple(variables), tuple(rules), Signature({s: a for s, (a, _) in reader.arities.items()}))


def _read_rule(cur: _Cursor, reader: _TermReader) -> RawRule:
    start = cur.peek()
    lhs = reader.read(cur)
    cur.next("ARROW")
    alternatives: list[tuple[int, Term]] = []
    alternatives.append(_read_alternative(cur, reader))
    while cur.peek() is not None and cur.peek().kind == "BAR":
        cur.next("BAR")
        alternatives.append(_read_alternative(cur, reader))
    return RawRule(lhs, tuple(alternatives), start.line, start.col)


def _read_alternative(cur: _Cursor, reader: _TermReader) -> tuple[int, Term]:
    tok = cur.peek()
    if tok is not None and tok.kind == "IDENT" and tok.text.isdigit():
        after = cur.tokens[cur.pos + 1] if cur.pos + 1 < len(cur.tokens) else None
        if after is not None and after.kind == "COLON":
            cur.next("IDENT")
            cur.next("COLON")
            weight = int(tok.text)
            if weight <= 0:
                raise ParseError("weights must be positive integers", tok.line, tok.col)
            return weight, reader.read(cur)
    return 1, reader.read(cur)


def reference_elaborate(problem: ProblemFile) -> PTRS:
    rules: list[ProbRule] = []
    for raw in problem.rules:
        merged: dict[Term, int] = {}
        for weight, term in raw.alternatives:
            merged[term] = merged.get(term, 0) + weight
        total = sum(merged.values())
        dist = FiniteDistribution({term: Fraction(w, total) for term, w in merged.items()})
        try:
            rules.append(ProbRule(raw.lhs, dist))
        except RuleError as exc:
            raise ElaborationError(str(exc), raw.line, raw.col, exc.reason) from None
    return PTRS(problem.signature, tuple(rules))


def reference_parse_term_text(text: str, variables: set[str], signature: Signature | None = None) -> Term:
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty term", 1, 1)
    reader = _TermReader(set(variables))
    if signature is not None:
        for sym, arity in signature.symbols().items():
            reader.arities[sym] = (arity, None)
    cur = _Cursor(tokens, 1)
    term = reader.read(cur)
    leftover = cur.peek()
    if leftover is not None:
        raise ParseError(f"unexpected trailing {leftover.text!r}", leftover.line, leftover.col)
    if signature is not None:
        for sym, (arity, first) in reader.arities.items():
            if first is not None and arity > 0:
                raise ParseError(
                    f"symbol {sym!r} is applied to arguments but the system does not "
                    "declare it; new symbols may only be constants",
                    first.line,
                    first.col,
                )
    return term


def reference_box_floor(system: PTRS, shape: Shape, bound: int) -> int | None:
    """`smt.box_floor` as it was: the lower ends counted off a template
    interpretation built for the purpose."""
    if not system.rules:
        return None
    if shape.kind == "poly" and shape.param > 1 and max(system.signature.symbols().values(), default=0) > 1:
        return None
    lows: list[int] = []
    template(system, shape, lambda name, lo: lows.append(lo) or lo)
    zeros = lows.count(0)
    raised = min(zeros, len(system.rules))
    return bound ** (len(lows) - zeros + raised) * (bound + 1) ** (zeros - raised)
