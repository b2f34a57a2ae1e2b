"""Shared oracles and random generators for the test suite.

Everything here is deliberately independent of the package's symbolic
machinery: expectations are computed by direct enumeration and linear
systems are solved directly, so these values can confront the production
code paths.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import prod
from typing import Any, Hashable, Iterable, Iterator, Sequence

from ptrs.boxsolver import narrow
from ptrs.interpretations import (
    Coeff,
    DegreeOverflow,
    MatrixInterpretation,
    PolyForm,
    PolyInterpretation,
    check_certificate,
    ranking_from_certificate,
)
from ptrs.multidist import (
    FiniteDistribution,
    InvalidWeights,
    MultiDistribution,
    Rational,
    T,
    _union,
    as_fraction,
    canonical_order,
    display_key,
    expected_value,
)
from ptrs.prover import ProverConfig, ShapeOutcome, Verdict
from ptrs.rewriting import (
    PTRS,
    BudgetTracker,
    Pars,
    ProbRule,
    TermPars,
    all_steps,
    random_chooser,
    random_term,
    step_multidist,
)
from ptrs.simulator import DriftReport, DriftViolation, collapsed
from ptrs.smt import ConstraintSet, Poly, decode, encode, in_process_limit, solve_box
from ptrs.terms import App, Position, Signature, Term, Var, variables
from ptrs.wst import ProblemFile


def rand_fraction(rng: random.Random, max_num: int = 8, max_den: int = 4) -> Fraction:
    return Fraction(rng.randrange(0, max_num + 1), rng.randrange(1, max_den + 1))


def rand_poly_interp(
    rng: random.Random, arities: dict[str, int], degree: int, max_den: int = 4
) -> PolyInterpretation:
    from itertools import combinations

    coeffs = {}
    for sym, arity in arities.items():
        row = {frozenset(): rand_fraction(rng, max_den=max_den)}
        for i in range(1, arity + 1):
            row[frozenset((i,))] = 1 + rand_fraction(rng, max_den=max_den)  # monotone witness
        if degree >= 2:
            for pair in combinations(range(1, arity + 1), 2):
                if rng.random() < 0.5:
                    row[frozenset(pair)] = rand_fraction(rng, max_den=max_den)
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


def poly_form_value(form, assignment: dict[str, Fraction]) -> Fraction:
    """Evaluate a PolyForm numerically, independent of eval_term."""
    total = Fraction(0)
    for V, c in form.coeffs.items():
        value = Fraction(c)
        for name in V:
            value *= assignment[name]
        total += value
    return total


def vec_form_value(form, assignment: dict[str, tuple[Fraction, ...]]) -> tuple[Fraction, ...]:
    out = [Fraction(v) for v in form.const]
    for name, M in form.coeffs.items():
        vec = assignment[name]
        for r in range(form.dim):
            out[r] += sum(Fraction(M[r][j]) * vec[j] for j in range(form.dim))
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


def random_ptrs(rng):
    """A small PTRS over f/2, g/1, s/1, a/0 and 0/0; right-hand sides reuse
    left-hand variables, sometimes twice, so instantiation can merge them."""
    signature = Signature({"f": 2, "g": 1, "s": 1, "a": 0, "0": 0})
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


def evaluate(poly: Poly, point: Sequence[int]) -> int:
    """The polynomial's value with unknown i at point[i]."""
    total = 0
    for mono, c in poly.terms.items():
        value = c
        for position in mono:
            value *= point[position]
        total += value
    return total


def enumerate_box(cs: ConstraintSet, limit: int | None = None) -> Iterator[dict[str, int]]:
    """Exhaustive models of the constraint set within its integer box.

    Independent of any solver; the test oracle for small bounds.
    """
    names = [spec.name for spec in cs.unknowns]
    ranges = [range(spec.lo, spec.hi + 1) for spec in cs.unknowns]
    count = 1
    for r in ranges:
        count *= len(r)
    if limit is not None and count > limit:
        raise ValueError(f"box holds {count} assignments, over the limit {limit}")
    for values in iter_product(*ranges):
        if all(evaluate(c.poly, values) >= c.at_least for c in cs.constraints):
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
            encoded = encode(system, shape, config.coeff_bound)
        except DegreeOverflow as exc:
            outcomes.append(ShapeOutcome(shape, "degree-overflow", str(exc)))
            continue
        if box_points(encoded.constraint_set) > limit:
            outcomes.append(ShapeOutcome(shape, "unknown", "solver answered unknown"))
            continue
        result = solve_box(encoded.constraint_set, limit, timeout=config.timeout)
        if result.status == "sat":
            cert = check_certificate(decode(encoded, result.model), system)
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
            parts.append((p, (tuple((q, image) for image, q in chosen.items()), Fraction(1))))
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
            alternatives.append([(tuple((p * q, image) for image, q in d.items()), p) for d in options])
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


# Functions of the package that only tests call, moved here unchanged.


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


def box_points(cs: ConstraintSet) -> int:
    """The number of points the box solver compares with its budget."""
    lo, hi, constraints = cs.search_args()
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


def term_size(term: Term) -> int:
    """Number of nodes, read from the annotation made at construction."""
    return term._size


def constant_part(form: PolyForm) -> Coeff:
    return form.coeffs.get(frozenset(), Fraction(0))


def from_distribution(dist: FiniteDistribution[T]) -> MultiDistribution[T]:
    return MultiDistribution._unchecked(dist.numerators, dist.denominator, dist.denominator)
