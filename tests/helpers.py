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
from itertools import product as iter_product
from math import gcd, lcm, prod
from typing import Any, Hashable, Iterable, Iterator, Sequence

from ptrs.boxsolver import narrow
from ptrs.interpretations import (
    Coeff,
    DegreeOverflow,
    Form,
    Interpretation,
    Matrix,
    MatrixInterpretation,
    PolyForm,
    PolyInterpretation,
    Vector,
    check_certificate,
    orientation_entries,
    ranking_from_certificate,
    symbolic_eval,
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
    _hits_truncation,
    _sorted,
    collapsed,
)
from ptrs.smt import ConstraintSet, Poly, Shape, decode, encode, in_process_limit, solve_box, template
from ptrs.terms import App, Position, Signature, Term, Var, variables
from ptrs.wst import ElaborationError, ParseError, ProblemFile, RawRule, Token, tokenize

BOXSOLVER = f"{sys.executable} -m ptrs.boxsolver"  # the shipped box solver, run in process


def rule_difference(interp: Interpretation, rule: ProbRule, cap: int | None = None) -> Form:
    """Interpretation of the left-hand side minus the expected interpretation
    of the right-hand side: each term evaluated afresh, each scaled by its
    Fraction probability. The per-term oracle for `weighted_difference`."""
    lhs = symbolic_eval(interp, rule.lhs, cap)
    expected: Form | None = None
    for term, p in rule.rhs.items():
        part = symbolic_eval(interp, term, cap).scale(p)
        expected = part if expected is None else expected.add(part)
    return lhs.sub(expected)


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


# A single-strategy run as `simulator.run` took it before it stepped over
# integer indices: every step through `MultiDistribution.bind`, a
# per-object chooser's answers kept in a `picks` dict for the whole run
# and started afresh before they could pass MEMO_LIMIT. It is the oracle of
# the differential tests of `run`.


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
        nu = mu.bind(picks.__getitem__)
    else:
        nu = mu.bind(lambda obj: pars.choose(obj, chooser))
    return nu.merged() if merge else nu


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
def proved_certificates(seed: int = 20261019, count: int = 40) -> tuple[tuple[PTRS, str], ...]:
    """(system, certificate text) of every YES that `prove` with the box
    solver, at coefficient bounds 1 and 2, gives on seeded `random_ptrs`
    systems; the text is the certificate `prove --json` prints."""
    rng = random.Random(seed)
    proved = []
    for _ in range(count):
        system = random_ptrs(rng)
        for bound in (1, 2):
            verdict = prove(system, ProverConfig(solver=BOXSOLVER, coeff_bound=bound))
            if verdict.kind == "YES":
                proved.append((system, verdict_json(verdict, system)["certificate"]))
    return tuple(proved)


# Functions of the package that only tests call, moved here unchanged.


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


def problem_of(system: PTRS) -> ProblemFile:
    """The system as rules written with its integer weights, for `render_problem`."""
    rules = tuple(RawRule(rule.lhs, rule.rhs.numerators) for rule in system.rules)
    names = sorted(set().union(*(variables(rule.lhs) for rule in system.rules)))
    return ProblemFile(tuple(names), rules, system.signature)


def term_size(term: Term) -> int:
    """Number of nodes, read from the annotation made at construction."""
    return term._size


def constant_part(form: PolyForm) -> Coeff:
    return form.coeffs.get(frozenset(), Fraction(0))


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
