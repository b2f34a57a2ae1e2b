"""Exact simulation of multidistribution reduction sequences.

Everything here is computed with rationals; there is no floating point and
no sampling error. "Simulation" means unrolling the semantics, either under
one strategy or exhaustively over all of them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Hashable, NamedTuple

import random

from .interpretations import Certificate, ranking_from_certificate
from .multidist import (
    MultiDistribution,
    Rational,
    as_fraction,
    canonical_order,
    display_key,
    expected_value,  # not called here; bench/tracing.py wraps it at this binding
)
from . import rewriting
from .rewriting import (
    BudgetTracker,
    Chooser,
    Pars,
    PTRS,
    TermPars,
    all_steps,
    leftmost_innermost,
    leftmost_outermost,
    random_term,
    step_multidist,  # not called here; bench/tracing.py wraps it at this binding
)

MODES = {"outermost": leftmost_outermost, "innermost": leftmost_innermost}


class RunConfig(NamedTuple):
    pars: Pars
    start: Hashable
    steps: int
    mode: str | Chooser = "outermost"  # outermost | innermost | exhaustive | any Chooser
    collapse: bool = False
    node_budget: int = 10**6
    keep_trace: bool = False
    # called with the limit the first time run's step table starts afresh
    on_table_full: Callable[[int], None] | None = None


class RunReport(NamedTuple):
    """Masses and expected-derivation-length prefixes, indexed by depth.

    edl[k] is the partial sum mass(mu_1) + ... + mass(mu_k), the portion of
    the expected derivation length visible after k steps; edl[0] = 0. Under
    a single strategy the min and max envelopes coincide with the run
    itself; in exhaustive mode they range over every strategy resolution,
    and branches that meet in the same state merge their edl intervals.
    """

    mode: str
    masses: list[Fraction] | None
    edl: list[Fraction] | None
    mass_min: list[Fraction]
    mass_max: list[Fraction]
    edl_min: list[Fraction]
    edl_max: list[Fraction]
    outcomes: tuple[MultiDistribution, ...]
    trace: list | None
    truncation_hit: bool
    nodes: int


def collapsed(mu: MultiDistribution) -> MultiDistribution:
    """Merge equal objects into single entries, deterministically ordered."""
    return _sorted(mu.merged())


def _sorted(mu: MultiDistribution) -> MultiDistribution:
    """mu with its entries in display_key order; for merged mu, whose
    objects are distinct, that order is total."""
    # numerators over one denominator sort as the weights they stand for
    items = sorted(mu.numerators, key=display_key)
    return MultiDistribution._unchecked(tuple(items), mu.denominator, mu.mass_numerator)


def _hits_truncation(pars: Pars, mu: MultiDistribution) -> bool:
    return pars.truncate is not None and any(pars.truncates(obj) for _, obj in mu.numerators)


def run(config: RunConfig) -> RunReport:
    pars = config.pars
    tracker = BudgetTracker(config.node_budget)
    start = MultiDistribution.point(config.start)
    if config.mode == "exhaustive":
        return _run_exhaustive(config, pars, tracker, start)
    chooser = MODES[config.mode] if isinstance(config.mode, str) else config.mode
    collapse, keep_trace = config.collapse, config.keep_trace
    # Objects are stepped by their index in a table: `index` maps each
    # object met to its number, `objs` lists them, and `rows[j]` is False
    # until objs[j] is stepped, then None when it is terminal, else its
    # chosen reduct as (denominator, [(numerator, image index), ...]). A
    # per-object chooser picks by the object alone, so its row is kept and
    # it is asked once per object per run, in first-seen order; any other
    # chooser is asked once per entry, in entry order. Before a step could
    # take the table past MEMO_LIMIT objects it starts afresh from the
    # live objects.
    per_object = getattr(chooser, "per_object", False)
    limit = rewriting.MEMO_LIMIT
    on_full = config.on_table_full
    index, objs, rows = _fresh_table((config.start,))
    # A state is a list of (numerator, index) over the denominator `den`.
    # A collapsed step sums into the dense `acc`, indexed like objs and 0
    # between steps, and lists each image in `out` when first touched,
    # which merges equal reducts in first-seen order as merged() does.
    # display_key orders distinct objects totally, so a collapsed state is
    # sorted where its order is read: in the trace, in the outcome, and on
    # every step for a chooser that reads entry order.
    sort_each_step = collapse and (keep_trace or not per_object)
    acc = [0]
    state = [(1, 0)]
    den = 1

    def by_display(entry: tuple[int, int]) -> tuple:
        return display_key((entry[0], objs[entry[1]]))

    def as_mu(mass: int) -> MultiDistribution:
        return MultiDistribution._unchecked(tuple((n, objs[j]) for n, j in state), den, mass)

    truncates = pars.truncates if pars.truncate is not None else None
    truncated = truncates is not None and truncates(config.start)
    # Mass and edl are kept as numerators over the step's denominator,
    # which is a multiple of the one before, so the running edl numerator
    # is scaled up to it and the mass numerator added; the Fractions are
    # built once, after the loop.
    edl_num = 0
    sums = [(1, 0, 1)]  # (mass numerator, edl numerator, denominator) per depth
    trace = [start]
    for _ in range(config.steps):
        tracker.spend(max(len(state), 1))
        if len(objs) + len(state) > limit:
            old = objs
            index, objs, rows = _fresh_table(dict.fromkeys(old[j] for _, j in state))
            acc = [0] * len(objs)
            state = [(n, index[old[j]]) for n, j in state]
            if on_full is not None:
                on_full(limit)
                on_full = None
        # bind's rule, so each state's unreduced form is bind's: rows are
        # scaled to the running lcm `common` of their denominators
        out = []
        common, kept = 1, 0
        for n, j in state:
            row = rows[j]
            if row is False:
                dist = pars.choose(objs[j], chooser)
                if dist is not None:
                    pairs = []
                    for m, image in dist.numerators:
                        k = index.get(image)
                        if k is None:
                            k = index[image] = len(objs)
                            objs.append(image)
                            rows.append(False)
                            acc.append(0)
                        pairs.append((m, k))
                    row = (dist.denominator, pairs)
                else:
                    row = None
                if per_object:
                    rows[j] = row
            if row is None:
                continue
            kept += n
            d, pairs = row
            if common % d:
                r = d // gcd(common, d)
                if collapse:
                    for k in out:
                        acc[k] *= r
                else:
                    out = [(r * m, k) for m, k in out]
                common *= r
            if d != common:
                n *= common // d
            if collapse:
                for m, k in pairs:
                    v = acc[k]
                    if v:
                        acc[k] = v + n * m
                    else:
                        acc[k] = n * m
                        out.append(k)
            else:
                for m, k in pairs:
                    out.append((n * m, k))
        if collapse:
            state = [(acc[k], k) for k in out]
            for k in out:
                acc[k] = 0
            if sort_each_step:
                state.sort(key=by_display)
        else:
            state = out
        den *= common
        mass = kept * common
        if truncates is not None and not truncated:
            truncated = any(truncates(objs[j]) for _, j in state)
        edl_num = edl_num * common + mass
        sums.append((mass, edl_num, den))
        if keep_trace:
            trace.append(as_mu(mass))
    if collapse and not sort_each_step:
        state.sort(key=by_display)
    masses = [Fraction(m, d) for m, _, d in sums]
    edl = [Fraction(e, d) for _, e, d in sums]
    return RunReport(
        mode=config.mode if isinstance(config.mode, str) else "custom",
        masses=masses,
        edl=edl,
        mass_min=masses,
        mass_max=masses,
        edl_min=edl,
        edl_max=edl,
        outcomes=(as_mu(sums[-1][0]),),
        trace=trace if keep_trace else None,
        truncation_hit=truncated,
        nodes=tracker.spent,
    )


def _fresh_table(objects) -> tuple[dict, list, list]:
    """A step table that holds just `objects`, distinct and in order, with
    no row built."""
    objs = list(objects)
    return {obj: j for j, obj in enumerate(objs)}, objs, [False] * len(objs)


def _run_exhaustive(config: RunConfig, pars: Pars, tracker: BudgetTracker, start) -> RunReport:
    if config.collapse:
        start = collapsed(start)
    states: dict[MultiDistribution, tuple[Fraction, Fraction]] = {
        start: (Fraction(0), Fraction(0))
    }
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


class EdhEstimate(NamedTuple):
    bound: Fraction  # rank(start) / epsilon
    holds: bool  # every edl prefix stayed at or under the bound
    final_edl: Fraction


def estimate_edh(pars: Pars, cert: Certificate, start: Hashable, report: RunReport) -> EdhEstimate:
    """Certificate-derived bound on the expected derivation length.

    The bound covers the full (infinite) run; any simulated prefix of the
    edl must already respect it.
    """
    rank, epsilon = ranking_from_certificate(cert)
    term = pars.term_view(start)
    if term is None:
        raise ValueError("this system has no term view to rank")
    bound = rank(term) / epsilon
    holds = all(value <= bound for value in report.edl_max)
    return EdhEstimate(bound=bound, holds=holds, final_edl=report.edl_max[-1])


class DriftViolation(NamedTuple):
    """A step that lost too little expected rank. `successor` is the step's
    merged successor, equal objects folded into one entry each and sorted;
    merging keeps its mass and expected rank."""

    trial: int
    depth: int
    state: MultiDistribution
    successor: MultiDistribution
    rank_before: Fraction
    rank_after: Fraction
    epsilon: Fraction

    def __str__(self) -> str:
        return (
            f"trial {self.trial} depth {self.depth}: expected rank {self.rank_before} "
            f"-> {self.rank_after} with surviving mass {self.successor.mass()}, "
            f"needs a drop of {self.epsilon * self.successor.mass()}"
        )


class DriftReport(NamedTuple):
    trials: int
    checks: int
    violation: DriftViolation | None

    @property
    def ok(self) -> bool:
        return self.violation is None


def drift_harness(
    system: PTRS,
    cert: Certificate,
    *,
    trials: int = 100,
    max_depth: int = 20,
    rng: random.Random,
    epsilon: Rational | str | None = None,
    term_depth: int = 4,
    max_width: int = 32,
) -> DriftReport:
    """Adversarial check of the expected-rank drop along random runs.

    Every step under every strategy must lose at least epsilon times the
    surviving mass in expected rank. Passing epsilon explicitly (say twice
    the certified one) lets tests confirm the harness can catch forgeries;
    it is read exactly, as multidist.as_fraction reads it.

    Each step picks one redex per entry at random, folds equal reducts as
    it adds them, in first-seen order as `merged()` does, and sorts the
    result in display order, so a state lists each object once. Expected
    rank and mass are sums over the entries, so merging keeps the check
    exact. The check compares integer cross-products of the unreduced
    expected ranks; Fraction ranks and multidistributions are built only
    for a reported violation.

    States wider than max_width are trimmed to their heaviest entries.
    The inequality is a sum of per-entry inequalities, so it must hold for
    every sub-multiset as well; trimming keeps systems whose distinct
    reducts multiply (nested redexes) from going exponential.
    """
    pars = TermPars(system)
    rank, certified = ranking_from_certificate(cert)
    required = certified if epsilon is None else as_fraction(epsilon)
    e_num, e_den = required.numerator, required.denominator
    randrange = rng.randrange
    last = max_depth - 1

    # Objects are stepped by their number in a table filled as it is read:
    # `index` maps each object met to its number and `objs` lists them.
    # Per object, `ranks` holds its rank as (numerator, denominator),
    # `keys` its display_key as (type name, text) once it is sorted, and
    # `steps` False until it is stepped, then None when it is terminal,
    # else its redex index entry and a dict from redex number to reduct as
    # (denominator, [(numerator, image number), ...]). `acc` is all 0
    # between steps. Past MEMO_LIMIT objects the table starts afresh
    # before the next trial.
    def number(obj: Hashable) -> int:
        k = index.get(obj)
        if k is None:
            k = index[obj] = len(objs)
            objs.append(obj)
            value = rank(obj)
            ranks.append((value, 1) if value.__class__ is int else (value.numerator, value.denominator))
            keys.append(None)
            steps.append(False)
            acc.append(0)
        return k

    def expected(state: list[tuple[int, int]], den: int) -> tuple[int, int]:
        """The expected rank of a state over den, as (numerator, denominator)."""
        num, common = 0, 1
        for n, k in state:
            v, d = ranks[k]
            if d == common:
                num += n * v
            else:
                g = gcd(common, d)
                num = num * (d // g) + n * v * (common // g)
                common = common // g * d
        return num, common * den

    def display_sort(state: list[tuple[int, int]]) -> None:
        for _, k in state:
            if keys[k] is None:
                obj = objs[k]
                keys[k] = (type(obj).__name__, str(obj))
        state.sort(key=lambda e: (keys[e[1]], e[0]))

    checks = 0
    for trial in range(trials):
        if not trial or len(objs) > rewriting.MEMO_LIMIT:
            index, objs, ranks, keys, steps, acc = {}, [], [], [], [], []
        # A state is a list of (numerator, number) over `den`, of mass
        # `mass` over den; its expected rank is b / b_den.
        state = [(1, number(random_term(system.signature, rng, max_depth=term_depth)))]
        den = mass = 1
        b, b_den = ranks[state[0][1]]
        for depth in range(max_depth):
            if not state:
                break
            # bind's rule, so each state's unreduced form is that of bind
            # then merged(): rows are scaled to the running lcm `common` of
            # their denominators
            out = []
            common, kept = 1, 0
            for n, j in state:
                step = steps[j]
                if step is False:
                    top = pars._entry(objs[j])
                    step = steps[j] = (top, {}) if top.count else None
                if step is None:
                    continue
                top, rows = step
                r = randrange(top.count)
                row = rows.get(r)
                if row is None:
                    dist = pars._reduct(top, r, keep_spine=True)
                    row = rows[r] = (dist.denominator, [(m, number(image)) for m, image in dist.numerators])
                d, pairs = row
                kept += n
                if common % d:
                    f = d // gcd(common, d)
                    for k in out:
                        acc[k] *= f
                    common *= f
                if d != common:
                    n *= common // d
                for m, k in pairs:
                    w = acc[k]
                    if w:
                        acc[k] = w + n * m
                    else:
                        acc[k] = n * m
                        out.append(k)
            successor = [(acc[k], k) for k in out]
            for k in out:
                acc[k] = 0
            checks += 1
            s_den, s_mass = den * common, kept * common
            a, a_den = expected(successor, s_den)
            # before < after + required * mass, times the positive denominators
            e = e_den * s_den
            if b * a_den * e < (a * e + e_num * s_mass * a_den) * b_den:
                display_sort(successor)
                return DriftReport(trial + 1, checks, DriftViolation(
                    trial, depth, _as_mu(state, objs, den, mass), _as_mu(successor, objs, s_den, s_mass),
                    Fraction(b, b_den), Fraction(a, a_den), required,
                ))
            if depth == last:
                break  # the state is not read again
            display_sort(successor)
            state, den, mass, b, b_den = successor, s_den, s_mass, a, a_den
            if len(state) > max_width:
                state.sort(key=lambda e: (-e[0], keys[e[1]]))
                del state[max_width:]
                mass = sum(n for n, _ in state)
                b, b_den = expected(state, den)
    return DriftReport(trials, checks, None)


def _as_mu(state: list[tuple[int, int]], objs: list, den: int, mass: int) -> MultiDistribution:
    return MultiDistribution._unchecked(tuple((n, objs[k]) for n, k in state), den, mass)
