"""Exact simulation of multidistribution reduction sequences.

Everything here is computed with rationals; there is no floating point and
no sampling error. "Simulation" means unrolling the semantics, either under
one strategy or exhaustively over all of them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, prod
from typing import Callable, Hashable, NamedTuple

import random

from .interpretations import Certificate, ranking_from_certificate
from .multidist import (
    MultiDistribution,
    Rational,
    _step,
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
    TermPars,
    all_steps,  # not called here; bench/tracing.py wraps it at this binding
    leftmost_innermost,
    leftmost_outermost,
    step_multidist,  # not called here; bench/tracing.py wraps it at this binding
    term_sampler,
)
from .rules import PTRS

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
    """Merge equal objects into single entries, in display_key order: total
    on distinct objects, with numerators sorting as the weights they are."""
    mu = mu.merged()
    items = tuple(sorted(mu.numerators, key=display_key))
    return MultiDistribution._unchecked(items, mu.denominator, mu.mass_numerator)


def run(config: RunConfig) -> RunReport:
    pars = config.pars
    tracker = BudgetTracker(config.node_budget)
    if config.mode == "exhaustive":
        return _run_exhaustive(config, tracker)
    chooser = MODES[config.mode] if isinstance(config.mode, str) else config.mode
    collapse, keep_trace = config.collapse, config.keep_trace
    # Objects are stepped by number in a _table. A per-object chooser picks
    # by the object alone, so rows[j] keeps the row of objs[j]'s chosen
    # reduct, None when it is terminal, and the chooser is asked once per
    # object per run, in first-seen order; any other chooser is asked once
    # per entry, in entry order. Before a step could take the table past
    # MEMO_LIMIT objects it starts afresh from the live ones.
    per_object = getattr(chooser, "per_object", False)
    limit = rewriting.MEMO_LIMIT
    on_full = config.on_table_full
    number, objs, rows, keys, acc = _table()

    def chosen(j: int) -> tuple[int, list[tuple[int, int]]] | None:
        dist = pars.choose(objs[j], chooser)
        return None if dist is None else (dist.denominator, [(m, number(image)) for m, image in dist.numerators])

    # A state is a list of (numerator, index) over the denominator `den`.
    # display_key orders distinct objects totally, so a collapsed state is
    # sorted where its order is read: in the trace, in the outcome, and on
    # every step for a chooser that reads entry order.
    sort_each_step = collapse and (keep_trace or not per_object)
    state = [(1, number(config.start))]
    den = 1
    truncates = pars.truncates if pars.truncate is not None else None
    truncated = truncates is not None and truncates(config.start)
    # Mass and edl are kept as numerators over the step's denominator,
    # which is a multiple of the one before, so the running edl numerator
    # is scaled up to it and the mass numerator added; the Fractions are
    # built once, after the loop.
    edl_num = 0
    sums = [(1, 0, 1)]  # (mass numerator, edl numerator, denominator) per depth
    trace = [MultiDistribution.point(config.start)]
    for _ in range(config.steps):
        tracker.spend(max(len(state), 1))
        if len(objs) + len(state) > limit:
            live = [(n, objs[j]) for n, j in state]
            number, objs, rows, keys, acc = _table()
            state = [(n, number(obj)) for n, obj in live]
            if on_full is not None:
                on_full(limit)
                on_full = None
        if per_object:
            for j in range(len(rows), len(objs)):
                rows.append(chosen(j))
            state, common, kept = _step(state, rows, acc, collapse)
        else:  # entry i takes the i-th row chosen
            picked = [chosen(j) for _, j in state]
            state, common, kept = _step([(n, i) for i, (n, _) in enumerate(state)], picked, acc, collapse)
        if sort_each_step:
            _display_sort(state, objs, keys)
        den *= common
        mass = kept * common
        if truncates is not None and not truncated:
            truncated = any(truncates(objs[j]) for _, j in state)
        edl_num = edl_num * common + mass
        sums.append((mass, edl_num, den))
        if keep_trace:
            trace.append(_as_mu(state, objs, den, mass))
    if collapse and not sort_each_step:
        _display_sort(state, objs, keys)
    masses = [Fraction(m, d) for m, _, d in sums]
    edl = [Fraction(e, d) for _, e, d in sums]
    return RunReport(
        mode=config.mode if isinstance(config.mode, str) else "custom", masses=masses, edl=edl,
        mass_min=masses, mass_max=masses, edl_min=edl, edl_max=edl,
        outcomes=(_as_mu(state, objs, den, sums[-1][0]),), trace=trace if keep_trace else None,
        truncation_hit=truncated, nodes=tracker.spent,
    )


def _run_exhaustive(config: RunConfig, tracker: BudgetTracker) -> RunReport:
    """Every strategy at once: a state steps to one successor per choice of
    an option row for each nonterminal entry, as in all_steps. A state is a
    list of (numerator, number) over a denominator, kept as first met (a
    collapsed one in display order) and keyed by its form divided by the
    gcd, pairs sorted. rows[j] lists the option rows of objs[j]. States
    name objects by number, so the table never starts afresh; the node
    budget bounds it."""
    pars, collapse = config.pars, config.collapse
    number, objs, rows, keys, acc = _table()

    def levels() -> tuple[MultiDistribution, ...]:
        return tuple(canonical_order(_as_mu(state, objs, den, sum(n for n, _ in state))
                                     for state, den, _, _ in states.values()))

    start = [(1, number(config.start))]
    states = {(1, tuple(start)): [start, 1, Fraction(0), Fraction(0)]}  # key: [state, den, least, greatest edl]
    envelopes = [(Fraction(1), Fraction(1), Fraction(0), Fraction(0))]  # least, greatest mass and edl per depth
    trace = [levels()] if config.keep_trace else None
    for _ in range(config.steps):
        for j in range(len(rows), len(objs)):
            rows.append([(dist.denominator, [(m, number(image)) for m, image in dist.numerators])
                         for dist in pars.options(objs[j])])
        successors: dict[tuple, list] = {}
        for state, den, lo, hi in states.values():
            live = [(n, j) for n, j in state if rows[j]]
            choices = [rows[j] for _, j in live]
            tracker.spend(prod(map(len, choices)) * len(choices))
            # every successor keeps the mass of the nonterminal entries; a
            # state with none steps to the one empty state
            mass = Fraction(sum(n for n, _ in live), den)
            lo, hi = lo + mass, hi + mass
            reached: dict[tuple, list] = {}  # successors met from state, by their unreduced form
            entries = [(n, i) for i, (n, _) in enumerate(live)]  # entry i takes combo[i]
            for combo in product(*choices):
                successor, common, _ = _step(entries, combo, acc, collapse)
                reached.setdefault((den * common, tuple(sorted(successor))), successor)
            for (d, pairs), successor in reached.items():
                g = gcd(d, *[n for n, _ in pairs])
                key = (d // g, tuple((n // g, k) for n, k in pairs))
                seen = successors.get(key)
                if seen is None:
                    if collapse:
                        _display_sort(successor, objs, keys)
                    successors[key] = [successor, d, lo, hi]
                else:
                    seen[2], seen[3] = min(seen[2], lo), max(seen[3], hi)
        states = successors
        masses, los, his = zip(*((Fraction(sum(n for n, _ in s), d), lo, hi) for s, d, lo, hi in states.values()))
        envelopes.append((min(masses), max(masses), min(los), max(his)))
        if trace is not None:
            trace.append(levels())
    mass_min, mass_max, edl_min, edl_max = map(list, zip(*envelopes))
    return RunReport(
        mode="exhaustive", masses=None, edl=None,
        mass_min=mass_min, mass_max=mass_max, edl_min=edl_min, edl_max=edl_max,
        outcomes=levels(), trace=trace, nodes=tracker.spent,
        truncation_hit=pars.truncate is not None and any(map(pars.truncates, objs)),
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

    The system keeps what a call learns, for the certificate it was last
    checked against: each object met is matched, ranked, rendered and has
    each drawn redex contracted once for as long as the system lives, not
    once per call. A call on another certificate replaces that state. The
    state starts afresh before a trial once it passes MEMO_LIMIT objects
    or redex-index nodes, so it holds at most about that many of each plus
    one trial's. Reports do not depend on it.
    """
    # The state a system keeps for its last certificate: (cert, certified
    # epsilon, start-term sampler, TermPars, rank function, table). Objects
    # are stepped by their number in the table, filled as it is read:
    # `index` maps each object met to its number and `objs` lists them.
    # Per object, `ranks` holds its rank as (numerator, denominator),
    # `keys` its display_key as (type name, text) once it is sorted, and
    # `steps` False until it is stepped, then None when it is terminal,
    # else its redex index entry, whose `reducts` keep the reduct of each
    # redex drawn there; a step looks up the number of each image. `acc`
    # is all 0 between steps.
    try:
        held = system._drift.pop()
    except IndexError:  # none kept, or another call has it
        held = None
    if held is None or held[0] is not cert:
        held = _fresh_drift(system, cert)
    _, certified, draw, pars, rank, (index, objs, ranks, keys, steps, acc) = held
    required = certified if epsilon is None else as_fraction(epsilon)
    e_num, e_den = required.numerator, required.denominator
    randrange = rng.randrange
    last = max_depth - 1

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

    checks = 0
    for trial in range(trials):
        if len(objs) > rewriting.MEMO_LIMIT or len(pars._memo) >= rewriting.MEMO_LIMIT:
            held = _fresh_drift(system, cert)
            _, _, _, pars, rank, (index, objs, ranks, keys, steps, acc) = held
        # A state is a list of (numerator, number) over `den`, of mass
        # `mass` over den; its expected rank is b / b_den.
        state = [(1, number(draw(rng, term_depth)))]
        den = mass = 1
        b, b_den = ranks[state[0][1]]
        for depth in range(max_depth):
            if not state:
                break
            # multidist._step's rule, written out to read each drawn reduct
            # off its redex index entry: compiled rows would keep every
            # draw's images for as long as the system keeps the table.
            # Routed through _step, drift-rank (2 vCPUs, 10 alternating pairs each) ran
            # 767 against 1065 ops/s with rows built per step (p50 1.26
            # against 0.94 ms), and 927 against 1099 ops/s with rows cached
            # per object and redex, holding 0.8 MiB more
            out = []
            common, kept = 1, 0
            for n, j in state:
                top = steps[j]
                if top is False:
                    top = pars._entry(objs[j])
                    top = steps[j] = top if top.count else None
                if top is None:
                    continue
                r = randrange(top.count)
                dist = top.reducts.get(r)
                if dist is None:
                    dist = pars._reduct(top, r)
                d = dist.denominator
                kept += n
                if common % d:
                    f = d // gcd(common, d)
                    for k in out:
                        acc[k] *= f
                    common *= f
                if d != common:
                    n *= common // d
                for m, image in dist.numerators:
                    k = index.get(image)
                    if k is None:
                        k = number(image)
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
                _display_sort(successor, objs, keys)
                system._drift[:] = (held,)
                return DriftReport(trial + 1, checks, DriftViolation(
                    trial, depth, _as_mu(state, objs, den, mass), _as_mu(successor, objs, s_den, s_mass),
                    Fraction(b, b_den), Fraction(a, a_den), required,
                ))
            if depth == last:
                break  # the state is not read again
            _display_sort(successor, objs, keys)
            state, den, mass, b, b_den = successor, s_den, s_mass, a, a_den
            if len(state) > max_width:
                state.sort(key=lambda e: (-e[0], keys[e[1]]))
                del state[max_width:]
                mass = sum(n for n, _ in state)
                b, b_den = expected(state, den)
    system._drift[:] = (held,)
    return DriftReport(trials, checks, None)


def _fresh_drift(system: PTRS, cert: Certificate) -> tuple:
    """drift_harness's state for system and cert, with an empty table."""
    rank, certified = ranking_from_certificate(cert)
    return cert, certified, term_sampler(system.signature), TermPars(system), rank, ({}, [], [], [], [], [])


def _table() -> tuple:
    """An empty step table (number, objs, rows, keys, acc): number(obj)
    numbers objects in the order met, adding new ones to objs; keys[j] is
    None until objs[j] is sorted. Every row's images are in the next state,
    so rows, one per object stepped, are compiled for the objects from
    len(rows) on before each step."""
    index, objs, rows, keys, acc = {}, [], [], [], []

    def number(obj: Hashable) -> int:
        k = index.get(obj)
        if k is None:
            k = index[obj] = len(objs)
            objs.append(obj)
            keys.append(None)
            acc.append(0)
        return k

    return number, objs, rows, keys, acc


def _as_mu(state: list[tuple[int, int]], objs: list, den: int, mass: int) -> MultiDistribution:
    return MultiDistribution._unchecked(tuple((n, objs[k]) for n, k in state), den, mass)


def _display_sort(state: list[tuple[int, int]], objs: list, keys: list) -> None:
    """Sort state, a list of (numerator, number), in display_key order;
    keys[k] holds the (type name, text) of objs[k] once it is first read."""
    for _, k in state:
        if keys[k] is None:
            keys[k] = (type(objs[k]).__name__, str(objs[k]))
    state.sort(key=lambda e: (keys[e[1]], e[0]))
