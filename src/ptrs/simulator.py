"""Exact simulation of multidistribution reduction sequences.

Everything here is computed with rationals; there is no floating point and
no sampling error. "Simulation" means unrolling the semantics, either under
one strategy or exhaustively over all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable

import random

from .interpretations import Certificate, ranking_from_certificate
from .multidist import (
    MultiDistribution,
    Rational,
    as_fraction,
    canonical_order,
    display_key,
    expected_numerator,
    expected_value,
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
    random_chooser,
    random_term,
    step_multidist,
)

MODES = {"outermost": leftmost_outermost, "innermost": leftmost_innermost}


@dataclass
class RunConfig:
    pars: Pars
    start: Hashable
    steps: int
    mode: str | Chooser = "outermost"  # outermost | innermost | exhaustive | any Chooser
    collapse: bool = False
    node_budget: int = 10**6
    keep_trace: bool = False


@dataclass
class RunReport:
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
    # display_key orders distinct objects totally, so a collapsed state
    # lists the same however its entries were ordered before the sort. It
    # is sorted where the order is read: in the trace, in the outcome, and
    # on every step for a chooser that reads entry order (random draws).
    # Each collapsed step merges equal objects in first-seen order while
    # it binds; the sort waits for the final state otherwise. A per-object chooser picks by the object alone, so it is asked once
    # per object per run: `picks` starts afresh before a step could take
    # it past MEMO_LIMIT entries (other choosers never read it).
    sort_each_step = config.keep_trace or not getattr(chooser, "per_object", False)
    picks: dict = {}
    mu = start
    masses = [mu.mass()]
    edl = [Fraction(0)]
    trace = [mu]
    truncated = _hits_truncation(pars, mu)
    for _ in range(config.steps):
        tracker.spend(max(len(mu), 1))
        if len(picks) + len(mu) > rewriting.MEMO_LIMIT:
            picks = {}
        mu = step_multidist(pars, mu, chooser, picks, merge=config.collapse)
        if config.collapse and sort_each_step:
            mu = _sorted(mu)
        truncated = truncated or _hits_truncation(pars, mu)
        mass = mu.mass()
        masses.append(mass)
        edl.append(edl[-1] + mass)
        if config.keep_trace:
            trace.append(mu)
    if config.collapse and not sort_each_step:
        mu = _sorted(mu)
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


@dataclass
class EdhEstimate:
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


@dataclass
class DriftViolation:
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


@dataclass
class DriftReport:
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

    Each step merges equal reducts as it binds and sorts the result, so a
    state lists each object once and its rank is computed once. Expected
    rank and mass are sums over the entries, so merging keeps the check
    exact. The check compares integer cross-products of the unreduced
    expected ranks; Fraction ranks are computed only for a reported
    violation.

    States wider than max_width are trimmed to their heaviest entries.
    The inequality is a sum of per-entry inequalities, so it must hold for
    every sub-multiset as well; trimming keeps systems whose distinct
    reducts multiply (nested redexes) from going exponential.
    """
    pars = TermPars(system)
    rank, certified = ranking_from_certificate(cert)
    required = certified if epsilon is None else as_fraction(epsilon)
    e_num, e_den = required.numerator, required.denominator

    checks = 0
    for trial in range(trials):
        start = random_term(system.signature, rng, max_depth=term_depth)
        mu = MultiDistribution.point(start)
        before = expected_numerator(mu, rank)  # (num, den) of mu's expected rank
        chooser = random_chooser(rng)
        for depth in range(max_depth):
            if not mu.numerators:
                break
            nu = _sorted(step_multidist(pars, mu, chooser, merge=True))
            checks += 1
            after = expected_numerator(nu, rank)
            # before < after + required * mass, times the positive denominators
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
