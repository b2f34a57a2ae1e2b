import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from pathlib import Path

import pytest

from helpers import (
    brute_force_reducts,
    collapse,
    dp_random_walk,
    hitting_times_truncated,
    looping_ptrs,
    mapped,
    proved_certificates,
    random_chooser,
    random_ptrs,
    random_term,
    reference_all_steps,
    reference_collapsed,
    reference_drift_harness,
    reference_exhaustive,
    reference_expected_value,
    reference_merged_steps,
    reference_run,
    reference_step,
    stepping_drift_harness,
    value_iteration,
    walk_masses,
    walk_partial_edl,
)
from ptrs import rewriting, simulator
from ptrs.certtext import load_interpretation, parse_interpretation, render_interpretation
from ptrs.interpretations import check_certificate
from ptrs.multidist import FiniteDistribution, MultiDistribution, expected_value
from ptrs.prover import check_only
from ptrs.rewriting import (
    BudgetTracker,
    NodeBudgetExceeded,
    NondetBranch,
    Pars,
    Payout,
    RandomWalk,
    Stake,
    TermPars,
    all_steps,
    random_walk_ptrs,
    step_multidist,
)
from ptrs.simulator import (
    MODES,
    RunConfig,
    collapsed,
    drift_harness,
    estimate_edh,
    run,
)
from ptrs.terms import App
from ptrs.wst import elaborate, load_system, parse_problem

F = Fraction
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def test_walk_quarter_up_sequence():
    # One token at 1; after the step the halves at 0 and 2 split, the zero
    # half is gone by step 2, and step 3 carries two separate 1/8 entries
    # at position 2.
    report = run(RunConfig(RandomWalk(F(1, 2)), 1, 3, keep_trace=True))
    assert report.trace[0] == MultiDistribution.point(1)
    assert report.trace[1] == MultiDistribution([(F(1, 2), 0), (F(1, 2), 2)])
    assert report.trace[2] == MultiDistribution([(F(1, 4), 1), (F(1, 4), 3)])
    assert report.trace[3] == MultiDistribution(
        [(F(1, 8), 0), (F(1, 8), 2), (F(1, 8), 2), (F(1, 8), 4)]
    )
    assert report.masses == [F(1), F(1), F(1, 2), F(1, 2)]
    assert report.edl == [F(0), F(1), F(3, 2), F(2)]
    assert report.outcomes == (report.trace[3],)
    assert not report.truncation_hit


def test_walk_against_independent_dp():
    for p, start, steps in ((F(3, 4), 3, 12), (F(1, 2), 1, 10), (F(1, 3), 2, 8)):
        report = run(RunConfig(RandomWalk(p), start, steps, collapse=True, keep_trace=True))
        table = dp_random_walk(p, start, steps)
        for depth, state in enumerate(report.trace):
            assert collapse(state) == table[depth]
        assert report.masses == walk_masses(p, start, steps)
        assert report.edl == walk_partial_edl(p, start, steps)


def test_collapse_mode_preserves_masses():
    raw = run(RunConfig(RandomWalk(F(1, 2)), 2, 8))
    merged = run(RunConfig(RandomWalk(F(1, 2)), 2, 8, collapse=True))
    assert raw.masses == merged.masses
    assert raw.edl == merged.edl
    assert len(merged.outcomes[0].entries) <= len(raw.outcomes[0].entries)


def test_term_walk_matches_abstract_walk():
    system = random_walk_ptrs(F(3, 4))
    pars = TermPars(system)
    walk = RandomWalk(F(3, 4))
    term_report = run(RunConfig(pars, pars.parse_object("s(s(0))"), 6, keep_trace=True))
    wanted = run(RunConfig(walk, 2, 6, keep_trace=True))
    for term_state, walk_state in zip(term_report.trace, wanted.trace):
        assert mapped(term_state, str) == mapped(walk_state, lambda n: str(walk.term_view(n)))
    assert term_report.masses == wanted.masses


def test_branching_exhaustive_depth_three():
    report = run(RunConfig(NondetBranch(), "a", 3, mode="exhaustive"))
    d1, d2 = "d1", "d2"
    expected = [
        MultiDistribution([(F(1, 2), d1), (F(1, 2), d1)]),
        MultiDistribution([(F(1, 2), d1), (F(1, 2), d2)]),
        MultiDistribution([(F(1, 2), d2), (F(1, 2), d2)]),
    ]
    assert sorted(map(str, report.outcomes)) == sorted(map(str, expected))
    merged = {str(collapsed(mu)) for mu in report.outcomes}
    assert merged == {"{1: d1}", "{1/2: d1, 1/2: d2}", "{1: d2}"}
    # all schedulers keep full mass here, so the envelopes are degenerate
    assert report.mass_min == report.mass_max == [F(1)] * 4
    assert report.edl_min == report.edl_max == [F(0), F(1), F(2), F(3)]


def test_brute_force_levels():
    levels = brute_force_reducts(NondetBranch(), "a", 3)
    assert [len(level) for level in levels] == [1, 1, 1, 3]
    deeper = brute_force_reducts(NondetBranch(), "c", 2)
    assert [len(level) for level in deeper] == [1, 2, 1]
    assert deeper[2] == [MultiDistribution.empty()]


def test_exhaustive_envelopes_split_for_payout():
    # The scheduler decides whether the stake is cashed or raised, so the
    # edl range genuinely opens up: cashing at round 0 ends after one step
    # (rank 0 countdown), raising keeps half the mass alive.
    report = run(RunConfig(Payout(), Stake(0), 4, mode="exhaustive"))
    assert report.mass_min[-1] < report.mass_max[-1]
    assert report.edl_min[-1] < report.edl_max[-1]


def test_stakes_are_values_in_a_payout_run():
    # stakes built afresh by the run equal, hash and print like new ones
    report = run(RunConfig(Payout(), Stake(0), 3, mode="exhaustive", keep_trace=True))
    stakes = {obj for level in report.trace for mu in level for _, obj in mu.entries if isinstance(obj, Stake)}
    assert stakes == {Stake(0), Stake(1), Stake(2), Stake(3)}
    assert Stake(2) != Stake(3) and Stake(2) != 2
    assert sorted(map(str, stakes)) == ["a0", "a1", "a2", "a3"]


def test_payout_cash_at_n_edl():
    # Cash at round n: survival 2^-n, then a countdown of 2^n * n steps,
    # contributing a full n to the edl; over all n this is unbounded even
    # though each run terminates almost surely.
    for n in (2, 4, 6, 8):
        def cash_at(pars, obj, options, stop=n):
            return 1 if isinstance(obj, Stake) and obj.round >= stop else 0

        depth = n + 2 + 2**n * n  # rounds, cash, countdown, final vanish
        report = run(RunConfig(Payout(), Stake(0), depth, mode=cash_at))
        assert report.masses[-1] == 0  # the countdown has finished
        assert report.edl[-1] >= n


def test_node_budget_enforced():
    with pytest.raises(NodeBudgetExceeded):
        run(RunConfig(RandomWalk(F(1, 2)), 4, 40, node_budget=100))
    with pytest.raises(NodeBudgetExceeded):
        run(RunConfig(Payout(), Stake(0), 12, mode="exhaustive", node_budget=50))


def test_truncation_flag():
    cut = run(RunConfig(RandomWalk(F(1, 2), truncate=3), 1, 6))
    assert cut.truncation_hit
    assert cut.masses[-1] < 1  # truncated entries count as terminal
    free = run(RunConfig(RandomWalk(F(1, 2)), 1, 6))
    assert not free.truncation_hit


def test_estimate_edh_walk_bound():
    system = random_walk_ptrs(F(3, 4))
    cert = check_certificate(parse_interpretation("poly\n[0] = 0\n[s](x) = x + 1\n"), system)
    pars = TermPars(system)
    start = pars.parse_object("s(s(s(s(0))))")
    report = run(RunConfig(pars, start, 40, collapse=True))
    estimate = estimate_edh(pars, cert, start, report)
    assert estimate.bound == 8  # rank 4 over epsilon 1/2
    assert estimate.holds
    assert F(15, 2) < estimate.final_edl < 8


def test_estimate_edh_needs_a_term_view():
    # the nd family's objects are names, which no certificate ranks
    cert = check_certificate(parse_interpretation("poly\n[0] = 0\n[s](x) = x + 1\n"), random_walk_ptrs(F(3, 4)))
    pars = NondetBranch()
    report = run(RunConfig(pars, "a", 2))
    with pytest.raises(ValueError, match="^this system has no term view to rank$"):
        estimate_edh(pars, cert, "a", report)


def test_edl_prefixes_approach_twice_height():
    # hitting_times_truncated solves the expected-time system exactly; the
    # unbounded walk's edl prefixes must approach it from below.
    times = hitting_times_truncated(F(3, 4), 64)
    for n in (1, 2, 3):
        assert abs(times[n] - 2 * n) < F(1, 1000)
        report = run(RunConfig(RandomWalk(F(3, 4)), n, 120, collapse=True))
        assert report.edl[-1] <= 2 * n
        assert report.edl[-1] > 2 * n - F(1, 100)
        assert all(report.edl[k] <= report.edl[k + 1] for k in range(120))


def test_drift_harness_accepts_valid_certificate():
    system = random_walk_ptrs(F(3, 4))
    cert = check_certificate(parse_interpretation("poly\n[0] = 0\n[s](x) = x + 1\n"), system)
    report = drift_harness(system, cert, trials=60, max_depth=15, rng=random.Random(11))
    assert report.ok
    assert report.checks > 100


def test_drift_harness_catches_inflated_epsilon():
    system = random_walk_ptrs(F(3, 4))
    cert = check_certificate(parse_interpretation("poly\n[0] = 0\n[s](x) = x + 1\n"), system)
    forged = drift_harness(
        system,
        cert,
        trials=60,
        max_depth=15,
        rng=random.Random(11),
        epsilon=cert.epsilon * 2,
    )
    assert not forged.ok
    assert forged.violation.rank_before < forged.violation.rank_after + Fraction(
        forged.violation.epsilon
    ) * forged.violation.successor.mass()
    assert "needs a drop" in str(forged.violation)


HALVES = "poly\n[0] = 1/2\n[s](x) = x + 3/2\n"  # an rw34 certificate with Fraction ranks

# Seeded drift_harness runs and their reports: (problem, certificate text
# or None for the shipped one, seed, trials, max_depth, epsilon as a factor
# of the certified one or an explicit Fraction, max_width) -> (trials,
# checks, str(violation)). The rw34 runs at widths 3 and 2 trim their
# states; the last one is a violation reached only after trims, so it
# also pins the expected rank of a trimmed state.
DRIFT_PINS = [
    (("coingame", None, 2, 30, 12, 1, 32), (30, 62, "None")),
    (("matrix", None, 3, 30, 12, 1, 32), (30, 85, "None")),
    (("rw34", None, 4, 20, 15, 1, 32), (20, 188, "None")),
    (("rw34", None, 5, 30, 15, 2, 32), (1, 1, "trial 0 depth 0: expected rank 4 -> 7/2 "
                                           "with surviving mass 1, needs a drop of 1")),
    (("matrix", None, 6, 30, 15, 2, 32), (2, 2, "trial 1 depth 0: expected rank 1 -> 1/2 "
                                             "with surviving mass 1, needs a drop of 1")),
    (("rw34", None, 4, 20, 15, 1, 3), (20, 244, "None")),
    (("rw34", "poly\n[0] = 0\n[s](x) = 2*x + 1\n", 1, 10, 10, F(3, 4), 2),
     (2, 4, "trial 1 depth 2: expected rank 51/16 -> 171/64 with surviving mass 15/16, "
            "needs a drop of 45/64")),
    # fractional ranks (certified epsilon 3/4)
    (("rw34", HALVES, 4, 20, 15, 1, 32), (20, 188, "None")),
    (("rw34", HALVES, 4, 20, 15, 2, 32), (2, 2, "trial 1 depth 0: expected rank 3/2 -> 3/4 "
                                                "with surviving mass 1, needs a drop of 3/2")),
    (("rw34", HALVES, 4, 20, 15, 1, 2), (20, 230, "None")),
    (("rw34", "poly\n[0] = 1/2\n[s](x) = 2*x + 3/2\n", 1, 10, 10, F(3, 4), 2),
     (2, 6, "trial 1 depth 4: expected rank 405/256 -> 2673/2048 with surviving mass 27/64, "
            "needs a drop of 81/256")),
]


@pytest.mark.parametrize("run_args, pinned", DRIFT_PINS)
def test_drift_reports_are_pinned(run_args, pinned):
    name, cert_text, seed, trials, max_depth, epsilon, max_width = run_args
    system = load_system(PROBLEMS / f"{name}.wst")
    interp = (
        load_interpretation(PROBLEMS / f"{name}.cert")
        if cert_text is None
        else parse_interpretation(cert_text)
    )
    cert = check_certificate(interp, system)
    report = drift_harness(
        system,
        cert,
        trials=trials,
        max_depth=max_depth,
        rng=random.Random(seed),
        epsilon=epsilon * cert.epsilon if isinstance(epsilon, int) else epsilon,
        max_width=max_width,
    )
    assert (report.trials, report.checks, str(report.violation)) == pinned


def _shipped(name):
    system = load_system(PROBLEMS / f"{name}.wst")
    return system, check_certificate(load_interpretation(PROBLEMS / f"{name}.cert"), system)


def test_drift_harness_matches_the_unmerged_reference():
    # Merging while binding and the integer comparison change how the
    # check is computed, not what it finds: the reference steps unmerged,
    # sums Fractions and collapses afterwards.
    reports = Counter()
    for name in ("coingame", "matrix", "rw34"):
        system, cert = _shipped(name)
        for max_width in (32, 3, 2):
            for factor in (1, 2):
                for seed in range(3):
                    args = dict(trials=12, max_depth=10, epsilon=factor * cert.epsilon,
                                max_width=max_width)
                    got = drift_harness(system, cert, rng=random.Random(seed), **args)
                    want = reference_drift_harness(system, cert, rng=random.Random(seed), **args)
                    assert (got.trials, got.checks) == (want.trials, want.checks)
                    reports[got.ok] += 1
                    if want.ok:
                        assert got.ok
                        continue
                    v, w = got.violation, want.violation
                    assert (v.trial, v.depth, v.rank_before, v.rank_after, v.epsilon) == (
                        w.trial, w.depth, w.rank_before, w.rank_after, w.epsilon)
                    assert v.state.numerators == w.state.numerators
                    assert v.state.denominator == w.state.denominator
                    assert v.successor.mass() == w.successor.mass()
                    assert v.successor.numerators == collapsed(w.successor).numerators
                    assert str(v) == str(w)
    assert reports[True] and reports[False]


def test_drift_epsilon_is_read_exactly():
    system, cert = _shipped("rw34")

    def report(epsilon):
        got = drift_harness(system, cert, trials=20, max_depth=15, rng=random.Random(5),
                            epsilon=epsilon)
        assert got.violation is None or type(got.violation.epsilon) is Fraction
        return got.trials, got.checks, str(got.violation)

    assert "needs a drop of 3/2" in report(1.5)[2]
    assert report(1.5) == report("3/2") == report(F(3, 2))
    assert report(1) == report(F(1))


def test_drift_harness_steps_each_object_and_redex_once(monkeypatch):
    # Steps run over the harness's own table: no multidistribution is
    # bound or merged, a redex's reduct is asked for once per object and
    # redex number, and each object is ranked once.
    def refuse(*args, **kwargs):
        raise AssertionError("drift_harness stepped a multidistribution")

    for target in (MultiDistribution, FiniteDistribution):
        monkeypatch.setattr(target, "merged", refuse)
        monkeypatch.setattr(target, "bind", refuse)
    monkeypatch.setattr(rewriting, "step_multidist", refuse)
    monkeypatch.setattr(simulator, "step_multidist", refuse)
    reducts, ranked = Counter(), Counter()
    reduct = TermPars._reduct

    def counted_reduct(pars, top, k, keep_spine=False):
        reducts[top.node, k] += 1
        return reduct(pars, top, k, keep_spine)

    ranking = simulator.ranking_from_certificate

    def counted_ranking(cert):
        rank, epsilon = ranking(cert)

        def counted_rank(term):
            ranked[term] += 1
            return rank(term)

        return counted_rank, epsilon

    monkeypatch.setattr(TermPars, "_reduct", counted_reduct)
    monkeypatch.setattr(simulator, "ranking_from_certificate", counted_ranking)
    for name, max_width, factor in (("rw34", 3, 1), ("matrix", 32, 1), ("coingame", 32, 1), ("rw34", 32, 2)):
        system, cert = _shipped(name)
        reducts.clear()
        ranked.clear()
        args = dict(trials=20, max_depth=10, epsilon=factor * cert.epsilon, max_width=max_width)
        report = drift_harness(system, cert, rng=random.Random(1), **args)
        assert report.ok == (factor == 1)
        assert reducts and max(reducts.values()) == 1
        assert ranked and max(ranked.values()) == 1
        # the system keeps the table: a second call on the same pair
        # builds no reduct and ranks no object that the first call held
        held_reducts, held_ranked = set(reducts), set(ranked)
        reducts.clear()
        ranked.clear()
        _same_drift_report(drift_harness(system, cert, rng=random.Random(1), **args), report)
        assert not reducts and not ranked
        drift_harness(system, cert, rng=random.Random(2), **args)
        assert not held_reducts & set(reducts) and not held_ranked & set(ranked)
        assert max(reducts.values(), default=1) == 1 and max(ranked.values(), default=1) == 1
    # past MEMO_LIMIT objects the table starts afresh, so objects are
    # ranked again in later trials
    monkeypatch.setattr(rewriting, "MEMO_LIMIT", 3)
    ranked.clear()
    assert drift_harness(system, cert, trials=20, max_depth=10, rng=random.Random(1)).ok
    assert max(ranked.values()) > 1


def _drift_cases():
    """(label, system, certificate) for the differential drift tests: the
    shipped certificates, HALVES, and the certificates `prove` prints for
    seeded generated systems."""
    for name in ("coingame", "matrix", "rw34"):
        yield (name, *_shipped(name))
    rw34, _ = _shipped("rw34")
    yield "rw34-halves", rw34, check_certificate(parse_interpretation(HALVES), rw34)
    for number, (system, text, _) in enumerate(proved_certificates()):
        yield f"proved-{number}", system, check_certificate(parse_interpretation(text), system)


def _same_drift_report(got, want):
    assert (got.trials, got.checks) == (want.trials, want.checks)
    if want.violation is None:
        assert got.violation is None
        return
    v, w = got.violation, want.violation
    assert (v.trial, v.depth, v.rank_before, v.rank_after, v.epsilon) == (
        w.trial, w.depth, w.rank_before, w.rank_after, w.epsilon)
    for mine, theirs in ((v.state, w.state), (v.successor, w.successor)):
        assert mine.numerators == theirs.numerators
        assert (mine.denominator, mine.mass_numerator) == (theirs.denominator, theirs.mass_numerator)
    assert str(v) == str(w)


@pytest.mark.parametrize("memo_limit", [rewriting.MEMO_LIMIT, 3])
def test_drift_harness_matches_the_stepping_oracle(monkeypatch, memo_limit):
    # The index kernel must find what merged steps over multidistributions
    # find, state for state; at a limit of 3 its table starts afresh at
    # almost every trial.
    monkeypatch.setattr(rewriting, "MEMO_LIMIT", memo_limit)
    reports = Counter()
    for label, system, cert in _drift_cases():
        shipped = not label.startswith("proved")
        for max_width in (32, 3, 2):
            for epsilon in (cert.epsilon, 2 * cert.epsilon, F(1, 3)):
                for seed in range(2 if shipped else 1):
                    args = dict(trials=12, max_depth=10, epsilon=epsilon, max_width=max_width)
                    got = drift_harness(system, cert, rng=random.Random(seed), **args)
                    want = stepping_drift_harness(system, cert, rng=random.Random(seed), **args)
                    _same_drift_report(got, want)
                    reports[got.ok] += 1
    assert reports[True] and reports[False]


def _run_form(report):
    *fields, outcomes, trace, truncation_hit, nodes = report
    return fields, [str(mu) for mu in outcomes], trace and [str(mu) for mu in trace], truncation_hit, nodes


def test_a_full_redex_memo_starts_afresh_and_changes_no_report(monkeypatch):
    # Once the redex memo holds MEMO_LIMIT nodes it starts afresh before the
    # next term is indexed, so indexing a term leaves it at most the limit
    # plus that term's nodes; runs under both strategies, exhaustive runs and the
    # drift harness report what they report with the memo never full.
    sizes = []
    entry = TermPars._entry

    def spy(pars, term):
        before = len(pars._memo)
        found = entry(pars, term)
        sizes.append((before, len(pars._memo), term._size))
        return found

    def reports():
        out, notes = [], []
        for name, start in (("coingame", "?(s(s(0)))"), ("rw34", "s(s(s(s(s(0)))))"),
                            ("matrix", "a(a(a(x)))")):
            system, cert = _shipped(name)
            for mode, steps in (("outermost", 12), ("innermost", 12), ("exhaustive", 3)):
                pars = TermPars(system, notes.append)
                for collapse in (False, True):
                    report = run(RunConfig(pars, pars.parse_object(start), steps, mode, collapse, keep_trace=True))
                    out.append(_run_form(report))
            for factor in (1, 2):
                report = drift_harness(system, cert, rng=random.Random(5), trials=12, max_depth=10,
                                       epsilon=factor * cert.epsilon)
                out.append((report.trials, report.checks, str(report.violation)))
        return out, notes

    monkeypatch.setattr(TermPars, "_entry", spy)
    want, notes = reports()
    assert notes == [] and all(after >= before for before, after, _ in sizes)
    monkeypatch.setattr(rewriting, "MEMO_LIMIT", 7)
    sizes.clear()
    got, notes = reports()
    assert got == want
    # a call that indexes nothing leaves the memo as it was
    assert all(after == before or after <= 7 + nodes for before, after, nodes in sizes)
    assert sum(after < before for before, after, _ in sizes) > 30
    # each run's TermPars says so once, when its memo first starts afresh
    assert notes == [7] * 9


@pytest.mark.parametrize("memo_limit", [rewriting.MEMO_LIMIT, 30])
def test_drift_reports_do_not_depend_on_the_held_state(monkeypatch, memo_limit):
    # Calls on one system, which keeps its table between them, report what
    # each call reports on a freshly loaded copy: valid and forged epsilon,
    # trimmed states, a switch of certificate and back, and, at a limit of
    # 30, tables that start afresh at the start of a call.
    monkeypatch.setattr(rewriting, "MEMO_LIMIT", memo_limit)
    held = {name: _shipped(name) for name in ("coingame", "matrix", "rw34")}
    rw34, shipped_rw34 = held["rw34"]
    halves = check_certificate(parse_interpretation(HALVES), rw34)
    calls = [(name, cert) for name, (_, cert) in held.items()] + [("rw34", halves), ("rw34", shipped_rw34)]
    rng = random.Random(7)
    reports, restarts = Counter(), 0
    for _ in range(3):
        for name, cert in calls:
            system = held[name][0]
            for max_width in (32, 2):
                for factor in (1, 2):
                    seed = rng.randrange(1000)
                    args = dict(trials=8, max_depth=10, epsilon=factor * cert.epsilon, max_width=max_width)
                    before = system._drift[0] if system._drift else None
                    restarts += before is not None and before[0] is cert and len(before[-1][1]) > memo_limit
                    got = drift_harness(system, cert, rng=random.Random(seed), **args)
                    fresh = load_system(PROBLEMS / f"{name}.wst")
                    _same_drift_report(got, drift_harness(fresh, cert, rng=random.Random(seed), **args))
                    assert system._drift[0][0] is cert
                    reports[got.ok] += 1
    assert reports[True] and reports[False]
    assert bool(restarts) == (memo_limit == 30)


def test_a_drift_call_that_raises_drops_the_held_state():
    # A call cut short mid-step leaves the system without a state, and the
    # next call builds a fresh one.
    system, cert = _shipped("rw34")
    args = dict(trials=20, max_depth=12)
    drift_harness(system, cert, rng=random.Random(0), **args)

    class Broken(random.Random):
        def randrange(self, *bounds):
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        drift_harness(system, cert, rng=Broken(1), **args)
    assert not system._drift
    fresh = load_system(PROBLEMS / "rw34.wst")
    _same_drift_report(drift_harness(system, cert, rng=random.Random(1), **args),
                       drift_harness(fresh, cert, rng=random.Random(1), **args))


def test_drift_harness_runs_from_several_threads():
    # Threads run the harness on one (system, cert). First, one call is
    # held inside its run while a second thread makes a whole call, which
    # finds no state to take and builds its own. Then three threads make
    # calls freely, switching often. Every report is what a fresh copy reports, and the
    # state left on the system serves later calls.
    system, cert = _shipped("coingame")
    args = dict(trials=20, max_depth=12)

    def fresh(seed):
        return drift_harness(load_system(PROBLEMS / "coingame.wst"), cert, rng=random.Random(seed), **args)

    inside, done = threading.Event(), threading.Event()

    class Paused(random.Random):
        def randrange(self, *bounds):
            if not inside.is_set():
                inside.set()
                done.wait(30)
            return super().randrange(*bounds)

    got, errors = {}, []

    def calls(runs):
        try:
            for seed, rng in runs:
                got[seed] = drift_harness(system, cert, rng=rng, **args)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)
        finally:
            done.set()

    drift_harness(system, cert, rng=random.Random(0), **args)  # the system now keeps a state
    first = threading.Thread(target=calls, args=([(1, Paused(1))],), daemon=True)
    first.start()
    assert inside.wait(30)
    assert not system._drift  # the first call has taken the state
    second = threading.Thread(target=calls, args=([(2, random.Random(2))],), daemon=True)
    second.start()
    for thread in (second, first):
        thread.join(60)
        assert not thread.is_alive()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=calls, args=([(seed, random.Random(seed)) for seed in seeds],),
                                    daemon=True) for seeds in (range(3, 10), range(10, 17), range(17, 24))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(got) == list(range(1, 24))
    for seed, report in got.items():
        _same_drift_report(report, fresh(seed))
    assert len(system._drift) == 1
    _same_drift_report(drift_harness(system, cert, rng=random.Random(24), **args), fresh(24))


def test_proved_certificates_pass_check_and_drift():
    # Every YES certificate printed for a generated system is accepted by
    # `check` and holds the drift inequality at its own epsilon; the table
    # `decode` filled is the one the parser builds from the printed text.
    proved = proved_certificates()
    assert len(proved) >= 10
    for seed, (system, text, interp) in enumerate(proved):
        verdict = check_only(system, text)
        assert verdict.kind == "YES", verdict.problems
        parsed = parse_interpretation(render_interpretation(interp)).table
        assert parsed == interp.table and repr(parsed) == repr(interp.table)  # ints as ints
        report = drift_harness(system, verdict.certificate, trials=20, max_depth=12,
                               rng=random.Random(seed), max_width=8)
        assert report.ok, report.violation


def test_exhaustive_agrees_with_single_strategy_when_deterministic():
    # the walk has one redex per state, so exhaustive mode collapses to the
    # unique run and the envelopes pin down the same numbers
    single = run(RunConfig(RandomWalk(F(1, 2)), 1, 5))
    exhaustive = run(RunConfig(RandomWalk(F(1, 2)), 1, 5, mode="exhaustive"))
    assert exhaustive.mass_min == single.masses
    assert exhaustive.mass_max == single.masses
    assert exhaustive.edl_min == single.edl
    assert exhaustive.edl_max == single.edl
    assert exhaustive.outcomes == single.outcomes


def test_innermost_and_outermost_differ_on_nested_redexes():
    system = random_walk_ptrs(F(1, 2))
    pars = TermPars(system)
    start = pars.parse_object("s(s(0))")
    outer = run(RunConfig(pars, start, 1, mode="outermost", keep_trace=True))
    inner = run(RunConfig(pars, start, 1, mode="innermost", keep_trace=True))
    assert mapped(outer.trace[1], str) == mapped(MultiDistribution(
        [(F(1, 2), "s(0)"), (F(1, 2), "s(s(s(0)))")]
    ), str)
    # both redexes of s(s(0)) rewrite the same way here, so the states agree,
    # but the contracted position differs: innermost keeps the outer s
    assert inner.trace[1] == outer.trace[1]


def test_run_report_modes():
    assert run(RunConfig(RandomWalk(F(1, 2)), 1, 1)).mode == "outermost"
    assert run(RunConfig(RandomWalk(F(1, 2)), 1, 1, mode="exhaustive")).mode == "exhaustive"
    chooser = lambda pars, obj, options: 0
    assert run(RunConfig(RandomWalk(F(1, 2)), 1, 1, mode=chooser)).mode == "custom"


def test_every_multidistribution_built_is_well_formed(monkeypatch):
    # Internal constructions skip the weight checks and carry the mass, so
    # record every multidistribution they build and check it afterwards.
    built = []
    unchecked = MultiDistribution._unchecked.__func__

    def recording(cls, numerators, den, mass_num):
        mu = unchecked(cls, numerators, den, mass_num)
        built.append(mu)
        return mu

    monkeypatch.setattr(MultiDistribution, "_unchecked", classmethod(recording))
    rng = random.Random(43)
    rw34 = load_system(str(PROBLEMS / "rw34.wst"))
    coingame = load_system(str(PROBLEMS / "coingame.wst"))
    cases = [
        (RandomWalk(F(3, 4)), 3, 10),
        (RandomWalk(F(1, 3), truncate=6), 2, 10),
        (NondetBranch(), "a", 4),
        (Payout(truncate=5), Stake(0), 8),
    ]
    # a traced step builds one multidistribution per state, an untraced
    # run only its outcomes, so the term systems run enough starts and
    # steps, traced and not, to record well over 5000 builds
    for system in [rw34, coingame] + [random_ptrs(rng) for _ in range(8)]:
        pars = TermPars(system)
        for _ in range(4):
            cases.append((pars, random_term(system.signature, rng, max_depth=3), 6))
    for pars, start, steps in cases:
        for mode in ("outermost", "innermost", "exhaustive", random_chooser(rng)):
            for collapse, keep_trace in product((False, True), repeat=2):
                config = RunConfig(pars, start, steps, mode, collapse, node_budget=10**5, keep_trace=keep_trace)
                try:
                    run(config)
                except NodeBudgetExceeded:
                    pass  # what was built before the budget ran out still counts
    cert = check_certificate(parse_interpretation((PROBLEMS / "rw34.cert").read_text()), rw34)
    drift_harness(rw34, cert, trials=10, max_depth=8, rng=rng, max_width=3)
    assert len(built) > 5000
    for mu in built:
        weights = [p for p, _ in mu.entries]
        assert all(type(p) is Fraction and 0 < p <= 1 for p in weights), mu
        assert mu.mass() == sum(weights, Fraction(0)), mu
        assert mu.mass() <= 1, mu
        numerators = [n for n, _ in mu.numerators]
        assert type(mu.denominator) is int and mu.denominator >= 1, mu
        assert all(type(n) is int and n >= 1 for n in numerators), mu
        assert sum(numerators) == mu.mass_numerator <= mu.denominator, mu


def _reference_cases():
    """Systems whose weights mix denominators: random PTRSs (merged
    right-hand sides), coingame (rule totals 2 and 1), the walk at 3/5, and
    the nondeterministic families."""
    rng = random.Random(59)
    coingame = TermPars(load_system(str(PROBLEMS / "coingame.wst")))
    cases = [
        (RandomWalk(F(3, 5)), 4, 12),
        (NondetBranch(), "a", 4),
        (Payout(truncate=6), Stake(0), 10),
        (coingame, coingame.parse_object("?(s(s(0)))"), 6),
    ]
    for _ in range(8):
        system = random_ptrs(rng)
        pars = TermPars(system)
        cases += [(pars, random_term(system.signature, rng, max_depth=3), 4) for _ in range(3)]
    return cases


VALUES = (lambda obj: len(str(obj)), lambda obj: F(len(str(obj)), 7))


def _assert_matches_reference(mu, state):
    entries, mass = state
    assert mu.entries == entries
    assert mu.mass() == mass
    assert collapsed(mu).entries == reference_collapsed(state)[0]
    for fn in VALUES:
        assert expected_value(mu, fn) == reference_expected_value(entries, fn)


def test_integer_weights_match_the_fraction_reference():
    # The integer step, collapse and expected value against the Fraction
    # bodies they replaced, entry by entry and in order.
    checked = 0
    denominators = set()
    unreduced = 0
    for index, (pars, start, steps) in enumerate(_reference_cases()):
        for mode in ("outermost", "innermost", "random"):
            for collapse in (False, True):
                if mode == "random":
                    # one seed for both sides: they visit entries in one order
                    chooser, reference_chooser = (random_chooser(random.Random(index)) for _ in range(2))
                else:
                    chooser = reference_chooser = MODES[mode]
                mu, state = MultiDistribution.point(start), (((F(1), start),), F(1))
                for _ in range(steps):
                    mu = step_multidist(pars, mu, chooser)
                    state = reference_step(pars, state, reference_chooser)
                    if collapse:
                        mu, state = collapsed(mu), reference_collapsed(state)
                    _assert_matches_reference(mu, state)
                    checked += 1
                    denominators.add(mu.denominator)
                    unreduced += gcd(mu.denominator, *(n for n, _ in mu.numerators)) > 1
    assert checked > 500
    # mixed denominators (products of 2s, 3s and 5s) and unreduced forms occur
    assert any(d % 6 == 0 for d in denominators) and any(d % 5 == 0 for d in denominators)
    assert unreduced > 20


def _form(mu):
    return mu.numerators, mu.denominator, mu.mass_numerator


def test_run_matches_a_stepwise_loop():
    # run merges without sorting where no one reads the order; its masses,
    # edl, nodes, outcome and trace, entry by entry and in the same integer
    # form, must be those of stepping and collapsing state by state
    runs = 0
    cases = _reference_cases()
    for index, (pars, start, steps) in enumerate(cases):
        for mode in ("outermost", "innermost", "random"):
            for collapse in (False, True):
                for keep_trace in (False, True):
                    if mode == "random":
                        chooser, loop_chooser = (random_chooser(random.Random(index)) for _ in range(2))
                    else:
                        chooser = loop_chooser = MODES[mode]
                    report = run(RunConfig(pars, start, steps, chooser, collapse, keep_trace=keep_trace))
                    mu = MultiDistribution.point(start)
                    states, nodes = [mu], 0
                    for _ in range(steps):
                        nodes += max(len(mu), 1)
                        mu = step_multidist(pars, mu, loop_chooser)
                        if collapse:
                            mu = collapsed(mu)
                        states.append(mu)
                    masses = [state.mass() for state in states]
                    assert report.masses == masses
                    assert report.edl == [sum(masses[1:k + 1], F(0)) for k in range(steps + 1)]
                    assert report.nodes == nodes
                    assert [_form(outcome) for outcome in report.outcomes] == [_form(mu)]
                    assert str(report.outcomes[0]) == str(mu)
                    if keep_trace:
                        assert [_form(state) for state in report.trace] == [_form(s) for s in states]
                    else:
                        assert report.trace is None
                    runs += 1
    assert runs == 12 * len(cases)


# rules over denominators 2, 3, 1 and 5; h(h(0)) reaches the terminal 0
MIXED_DENOMINATORS = """(VAR x)
(RULES
  f(x) -> 1 : g(x) || 1 : x
  g(x) -> 1 : f(x) || 2 : h(x)
  h(x) -> x
  k(x) -> 1 : x || 4 : k(f(x))
)"""


def test_integer_mass_and_edl_are_fraction_prefix_sums():
    # run keeps mass and edl as integer numerators over each step's
    # denominator: they must read as the Fraction masses of the traced
    # states and the prefix sums of those, traced or not
    system = elaborate(parse_problem(MIXED_DENOMINATORS))
    rng = random.Random(30)
    h = lambda t: App("h", (t,))
    starts = [h(h(App("0"))), App("k", (App("g", (App("0"),)),))]
    starts += [random_term(system.signature, rng, max_depth=4) for _ in range(6)]
    emptied = mixed = 0
    for index, start in enumerate(starts):
        for mode in ("outermost", "innermost", "random"):
            for collapse in (False, True):
                for steps in (0, 1, 8):
                    reports = []
                    for keep_trace in (True, False):
                        chooser = random_chooser(random.Random(index)) if mode == "random" else mode
                        config = RunConfig(TermPars(system), start, steps, chooser, collapse, keep_trace=keep_trace)
                        reports.append(run(config))
                    traced, untraced = reports
                    masses = [state.mass() for state in traced.trace]
                    edl = [F(0)]
                    for mass in masses[1:]:
                        edl.append(edl[-1] + mass)
                    for report in reports:
                        assert report.masses == masses and report.edl == edl
                        assert all(type(value) is F for value in report.masses + report.edl)
                        assert report.mass_min == report.mass_max == masses
                        assert report.edl_min == report.edl_max == edl
                    emptied += steps > 0 and masses[-1] == 0
                    mixed += any(state.denominator % 6 == 0 for state in traced.trace)
    assert emptied >= 6 and mixed > 20


def test_exhaustive_successors_match_the_fraction_reference():
    # all_steps against the Fraction body it replaced: the same successors
    # in the same order, and dedup by integer equality merges exactly the
    # states whose Fraction multisets are equal.
    levels = 0
    for pars, start, steps in _reference_cases():
        for collapse in (False, True):
            tracker = BudgetTracker(20_000)  # nested redexes multiply successors
            frontier = [(MultiDistribution.point(start), (((F(1), start),), F(1)))]
            for _ in range(min(steps, 4)):
                reached: dict = {}
                states: dict = {}
                try:
                    stepped = [(all_steps(pars, mu, tracker), state) for mu, state in frontier]
                except NodeBudgetExceeded:
                    break
                for got, state in stepped:
                    want = reference_all_steps(pars, state)
                    assert len(got) == len(want)
                    for nu, successor in zip(got, want):
                        _assert_matches_reference(nu, successor)
                        if collapse:
                            nu, successor = collapsed(nu), reference_collapsed(successor)
                        reached.setdefault(frozenset(Counter(successor[0]).items()), (nu, successor))
                        states[nu] = None
                assert len(states) == len(reached)
                frontier = list(reached.values())
                levels += 1
    assert levels > 200


@pytest.mark.parametrize("pars, start, steps, counts", [
    (Payout(), Stake(0), 24,
     [1, 2, 3, 4, 5, 5, 6, 7, 8, 9, 10, 11, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23]),
    ("coingame", "?(s(s(0)))", 9, [1, 2, 3, 3, 3, 3, 3, 3, 3, 3]),
])
def test_exhaustive_state_counts_are_pinned(pars, start, steps, counts):
    # distinct states per depth, recorded before weights became integers:
    # equality on the unreduced form dedups exactly as Fraction equality did
    if pars == "coingame":
        pars = TermPars(load_system(str(PROBLEMS / "coingame.wst")))
        start = pars.parse_object(start)
    for collapse in (False, True):
        report = run(RunConfig(pars, start, steps, "exhaustive", collapse, keep_trace=True))
        assert [len(level) for level in report.trace] == counts


def _exhaustive_cases():
    """Exhaustive runs as (make, start, steps), `make` building a fresh
    system, so a run and its oracle share no memo: seeded random_ptrs and
    looping_ptrs systems from random starts, the three families, with and
    without a cutoff, rw34 and coingame."""
    rng = random.Random(4207)
    cases = []
    for generate in (random_ptrs, looping_ptrs) * 6:
        system = generate(rng)
        cases += [(lambda system=system: TermPars(system),
                   random_term(system.signature, rng, max_depth=4, variable_pool=()), 3) for _ in range(3)]
    for name, start, steps in (("rw34", "s(s(s(0)))", 6), ("coingame", "?(s(s(0)))", 7)):
        system = load_system(str(PROBLEMS / f"{name}.wst"))
        cases.append((lambda system=system: TermPars(system), TermPars(system).parse_object(start), steps))
    return cases + [
        (NondetBranch, "a", 4),
        (NondetBranch, "c", 2),
        (Payout, Stake(0), 8),
        (lambda: Payout(truncate=3), Stake(0), 8),
        (Payout, 6, 3),
        (lambda: RandomWalk(F(3, 5)), 4, 6),
        (lambda: RandomWalk(F(1, 2), truncate=5), 2, 8),
    ]


def _exhaustive_or_budget_depth(runner, make, start, steps, collapse, budget):
    """runner's traced report, or, when the run passes the node budget, the
    fewest steps at which it does."""
    def attempt(depth):
        return runner(RunConfig(make(), start, depth, "exhaustive", collapse, budget, keep_trace=True))

    try:
        return attempt(steps)
    except NodeBudgetExceeded:
        pass
    for depth in range(steps + 1):
        try:
            attempt(depth)
        except NodeBudgetExceeded:
            return depth


def test_exhaustive_mode_matches_the_multidistribution_reference():
    # The integer exhaustive run against the loop over multidistributions
    # it replaced: every report field, and the text of every traced and
    # outcome state, which pins each state's entry order; or the depth at
    # which both pass the node budget.
    done = stopped = 0
    for make, start, steps in _exhaustive_cases():
        for collapse in (False, True):
            for budget in (1000, 60):
                got, want = (_exhaustive_or_budget_depth(runner, make, start, steps, collapse, budget)
                             for runner in (run, reference_exhaustive))
                if isinstance(want, int):
                    assert got == want
                    stopped += 1
                    continue
                assert got == want
                assert [list(map(str, level)) for level in got.trace] == [
                    list(map(str, level)) for level in want.trace]
                assert list(map(str, got.outcomes)) == list(map(str, want.outcomes))
                done += 1
    assert done > 120 and stopped > 25


def test_exhaustive_mode_hashes_no_multidistribution(monkeypatch):
    def forbidden(*args):
        raise AssertionError("exhaustive mode stepped a multidistribution")

    monkeypatch.setattr(MultiDistribution, "_canonical", forbidden)
    monkeypatch.setattr(rewriting, "all_steps", forbidden)
    monkeypatch.setattr(simulator, "all_steps", forbidden)
    done = 0
    for make, start, steps in _exhaustive_cases():
        for collapse in (False, True):
            try:
                run(RunConfig(make(), start, steps, "exhaustive", collapse, 2000, keep_trace=True))
            except NodeBudgetExceeded:
                continue
            done += 1
    assert done > 60


def test_exhaustive_envelopes_match_value_iteration():
    # The best over every strategy is the best per object and horizon, so
    # the four envelopes need no list of multidistributions: the oracle
    # iterates values over objects, and exhaustive mode must agree at every
    # depth, collapsed or not, wherever it finishes under the budget.
    rng = random.Random(8)
    cases = []
    for generate in (random_ptrs, looping_ptrs) * 5:
        system = generate(rng)
        # a start with two redexes, where one is found, so the strategy has a choice
        for _ in range(30):
            start = random_term(system.signature, rng, max_depth=3, variable_pool=())
            if len(TermPars(system).options(start)) >= 2:
                break
        cases.append((lambda system=system: TermPars(system), start, 3))
    # rw34 from s^3(0) finishes 4 steps under the budget, and 8 collapsed
    for name, start, steps in (("rw34", "s(s(s(0)))", 4), ("rw34", "s(s(s(0)))", 8), ("coingame", "?(s(s(0)))", 8)):
        system = load_system(str(PROBLEMS / f"{name}.wst"))
        cases.append((lambda system=system: TermPars(system), TermPars(system).parse_object(start), steps))
    cases += [
        (NondetBranch, "a", 4),
        (Payout, Stake(0), 10),
        (lambda: Payout(truncate=3), Stake(0), 8),
        (lambda: RandomWalk(F(3, 5)), 4, 8),
        (lambda: RandomWalk(F(1, 2), truncate=5), 2, 8),
    ]
    done = split = 0
    for make, start, steps in cases:
        want = value_iteration(make(), start, steps)
        for collapse in (False, True):
            try:
                report = run(RunConfig(make(), start, steps, "exhaustive", collapse, 100_000))
            except NodeBudgetExceeded:
                continue
            assert (report.mass_min, report.mass_max, report.edl_min, report.edl_max) == want
            done += 1
        split += want[0] != want[1] or want[2] != want[3]
    assert done >= 33 and split >= 6


def _fold_cases():
    """Collapsed single-strategy runs as (make, start, steps): `make` builds
    a fresh system, so the run and its oracle share no memo. The walk at
    several p, with and without a cutoff, the nondeterministic families,
    coingame and rw34; starts and lengths drawn from one seed."""
    rng = random.Random(2323)
    cases = []
    for p in (F(1, 2), F(3, 4), F(2, 3), F(3, 5), F(1, 3), F(1), F(0)):
        for truncate in (None, rng.randint(6, 12)):
            cases.append((lambda p=p, t=truncate: RandomWalk(p, t), str(rng.randint(1, 8)), rng.randint(20, 60)))
    cases += [
        (NondetBranch, rng.choice(("a", "b1", "c")), 5),
        (Payout, "a0", rng.randint(20, 40)),
        (lambda: Payout(truncate=5), "a1", 30),
    ]
    for name, starts in (("coingame", ("?(0)", "?(s(s(0)))", "$(s(s(0)))")), ("rw34", ("s(0)", "s(s(s(s(s(0)))))"))):
        system = load_system(str(PROBLEMS / f"{name}.wst"))
        cases += [(lambda system=system: TermPars(system), start, rng.randint(8, 14)) for start in starts]
    return cases


def test_fused_collapsed_steps_match_an_unmerged_step_then_merged():
    # run folds equal reducts while it steps and keeps each object's chosen
    # reduct for the whole run; every collapsed state it traces must be,
    # entry by entry and in the same unreduced form, the unmerged step of
    # the state before, with the chooser asked afresh, merged and sorted;
    # untraced, its masses and outcome must be those of the unmerged steps
    # merged afterwards
    runs = folded = 0
    for make, start, length in _fold_cases():
        for mode in ("outermost", "innermost"):
            pars, oracle = make(), make()
            first = pars.parse_object(start)
            traced = run(RunConfig(pars, first, length, mode, collapse=True, keep_trace=True))
            for mu, nu in zip(traced.trace, traced.trace[1:]):
                unmerged = step_multidist(oracle, mu, MODES[mode])
                assert _form(nu) == _form(collapsed(unmerged))
                folded += len(unmerged) > len(nu)
            pars, oracle = make(), make()
            report = run(RunConfig(pars, pars.parse_object(start), length, mode, collapse=True))
            want = reference_merged_steps(oracle, oracle.parse_object(start), length, MODES[mode])
            assert _form(report.outcomes[0]) == _form(collapsed(want[-1]))
            assert _form(report.outcomes[0]) == _form(traced.outcomes[0])
            assert report.masses[1:] == [mu.mass() for mu in want]
            runs += 1
    assert runs == 2 * len(_fold_cases())
    assert folded > 500  # the steps do merge equal reducts


@pytest.mark.parametrize("make, start, length", [
    (lambda: RandomWalk(F(3, 4)), "5", 110),
    (lambda: RandomWalk(F(1, 2), truncate=9), "3", 40),
    (lambda: Payout(truncate=6), "a0", 20),
    (lambda: TermPars(load_system(str(PROBLEMS / "rw34.wst"))), "s(s(s(s(s(0)))))", 12),
    (lambda: TermPars(load_system(str(PROBLEMS / "coingame.wst"))), "?(s(0))", 12),
])
@pytest.mark.parametrize("mode", ["outermost", "innermost"])
def test_per_object_chooser_is_asked_once_per_object_per_run(monkeypatch, make, start, length, mode):
    oracle = make()
    first = oracle.parse_object(start)
    states = [MultiDistribution.point(first)] + reference_merged_steps(oracle, first, length - 1, MODES[mode])
    calls = []
    for cls in (Pars, TermPars):
        def spy(self, obj, chooser, choose=cls.choose):
            calls.append(obj)
            return choose(self, obj, chooser)

        monkeypatch.setattr(cls, "choose", spy)
    pars = make()
    run(RunConfig(pars, pars.parse_object(start), length, mode, collapse=True))
    # each object once, in the order the run first meets it
    assert calls == list(dict.fromkeys(obj for mu in states for _, obj in mu.numerators))


@pytest.mark.parametrize("make, start, length", [
    (lambda: RandomWalk(F(3, 4)), "5", 12),
    (lambda: RandomWalk(F(1, 2), truncate=7), "3", 12),
    (Payout, "a0", 8),
    (lambda: Payout(truncate=3), "a0", 10),
    (lambda: TermPars(load_system(str(PROBLEMS / "rw34.wst"))), "s(s(s(0)))", 4),
    (lambda: TermPars(load_system(str(PROBLEMS / "coingame.wst"))), "?(s(0))", 6),
])
@pytest.mark.parametrize("collapse", [False, True])
def test_exhaustive_mode_asks_each_object_for_its_options_once_per_run(monkeypatch, make, start, length, collapse):
    # A run builds each object's option rows once, so the families need no
    # cache of their own: every object of a level before the last is asked
    # exactly once, terminal and truncated ones included.
    oracle = make()
    traced = run(RunConfig(oracle, oracle.parse_object(start), length, "exhaustive", collapse, keep_trace=True))
    stepped = {obj for level in traced.trace[:-1] for mu in level for _, obj in mu.numerators}
    calls = []
    for cls in (RandomWalk, Payout, TermPars):
        def spy(self, obj, options=cls.options):
            calls.append(obj)
            return options(self, obj)

        monkeypatch.setattr(cls, "options", spy)
    pars = make()
    report = run(RunConfig(pars, pars.parse_object(start), length, "exhaustive", collapse))
    assert report.outcomes == traced.outcomes
    assert len(calls) == len(set(calls)) and set(calls) == stepped


def test_picks_start_afresh_at_the_memo_limit(monkeypatch):
    # with room for 3 objects the run starts its step table afresh, from
    # the live objects alone, only when a step could take it past 3, so a
    # table picks reducts for more than 3 objects only when it starts with
    # more; the results do not change
    cases = [(make, start, length, mode) for make, start, length in _fold_cases()
             for mode in ("outermost", "innermost")]
    wants = []
    for make, start, length, mode in cases:
        pars = make()
        wants.append(run(RunConfig(pars, pars.parse_object(start), length, mode, collapse=True)))
    # Each table has its own `acc`, as long as its object list, so a spy on
    # _step tells the tables apart by it: per table, [acc, the objects it
    # started with, which are those of its first state, that state, and the
    # objects it built a row for, which are those it stepped].
    tables = []
    step = simulator._step

    def spy(state, rows, acc, collapse):
        if not tables or tables[-1][0] is not acc:
            tables.append([acc, len(state), list(state), set()])
        tables[-1][3].update(j for _, j in state)
        return step(state, rows, acc, collapse)

    monkeypatch.setattr(simulator, "_step", spy)
    monkeypatch.setattr(rewriting, "MEMO_LIMIT", 3)
    narrow = wide = fresh = 0
    for (make, start, length, mode), want in zip(cases, wants):
        tables.clear()
        pars = make()
        first = pars.parse_object(start)
        full = []
        got = run(RunConfig(pars, first, length, mode, collapse=True, on_table_full=full.append))
        assert (got.masses, got.edl, got.nodes, got.truncation_hit) == (
            want.masses, want.edl, want.nodes, want.truncation_hit)
        assert [_form(mu) for mu in got.outcomes] == [_form(mu) for mu in want.outcomes]
        assert str(got.outcomes[0]) == str(want.outcomes[0])
        assert tables[0][1:3] == [1, [(1, 0)]]
        assert full == ([3] if len(tables) > 1 else [])
        for (acc, started, state, stepped), after in zip(tables, tables[1:] + [None]):
            # a table is left only when its objects and the live ones, each
            # listed once in a collapsed state, could pass 3
            if after is not None:
                assert len(acc) + after[1] > 3
            # it numbers the live objects first, in state order
            assert [j for _, j in state] == list(range(started))
            assert len(stepped) <= max(3, started)
        for _, started, _, _ in tables[1:]:
            narrow += started <= 3
            wide += started > 3
        fresh += len(tables) - 1
    # tables start afresh from narrow and wide states alike
    assert narrow > 150 and wide > 400 and fresh > 400


def _oracle_cases():
    """Single-strategy runs as (make, start, steps), `make` building a
    fresh system: seeded random_ptrs systems (rule totals 1 to 4) and
    looping_ptrs systems from random starts, and the three families."""
    rng = random.Random(3301)
    cases = []
    for generate in (random_ptrs, looping_ptrs) * 4:
        system = generate(rng)
        cases += [(lambda system=system: TermPars(system),
                   random_term(system.signature, rng, max_depth=4, variable_pool=()), 5) for _ in range(2)]
    return cases + [
        (lambda: RandomWalk(F(3, 4)), 4, 10),
        (lambda: RandomWalk(F(2, 3), truncate=7), 3, 10),
        (lambda: Payout(truncate=4), Stake(0), 16),
        (Payout, 7, 9),
        (NondetBranch, "a", 4),
    ]


def _choosers(mode, seed):
    """Two choosers that answer alike, one for each side of a comparison."""
    if mode == "custom":
        return [random_chooser(random.Random(seed)) for _ in range(2)]
    return [MODES[mode]] * 2


def _rescales(pars, trace, chooser) -> int:
    """Chosen reducts of a traced run whose denominator does not divide
    the lcm of those gathered before them in their step."""
    count = 0
    for mu in trace[:-1]:
        common = 1
        for _, obj in mu.numerators:
            dist = pars.choose(obj, chooser)
            if dist is not None:
                count += common > 1 and common % dist.denominator != 0
                common = lcm(common, dist.denominator)
    return count


@pytest.mark.parametrize("memo_limit", [None, 3])
def test_run_matches_the_picking_oracle(monkeypatch, memo_limit):
    # run steps over integer indices; every report field, each state in its
    # exact unreduced form and its text, must be those of the loop it
    # replaced, for per-object and per-entry choosers, collapsed or not,
    # traced or not, and with a table that starts afresh on most steps
    if memo_limit is not None:
        monkeypatch.setattr(rewriting, "MEMO_LIMIT", memo_limit)
    spends = []
    spend = BudgetTracker.spend

    def recording(self, amount):
        spends.append(amount)
        spend(self, amount)

    monkeypatch.setattr(BudgetTracker, "spend", recording)
    runs = rescaled = stopped = 0
    for seed, (make, start, steps) in enumerate(_oracle_cases()):
        for mode in ("outermost", "innermost", "custom"):
            for collapse in (False, True):
                for keep_trace in (False, True):
                    chooser, oracle_chooser = _choosers(mode, seed)
                    got = run(RunConfig(make(), start, steps, chooser, collapse, keep_trace=keep_trace))
                    want = reference_run(RunConfig(make(), start, steps, oracle_chooser, collapse,
                                                   keep_trace=keep_trace))
                    assert got.mode == want.mode
                    assert (got.masses, got.edl, got.nodes, got.truncation_hit) == (
                        want.masses, want.edl, want.nodes, want.truncation_hit)
                    assert [_form(mu) for mu in got.outcomes] == [_form(mu) for mu in want.outcomes]
                    assert str(got.outcomes[0]) == str(want.outcomes[0])
                    if keep_trace:
                        assert [_form(mu) for mu in got.trace] == [_form(mu) for mu in want.trace]
                        assert [str(mu) for mu in got.trace] == [str(mu) for mu in want.trace]
                        if mode != "custom" and memo_limit is None:
                            rescaled += _rescales(make(), want.trace, chooser)
                    else:
                        assert got.trace is None
                    runs += 1
                # a node budget that runs out mid-run stops both at one step
                budget = want.nodes // 2
                if budget < 1:
                    continue
                sides = []
                for chooser, loop in zip(_choosers(mode, seed), (run, reference_run)):
                    spends.clear()
                    with pytest.raises(NodeBudgetExceeded):
                        loop(RunConfig(make(), start, steps, chooser, collapse, node_budget=budget))
                    sides.append(list(spends))
                assert sides[0] == sides[1] and len(sides[0]) <= steps
                stopped += 1
    assert runs == 12 * len(_oracle_cases())
    assert stopped > 50
    if memo_limit is None:
        assert rescaled > 20  # mixed denominators reach the rescale
