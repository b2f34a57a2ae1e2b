import functools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import ptrs.rewriting
from helpers import (
    RANDOM_SIGNATURE,
    ars_embedding_check,
    from_distribution,
    items,
    mapped,
    random_chooser,
    random_ptrs,
    random_term,
    reference_random_term,
    subterm_positions,
)
from ptrs.multidist import FiniteDistribution, MultiDistribution
from ptrs.rewriting import (
    BudgetTracker,
    NodeBudgetExceeded,
    NondetBranch,
    PTRS,
    Payout,
    ProbRule,
    RandomWalk,
    RuleError,
    Stake,
    TermPars,
    all_steps,
    enumerate_redexes,
    leftmost_innermost,
    leftmost_outermost,
    make_family,
    random_walk_ptrs,
    step_multidist,
    term_sampler,
)
from ptrs.simulator import RunConfig, run
from ptrs.terms import (
    App,
    Signature,
    TermError,
    Var,
    apply_substitution,
    match,
    replace_at,
    subterm_at,
    variables,
)
from ptrs.wst import elaborate, load_system, parse_problem

H = Fraction(1, 2)
x = Var("x")


def s(t):
    return App("s", (t,))


def nat(n):
    t = App("0")
    for _ in range(n):
        t = s(t)
    return t


def test_rule_validation():
    with pytest.raises(RuleError):
        ProbRule(x, FiniteDistribution({x: 1}))
    with pytest.raises(RuleError):
        ProbRule(s(x), FiniteDistribution({Var("y"): 1}))
    # a system checks every rule's terms against its signature
    rule = ProbRule(s(x), FiniteDistribution({x: 1}))
    assert PTRS(Signature({"s": 1}), (rule,)).rules == (rule,)
    for signature in (Signature({"s": 2}), Signature({"0": 0})):
        with pytest.raises(TermError):
            PTRS(signature, (rule,))
    with pytest.raises(TermError):
        PTRS(Signature({"s": 1}), (ProbRule(s(x), FiniteDistribution({App("0"): 1})),))


def test_enumerate_redexes_positions_and_order():
    rw = random_walk_ptrs(Fraction(3, 4))
    term = s(s(App("0")))
    steps = enumerate_redexes(rw, term)
    assert [st.position for st in steps] == [(), (1,)]
    assert steps[0].substitution == {"x": s(App("0"))}
    # Contracting the root of s(s(0)) goes to {3/4: s(0), 1/4: s(s(s(0)))}.
    assert steps[0].result == FiniteDistribution({nat(1): Fraction(3, 4), nat(3): Fraction(1, 4)})
    # The inner redex keeps the outer s: s(s(0)) -> {3/4: s(0), 1/4: s(s(s(0)))} too.
    assert steps[1].substitution == {"x": App("0")}
    assert steps[1].result == steps[0].result
    assert enumerate_redexes(rw, App("0")) == []


def test_substitution_can_merge_alternatives():
    pf = parse_problem("(VAR x y)(RULES f(x,y) -> 1 : x || 1 : y)")
    system = elaborate(pf)
    zero = App("0")
    steps = enumerate_redexes(system, App("f", (zero, zero)))
    assert steps[0].result == FiniteDistribution({zero: 1})
    # f(x,y) -> 1/4 : g(x) || 3/4 : g(y) at f(a,a): both images are g(a),
    # so the numerators merge over the rule's denominator, unreduced
    system = elaborate(parse_problem("(VAR x y)(RULES f(x,y) -> 1 : g(x) || 3 : g(y))"))
    a = App("a")
    ga = App("g", (a,))
    [step] = enumerate_redexes(system, App("f", (a, a)))
    result, expected = step.result, FiniteDistribution({ga: 1})
    assert (result.denominator, result.numerators) == (4, ((4, ga),))
    assert result == expected and hash(result) == hash(expected)
    assert str(result) == "{1: g(a)}" and repr(result) == "FiniteDistribution({1: g(a)})"
    # a distribution is a multidistribution of mass 1
    assert result == MultiDistribution.point(ga)


def test_nested_redexes_give_context_closure():
    pf = parse_problem("(VAR x)(RULES a -> b)")
    system = elaborate(pf)
    term = App("g", (App("a"), App("a")))
    # g is not in the signature of the rules; reduction still applies inside.
    steps = enumerate_redexes(system, term)
    assert [st.position for st in steps] == [(1,), (2,)]
    assert steps[0].result == FiniteDistribution({App("g", (App("b"), App("a"))): 1})


def test_strategy_choosers_pick_positions():
    pf = parse_problem("(VAR x)(RULES f(x) -> x  a -> b)")
    system = elaborate(pf)
    pars = TermPars(system)
    term = App("f", (App("a"),))
    options = pars.options(term)
    assert len(options) == 2
    outer = options[leftmost_outermost(pars, term, options)]
    inner = options[leftmost_innermost(pars, term, options)]
    assert outer == FiniteDistribution({App("a"): 1})
    assert inner == FiniteDistribution({App("f", (App("b"),)): 1})


def test_step_multidist_drops_terminal_entries():
    walk = RandomWalk(H)
    mu = MultiDistribution([(H, 0), (H, 2)])
    nu = step_multidist(walk, mu, leftmost_outermost)
    assert nu == MultiDistribution([(Fraction(1, 4), 1), (Fraction(1, 4), 3)])
    assert nu.mass() == H


def test_walk_sequence_matches_hand_expansion():
    walk = RandomWalk(H)
    mu = MultiDistribution.point(1)
    seen = [mu]
    for _ in range(3):
        mu = step_multidist(walk, mu, leftmost_outermost)
        seen.append(mu)
    assert seen[1] == MultiDistribution([(H, 0), (H, 2)])
    assert seen[2] == MultiDistribution([(Fraction(1, 4), 1), (Fraction(1, 4), 3)])
    assert seen[3] == MultiDistribution(
        [(Fraction(1, 8), 0), (Fraction(1, 8), 2), (Fraction(1, 8), 2), (Fraction(1, 8), 4)]
    )
    assert [m.mass() for m in seen] == [1, 1, H, H]


def test_term_walk_agrees_with_abstract_walk():
    rng = random.Random(5)
    walk = RandomWalk(Fraction(3, 4))
    pars = TermPars(random_walk_ptrs(Fraction(3, 4)))
    mu_abs = MultiDistribution.point(3)
    mu_term = MultiDistribution.point(nat(3))
    for _ in range(6):
        mu_abs = step_multidist(walk, mu_abs, leftmost_outermost)
        mu_term = step_multidist(pars, mu_term, leftmost_outermost)
        assert mapped(mu_term, lambda t: str(t).count("s(")) == mu_abs
    assert rng  # rng reserved for future extension of this check


def test_nd_branching_steps():
    nd = NondetBranch()
    mu = MultiDistribution.point("a")
    mu = step_multidist(nd, mu, leftmost_outermost)
    assert mu == MultiDistribution([(H, "b1"), (H, "b2")])
    mu = step_multidist(nd, mu, leftmost_outermost)
    assert mu == MultiDistribution([(H, "c"), (H, "c")])
    results = all_steps(nd, mu)
    expected = [
        MultiDistribution([(H, "d1"), (H, "d1")]),
        MultiDistribution([(H, "d1"), (H, "d2")]),
        MultiDistribution([(H, "d2"), (H, "d2")]),
    ]
    assert Counter(results) == Counter(expected)


def test_all_steps_on_terminal_mu():
    nd = NondetBranch()
    assert all_steps(nd, MultiDistribution.point("d1")) == [MultiDistribution.empty()]
    assert all_steps(nd, MultiDistribution.empty()) == [MultiDistribution.empty()]


def test_all_steps_budget():
    nd = NondetBranch()
    mu = MultiDistribution([(Fraction(1, 4), "c")] * 4)
    with pytest.raises(NodeBudgetExceeded):
        all_steps(nd, mu, BudgetTracker(10))
    assert len(all_steps(nd, mu, BudgetTracker(1000))) == 5


def test_mass_monotone_random():
    rng = random.Random(17)
    walk = RandomWalk(Fraction(1, 3))
    chooser = random_chooser(rng)
    mu = MultiDistribution([(Fraction(1, 3), 2), (Fraction(1, 3), 0), (Fraction(1, 3), 5)])
    last = mu.mass()
    for _ in range(12):
        mu = step_multidist(walk, mu, chooser)
        assert mu.mass() <= last
        last = mu.mass()


def test_pars_options_match_redexes():
    rng = random.Random(19)
    system = elaborate(parse_problem("(VAR x)(RULES f(s(x)) -> 1 : x || 1 : f(x)  g(x) -> x)"))
    pars = TermPars(system)
    for _ in range(100):
        t = random_term(system.signature, rng, max_depth=4)
        assert pars.options(t) == [st.result for st in enumerate_redexes(system, t)]


def test_ars_embedding():
    system = elaborate(parse_problem("(RULES a -> b  b -> c)"))
    pars = TermPars(system)
    report = ars_embedding_check(pars, [App("a"), App("b"), App("c")])
    assert report.ok, report.problems
    mu = MultiDistribution.point(App("a"))
    mu = step_multidist(pars, mu, leftmost_outermost)
    mu = step_multidist(pars, mu, leftmost_outermost)
    assert mu == MultiDistribution.point(App("c"))


def test_ars_embedding_flags_probabilistic_rules():
    system = elaborate(parse_problem("(VAR x)(RULES a -> 1 : b || 1 : c)"))
    report = ars_embedding_check(TermPars(system), [App("a")])
    assert not report.ok


def test_payout_family_rules():
    game = Payout()
    opts = game.options(Stake(3))
    assert opts[0] == FiniteDistribution({Stake(4): H, 0: H})
    assert opts[1] == FiniteDistribution({24: 1})
    assert game.options(5) == [FiniteDistribution({4: 1})]
    assert game.options(0) == []
    assert str(Stake(3)) == "a3"



def test_truncation_marks_terminal():
    walk = RandomWalk(H, truncate=4)
    assert walk.options(4) == []
    assert walk.truncates(4)
    assert not walk.truncates(3)
    game = Payout(truncate=2)
    assert game.options(Stake(2)) == []
    assert game.truncates(Stake(2))


def test_make_family():
    assert isinstance(make_family("rw", Fraction(1, 2)), RandomWalk)
    assert isinstance(make_family("nd"), NondetBranch)
    assert isinstance(make_family("payout"), Payout)
    with pytest.raises(ValueError):
        make_family("rw")
    with pytest.raises(ValueError):
        make_family("unknown")


def test_parse_objects():
    assert RandomWalk(H).parse_object("7") == 7
    assert NondetBranch().parse_object("b2") == "b2"
    assert Payout().parse_object("a5") == Stake(5)
    assert Payout().parse_object("12") == 12
    with pytest.raises(ValueError):
        Payout().parse_object("five")


def test_term_view():
    walk = RandomWalk(H)
    assert walk.term_view(2) == nat(2)
    pars = TermPars(random_walk_ptrs(H))
    assert pars.term_view(nat(2)) == nat(2)
    assert pars.parse_object("s(s(0))") == nat(2)


def test_ptrs_signature_validation():
    with pytest.raises(Exception):
        PTRS(Signature({"s": 1}), (ProbRule(App("s", (x,)), FiniteDistribution({App("t", (x,)): 1})),))


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def naive_redexes(system, term):
    """Reference enumeration: locate every subterm from the root, match it,
    and plug each collapsed instance back in with replace_at."""
    out = []
    for position in subterm_positions(term):
        sub = subterm_at(term, position)
        for index, rule in enumerate(system.rules):
            subst = match(rule.lhs, sub)
            if subst is None:
                continue
            local = {}
            for rhs_term, p in items(rule.rhs):
                image = apply_substitution(rhs_term, subst)
                local[image] = local.get(image, Fraction(0)) + p
            dist = FiniteDistribution({replace_at(term, position, image): p for image, p in local.items()})
            out.append((position, index, subst, dist))
    return out


def quadratic_innermost(positions):
    """The first position with no other redex position strictly below it."""
    for index, pos in enumerate(positions):
        if not any(len(q) > len(pos) and q[: len(pos)] == pos for q in positions):
            return index
    return 0


def systems_under_test():
    rng = random.Random(29)
    shipped = [load_system(str(path)) for path in sorted(PROBLEMS.glob("*.wst"))]
    return shipped + [random_ptrs(rng) for _ in range(25)]


def test_contraction_reads_the_subject_and_stays_linear():
    # A compiled contraction takes every right-hand subterm that is a
    # left-hand one from the matched node, builds the rest, and merges
    # equal instances in order; its program is linear in the rule even for
    # a left-hand side deeper than the interpreter's recursion limit.
    y = Var("y")

    def tower(n, t):
        for _ in range(n):
            t = s(t)
        return t

    lhs = App("f", (tower(2000, x), y))
    third = Fraction(1, 3)
    rules = (
        ProbRule(lhs, FiniteDistribution([(s(tower(2000, x)), third), (App("f", (y, tower(1000, x))), third),
                                          (y, third)])),
        ProbRule(App("f", (x, x)), FiniteDistribution([(App("g", (x,)), H), (App("f", (App("0"), x)), H)])),
        ProbRule(App("g", (App("f", (x, App("0"))),)),
                 FiniteDistribution([(x, H), (App("f", (x, App("0"))), Fraction(1, 4)), (App("0"), Fraction(1, 4))])),
        # instances of g(x) and g(y) are equal when x and y are bound alike
        ProbRule(App("f", (x, y)), FiniteDistribution([(App("g", (x,)), H), (App("g", (y,)), H)])),
    )
    system = PTRS(Signature({"f": 2, "g": 1, "s": 1, "0": 0}), rules)
    pars = TermPars(system)
    subjects = [App("f", (tower(2000, nat(3)), nat(7))), App("f", (nat(4), nat(4))),
                App("g", (App("f", (nat(2), App("0"))),)), App("f", (tower(2000, x), tower(2000, x)))]
    contracted = merged = 0
    for subject in subjects:
        for index, rule in enumerate(rules):
            subst = match(rule.lhs, subject)
            if subst is None:
                continue
            local = {}
            for n, rhs_term in rule.rhs.numerators:
                image = apply_substitution(rhs_term, subst)
                local[image] = local.get(image, 0) + n
            got = pars._contract(subject, index)
            assert got.numerators == tuple((n, image) for image, n in local.items())
            assert got.denominator == rule.rhs.denominator
            contracted += 1
            merged += len(got.numerators) < len(rule.rhs.numerators)
    assert (contracted, merged) == (8, 2)
    den, reads, builds, alternatives = ptrs.rewriting._compile_rule(rules[0])
    assert len(reads) == 2002  # every left-hand subterm below the root, each once
    assert [symbol for symbol, _ in builds] == ["s", "f"]  # s(s^2000(x)) and f(y, s^1000(x))


def test_contraction_builds_a_shared_right_hand_node_once():
    # s(x) is on both right-hand sides and not on the left: the program
    # builds it once, and both images hold that one node
    rule = ProbRule(App("f", (x,)), FiniteDistribution([(App("g", (s(x),)), H), (App("h", (s(x),)), H)]))
    system = PTRS(Signature({"f": 1, "g": 1, "h": 1, "s": 1, "0": 0}), (rule,))
    den, reads, builds, alternatives = ptrs.rewriting._compile_rule(rule)
    assert builds == (("s", 1), ("g", 2), ("h", 2))
    assert [k for _, k in alternatives] == [3, 4]
    subject = App("f", (nat(2),))
    got = TermPars(system)._contract(subject, 0)
    subst = match(rule.lhs, subject)
    assert got.numerators == tuple((n, apply_substitution(t, subst)) for n, t in rule.rhs.numerators)


def test_walk_agrees_with_naive_enumeration():
    rng = random.Random(31)
    checked = 0
    for system in systems_under_test():
        pars = TermPars(system)
        for _ in range(60):
            term = random_term(system.signature, rng, max_depth=rng.randint(2, 6))
            steps = enumerate_redexes(system, term)
            expected = naive_redexes(system, term)
            assert [(st.position, st.rule_index, st.substitution, st.result) for st in steps] == expected
            chosen = leftmost_innermost(pars, term, pars.options(term))
            assert chosen == quadratic_innermost([pos for pos, *_ in expected])
            checked += len(steps)
    assert checked > 1000


def test_innermost_skips_rules_at_the_same_node():
    system = elaborate(parse_problem("(VAR x)(RULES f(x) -> x  f(a) -> a  a -> b)"))
    pars = TermPars(system)
    term = App("h", (App("f", (App("a"),)), App("f", (App("b"),))))
    assert [st.position for st in pars.redexes(term)] == [(1,), (1,), (1, 1), (2,)]
    assert leftmost_innermost(pars, term, pars.options(term)) == 2
    term = App("h", (App("f", (App("b"),)), App("a")))
    assert [st.position for st in pars.redexes(term)] == [(1,), (2,)]
    assert leftmost_innermost(pars, term, pars.options(term)) == 0


def spy_on(monkeypatch, owner, name):
    """Record the arguments of every call to owner.name, then call it."""
    calls = []
    original = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_single_strategy_step_builds_only_the_chosen_reduct(monkeypatch):
    contracted = spy_on(monkeypatch, TermPars, "_contract")
    pars = TermPars(random_walk_ptrs(Fraction(3, 4)))
    term = nat(50)
    nu = step_multidist(pars, MultiDistribution.point(term), leftmost_innermost)
    # the one redex contracted is the innermost one, at s(0)
    assert [node for _, node, _ in contracted] == [nat(1)]
    steps = pars.redexes(term)
    assert nu == from_distribution(steps[-1].result)
    # reading the chosen step's result again builds nothing new
    assert len(contracted) == 1


def test_choose_default_goes_through_options():
    walk = RandomWalk(H)
    assert walk.choose(3, leftmost_outermost) == FiniteDistribution({2: H, 4: H})
    assert walk.choose(0, leftmost_outermost) is None
    pars = TermPars(random_walk_ptrs(H))
    assert pars.choose(App("0"), leftmost_outermost) is None
    assert pars.choose(nat(2), random_chooser(random.Random(1))) in pars.options(nat(2))


def test_a_chooser_indexes_the_redexes_as_a_sequence():
    # f(a, a) has three redexes, the root and each a: a chooser's -1 is
    # the last, as on a list, and an index past either end is an IndexError
    pars = TermPars(elaborate(parse_problem("(RULES a -> b  f(a, a) -> b)")))
    a, b = App("a"), App("b")
    term = App("f", (a, a))
    assert len(pars.options(term)) == 3
    last = pars.choose(term, lambda pars, obj, options: -1)
    assert last == pars.options(term)[2] == FiniteDistribution.point(App("f", (a, b)))
    for index in (3, -4):
        with pytest.raises(IndexError, match="^redex index out of range$"):
            pars.choose(term, lambda pars, obj, options: index)


def test_deep_term_walk_is_linear_and_recursion_free():
    rw = random_walk_ptrs(Fraction(3, 4))
    depth = 3000
    steps = enumerate_redexes(rw, nat(depth))
    assert len(steps) == depth
    assert steps[-1].position == (1,) * (depth - 1)
    assert steps[-1].result == FiniteDistribution({nat(depth - 1): Fraction(3, 4), nat(depth + 1): Fraction(1, 4)})
    # the chooser reads the redexes, not the options; building every option
    # here would rebuild a spine per redex, which is quadratic
    assert leftmost_innermost(TermPars(rw), nat(depth), ()) == depth - 1


@pytest.mark.parametrize("p", [Fraction(0), Fraction(1), Fraction(3, 5)])
def test_walk_options_match_the_checking_constructor(p):
    # the integer form of each height's distribution, zero weights dropped,
    # is the one the checking constructor builds from p and 1 - p
    walk = RandomWalk(p)
    for height in (1, 2, 7):
        (got,) = walk.options(height)
        want = FiniteDistribution([(height - 1, p), (height + 1, 1 - p)])
        assert (got.numerators, got.denominator) == (want.numerators, want.denominator)
        assert got.mass_numerator == want.mass_numerator
        assert str(got) == str(want)
    with pytest.raises(ValueError):
        RandomWalk(Fraction(6, 5))


@pytest.mark.parametrize("chooser, per_object", [
    (leftmost_outermost, True),
    (leftmost_innermost, True),
    # a wrapper made with functools.wraps carries the mark along
    (functools.wraps(leftmost_innermost)(lambda *args: leftmost_innermost(*args)), True),
    (random_chooser(random.Random(7)), False),
])
def test_step_chooses_once_per_distinct_term_or_per_entry(monkeypatch, chooser, per_object):
    # a run asks a per-object chooser once per distinct term, in the order
    # it first meets them, and any other chooser once per entry of every
    # state; step_multidist asks every chooser once per entry
    calls = []
    choose = TermPars.choose

    def spy(self, term, chooser):
        calls.append(term)
        return choose(self, term, chooser)

    assert getattr(chooser, "per_object", False) == per_object
    pars = TermPars(random_walk_ptrs(Fraction(3, 4)))
    mu = MultiDistribution.point(nat(5))
    states = [mu]
    for _ in range(8):
        mu = mu.bind(lambda term: pars.choose(term, leftmost_outermost))
        states.append(mu)
    assert len(mu) > len(set(obj for _, obj in mu.numerators))
    monkeypatch.setattr(TermPars, "choose", spy)
    run(RunConfig(TermPars(pars.system), nat(5), 8, chooser))
    terms = [obj for state in states[:-1] for _, obj in state.numerators]
    assert calls == (list(dict.fromkeys(terms)) if per_object else terms)
    for state in states[:-1]:
        calls.clear()
        step_multidist(pars, state, chooser)
        assert calls == [obj for _, obj in state.numerators]


@pytest.mark.parametrize("memo_limit", [None, 3])
def test_index_agrees_with_naive_walk(monkeypatch, memo_limit):
    """Counts, options and the three strategies' picks, read off the index,
    against the walk that locates and matches every subterm from the root;
    with a tiny memo most nodes are indexed afresh on every visit."""
    if memo_limit is not None:
        monkeypatch.setattr(ptrs.rewriting, "MEMO_LIMIT", memo_limit)
    rng = random.Random(37)
    checked = 0
    for system in systems_under_test():
        full = []
        pars = TermPars(system, full.append)
        for _ in range(60):
            term = random_term(system.signature, rng, max_depth=rng.randint(2, 6))
            expected = naive_redexes(system, term)
            dists = [dist for *_, dist in expected]
            lengths = []

            def first(pars, obj, options):
                lengths.append(len(options))
                return 0

            seed = rng.randrange(1 << 30)
            picked = [pars.choose(term, chooser) for chooser in (
                first, leftmost_outermost, leftmost_innermost, random_chooser(random.Random(seed)))]
            if not expected:
                assert lengths == [] and picked == [None] * 4
                assert pars.options(term) == []
                continue
            inner = quadratic_innermost([pos for pos, *_ in expected])
            drawn = random.Random(seed).randrange(len(expected))
            assert lengths == [len(expected)]
            assert picked == [dists[0], dists[0], dists[inner], dists[drawn]]
            assert pars.options(term) == dists
            steps = pars.redexes(term)
            assert [(st.position, st.rule_index, st.substitution, st.result) for st in steps] == expected
            checked += len(expected)
        assert full == ([] if memo_limit is None else [memo_limit])
    assert checked > 1000


def test_new_spine_costs_match_calls_only_at_its_new_nodes(monkeypatch):
    rw = random_walk_ptrs(Fraction(3, 4))
    calls = spy_on(monkeypatch, ptrs.rewriting, "match")
    pars = TermPars(rw)
    assert pars.choose(nat(1000), leftmost_outermost) is not None
    assert len(calls) == 1000  # one per s node: s/1 has one rule
    for n, new_nodes in ((1001, 1), (999, 0), (1003, 2)):
        calls.clear()
        dist = pars.choose(nat(n), leftmost_innermost)
        assert len(calls) <= len(rw.rules) * new_nodes
        assert dist == FiniteDistribution({nat(n - 1): Fraction(3, 4), nat(n + 1): Fraction(1, 4)})


def test_deep_innermost_step_is_linear_and_recursion_free(monkeypatch):
    # s^3000(0) is deeper than the interpreter's recursion limit
    rw = random_walk_ptrs(Fraction(3, 4))
    depth = 3000
    calls = spy_on(monkeypatch, ptrs.rewriting, "match")
    contracted = spy_on(monkeypatch, TermPars, "_contract")
    pars = TermPars(rw)
    dist = pars.choose(nat(depth), leftmost_innermost)
    assert dist == FiniteDistribution({nat(depth - 1): Fraction(3, 4), nat(depth + 1): Fraction(1, 4)})
    assert len(calls) == depth and len(contracted) == 1
    # kept: the reduct plugged into every node on the way down. nat(k) has
    # k redexes, one per s, numbered from its root, and its innermost one
    # (at s(0)) is its last, number k - 1
    expected, node = [], App("0")
    for k in range(1, depth + 1):
        node = s(node)
        expected.append((node, [k - 1]))
    assert [(entry.node, list(entry.reducts)) for entry in pars._memo.values() if entry.reducts] == expected


def test_a_term_sharing_a_chosen_spine_plugs_only_its_new_levels(monkeypatch):
    pars = TermPars(random_walk_ptrs(Fraction(3, 4)))
    pars.choose(nat(1000), leftmost_innermost)
    descents = spy_on(monkeypatch, ptrs.rewriting, "_step_down")
    for n, new_levels in ((999, 0), (1003, 3), (1004, 1), (500, 0)):
        descents.clear()
        dist = pars.choose(nat(n), leftmost_innermost)
        assert len(descents) == new_levels
        assert dist == FiniteDistribution({nat(n - 1): Fraction(3, 4), nat(n + 1): Fraction(1, 4)})


def test_options_keep_linearly_many_reducts():
    # every redex of nat(n) is kept plugged into the root (n) and at the
    # node it sits at (n - 1 more: the root's is one of those n); nodes on
    # the way down keep nothing, or nat(n) would keep n^2 / 2
    n = 300
    pars = TermPars(random_walk_ptrs(Fraction(3, 4)))
    options = pars.options(nat(n))
    assert len(options) == n
    assert options[-1] == FiniteDistribution({nat(n - 1): Fraction(3, 4), nat(n + 1): Fraction(1, 4)})
    assert sum(len(entry.reducts) for entry in pars._memo.values()) == 2 * n - 1


def _coingame_starts(pars):
    return [pars.parse_object(text) for text in ("?(s(s(s(0))))", "?(g(s(0)))", "?(f(s(s(0))))")]


@pytest.mark.parametrize("mode", ["innermost", "outermost"])
def test_a_collapsed_run_keeps_one_reduct_per_node_beyond_its_matches(mode):
    # a leftmost strategy's pick inside a node on the chosen spine is that
    # node's own pick, so a node keeps at most one reduct other than those
    # of its own matches
    walk = TermPars(random_walk_ptrs(Fraction(3, 4)))
    coingame = TermPars(load_system(str(Path(__file__).resolve().parent.parent / "problems" / "coingame.wst")))
    runs = [(walk, nat(300))] + [(coingame, start) for start in _coingame_starts(coingame)]
    for pars, start in runs:
        run(RunConfig(pars, start, 40, mode, collapse=True))
    kept = 0
    for pars in (walk, coingame):
        for entry in pars._memo.values():
            assert len([k for k in entry.reducts if k >= len(entry.matches)]) <= 1
            kept += bool(entry.reducts)
    assert kept > 150


def test_term_sampler_draws_what_random_term_drew():
    # A sampler builds the symbol and leaf lists once; every draw, through
    # it or through random_term, makes the same rng calls and builds the
    # same term as the body random_term had before.
    signatures = [RANDOM_SIGNATURE, Signature({"f": 2}), Signature({"c": 0})]
    signatures += [load_system(PROBLEMS / f"{name}.wst").signature for name in ("coingame", "matrix", "rw34")]
    for signature in signatures:
        for pool in (("x", "y"), ("z",), ()):
            if not pool and not any(a == 0 for a in signature.symbols().values()):
                for draw in (random_term, reference_random_term):
                    with pytest.raises(ValueError, match="nullary symbol"):
                        draw(signature, random.Random(0), variable_pool=pool)
                continue
            sampler = term_sampler(signature, pool)
            for seed in range(10):
                for depth in (0, 1, 3, 5):
                    rngs = [random.Random(seed) for _ in range(3)]
                    want = reference_random_term(signature, rngs[0], max_depth=depth, variable_pool=pool)
                    assert random_term(signature, rngs[1], max_depth=depth, variable_pool=pool) == want
                    assert sampler(rngs[2], depth) == want
                    assert rngs[0].getstate() == rngs[1].getstate() == rngs[2].getstate()
