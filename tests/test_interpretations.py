import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    apply_symbol,
    coefficients,
    items,
    oracle_rank,
    orientation_margin,
    poly_form_value,
    rand_matrix_interp,
    rand_poly_interp,
    rand_value_distribution,
    random_ptrs,
    random_term,
    reference_orientation,
    rule_difference,
    vec_form_value,
)
from ptrs.certtext import load_interpretation
from ptrs.interpretations import (
    Certificate,
    CertificateInvalid,
    DegreeOverflow,
    MatrixInterpretation,
    NUMBERS,
    Differences,
    NotOriented,
    PolyInterpretation,
    check_certificate,
    eval_term,
    ranking_from_certificate,
)
from ptrs.multidist import FiniteDistribution
from ptrs.rewriting import ProbRule, TermPars, random_walk_ptrs
from ptrs.simulator import RunConfig, estimate_edh, run
from ptrs.terms import App, Signature, Var, variables
from ptrs.wst import elaborate, load_system, parse_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

H = Fraction(1, 2)
x, y, z = Var("x"), Var("y"), Var("z")

COINGAME = """\
(VAR x)
(RULES
  ?(x) -> 1 : ?(s(x)) || 1 : $(g(x))
  ?(x) -> $(f(x))
  $(0) -> 0
  $(s(x)) -> $(x)
)
"""

COIN_INTERP = PolyInterpretation(
    {"?": 1, "s": 1, "$": 1, "f": 1, "g": 1, "0": 0},
    {
        "?": {(): 11, (1,): 7},
        "s": {(): 1, (1,): 1},
        "$": {(): 1, (1,): 2},
        "f": {(): 1, (1,): 3},
        "g": {(): 1, (1,): 2},
        "0": {(): 1},
    },
)

MATRIX_SYSTEM = elaborate(parse_problem("(VAR x)(RULES a(a(x)) -> 1 : a(a(a(x))) || 3 : a(b(a(x))))"))

MATRIX_INTERP = MatrixInterpretation(
    {"a": 1, "b": 1},
    2,
    {
        "a": ((((1, 1), (0, 0)),), (0, 1)),
        "b": ((((1, 0), (0, 0)),), (0, 0)),
    },
)


def nat(n):
    t = App("0")
    for _ in range(n):
        t = App("s", (t,))
    return t


def walk_interp():
    return PolyInterpretation({"s": 1, "0": 0}, {"s": {(): 1, (1,): 1}, "0": {(): 0}})


def test_eval_term_poly():
    interp = walk_interp()
    assert eval_term(interp, nat(5), {}) == 5
    assert eval_term(interp, App("s", (x,)), {"x": Fraction(3)}) == 4
    assert eval_term(interp, App("s", (x,)), {}) == 1  # unassigned variables read 0
    assert eval_term(COIN_INTERP, App("?", (App("0"),)), {}) == 18


def test_eval_term_matrix():
    v = (Fraction(5), Fraction(7))
    aa_x = App("a", (App("a", (x,)),))
    value = eval_term(MATRIX_INTERP, aa_x, {"x": v})
    assert value == (Fraction(13), Fraction(1))  # x1 + x2 + 1, then constant 1
    assert eval_term(MATRIX_INTERP, aa_x, {}) == (Fraction(1), Fraction(1))


def symbolic_eval(interp, term, cap=None):
    """The form of `term` under a concrete interpretation."""
    return Differences(interp.kind, getattr(interp, "dim", 1), interp.table, NUMBERS, cap).form(term)


def test_symbolic_eval_poly_forms():
    interp = walk_interp()
    form = symbolic_eval(interp, App("s", (App("s", (x,)),)))
    assert form == {frozenset(): 2, frozenset(("x",)): 1}
    coin = symbolic_eval(COIN_INTERP, App("$", (App("g", (x,)),)))
    assert coin == {frozenset(): 3, frozenset(("x",)): 4}
    # integral Fraction coefficients are read as ints
    rw34 = load_interpretation(PROBLEMS / "rw34.cert")
    assert all(type(c) is int for c in symbolic_eval(rw34, App("s", (x,))).values())


def test_symbolic_eval_matrix_form():
    grids, vector = symbolic_eval(MATRIX_INTERP, App("a", (App("a", (x,)),)))
    assert grids == {"x": [[1, 1], [0, 0]]}
    assert vector == [1, 1]


def test_symbolic_matches_numeric_poly():
    rng = random.Random(31)
    sig = Signature({"f": 2, "g": 1, "c": 0})
    for _ in range(150):
        interp = rand_poly_interp(rng, sig.symbols(), degree=2)
        term = random_term(sig, rng, max_depth=3, variable_pool=("x", "y"))
        try:
            form = symbolic_eval(interp, term)
        except DegreeOverflow:
            continue
        assignment = {"x": Fraction(rng.randrange(0, 9), 2), "y": Fraction(rng.randrange(0, 9), 3)}
        assert poly_form_value(form, assignment) == eval_term(interp, term, assignment)


def test_symbolic_matches_numeric_matrix():
    rng = random.Random(37)
    sig = Signature({"f": 2, "g": 1, "c": 0})
    for _ in range(100):
        interp = rand_matrix_interp(rng, sig.symbols(), dim=2)
        term = random_term(sig, rng, max_depth=3, variable_pool=("x", "y"))
        form = symbolic_eval(interp, term)
        assignment = {
            name: (Fraction(rng.randrange(0, 7)), Fraction(rng.randrange(0, 7)))
            for name in ("x", "y")
        }
        assert vec_form_value(form, assignment) == eval_term(interp, term, assignment)


def test_coin_game_margins():
    system = elaborate(parse_problem(COINGAME))
    margins = [orientation_margin(COIN_INTERP, rule) for rule in system.rules]
    assert margins == [H, 8, 2, 2]


def test_walk_margin_three_quarters():
    system = random_walk_ptrs(Fraction(3, 4))
    assert orientation_margin(walk_interp(), system.rules[0]) == H


def test_fair_walk_not_oriented():
    system = random_walk_ptrs(H)
    with pytest.raises(NotOriented) as err:
        orientation_margin(walk_interp(), system.rules[0])
    assert "margin is 0" in str(err.value)


def test_negative_coefficient_reported():
    # [s](x) = 2x + 1 against s(x) -> {1: s(s(x))} gives a negative x coefficient.
    interp = PolyInterpretation({"s": 1}, {"s": {(): 1, (1,): 2}})
    rule = ProbRule(App("s", (x,)), FiniteDistribution({App("s", (App("s", (x,)),)): 1}))
    with pytest.raises(NotOriented) as err:
        orientation_margin(interp, rule)
    assert "coefficient of x" in str(err.value)


def test_matrix_margin_is_half():
    cert = check_certificate(MATRIX_INTERP, MATRIX_SYSTEM)
    assert cert.margins == (H,)
    assert cert.epsilon == H


def test_matrix_margin_varies_with_probability():
    # With weights 1:1 the margin drops to 1 - 2p = 0 and orientation fails.
    system = elaborate(parse_problem("(VAR x)(RULES a(a(x)) -> 1 : a(a(a(x))) || 1 : a(b(a(x))))"))
    with pytest.raises(NotOriented):
        orientation_margin(MATRIX_INTERP, system.rules[0])


def test_degree_overflow_on_squaring():
    interp = PolyInterpretation({"f": 2}, {"f": {(1,): 1, (2,): 1, (1, 2): 1}})
    term = App("f", (x, x))
    with pytest.raises(DegreeOverflow):
        symbolic_eval(interp, term)


def test_degree_cap_only_binds_when_set():
    interp = PolyInterpretation({"f": 2, "c": 0}, {"f": {(1,): 1, (2,): 1, (1, 2): 1}, "c": {}})
    nested = App("f", (App("f", (x, y)), z))
    form = symbolic_eval(interp, nested)  # uncapped: x*y*z is fine
    assert form[frozenset(("x", "y", "z"))] == 1
    with pytest.raises(DegreeOverflow):
        symbolic_eval(interp, nested, cap=2)


def test_check_certificate_coin_game():
    system = elaborate(parse_problem(COINGAME))
    cert = check_certificate(COIN_INTERP, system)
    assert cert.kind == "poly"
    assert cert.margins == (H, 8, 2, 2)
    assert cert.epsilon == H


def test_check_certificate_collects_all_problems():
    system = elaborate(parse_problem(COINGAME))
    broken = PolyInterpretation(
        COIN_INTERP.arities,
        {**coefficients(COIN_INTERP), "?": {(): 0, (1,): 7}},
    )
    with pytest.raises(CertificateInvalid) as err:
        check_certificate(broken, system)
    # [?] = 7x orients neither ? rule once the +11 is gone.
    assert len(err.value.problems) == 2


def test_check_certificate_coverage_and_witnesses():
    system = random_walk_ptrs(Fraction(3, 4))
    with pytest.raises(CertificateInvalid) as err:
        check_certificate(PolyInterpretation({"s": 1}, {"s": {(1,): 1}}), system)
    assert any("no interpretation for symbol 0" in p for p in err.value.problems)
    lazy = PolyInterpretation({"s": 1, "0": 0}, {"s": {(): 1, (1,): H}, "0": {}})
    with pytest.raises(CertificateInvalid) as err:
        check_certificate(lazy, system)
    assert any("not monotone" in p for p in err.value.problems)
    wrong_arity = PolyInterpretation({"s": 2, "0": 0}, {"s": {(): 1, (1,): 1, (2,): 1}, "0": {}})
    with pytest.raises(CertificateInvalid) as err:
        check_certificate(wrong_arity, system)
    assert any("arity" in p for p in err.value.problems)


def _symbols(term) -> set[str]:
    out, stack = set(), [term]
    while stack:
        node = stack.pop()
        if isinstance(node, App):
            out.add(node.symbol)
            stack.extend(node.args)
    return out


def _shift_root_constant(interp, symbol, delta):
    """`interp` with `delta` added to the constant (the first component of
    the constant vector) of `symbol`."""
    entries = coefficients(interp)
    if interp.kind == "poly":
        entries[symbol][frozenset()] = entries[symbol].get(frozenset(), 0) + delta
        return PolyInterpretation(interp.arities, entries)
    mats, const = entries[symbol]
    entries[symbol] = (mats, (const[0] + delta,) + const[1:])
    return MatrixInterpretation(interp.arities, interp.dim, entries)


def _near_zero(interp, system, rng):
    """`interp` with one rule's margin moved to just above, at or just below
    0, where the rule's root symbol occurs nowhere else in it: its constant
    then moves the margin one for one. Integral coefficients stay integral."""
    index = rng.randrange(len(system.rules))
    rule = system.rules[index]
    root = rule.lhs.symbol
    if any(root in _symbols(t) for t in (*rule.lhs.args, *rule.rhs.support())):
        return interp
    try:
        diff = rule_difference(interp, rule)
    except DegreeOverflow:
        return interp
    margin = diff.coefficient(frozenset()) if interp.kind == "poly" else diff.const[0]
    integral = all(Fraction(c).denominator == 1 for c in _coefficients(interp))
    if integral:
        delta = -math.floor(margin) - rng.randrange(2)
    else:
        delta = -margin + rng.choice((Fraction(1, 60), Fraction(0), Fraction(-1, 60)))
    shifted = _shift_root_constant(interp, root, delta)
    return shifted if not shifted.validate() else interp


def _coefficients(interp):
    if interp.kind == "poly":
        return [c for row in coefficients(interp).values() for c in row.values()]
    return [c for mats, const in coefficients(interp).values() for M in mats for row in M for c in row] + \
        [c for _, const in coefficients(interp).values() for c in const]


def _point(rng, interp, term):
    """A nonnegative rational value (vector, for a matrix interpretation)
    for every variable of `term`."""
    def value():
        return Fraction(rng.randrange(0, 13), rng.randrange(1, 4))

    return {
        name: value() if interp.kind == "poly" else tuple(value() for _ in range(interp.dim))
        for name in sorted(variables(term))
    }


def _drop(interp, rule, assignment):
    """[l] - sum p [r] at the assignment, by numeric evaluation (the first
    component for a matrix interpretation)."""
    def value(term):
        v = eval_term(interp, term, assignment)
        return v if interp.kind == "poly" else v[0]

    return value(rule.lhs) - sum((p * value(r) for r, p in items(rule.rhs)), Fraction(0))


# with a ternary symbol, so that degree-3 monomials occur
TERNARY = Signature({"h": 3, "f": 2, "g": 1, "a": 0})


def test_check_certificate_matches_the_per_rule_fraction_route():
    rng = random.Random(2026)
    seen = Counter()
    for case in range(420):
        system = random_ptrs(rng, TERNARY) if case % 4 == 1 else random_ptrs(rng)
        arities = system.signature.symbols()
        max_den = 1 if case % 4 < 2 else 4
        if case % 2:
            interp = rand_poly_interp(rng, arities, degree=1 + case // 2 % 3, max_den=max_den)
        else:
            interp = rand_matrix_interp(rng, arities, dim=1 + case // 2 % 3, max_den=max_den)
        for _ in range(2):
            interp = _near_zero(interp, system, rng)
        expected = reference_orientation(interp, system)
        # each rule alone, in every third case: the margin, or the text of
        # NotOriented or DegreeOverflow
        for index, (rule, outcome) in enumerate(zip(system.rules, expected if case % 3 == 0 else ()), start=1):
            try:
                assert orientation_margin(interp, rule) == outcome
            except NotOriented as reason:
                assert f"rule {index} ({rule}) is not oriented: {reason}" == outcome
            except DegreeOverflow as reason:
                assert f"rule {index} ({rule}): {reason}" == outcome
        problems = [e for e in expected if isinstance(e, str)]
        if problems:
            with pytest.raises(CertificateInvalid) as err:
                check_certificate(interp, system)
            assert err.value.problems == problems
        else:
            cert = check_certificate(interp, system)
            assert cert.interpretation is interp
            assert cert.margins == tuple(expected) and cert.epsilon == min(expected)
            assert all(type(m) is Fraction for m in cert.margins)
            # and, apart from symbolic forms, the drop at points: the margin
            # at the zero assignment, at least epsilon everywhere
            points = random.Random(case)
            for rule, margin in zip(system.rules, cert.margins):
                assert _drop(interp, rule, {}) == margin
                for _ in range(3):
                    assert _drop(interp, rule, _point(points, interp, rule.lhs)) >= cert.epsilon
            seen["certified"] += 1
        for e in expected:
            if isinstance(e, Fraction):
                seen["margin <= 1"] += e <= 1
            else:
                seen["not strictly positive"] += "not strictly positive" in e
                seen["margin 0"] += " margin is 0, " in e
                seen["negative"] += e.endswith(", negative")
                seen["squared"] += "would be squared" in e
        if interp.kind == "poly":
            seen["degree 3"] += any(len(V) == 3 for row in coefficients(interp).values() for V in row)
    assert min(seen[k] for k in ("margin <= 1", "margin 0", "negative")) >= 30, seen
    assert seen["certified"] >= 40 and seen["not strictly positive"] >= 100 and seen["squared"] >= 3, seen
    assert seen["degree 3"] >= 15, seen


def test_matrix_validate():
    bad = MatrixInterpretation(
        {"a": 1},
        2,
        {"a": ((((0, 1), (0, 0)),), (0, 0))},
    )
    problems = bad.validate()
    assert any("not monotone" in p for p in problems)


ONE = ((1,),)
IDENTITY = ((1, 0), (0, 1))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PolyInterpretation({"f": 1}, {"f": {(2,): 1}}), "monomial [2] outside the arguments of f/1"),
        (lambda: PolyInterpretation({"c": 0}, {"c": {(1,): 1}}), "monomial [1] outside the arguments of c/0"),
        (lambda: MatrixInterpretation({"a": 0}, 0, {"a": ((), ())}), "matrix dimension must be at least 1"),
        (lambda: MatrixInterpretation({"a": 2}, 1, {"a": ((ONE,), (0,))}), "[a] needs 2 argument matrices, got 1"),
        (lambda: MatrixInterpretation({"a": 1}, 2, {"a": ((((1, 0),),), (0, 0))}), "[a] has a matrix that is not 2x2"),
        (lambda: MatrixInterpretation({"a": 1}, 2, {"a": ((((1, 0), (0,)),), (0, 0))}),
         "[a] has a matrix that is not 2x2"),
        (lambda: MatrixInterpretation({"a": 1}, 2, {"a": ((IDENTITY,), (0,))}), "[a] constant vector is not of length 2"),
    ],
)
def test_constructors_reject_a_table_of_the_wrong_shape(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_check_certificate_needs_a_rule():
    system = elaborate(parse_problem(COINGAME))
    empty = type(system)(system.signature, ())
    with pytest.raises(ValueError, match="^system has no rules$"):
        check_certificate(COIN_INTERP, empty)


def test_ranking_from_certificate_poly():
    system = random_walk_ptrs(Fraction(3, 4))
    cert = check_certificate(walk_interp(), system)
    rank, eps = ranking_from_certificate(cert)
    assert eps == H
    assert [rank(nat(n)) for n in range(5)] == [0, 1, 2, 3, 4]


def test_ranking_from_certificate_matrix():
    cert = check_certificate(MATRIX_INTERP, MATRIX_SYSTEM)
    rank, eps = ranking_from_certificate(cert)
    a_of = lambda t: App("a", (t,))
    b_of = lambda t: App("b", (t,))
    assert eps == H
    assert rank(a_of(a_of(App("b", (x,))))) == 1
    assert rank(b_of(x)) == 0


def test_expected_interpretation_is_affine():
    # E[f](d1, d2) computed two ways: via rule_difference against zero, and
    # by direct enumeration of the product distribution.
    rng = random.Random(41)
    sig = {"f": 2}
    for _ in range(100):
        interp = rand_poly_interp(rng, sig, degree=2)
        values = [Fraction(n) for n in range(5)]
        d1 = rand_value_distribution(rng, values)
        d2 = rand_value_distribution(rng, values)
        lhs = apply_symbol(interp, "f", [
            sum((p * v for v, p in items(d1)), Fraction(0)),
            sum((p * v for v, p in items(d2)), Fraction(0)),
        ])
        direct = Fraction(0)
        for v1, p1 in items(d1):
            for v2, p2 in items(d2):
                direct += p1 * p2 * apply_symbol(interp, "f", [v1, v2])
        # Multilinearity makes the expectation factor through each argument,
        # even for the mixed monomial, because the draws are independent.
        assert lhs == direct


def test_certificate_dataclass():
    cert = Certificate(walk_interp(), (H,), H)
    assert cert.kind == "poly"


def test_deep_terms_evaluate_without_recursion():
    depth = 5000
    interp = walk_interp()
    assert eval_term(interp, nat(depth), {}) == depth
    open_term = x
    for _ in range(depth):
        open_term = App("s", (open_term,))
    form = symbolic_eval(interp, open_term)
    assert form == {frozenset(): depth, frozenset({"x"}): 1}
    cert = check_certificate(MATRIX_INTERP, MATRIX_SYSTEM)
    rank, _ = ranking_from_certificate(cert)
    tower = App("b", (x,))
    for _ in range(depth):
        tower = App("a", (tower,))
    assert rank(tower) == depth - 1


def test_rank_memo_matches_fresh_evaluation():
    rng = random.Random(37)
    signature = Signature({"?": 1, "s": 1, "$": 1, "f": 1, "g": 1, "0": 0})
    cert = check_certificate(COIN_INTERP, elaborate(parse_problem(COINGAME)))
    rank, _ = ranking_from_certificate(cert)
    terms = [random_term(signature, rng, max_depth=6, variable_pool=()) for _ in range(300)]
    for term in terms + terms[::-1]:
        assert rank(term) == eval_term(COIN_INTERP, term, {})
        assert rank(term) == oracle_rank(COIN_INTERP, term)
    memo = {}
    assert eval_term(COIN_INTERP, nat(3), {}, memo) == 4
    assert set(memo) == {nat(k) for k in range(4)}
    with pytest.raises(KeyError):
        eval_term(COIN_INTERP, App("h", (nat(1),)), {})


def test_ranks_equal_fraction_evaluation():
    # an interpretation stores integral coefficients as ints, so ranks under
    # one are ints. A rank is eval_term over a held memo; ground terms are
    # also checked against the oracle form of tests/helpers, which shares
    # no arithmetic with the package.
    rng = random.Random(61)
    cases = []
    for name in ("coingame", "matrix", "rw34"):
        system = load_system(PROBLEMS / f"{name}.wst")
        cert = check_certificate(load_interpretation(PROBLEMS / f"{name}.cert"), system)
        cases.append((system.signature, cert, True))
    arities = {"f": 2, "g": 1, "h": 3, "a": 0}
    for max_den in (1, 4):  # all integral, then a mix
        for _ in range(8):
            for interp in (
                rand_poly_interp(rng, arities, degree=2, max_den=max_den),
                rand_matrix_interp(rng, arities, dim=rng.choice((2, 3)), max_den=max_den),
            ):
                epsilon = Fraction(rng.randrange(1, 6), rng.randrange(1, 4))
                cert = Certificate(interp, (epsilon,), epsilon)
                cases.append((Signature(arities), cert, max_den == 1))

    def drawn_coefficients(interp):
        if interp.kind == "poly":
            return [c for row in coefficients(interp).values() for c in row.values()]
        return [e for mats, _ in coefficients(interp).values() for M in mats for row in M for e in row]

    for kind in ("poly", "matrix"):
        drawn = [
            c for _, cert, _ in cases[3:] if cert.kind == kind for c in drawn_coefficients(cert.interpretation)
        ]
        assert any(c.denominator == 1 for c in drawn) and any(c.denominator != 1 for c in drawn)
    ground = 0
    for signature, cert, integral in cases:
        rank, epsilon = ranking_from_certificate(cert)
        assert epsilon == cert.epsilon and type(epsilon) is Fraction
        for _ in range(25):
            term = random_term(signature, rng, max_depth=5)
            value = eval_term(cert.interpretation, term, {})
            expected = value if cert.kind == "poly" else value[0]
            assert rank(term) == expected
            if not variables(term):
                ground += 1
                assert rank(term) == oracle_rank(cert.interpretation, term)
            if integral:
                assert type(rank(term)) is int
            bound = rank(term) / epsilon
            assert type(bound) is Fraction and bound == Fraction(expected) / cert.epsilon
    assert ground >= 100


def test_rank_evaluator_agrees_with_eval_term():
    # The rank, over the memo it holds, against eval_term over a memo
    # filled in another order, and against the oracle form on ground terms:
    # seeded interpretations with int and Fraction coefficients,
    # multilinear degree-2 polynomials (the poly-multilinear-2 shape) and
    # matrices, on random terms; 5000-deep terms under interpretations
    # whose values grow linearly; and the same KeyError for a symbol the
    # certificate does not interpret.
    rng = random.Random(83)
    arities = {"f": 2, "g": 1, "h": 3, "a": 0, "b": 0}
    signature = Signature(arities)
    interps = []
    for max_den in (1, 3):
        for _ in range(6):
            interps.append(rand_poly_interp(rng, arities, degree=2, max_den=max_den))
            interps.append(rand_matrix_interp(rng, arities, dim=rng.choice((1, 2, 3)), max_den=max_den))
    third = Fraction(1, 3)
    linear = PolyInterpretation(arities, {
        "f": {(): third, (1,): 1, (2,): 2}, "g": {(): 1, (1,): 1},
        "h": {(1,): 1, (2,): 1, (3,): 1, (1, 3): 1}, "a": {(): 0}, "b": {(): 2},
    })
    identity = ((1, 0), (0, 1))
    square = MatrixInterpretation(arities, 2, {
        "f": ((identity, ((1, 1), (0, 0))), (third, 1)), "g": ((((1, 0), (1, 0)),), (1, 0)),
        "h": ((identity, identity, ((0, 0), (0, third))), (0, 0)), "a": ((), (0, 0)), "b": ((), (1, 2)),
    })
    deep = []
    for wrap in (lambda t: App("g", (t,)), lambda t: App("f", (t, App("b"))),
                 lambda t: App("h", (App("b"), t, x))):
        term = App("a")
        for _ in range(5000):
            term = wrap(term)
        deep.append(term)
    for interp in interps + [linear, square]:
        rank, _ = ranking_from_certificate(Certificate(interp, (H,), H))
        terms = [random_term(signature, rng, max_depth=5) for _ in range(30)]
        if interp in (linear, square):
            terms += deep
        memo = {}
        for term in terms + terms[::-1]:
            value = eval_term(interp, term, {}, memo)
            assert rank(term) == (value if interp.kind == "poly" else value[0])
        for term in terms:
            if not variables(term):
                assert rank(term) == oracle_rank(interp, term)
        with pytest.raises(KeyError) as raised:
            rank(App("g", (App("k", (x,)),)))
        assert raised.value.args == ("no interpretation for symbol 'k'",)


def test_estimate_edh_bound_stays_a_fraction():
    # An interpretation built in code can give an int margin, so epsilon is
    # an int there; with int ranks, rank / epsilon would be a float.
    system = elaborate(parse_problem("(VAR x)(RULES s(x) -> x)"))
    cert = check_certificate(walk_interp(), system)
    assert cert.epsilon == 1
    pars = TermPars(system)
    report = run(RunConfig(pars, nat(3), 5))
    estimate = estimate_edh(pars, cert, nat(3), report)
    assert type(estimate.bound) is Fraction and estimate.bound == 3 and estimate.holds
    for name in ("coingame", "matrix", "rw34"):
        system = load_system(PROBLEMS / f"{name}.wst")
        cert = check_certificate(load_interpretation(PROBLEMS / f"{name}.cert"), system)
        pars = TermPars(system)
        rng = random.Random(67)
        for _ in range(5):
            start = random_term(system.signature, rng, max_depth=4)
            estimate = estimate_edh(pars, cert, start, run(RunConfig(pars, start, 6)))
            value = eval_term(cert.interpretation, start, {})
            expected = (value if cert.kind == "poly" else value[0]) / cert.epsilon
            assert type(estimate.bound) is Fraction and estimate.bound == expected
