import copy
import hashlib
import os
import random
import shlex
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from itertools import chain, product
from math import prod
from pathlib import Path

import pytest

import ptrs.interpretations
import ptrs.smt

from helpers import (
    coefficients,
    enumerate_box,
    evaluate,
    looping_ptrs,
    orientation_entries,
    random_ptrs,
    reference_box_floor,
    rule_difference,
    template,
)
from ptrs.boxsolver import DEFAULT_LIMIT, solve_sums
from ptrs.certtext import render_interpretation
from ptrs.interpretations import (
    NUMBERS,
    UNKNOWNS,
    CertificateInvalid,
    DegreeOverflow,
    Differences,
    MatrixInterpretation,
    PolyInterpretation,
    check_certificate,
)
from ptrs.prover import ProverConfig, _attempt
from ptrs.rewriting import PTRS, random_walk_ptrs
from ptrs.smt import (
    CancelToken,
    ConstraintSet,
    DEFAULT_SHAPES,
    ModelDecodeError,
    Shape,
    SolverResult,
    UnknownSpec,
    _read_reply,
    box_floor,
    decode,
    emit_smtlib,
    encode,
    in_process_limit,
    parse_model,
    parse_shape,
    poly_sexpr,
    run_solver,
    solve_box,
)
from ptrs.terms import Signature
from ptrs.wst import elaborate, load_system, parse_problem


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

BOXSOLVER = f"{sys.executable} -m ptrs.boxsolver"
FAKE = f"{sys.executable} -m ptrs.fake_solver"

RW34 = elaborate(parse_problem("(VAR x)(RULES s(x) -> 3 : x || 1 : s(s(x)))"))
RW14 = elaborate(parse_problem("(VAR x)(RULES s(x) -> 1 : x || 3 : s(s(x)))"))

SIX_SHAPES = [parse_shape(name) for name in (
    "poly-linear", "poly-multilinear-2", "poly-multilinear-3", "matrix-1", "matrix-2", "matrix-3")]


def test_poly_algebra():
    # the encoder's arithmetic: dicts from sorted tuples of unknown
    # positions to ints, a table coefficient being an unknown's position
    # (`add` and `scaled` may update their first argument)
    a, b = UNKNOWNS.lift(0), UNKNOWNS.lift(1)
    p = UNKNOWNS.mul(UNKNOWNS.add({(): 1}, a), UNKNOWNS.add({(): 2}, b))
    p = UNKNOWNS.scaled(UNKNOWNS.scaled(None, p, 1), b, -1)
    assert evaluate(p, [3, 5]) == 4 * 7 - 5
    assert (a, b) == ({(0,): 1}, {(1,): 1})
    assert UNKNOWNS.scaled(UNKNOWNS.scaled(None, a, 1), a, -1) == {}
    assert UNKNOWNS.scaled(None, a, 2) == {(0,): 2}
    assert UNKNOWNS.times(1, UNKNOWNS.times(0, a)) == {(0, 0, 1): 1}
    assert UNKNOWNS.times(0, {(1,): 2, (): 3}) == {(0, 1): 2, (0,): 3}  # sorted positions
    assert UNKNOWNS.dot((1, 0), ({(): 2}, {(1,): 1})) == {(1,): 2, (0, 1): 1}


def test_shape_parsing():
    assert parse_shape("poly-linear") == Shape("poly", 1)
    assert parse_shape("poly-multilinear-2") == Shape("poly", 2)
    assert parse_shape("matrix-3") == Shape("matrix", 3)
    assert str(Shape("poly", 2)) == "poly-multilinear-2"
    # shapes are values: equal by kind and parameter, usable as dict keys
    by_shape = {shape: str(shape) for shape in DEFAULT_SHAPES}
    assert by_shape[parse_shape("matrix-2")] == "matrix-2"
    assert Shape("matrix", 2) != Shape("matrix", 3) and Shape("poly", 2) != Shape("matrix", 2)
    assert len({Shape("poly", 1), parse_shape("poly-linear")}) == 1
    for bad in ("poly", "matrix-0", "poly-multilinear-1", "cubic", "matrix-\u00b2", "poly-multilinear-\u00b2"):
        with pytest.raises(ValueError, match="^unknown shape"):
            parse_shape(bad)
    # a digit int() reads is read; one it cannot ('\u00b2' is a digit but not decimal) is not
    assert parse_shape("matrix-\u0663") == Shape("matrix", 3)
    assert [str(s) for s in DEFAULT_SHAPES] == [
        "poly-linear",
        "poly-multilinear-2",
        "matrix-2",
        "matrix-3",
    ]


def test_encode_walk_linear():
    encoded = encode(RW34, Shape("poly", 1))
    cs = encoded.constraint_set
    assert [u.name for u in cs.unknowns] == ["c0_k", "c0_1"]
    assert cs.unknowns[1].lo == 1  # monotonicity witness
    assert emit_smtlib(cs, 16).startswith("(set-logic QF_NIA)\n")  # s nests on the right-hand side
    # 4*[s(x)] - (3*[x] + [s(s(x))]) = (4a - 3 - a^2) x + (3b - ab), a at 1 and b at 0:
    # the constant margin, strict, comes first and the slope of x after it
    assert cs.constraints == [({(0,): 3, (0, 1): -1}, 1), ({(1,): 4, (): -3, (1, 1): -1}, 0)]


def test_encode_without_nesting_is_linear_logic():
    system = elaborate(parse_problem("(VAR x)(RULES f(x) -> x)"))
    encoded = encode(system, Shape("poly", 1))
    assert emit_smtlib(encoded.constraint_set, 16).startswith("(set-logic QF_LIA)\n")


def test_a_cancelled_margin_is_a_fresh_polynomial():
    # every monomial of f(x) -> f(x) cancels, so its strict margin is an
    # empty polynomial; it must be the constraint's own dict, not the
    # ring's zero, which a caller could fill for every later encoding
    system = elaborate(parse_problem("(VAR x)(RULES f(x) -> f(x))"))
    first, second = (encode(system, parse_shape("poly-linear")).constraint_set.constraints for _ in range(2))
    margin, at_least = first[-1]
    assert margin == {} and at_least == 1 and margin is not UNKNOWNS.zero
    polys = [poly for constraints in (first, second) for poly, _ in constraints]
    assert len({id(poly) for poly in polys}) == len(polys) == 2 * len(first)
    # checking a certificate, the NUMBERS ring keeps its 0
    identity = PolyInterpretation({"f": 1}, {"f": {(1,): 1}})
    assert Differences.checking(identity).entries(system.rules[0]) == [("constant margin", 0, True)]


def test_encode_degree_overflow():
    system = elaborate(parse_problem("(VAR x y z)(RULES f(f(x,y),z) -> x)"))
    with pytest.raises(DegreeOverflow):
        encode(system, Shape("poly", 2))
    encode(system, Shape("poly", 1))  # linear template composes fine


SHARED = elaborate(parse_problem(
    "(VAR x)(RULES f(g(x)) -> 1 : h(f(g(x))) || 1 : g(x)  h(f(g(x))) -> g(x))"
))


def test_each_distinct_subterm_is_evaluated_once(monkeypatch):
    # g(x), f(g(x)) and h(f(g(x))): three applications per shape or check,
    # where one fresh evaluation per term would make ten. Every application
    # the evaluator makes goes through the fold it hands its terms to.
    calls = []
    fold = ptrs.interpretations.fold_term

    def counted(term, on_var, on_app, memo=None):
        return fold(term, on_var, lambda node, args: calls.append(node.symbol) or on_app(node, args), memo)

    monkeypatch.setattr(ptrs.interpretations, "fold_term", counted)
    for shape in (*DEFAULT_SHAPES, Shape("matrix", 1)):
        calls.clear()
        encoded = encode(SHARED, shape)
        assert sorted(calls) == ["f", "g", "h"], shape
        ones = decode(encoded, {spec.name: Fraction(1) for spec in encoded.constraint_set.unknowns}, 1)
        calls.clear()
        with pytest.raises(CertificateInvalid):
            check_certificate(ones, SHARED)
        assert sorted(calls) == ["f", "g", "h"], shape


SQUARED = elaborate(parse_problem("(VAR x y)(RULES g(f(x,x)) -> x  h(f(x,x), y) -> 1 : g(f(x,x)) || 1 : y)"))


def test_a_squared_shared_subterm_is_one_problem_per_rule():
    interp = PolyInterpretation(
        {"f": 2, "g": 1, "h": 2},
        {"f": {(1, 2): 1, (1,): 1, (2,): 1, (): 1}, "g": {(1,): 1, (): 2}, "h": {(1,): 1, (2,): 1, (): 3}},
    )
    squared = "variable x would be squared; multilinear forms cannot express it"
    with pytest.raises(CertificateInvalid) as err:
        check_certificate(interp, SQUARED)
    assert err.value.problems == [
        f"rule 1 (g(f(x,x)) -> {{1: x}}): {squared}",
        f"rule 2 (h(f(x,x),y) -> {{1/2: g(f(x,x)), 1/2: y}}): {squared}",
    ]
    with pytest.raises(DegreeOverflow, match=f"^{squared}$"):
        encode(SQUARED, Shape("poly", 2))


def test_encode_matrix_shape():
    encoded = encode(RW34, Shape("matrix", 2))
    cs = encoded.constraint_set
    assert len(cs.unknowns) == 6  # one 2x2 matrix and one offset vector for s
    assert cs.unknowns[0].name == "m0_a1_1_1"
    assert cs.unknowns[0].lo == 1
    assert emit_smtlib(cs, 16).startswith("(set-logic QF_NIA)\n")


def test_emit_deterministic_and_readable():
    one = emit_smtlib(encode(RW34, Shape("poly", 1)).constraint_set, 16)
    two = emit_smtlib(encode(RW34, Shape("poly", 1)).constraint_set, 16)
    assert one == two
    assert one.startswith("(set-logic QF_NIA)\n")
    assert "(declare-const c0_1 Int)" in one
    assert "(assert (>= c0_1 1))" in one
    assert one.rstrip().endswith("(get-model)")


def test_poly_sexpr_forms():
    assert poly_sexpr({}, []) == "0"
    assert poly_sexpr({(): -3}, []) == "(- 3)"
    assert poly_sexpr({(0,): 4, (): -3, (0, 0): -1}, ["a"]) == "(+ (- 3) (* 4 a) (* (- 1) a a))"
    # monomials by degree and then by their sorted names, not by position
    assert poly_sexpr({(0, 1): 1, (0, 2): 1, (1,): 1, (2,): 1}, ["z", "y", "x"]) == "(+ x y (* x z) (* y z))"


def test_enumerate_box_walk():
    cs = encode(RW34, Shape("poly", 1)).constraint_set
    models = list(enumerate_box(cs, 2))
    assert len(models) == 4  # slope 1..2 offset 1..2
    assert all(m["c0_1"] in (1, 2) and m["c0_k"] >= 1 for m in models)
    assert list(enumerate_box(encode(RW14, Shape("poly", 1)).constraint_set, 2)) == []
    with pytest.raises(ValueError):
        list(enumerate_box(cs, 2, limit=3))


def test_box_models_agree_with_exact_checker():
    """Dual route: an integer assignment satisfies the cleared constraints
    exactly when the decoded interpretation passes rational validation."""
    fg = elaborate(parse_problem("(VAR x)(RULES f(x) -> x  g(x) -> f(f(x)))"))
    rng = random.Random(5)
    systems = [
        (RW34, Shape("poly", 1), 2),
        (RW14, Shape("poly", 1), 2),
        (fg, Shape("poly", 1), 2),
        (fg, Shape("matrix", 1), 2),
        (RW34, Shape("matrix", 2), 2),
    ] + [(random_ptrs(rng), Shape("poly", 1), 1) for _ in range(4)]
    for system, shape, bound in systems:
        encoded = encode(system, shape)
        cs = encoded.constraint_set
        names = [u.name for u in cs.unknowns]
        sat_models = {tuple(m[n] for n in names) for m in enumerate_box(cs, bound)}
        for values in product(range(0, bound + 1), repeat=len(names)):
            env = dict(zip(names, values))
            in_box = all(u.lo <= env[u.name] <= bound for u in cs.unknowns)
            claims_sat = in_box and all(
                evaluate(poly, values) >= at_least for poly, at_least in cs.constraints
            )
            assert claims_sat == (values in sat_models)
            if not in_box:
                continue
            try:
                check_certificate(decode(encoded, env, bound), system)
                checker_accepts = True
            except CertificateInvalid:
                checker_accepts = False
            assert checker_accepts == claims_sat, (shape, env)


def test_parse_model_values():
    text = "sat\n(\n  (define-fun a () Int 3)\n  (define-fun b () Int (- 2))\n)\n"
    assert parse_model(text) == {"a": 3, "b": -2}
    assert parse_model("sat\n(model\n  (define-fun c () Int 0)\n)") == {"c": 0}
    assert parse_model("sat\n( ; a comment (\n  (define-fun a () Int 3)\n)") == {"a": 3}
    # after sat, an atom is skipped and a define-fun outside a model list
    # is an entry of its own
    assert parse_model("sat\nfoo\n((define-fun a () Int 3))") == {"a": 3}
    assert parse_model("sat\n(define-fun a () Int 3)\n(define-fun b () Int (- 2))") == {"a": 3, "b": -2}
    for text, detail in (
        ("sat\n((define-fun a () Int 3)", "unbalanced '(' in solver output"),
        ("sat\n(define-fun a () Int 3))", "unbalanced ')' in solver output"),
    ):
        with pytest.raises(ValueError) as err:
            parse_model(text)
        assert str(err.value) == detail


def test_deeply_nested_solver_output_is_an_error_outcome():
    nested = _read_reply("sat\n" + "(" * 3000 + ")" * 3000, "", 0)
    assert nested.status == "error"
    assert nested.detail == "solver output after sat is not a model"
    deep_value = "(- " * 3000 + "4" + ")" * 3000
    assert parse_model(f"sat\n(model (define-fun a () Int {deep_value}))") == {"a": 4}
    garbled = "(foo " + "(" * 3000 + ")" * 3000 + ")"
    for value, detail in (
        (garbled, "cannot read the model value of a"),
        ("(/ 1 0)", "model value of a divides by zero"),
        ("-", "cannot read the model value of a: '-'"),
        # only SMT-LIB numerals and decimals are read, so an exponent costs
        # no time past the solver's timeout
        ("1e10000000", "cannot read the model value of a: '1e10000000'"),
        ("1_000", "cannot read the model value of a: '1_000'"),
        ("+3", "cannot read the model value of a: '+3'"),
        ("3/4", "cannot read the model value of a: '3/4'"),
    ):
        reply = _read_reply(f"sat\n((define-fun a () Int {value}))", "", 0)
        assert (reply.status, reply.detail) == ("error", detail)
    assert parse_model("sat\n((define-fun f ((x Int)) Int 3) (define-fun b () Int (/ (- 4) 6)))") == {
        "b": Fraction(-2, 3)
    }

def test_decode_validation():
    encoded = encode(RW34, Shape("poly", 1))
    good = decode(encoded, {"c0_1": Fraction(1), "c0_k": Fraction(1)}, 16)
    cert = check_certificate(good, RW34)
    assert cert.epsilon == Fraction(1, 2)
    with pytest.raises(ModelDecodeError):
        decode(encoded, {"c0_1": Fraction(1)}, 16)
    with pytest.raises(ModelDecodeError):
        decode(encoded, {"c0_1": Fraction(1), "c0_k": Fraction(99)}, 16)
    with pytest.raises(ModelDecodeError):
        decode(encoded, {"c0_1": Fraction(1, 2), "c0_k": Fraction(1)}, 16)


def test_boxsolver_finds_walk_model():
    encoded = encode(RW34, Shape("poly", 1))
    result = run_solver(emit_smtlib(encoded.constraint_set, 16), BOXSOLVER, timeout=30)
    assert result.status == "sat"
    interp = decode(encoded, result.model, 16)
    cert = check_certificate(interp, RW34)
    assert cert.epsilon >= Fraction(1, 4)


def test_boxsolver_exhausts_unsat_box():
    encoded = encode(RW14, Shape("poly", 1))
    result = run_solver(emit_smtlib(encoded.constraint_set, 16), BOXSOLVER, timeout=30)
    assert result.status == "unsat"


CORNER_SAT = "(declare-const x Int)(assert (= x 1))(check-sat)(get-model)"
CORNER_UNSAT = "(declare-const x Int)(assert (< x 0))(assert (>= x 0))(check-sat)"
CORNER_UNKNOWN = (
    "\n".join([f"(declare-const v{i} Int)" for i in range(10)])
    + "\n"
    + "\n".join(f"(assert (>= v{i} 0))(assert (<= v{i} 16))" for i in range(10))
    + "\n(check-sat)"
)


def test_boxsolver_protocol_corner_cases():
    sat = run_solver(CORNER_SAT, BOXSOLVER, timeout=15)
    assert sat.status == "sat" and sat.model == {"x": 1}
    unsat = run_solver(CORNER_UNSAT, BOXSOLVER, timeout=15)
    assert unsat.status == "unsat"
    unknown = run_solver(CORNER_UNKNOWN, BOXSOLVER, timeout=15)
    assert unknown.status == "unknown"
    tight = f"{BOXSOLVER} --limit 10"
    assert run_solver(CORNER_UNKNOWN.replace("16", "0"), tight, timeout=15).status == "sat"
    assert run_solver(CORNER_SAT.replace("= x 1", "<= x 11"), tight, timeout=15).status == "unknown"
    unsupported = run_solver("(declare-const x Int)(assert (foo x 1))(check-sat)", BOXSOLVER, timeout=15)
    assert unsupported.detail == "no verdict in solver output ((error \"unsupported operation 'foo'\"))"
    deep = "(declare-const x Int)(assert (>= " + "(+ 1 " * 1000 + "x" + ")" * 1000 + " 0))(check-sat)"
    assert run_solver(deep, BOXSOLVER, timeout=15).status == "sat"
    silent = run_solver("(declare-const x Int)", BOXSOLVER, timeout=15)
    assert silent.detail == "no verdict in solver output (exit code 0)"


def test_fake_solver_paths():
    script = "(check-sat)\n"
    sat = run_solver(script, f"{FAKE} --reply sat --model 'a=1,b=2'", timeout=15)
    assert sat.status == "sat" and sat.model == {"a": 1, "b": 2}
    assert run_solver(script, f"{FAKE} --reply unsat", timeout=15).status == "unsat"
    assert run_solver(script, f"{FAKE} --reply unknown", timeout=15).status == "unknown"
    garbage = run_solver(script, f"{FAKE} --garbage", timeout=15)
    assert garbage.status == "error"
    assert "no verdict" in garbage.detail


def test_solver_not_found():
    result = run_solver("(check-sat)", "definitely-not-a-solver-binary -in", timeout=5)
    assert result.status == "error"
    assert "cannot start" in result.detail


def test_an_empty_solver_command_starts_nothing():
    for command in ("", "   ", "\t\n"):
        assert run_solver("(check-sat)", command, timeout=5) == SolverResult("error", detail="empty solver command")


def test_solver_timeout_kills_process():
    start = time.monotonic()
    result = run_solver("(check-sat)", f"{FAKE} --reply sat --sleep 30", timeout=1.0)
    elapsed = time.monotonic() - start
    assert result.status == "unknown"
    assert "timed out" in result.detail
    assert elapsed < 10


def test_cancel_token_kills_solver():
    import threading

    token = CancelToken()
    timer = threading.Timer(0.3, token.cancel)
    timer.start()
    start = time.monotonic()
    result = run_solver("(check-sat)", f"{FAKE} --reply sat --sleep 30", timeout=60, cancel=token)
    elapsed = time.monotonic() - start
    timer.cancel()
    assert result.status in ("unknown", "error")
    assert elapsed < 10


def test_a_cancelled_token_kills_a_process_as_it_registers():
    token = CancelToken()
    token.cancel()
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        token.register(proc)
        assert proc.wait(timeout=10) == -signal.SIGKILL
    finally:
        proc.kill()
        proc.wait()


class _GoneProcess:
    """A child process that has exited and been reaped by someone else."""

    def kill(self):
        raise ProcessLookupError


def test_killing_a_process_that_is_gone_is_not_an_error():
    token = CancelToken()
    token.register(_GoneProcess())
    token.cancel()
    token.register(_GoneProcess())
    assert token.cancelled


class FractionPoly:
    """The encoder's polynomial before its coefficients became ints: a
    Fraction per monomial, sorted tuples of unknown positions as keys."""

    def __init__(self, terms: dict):
        self.terms = {m: c for m, c in terms.items() if c}

    @staticmethod
    def of(value) -> "FractionPoly":
        return value if isinstance(value, FractionPoly) else FractionPoly({(): Fraction(value)})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in FractionPoly.of(other).terms.items():
            out[m] = out.get(m, 0) + c
        return FractionPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return FractionPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -FractionPoly.of(other)

    def __rsub__(self, other):
        return FractionPoly.of(other) - self

    def __mul__(self, other):
        if not isinstance(other, FractionPoly):
            return FractionPoly({m: c * Fraction(other) for m, c in self.terms.items()})
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        return FractionPoly(out)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms


def _fraction_path(system, shape):
    """What `encode` gives for the shape at any bound, by the Fraction path:
    the template laid out by callback with one `FractionPoly` per unknown,
    each rule difference [l] - sum pj [rj] from a fresh evaluation of every
    term, scaled by the weight total. Returns the (name, lo) of each unknown
    and the (at_least, terms) of each constraint, or the message of
    the DegreeOverflow that encoding raises instead."""
    unknowns = []

    def unknown(name, lo):
        unknowns.append((name, lo))
        return FractionPoly({(len(unknowns) - 1,): Fraction(1)})

    interp = template(system, shape, unknown)
    cap = shape.param if shape.kind == "poly" else None
    constraints = []
    for rule in system.rules:
        try:
            diff = rule_difference(interp, rule, cap).scale(rule.rhs.denominator)
        except DegreeOverflow as exc:
            return unknowns, str(exc)
        constraints.extend(
            (1 if strict else 0, FractionPoly.of(value).terms) for _, value, strict in orientation_entries(diff)
        )
    return unknowns, constraints


def test_encode_matches_the_fraction_path():
    rng = random.Random(2005)
    systems = [load_system(str(PROBLEMS / f"{name}.wst")) for name in ("coingame", "matrix", "rw14", "rw34")]
    systems += [random_ptrs(rng) for _ in range(20)]
    # l -> C[l]: every right-hand side repeats its left-hand side
    systems += [looping_ptrs(rng) for _ in range(8)]
    systems += [SQUARED, elaborate(parse_problem("(VAR x y z)(RULES f(f(x,y),z) -> x  h(x,y,z) -> h(y,z,x))"))]
    seen = Counter()
    for system in systems:
        for shape in SIX_SHAPES:
            unknowns, expected = _fraction_path(system, shape)
            try:
                encoded = encode(system, shape)
            except DegreeOverflow as exc:
                assert str(exc) == expected
                seen["overflow"] += 1
                continue
            cs = encoded.constraint_set
            assert cs.unknowns == [UnknownSpec(name, lo) for name, lo in unknowns]
            assert [(at_least, poly) for poly, at_least in cs.constraints] == expected
            # each rule gives one strict constraint, where its entries list the margin
            cap = shape.param if shape.kind == "poly" else None
            differences = Differences(shape.kind, shape.param, encoded.table, UNKNOWNS, cap)
            margins, start = [], 0
            for rule in system.rules:
                entries = differences.entries(rule)
                strict = [i for i, (_, _, is_strict) in enumerate(entries) if is_strict]
                assert len(strict) == 1
                margins.append(start + strict[0])
                start += len(entries)
            assert start == len(cs.constraints)
            assert [i for i, (_, at_least) in enumerate(cs.constraints) if at_least == 1] == margins
            # every emitted coefficient is an int, never an integral Fraction
            assert all(type(k) is int for poly, _ in cs.constraints for k in poly.values())
            seen["encoded"] += 1
            # a model decodes to the template with its values; one over the box is refused
            values = {name: lo + i % (3 - lo) for i, (name, lo) in enumerate(unknowns)}
            decoded = decode(encoded, {name: Fraction(value) for name, value in values.items()}, 16)
            assert render_interpretation(decoded) == render_interpretation(
                template(system, shape, lambda name, lo: values[name])
            )
            name, lo = unknowns[-1]
            with pytest.raises(ModelDecodeError, match=f"^{name} = 17 outside box {lo}..16$"):
                decode(encoded, {**values, name: 17}, 16)
            with pytest.raises(ModelDecodeError, match=f"^{name} = 3 outside box {lo}..2$"):
                decode(encoded, {**values, name: 3}, 2)
    assert seen["encoded"] > 183 and seen["overflow"] > 5, seen


def test_poly_coefficients_are_ints():
    # weights enter as a rule's integer numerators and denominator, so no
    # Fraction reaches a constraint, and a model decodes to ints
    system = elaborate(parse_problem("(VAR x)(RULES f(x) -> 2 : g(x) || 1 : x  g(s(x)) -> 3 : f(x) || 5 : s(x))"))
    for shape in SIX_SHAPES:
        encoded = encode(system, shape)
        assert all(type(k) is int for poly, _ in encoded.constraint_set.constraints for k in poly.values())
        decoded = decode(encoded, {spec.name: Fraction(2) for spec in encoded.constraint_set.unknowns}, 2)
        if decoded.kind == "poly":
            values = [c for row in coefficients(decoded).values() for c in row.values()]
        else:
            values = [c for mats, const in coefficients(decoded).values() for c in chain(*chain(*mats), const)]
        assert values and all(type(c) is int for c in values), shape


def test_weight_recovery_from_probabilities():
    assert RW34.rules[0].rhs.denominator == 4
    assert RW14.rules[0].rhs.denominator == 4


def test_emit_skips_nothing_on_empty_constraints():
    cs = ConstraintSet([UnknownSpec("u", 0)], [({(0,): 1}, 1)])
    text = emit_smtlib(cs, 1)
    assert "(assert (>= u 1))" in text


@pytest.mark.parametrize(
    "problem, shape, digest",
    [
        ("coingame", "poly-linear", "270c82b0e698432be6ce9c28007de311f78e6404dcf8b4b352043570b3df8527"),
        ("coingame", "poly-multilinear-2", "270c82b0e698432be6ce9c28007de311f78e6404dcf8b4b352043570b3df8527"),
        ("coingame", "matrix-2", "fa42af7fece8a9cf290eca3153cba8ad26efbd36acc2bc11ca3f865ce49c1bc4"),
        ("coingame", "matrix-3", "e6d5350276b964779eed8401282fdd2723aaae981d204adb2adde38c4f49ece7"),
        ("matrix", "poly-linear", "9ecc6fdcbdb24748cfb3dccb4cf80bd67c10e89af240fa344eb6455cad9fe5b0"),
        ("matrix", "poly-multilinear-2", "9ecc6fdcbdb24748cfb3dccb4cf80bd67c10e89af240fa344eb6455cad9fe5b0"),
        ("matrix", "matrix-2", "4097ebce4c5f35992008bc36e3122e9b39e59f16e5abcf563e4ca790708518f1"),
        ("matrix", "matrix-3", "560cdac2e826d6dbcb959f408129c1954d67f5db489d7552ae0a59d83811e4c7"),
        ("rw14", "poly-linear", "91417fe059712dcdabddb991a0b0899f24f450fcb201377028f2f2a978544625"),
        ("rw14", "poly-multilinear-2", "91417fe059712dcdabddb991a0b0899f24f450fcb201377028f2f2a978544625"),
        ("rw14", "matrix-2", "263294348e8155721acd09096d40c61e99b4e5ea1ed36204b615a8e310052af1"),
        ("rw14", "matrix-3", "fdfaa542f92ef091a3394516814f7a0957410d83eeccd5b16aca7422de8d0a39"),
        ("rw34", "poly-linear", "26a058e248bcbf5fa529e94611bfc3742f3cc5237e12601b04676176b64e2e13"),
        ("rw34", "poly-multilinear-2", "26a058e248bcbf5fa529e94611bfc3742f3cc5237e12601b04676176b64e2e13"),
        ("rw34", "matrix-2", "ae4d7efaa381f9be3c94be125fe8515a6a59905258595a01d16adc28560ef9a6"),
        ("rw34", "matrix-3", "630380e2f4f33d8717ceffce859b37d1471e56eec9c0dd46075891843d0cfa7c"),
    ],
)
def test_emitted_scripts_are_pinned(problem, shape, digest):
    # sha256 of the scripts for coefficient bounds 1, 2 and 16 in a row:
    # every declaration and constraint, in order, byte for byte
    system = load_system(str(PROBLEMS / f"{problem}.wst"))
    cs = encode(system, parse_shape(shape)).constraint_set
    scripts = "".join(emit_smtlib(cs, bound) for bound in (1, 2, 16))
    assert hashlib.sha256(scripts.encode()).hexdigest() == digest


def test_emitted_scripts_of_random_systems_are_pinned():
    # sha256 of the scripts of 200 generated systems under every default
    # shape at bound 2, in a row, with a marker for each degree overflow:
    # signatures with a binary symbol and a constant, which the shipped
    # problems lack
    rng = random.Random(5)
    digest = hashlib.sha256()
    for _ in range(200):
        system = random_ptrs(rng)
        for shape in DEFAULT_SHAPES:
            try:
                digest.update(emit_smtlib(encode(system, shape).constraint_set, 2).encode())
            except DegreeOverflow:
                digest.update(b"overflow\n")
    assert digest.hexdigest() == "f798675622038cd7f089c5ce23935f679efdefabb1504df6d3e4005d290d1686"


def test_boxsolver_imports_no_other_ptrs_module():
    # every solver child pays for what `python -m ptrs.boxsolver` imports
    probe = (
        "import sys, ptrs.boxsolver; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'ptrs')))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=30)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["ptrs", "ptrs.boxsolver"]


def test_in_process_limit_matches_only_this_interpreter(monkeypatch, tmp_path):
    exe = sys.executable
    assert in_process_limit(BOXSOLVER) == DEFAULT_LIMIT
    assert in_process_limit(shlex.join([exe, "-m", "ptrs.boxsolver", "--limit", "10"])) == 10
    for flags in (["--limit=10"], ["--limit", "-1"], ["--limit", "1e3"], ["--limit"],
                  ["--limit", "10", "-v"], ["-v"]):
        assert in_process_limit(shlex.join([exe, "-m", "ptrs.boxsolver", *flags])) is None, flags
    for command in (f"{exe} -m ptrs.fake_solver", f"{exe} -u -m ptrs.boxsolver",
                    f"{exe} -m ptrs.boxsolver.x", "z3 -in", "", "'unbalanced"):
        assert in_process_limit(command) is None, command
    # a name on PATH counts only when it resolves to this very path
    monkeypatch.setenv("PATH", os.path.dirname(exe))
    assert in_process_limit(f"{os.path.basename(exe)} -m ptrs.boxsolver") == DEFAULT_LIMIT
    # a symlink to this interpreter is another path: it gets a child
    link = tmp_path / "python"
    link.symlink_to(exe)
    assert in_process_limit(f"{link} -m ptrs.boxsolver") is None
    monkeypatch.setenv("PATH", str(tmp_path))
    assert in_process_limit("python -m ptrs.boxsolver") is None
    assert run_solver(CORNER_SAT, f"{link} -m ptrs.boxsolver", timeout=30).model == {"x": 1}


def test_a_solver_command_is_split_once_and_looked_up_every_time(monkeypatch, tmp_path):
    splits = []
    real_split = shlex.split
    monkeypatch.setattr(shlex, "split", lambda text: splits.append(text) or real_split(text))
    name = os.path.basename(sys.executable)
    command = f"{name} -m ptrs.boxsolver --limit 4321"
    monkeypatch.setenv("PATH", os.path.dirname(sys.executable))
    assert [in_process_limit(command) for _ in range(3)] == [4321] * 3
    assert splits == [command]
    # PATH is read again on every call
    monkeypatch.setenv("PATH", str(tmp_path))
    assert in_process_limit(command) is None
    assert splits == [command]
    # a command that does not split is split, and refused, every time
    unbalanced = "'z3 -in -m ptrs.boxsolver"
    for _ in range(2):
        assert in_process_limit(unbalanced) is None
        with pytest.raises(ValueError, match="No closing quotation"):
            run_solver(CORNER_SAT, unbalanced)
    assert splits == [command] + [unbalanced] * 4


def _same_as_child(cs: ConstraintSet, bound: int, *flags: str) -> SolverResult:
    # the in-process search on the set at `bound` against a real child's
    # reply to its script, read by the same reader
    limit = in_process_limit(shlex.join([sys.executable, "-m", "ptrs.boxsolver", *flags]))
    assert limit is not None
    mine = solve_box(cs, bound, limit, timeout=60)
    child = subprocess.run(
        [sys.executable, "-m", "ptrs.boxsolver", *flags],
        input=emit_smtlib(cs, bound), capture_output=True, text=True, timeout=60,
    )
    assert mine == _read_reply(child.stdout, child.stderr, child.returncode)
    return mine


@pytest.mark.parametrize("problem", ["coingame", "matrix", "rw14", "rw34"])
def test_in_process_box_solver_answers_like_its_child_on_shipped_problems(problem):
    system = load_system(str(PROBLEMS / f"{problem}.wst"))
    statuses = set()
    for shape in DEFAULT_SHAPES:
        try:
            encoded = encode(system, shape)
        except DegreeOverflow:
            continue
        for bound in (0, 1, 2):
            statuses.add(_same_as_child(encoded.constraint_set, bound).status)
    assert statuses <= {"sat", "unsat", "unknown"}
    assert len(statuses) >= 2


def _set(lows: dict[str, int], *constraints: tuple[dict, int]) -> ConstraintSet:
    """Unknowns name: lo, and constraints (terms of the poly, at_least),
    with the unknowns' positions in the order of `lows`."""
    return ConstraintSet(
        [UnknownSpec(name, lo) for name, lo in lows.items()],
        list(constraints),
    )


def test_in_process_box_solver_answers_like_its_child_on_corner_cases():
    rng = random.Random(11)
    statuses = []
    for i in range(24):
        system = random_ptrs(rng)
        try:
            encoded = encode(system, DEFAULT_SHAPES[i % 4])
        except DegreeOverflow:
            continue
        statuses.append(_same_as_child(encoded.constraint_set, i % 3).status)
    assert len(statuses) >= 20 and len(set(statuses)) == 3
    # x in 0..10 has 11 points
    eleven = {"x": 0}
    # a bare x >= 1 raises the lower end of x: 10 points left of 11, within --limit 10
    assert _same_as_child(_set(eleven, ({(0,): 1}, 1)), 10, "--limit", "10").model == {"x": 1}
    assert _same_as_child(_set(eleven, ({(0,): 1}, 1)), 10, "--limit", "9").status == "unknown"
    # 2*x >= 1 and x - 1 >= 0 are not bounds
    assert _same_as_child(_set(eleven, ({(0,): 2}, 1)), 10, "--limit", "10").status == "unknown"
    assert _same_as_child(_set(eleven, ({(0,): 1, (): -1}, 0)), 10, "--limit", "10").status == "unknown"
    # an empty range (x from 17 to the bound 16) is unsat before the budget,
    # however many points the rest holds
    empty = {"x": 17, **{f"y{i}": 0 for i in range(6)}}
    assert _same_as_child(_set(empty), 16).status == "unsat"
    assert _same_as_child(_set(eleven, ({(0,): 1}, 11)), 10).status == "unsat"
    assert _same_as_child(_set(eleven, ({}, 1)), 10).status == "unsat"  # 0 >= 1
    assert _same_as_child(_set(eleven, ({}, 0)), 10).model == {"x": 0}
    assert _same_as_child(_set({}, ({(): 2}, 1)), 0) == SolverResult("sat", model={})
    products = _set({"x": 0, "y": -2}, ({(0, 1): 1, (): -3}, 0), ({(1, 1): -1, (0,): 5}, 0))
    assert _same_as_child(products, 4).model == {"x": 2, "y": 2}
    assert _same_as_child(_set({"x": 0, "y": 0}, ({(0, 1): 1}, 17)), 4).status == "unsat"


# 10^6 points at bound 9, every one of them failing the constraint, which no
# sub-box rules out before v5 is fixed: -v5*v5 + 9*v5 spans [-81, 81] until
# then and is at most 20 at a point
MILLION_POINT_SET = _set({f"v{i}": 0 for i in range(6)}, ({(5, 5): -1, (5,): 9}, 21))


def test_in_process_box_solver_times_out():
    start = time.monotonic()
    result = solve_box(MILLION_POINT_SET, 9, 2_000_000, timeout=0.3)
    assert result == SolverResult("unknown", detail="solver timed out after 0.3s")
    assert time.monotonic() - start < 5


def test_in_process_box_solver_is_cancelled():
    token = CancelToken()
    timer = threading.Timer(0.3, token.cancel)
    timer.start()
    start = time.monotonic()
    try:
        result = solve_box(MILLION_POINT_SET, 9, 2_000_000, timeout=60, cancel=token)
    finally:
        timer.cancel()
    assert result == SolverResult("unknown", detail="cancelled")
    assert time.monotonic() - start < 5


def test_box_solver_asks_stop_every_1024_points():
    asked = []
    lo, hi, sums = MILLION_POINT_SET.search_args(9)
    assert solve_sums(lo, hi, sums, 2_000_000, lambda: asked.append(1) or len(asked) == 3) == ("unknown", None)
    assert len(asked) == 3
    assert solve_sums([0], [3], [({(0,): 1}, 1)], stop=lambda: False) == ("sat", [1])


def test_box_floor_counts_what_the_template_holds():
    rng = random.Random(31)
    systems = [random_ptrs(rng) for _ in range(40)] + [looping_ptrs(rng) for _ in range(40)]
    systems += [load_system(str(path)) for path in sorted(PROBLEMS.glob("*.wst"))]
    systems += [RW34, random_walk_ptrs(Fraction(1, 3)), PTRS(RW34.signature, ())]
    nones = 0
    for system in systems:
        for shape in SIX_SHAPES:
            for bound in (0, 1, 2, 16):
                floor = box_floor(system, shape, bound)
                assert floor == reference_box_floor(system, shape, bound), (shape, bound)
                nones += floor is None
    assert 0 < nones < len(systems) * len(SIX_SHAPES) * 4


def test_a_huge_multilinear_degree_lists_only_the_subsets_there_are(monkeypatch):
    # a monomial has at most one factor per argument, so a degree past the
    # largest arity encodes what that arity does, and asks for no larger subset
    system = elaborate(parse_problem("(VAR x y)(RULES f(x, y) -> 1 : g(x) || 1 : y  g(x) -> 1 : x)"))
    asked = []
    real = ptrs.smt.combinations

    def spy(pool, size):
        pool = tuple(pool)
        asked.append((len(pool), size))
        return real(pool, size)

    monkeypatch.setattr(ptrs.smt, "combinations", spy)
    small = encode(system, parse_shape("poly-multilinear-2")).constraint_set
    huge = encode(system, parse_shape("poly-multilinear-1000")).constraint_set
    assert huge == small
    assert emit_smtlib(huge, 1) == emit_smtlib(small, 1)
    assert asked and all(size <= pool for pool, size in asked), max(asked, key=lambda a: a[1] - a[0])


def test_one_coefficient_table_per_shape_attempt(monkeypatch):
    calls = []
    real = ptrs.smt.coefficient_table

    def spy(system, shape):
        calls.append(shape)
        return real(system, shape)

    monkeypatch.setattr(ptrs.smt, "coefficient_table", spy)
    for shape in SIX_SHAPES:
        box_floor(RW34, shape, 16)
    assert calls == []
    # no interpretation constructor runs in an attempt: decode fills the
    # encoding's table, and check_certificate's evaluator reads that table
    built, checked = [], []
    for cls in (PolyInterpretation, MatrixInterpretation):
        monkeypatch.setattr(cls, "__init__", lambda self, *args: built.append(type(self)))
    real_init = Differences.__init__

    def init(self, kind, dim, table, ring, cap=None):
        if ring is NUMBERS:
            checked.append(table)
        real_init(self, kind, dim, table, ring, cap)

    monkeypatch.setattr(Differences, "__init__", init)
    # an attempt builds the table once to encode, and decodes a model into
    # that same table: in process, and with the solver as a child
    config = ProverConfig(solver=BOXSOLVER, coeff_bound=1)
    for shape, limit in product((Shape("poly", 1), Shape("matrix", 2)), (in_process_limit(BOXSOLVER), None)):
        calls.clear()
        checked.clear()
        outcome, cert = _attempt(RW34, shape, config, CancelToken(), limit)
        assert (outcome.status, cert is not None, calls) == ("proved", True, [shape])
        assert built == [] and len(checked) == 1 and checked[0] is cert.interpretation.table
    calls.clear()
    outcome, cert = _attempt(RW14, Shape("poly", 1), config, CancelToken(), in_process_limit(BOXSOLVER))
    assert (outcome.status, cert, calls) == ("unsat", None, [Shape("poly", 1)])


def test_one_encoding_answers_at_every_bound():
    # the bound is no part of the encoding: each set, encoded once, is
    # searched at bounds 1, 2 and 4 and gives the box oracle's first model
    # there, or unsat where it has none; over unary symbols, so that boxes
    # stay small enough to enumerate, and with a system whose [g] needs a
    # constant of 3
    rng = random.Random(43)
    unary = Signature({"s": 1, "g": 1, "a": 0})
    systems = [random_ptrs(rng, unary) for _ in range(12)]
    systems.append(elaborate(parse_problem("(VAR x)(RULES s(x) -> x  g(x) -> s(s(x)))")))
    answered, runs = Counter(), set()
    for system in systems:
        for shape in SIX_SHAPES:
            cs = encode(system, shape).constraint_set
            statuses = []
            for bound in (1, 2, 4):
                if prod(bound - spec.lo + 1 for spec in cs.unknowns) > 5000:
                    continue
                status, values = solve_sums(*cs.search_args(bound), 5000)
                first = next(enumerate_box(cs, bound), None)
                assert (status, values) == (("unsat", None) if first is None else ("sat", list(first.values())))
                answered[bound, status] += 1
                statuses.append(status)
            runs.add(tuple(statuses))
    assert all(answered[bound, "sat"] and answered[bound, "unsat"] for bound in (1, 2, 4)), answered
    assert ("unsat", "unsat", "sat") in runs, runs


def test_searching_and_emitting_leave_the_constraints_as_encoded():
    # `search_args` hands the search the set's own list of (poly, at_least)
    # pairs, whose polynomials `Differences.entries` built: neither a search
    # nor an emission may change them
    seen = set()
    for path in sorted(PROBLEMS.glob("*.wst")):
        system = load_system(str(path))
        for shape in DEFAULT_SHAPES:
            cs = encode(system, shape).constraint_set
            before = copy.deepcopy(cs.constraints)
            assert cs.search_args(1)[2] is cs.constraints
            statuses = [solve_box(cs, bound, DEFAULT_LIMIT).status for bound in (1, 2, 4)]
            emit_smtlib(cs, 16)
            statuses.append(solve_sums(*cs.search_args(16), DEFAULT_LIMIT)[0])
            assert cs.constraints == before, (path.name, shape, statuses)
            seen.update(statuses)
    assert seen == {"sat", "unsat", "unknown"} and UNKNOWNS.zero == {}
