import random
import shutil
import sys
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from ptrs import prover
from ptrs.prover import (
    ProverConfig,
    check_only,
    format_verdict,
    prove,
    verdict_json,
)
from ptrs.interpretations import DegreeOverflow
from ptrs.smt import (
    DEFAULT_SHAPES,
    ConstraintSet,
    EncodedProblem,
    EncodingError,
    Shape,
    UnknownSpec,
    emit_smtlib,
    encode,
    parse_shape,
    run_solver,
    solve_box,
)
from ptrs.rewriting import PTRS
from ptrs.terms import Signature
from ptrs.wst import elaborate, load_system, parse_problem

from helpers import FAKE, box_points, prove_encoding_every_shape, random_ptrs

BOXSOLVER = f"{sys.executable} -m ptrs.boxsolver"
HAVE_Z3 = shutil.which("z3") is not None

RW34 = elaborate(parse_problem("(VAR x)(RULES s(x) -> 3 : x || 1 : s(s(x)))"))
RW14 = elaborate(parse_problem("(VAR x)(RULES s(x) -> 1 : x || 3 : s(s(x)))"))

POLY_ONLY = (Shape("poly", 1),)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def test_prove_walk_with_box_enumeration():
    verdict = prove(RW34, ProverConfig(shapes=POLY_ONLY, solver=BOXSOLVER, timeout=30))
    assert verdict.kind == "YES"
    assert str(verdict.shape) == "poly-linear"
    assert verdict.certificate.epsilon >= Fraction(1, 4)
    assert verdict.outcomes[0].status == "proved"


def test_prove_reports_maybe_when_no_shape_fits():
    verdict = prove(
        RW14,
        ProverConfig(shapes=(Shape("poly", 1), Shape("poly", 2)), solver=BOXSOLVER, timeout=30),
    )
    assert verdict.kind == "MAYBE"
    assert [o.status for o in verdict.outcomes] == ["unsat", "unsat"]
    text = format_verdict(verdict, RW14)
    assert text.splitlines()[0] == "MAYBE"
    assert "poly-linear: unsat" in text


def test_prove_with_stub_model():
    cmd = f"{FAKE} --reply sat --model 'c0_1=1,c0_k=1'"
    verdict = prove(RW34, ProverConfig(shapes=POLY_ONLY, solver=cmd))
    assert verdict.kind == "YES"
    assert verdict.certificate.epsilon == Fraction(1, 2)
    text = format_verdict(verdict, RW34)
    assert text.splitlines()[0] == "YES"
    assert "epsilon = 1/2" in text


def test_junk_model_is_solver_error_not_crash():
    cmd = f"{FAKE} --reply sat --model 'c0_1=99,c0_k=1'"  # outside the box
    verdict = prove(RW34, ProverConfig(shapes=POLY_ONLY, solver=cmd))
    assert verdict.kind == "MAYBE"
    assert verdict.outcomes[0].status == "solver-error"
    assert "unusable model" in verdict.outcomes[0].detail
    incomplete = prove(
        RW34, ProverConfig(shapes=POLY_ONLY, solver=f"{FAKE} --reply sat --model 'c0_1=1'")
    )
    assert incomplete.outcomes[0].status == "solver-error"


def test_unsound_model_is_hard_error():
    # c0_1=3 satisfies the box but not the slope constraint 4a - 3 - a^2 >= 0,
    # so a solver claiming it is lying; validation must catch the lie.
    cmd = f"{FAKE} --reply sat --model 'c0_1=3,c0_k=1'"
    verdict = prove(RW34, ProverConfig(shapes=POLY_ONLY, solver=cmd))
    assert verdict.kind == "ERROR"
    assert "failed validation" in verdict.error


def test_a_system_without_rules_is_an_error_verdict():
    # nothing to orient: every solver setting answers ERROR before a search
    empty = PTRS(Signature({"f": 1}), ())
    with pytest.raises(EncodingError, match="^system has no rules$"):
        encode(empty, POLY_ONLY[0])
    for solver in (BOXSOLVER, f"{FAKE} --reply sat"):
        for parallel in (False, True):
            verdict = prove(empty, ProverConfig(solver=solver, parallel=parallel))
            assert (verdict.kind, verdict.error) == ("ERROR", "cannot encode poly-linear: system has no rules")
            assert format_verdict(verdict, empty).splitlines()[0] == "ERROR"


def test_solver_failure_paths_become_outcomes():
    garbage = prove(RW34, ProverConfig(shapes=POLY_ONLY, solver=f"{FAKE} --garbage"))
    assert garbage.kind == "MAYBE"
    assert garbage.outcomes[0].status == "solver-error"
    missing = prove(RW34, ProverConfig(shapes=POLY_ONLY, solver="no-such-solver -in"))
    assert missing.outcomes[0].status == "solver-error"
    assert "cannot start" in missing.outcomes[0].detail
    unknown = prove(RW34, ProverConfig(shapes=POLY_ONLY, solver=f"{FAKE} --reply unknown"))
    assert unknown.outcomes[0].status == "unknown"


def test_degree_overflow_is_an_outcome():
    system = elaborate(parse_problem("(VAR x y z)(RULES f(f(x,y),z) -> x)"))
    verdict = prove(
        system, ProverConfig(shapes=(Shape("poly", 2),), solver=f"{FAKE} --reply unsat")
    )
    assert verdict.kind == "MAYBE"
    assert verdict.outcomes[0].status == "degree-overflow"
    # in process too, although the template's box, 17^4 * 16^4 points before
    # narrowing, is over the budget: only encoding finds the overflow
    wide = elaborate(parse_problem("(VAR x y z)(RULES f(f(x,y),z) -> g(x,y))"))
    verdict = prove(wide, ProverConfig(shapes=(Shape("poly", 2),), solver=BOXSOLVER))
    assert verdict.outcomes[0].status == "degree-overflow"
    child = prove(wide, ProverConfig(shapes=(Shape("poly", 2),), solver=f"{FAKE} --reply unsat"))
    assert verdict.outcomes == child.outcomes


def test_portfolio_continues_after_unsat():
    verdict = prove(
        RW34,
        ProverConfig(
            shapes=(Shape("matrix", 1), Shape("poly", 1)), solver=BOXSOLVER, timeout=30
        ),
    )
    # matrix-1 over 0..16 finds [s](x) = 1*x + k just like poly-linear does,
    # so the portfolio stops at the first shape.
    assert verdict.kind == "YES"
    assert str(verdict.shape) == "matrix-1"
    assert len(verdict.outcomes) == 1


def test_parallel_portfolio_and_cancellation():
    slow = f"{FAKE} --reply sat --sleep 20"
    config = ProverConfig(
        shapes=(Shape("poly", 1), Shape("poly", 2)),
        solver=f"{sys.executable} -u -m ptrs.boxsolver",  # a child per lane: in process the lanes run in order
        timeout=30,
        parallel=True,
    )
    start = time.monotonic()
    verdict = prove(RW34, config)
    assert verdict.kind == "YES"
    assert time.monotonic() - start < 25
    # Now a portfolio where every lane sleeps: cancellation is driven by the
    # winner, so an all-slow portfolio just times out per shape.
    slow_config = ProverConfig(shapes=POLY_ONLY, solver=slow, timeout=1.0)
    slow_verdict = prove(RW34, slow_config)
    assert slow_verdict.outcomes[0].status == "unknown"


def test_parallel_lanes_share_the_in_process_box_solver():
    config = ProverConfig(
        shapes=(Shape("poly", 1), Shape("matrix", 2), Shape("matrix", 3)),
        solver=BOXSOLVER,
        timeout=30,
        parallel=True,
    )
    verdict = prove(RW34, config)
    assert verdict.kind == "YES"
    assert verdict.shape == Shape("poly", 1)
    # in process the lanes run in shape order: the attempts are the sequential ones
    assert verdict.outcomes == prove(RW34, config._replace(parallel=False)).outcomes


def _count_solver_calls(monkeypatch) -> list:
    """What each solve is given: a script for a child, the constraint set in process."""
    problems: list = []

    def counting(solve):
        def spy(problem, *args, **kwargs):
            problems.append(problem)
            return solve(problem, *args, **kwargs)

        return spy

    monkeypatch.setattr(prover, "run_solver", counting(run_solver))
    monkeypatch.setattr(prover, "solve_box", counting(solve_box))
    return problems


def test_sequential_portfolio_solves_an_unsat_script_once(monkeypatch, tmp_path):
    scripts = _count_solver_calls(monkeypatch)
    system = load_system(str(PROBLEMS / "rw14.wst"))
    config = ProverConfig(solver=BOXSOLVER, coeff_bound=1, emit_smt=str(tmp_path))
    verdict = prove(system, config)
    assert [(str(o.shape), o.status) for o in verdict.outcomes] == [
        ("poly-linear", "unsat"),
        ("poly-multilinear-2", "unsat"),
        ("matrix-2", "unsat"),
        ("matrix-3", "unsat"),
    ]
    assert verdict.outcomes[0].detail == verdict.outcomes[1].detail
    # poly-multilinear-2 encodes poly-linear's constraint set: no second solve
    assert len(scripts) == 3 and len(set(map(repr, scripts))) == 3
    poly_linear = encode(system, Shape("poly", 1)).constraint_set
    assert scripts[0] == poly_linear
    emitted = {path.name: path.read_text() for path in tmp_path.iterdir()}
    assert len(emitted) == 4
    assert emitted["poly-multilinear-2.smt2"] == emitted["poly-linear.smt2"] == emit_smtlib(poly_linear, 1)


def test_only_sequential_unsat_answers_are_reused(monkeypatch):
    scripts = _count_solver_calls(monkeypatch)
    both_poly = (Shape("poly", 1), Shape("poly", 2))
    unknown = prove(RW14, ProverConfig(shapes=both_poly, solver=f"{FAKE} --reply unknown"))
    assert [o.status for o in unknown.outcomes] == ["unknown", "unknown"]
    assert len(scripts) == 2
    # child lanes run at once, so each solves its own copy of the set
    lanes = prove(RW14, ProverConfig(shapes=both_poly, solver=f"{sys.executable} -u -m ptrs.boxsolver",
                                     coeff_bound=1, parallel=True))
    assert [o.status for o in lanes.outcomes] == ["unsat", "unsat"]
    assert len(scripts) == 4
    # in-process lanes run one after another, as the sequential portfolio does
    in_process = prove(RW14, ProverConfig(shapes=both_poly, solver=BOXSOLVER, parallel=True))
    assert [o.status for o in in_process.outcomes] == ["unsat", "unsat"]
    assert len(scripts) == 5


def test_unsat_sets_are_equal_by_unknowns_polynomials_and_at_least(monkeypatch):
    # each shape encodes to a set of its own over one unknown u in 0..1,
    # each unsat: u - 5 >= 1, the same with its monomials inserted the other
    # way round, 2u - 5 >= 1, and u - 5 >= 0
    sets = {
        Shape("poly", 1): [({(0,): 1, (): -5}, 1)],
        Shape("poly", 2): [({(): -5, (0,): 1}, 1)],
        Shape("poly", 3): [({(0,): 2, (): -5}, 1)],
        Shape("matrix", 1): [({(0,): 1, (): -5}, 0)],
    }
    monkeypatch.setattr(
        prover,
        "encode",
        lambda system, shape: EncodedProblem(system, shape, ConstraintSet([UnknownSpec("u")], sets[shape]), {}),
    )
    solved = _count_solver_calls(monkeypatch)
    verdict = prove(RW14, ProverConfig(shapes=tuple(sets), solver=BOXSOLVER, coeff_bound=1))
    assert [o.status for o in verdict.outcomes] == ["unsat"] * 4
    # the reordered set is answered from the first; a set that differs in
    # one coefficient or in one at_least is solved
    first, _, other_coefficient, other_at_least = sets.values()
    assert [cs.constraints for cs in solved] == [first, other_coefficient, other_at_least]


SHIPPED = tuple(load_system(str(PROBLEMS / f"{name}.wst")) for name in ("coingame", "matrix", "rw14", "rw34"))
# seeded: the shipped problems and 24 random systems over f/2, g/1, s/1, a, 0
EQUIVALENCE_SYSTEMS = SHIPPED + tuple(random_ptrs(random.Random(seed)) for seed in range(24))

# a margin that is one coefficient narrows that coefficient to 1..bound
NARROWING = tuple(
    elaborate(parse_problem(text))
    for text in (
        "(VAR x)(RULES f(x) -> x)",
        "(VAR x y)(RULES f(x,y) -> y g(x) -> x)",
        "(VAR x)(RULES s(x) -> x p(x) -> x p(s(x)) -> 1 : x || 1 : s(x))",
    )
)


def _spy_encode(monkeypatch) -> list:
    """The shapes `prove` encodes, in call order."""
    shapes: list = []

    def spy(system, shape):
        shapes.append(shape)
        return encode(system, shape)

    monkeypatch.setattr(prover, "encode", spy)
    return shapes


def _prove_like_encoding_every_shape(system, config, encoded: list) -> list:
    """Check that `prove` answers as the oracle that encodes every shape,
    encoding exactly the shapes it does not note as over budget; the noted
    floors are over the budget and at most the narrowed box. Returns the
    noted shapes."""
    expected = prove_encoding_every_shape(system, config)
    notes: list = []
    encoded.clear()
    verdict = prove(system, config, lambda shape, floor, limit: notes.append((shape, floor, limit)))
    assert verdict.outcomes == expected.outcomes
    assert format_verdict(verdict, system) == format_verdict(expected, system)
    noted = [shape for shape, _, _ in notes]
    assert encoded == [o.shape for o in verdict.outcomes if o.shape not in noted]
    for shape, floor, limit in notes:
        points = box_points(encode(system, shape).constraint_set, config.coeff_bound)
        assert limit < floor <= points
    return noted


def test_shapes_over_budget_are_answered_without_encoding(monkeypatch):
    encoded = _spy_encode(monkeypatch)
    noted = []
    for system in EQUIVALENCE_SYSTEMS + NARROWING:
        for bound in (0, 1, 2, 16):
            config = ProverConfig(solver=BOXSOLVER, coeff_bound=bound)
            noted += _prove_like_encoding_every_shape(system, config, encoded)
    assert {str(shape) for shape in noted} == {"poly-linear", "poly-multilinear-2", "matrix-2", "matrix-3"}


def test_a_box_that_narrows_to_within_budget_is_searched(monkeypatch):
    # a budget of exactly the narrowed box: a floor that left out the rules'
    # margins would skip these shapes, which the box solver searches
    encoded = _spy_encode(monkeypatch)
    searched = 0
    for system in NARROWING + EQUIVALENCE_SYSTEMS:
        for bound in (1, 2, 16):
            for shape in DEFAULT_SHAPES:
                try:
                    cs = encode(system, shape).constraint_set
                except DegreeOverflow:
                    continue
                points = box_points(cs, bound)
                if not 0 < points < prod(bound - spec.lo + 1 for spec in cs.unknowns) or points > 5000:
                    continue
                config = ProverConfig(shapes=(shape,), solver=f"{BOXSOLVER} --limit {points}", coeff_bound=bound)
                assert _prove_like_encoding_every_shape(system, config, encoded) == []
                searched += 1
    assert searched >= 10, searched


def test_emit_smt_still_encodes_every_shape(tmp_path):
    # every shape of coingame is over budget at the default bound
    system = SHIPPED[0]
    emitted = prove(system, ProverConfig(solver=BOXSOLVER, emit_smt=str(tmp_path)))
    assert emitted.outcomes == prove(system, ProverConfig(solver=BOXSOLVER)).outcomes
    assert {o.status for o in emitted.outcomes} == {"unknown"}
    scripts = {path.name: path.read_text() for path in tmp_path.iterdir()}
    assert scripts == {
        f"{shape}.smt2": emit_smtlib(encode(system, shape).constraint_set, 16) for shape in DEFAULT_SHAPES
    }


def test_yes_certificate_reproduces_through_text(tmp_path):
    verdict = prove(RW34, ProverConfig(shapes=POLY_ONLY, solver=BOXSOLVER, timeout=30))
    payload = verdict_json(verdict, RW34)
    assert payload["verdict"] == "YES"
    assert payload["epsilon"] == "1/2"
    rechecked = check_only(RW34, payload["certificate"])
    assert rechecked.kind == "YES"
    assert rechecked.certificate.epsilon == verdict.certificate.epsilon


def test_emit_smt_writes_deterministic_files(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    prove(RW34, ProverConfig(shapes=POLY_ONLY, solver=f"{FAKE} --reply unknown", emit_smt=str(out1)))
    prove(RW34, ProverConfig(shapes=POLY_ONLY, solver=f"{FAKE} --reply unknown", emit_smt=str(out2)))
    text1 = (out1 / "poly-linear.smt2").read_text()
    text2 = (out2 / "poly-linear.smt2").read_text()
    assert text1 == text2
    assert text1.startswith("(set-logic")


def test_check_only_verdicts():
    good = check_only(RW34, "poly\n[s](x) = x + 1\n")
    assert good.kind == "YES"
    assert good.certificate.epsilon == Fraction(1, 2)
    bad = check_only(RW14, "poly\n[s](x) = x + 1\n")
    assert bad.kind == "MAYBE"
    assert any("margin" in p for p in bad.problems)
    text = format_verdict(bad, RW14)
    assert text.splitlines()[0] == "MAYBE"
    assert "does not establish" in text
    broken = check_only(RW34, "poly\n[s](x) = x + \n")
    assert broken.kind == "ERROR"
    assert "unreadable" in broken.error


def test_verdict_json_fields():
    verdict = prove(RW14, ProverConfig(shapes=POLY_ONLY, solver=BOXSOLVER, timeout=30))
    payload = verdict_json(verdict, RW14)
    assert payload["verdict"] == "MAYBE"
    assert payload["certificate"] is None
    assert payload["attempts"] == [
        {
            "shape": "poly-linear",
            "status": "unsat",
            "detail": "no such interpretation with coefficients 0..16",
        }
    ]
    assert payload["error"] is None


@pytest.mark.skipif(not HAVE_Z3, reason="z3 binary not on PATH")
def test_prove_walk_with_z3():
    verdict = prove(RW34, ProverConfig(shapes=POLY_ONLY))
    assert verdict.kind == "YES"
    assert verdict.certificate.epsilon >= Fraction(1, 4)
