"""Acceptance gate: ten end-to-end checks, one test per criterion.

Each test prints a single ACCEPTANCE line on success; under pytest -v the
test names double as the pass/fail record. Everything numeric is exact
rational arithmetic; tolerances appear only where a criterion states one.
"""

import json
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import enumerate_box, hitting_times_truncated, items
from ptrs.certtext import load_interpretation
from ptrs.cli import main
from ptrs.interpretations import check_certificate
from ptrs.multidist import MultiDistribution
from ptrs.prover import ProverConfig, check_only, prove
from ptrs.rewriting import NondetBranch, RandomWalk, random_walk_ptrs
from ptrs.simulator import RunConfig, collapsed, drift_harness, estimate_edh, run
from ptrs.smt import DEFAULT_SHAPES, Shape, encode
from ptrs.terms import Var
from ptrs.wst import load_system

F = Fraction
BOXSOLVER = f"{sys.executable} -m ptrs.boxsolver"
FAKE = f"{sys.executable} -m ptrs.fake_solver"
HAVE_Z3 = shutil.which("z3") is not None

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
RW34 = str(PROBLEMS / "rw34.wst")
RW14 = str(PROBLEMS / "rw14.wst")
COINGAME = str(PROBLEMS / "coingame.wst")
MATRIX = str(PROBLEMS / "matrix.wst")


def _passed(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_coin_game_certificate_margins():
    started = time.monotonic()
    system = load_system(COINGAME)
    verdict = check_only(system, (PROBLEMS / "coingame.cert").read_text())
    assert verdict.kind == "YES"
    assert list(verdict.certificate.margins) == [F(1, 2), F(8), F(2), F(2)]
    assert verdict.certificate.epsilon == F(1, 2)

    # Independent oracle: the same margins from a throwaway affine evaluator
    # that shares no code with the interpretation classes.
    affine = {"?": (11, 7), "s": (1, 1), "$": (1, 2), "f": (1, 3), "g": (1, 2), "0": (1, 0)}

    def ev(term, v):
        if isinstance(term, Var):
            return F(v)
        const, slope = affine[term.symbol]
        if not term.args:
            return F(const)
        return const + slope * ev(term.args[0], v)

    for rule, expected in zip(system.rules, [F(1, 2), F(8), F(2), F(2)]):
        drop = lambda v: ev(rule.lhs, v) - sum(p * ev(r, v) for r, p in items(rule.rhs))
        assert drop(0) == expected  # constant part of the difference
        assert drop(1) - drop(0) >= 0  # slope stays nonnegative
    assert time.monotonic() - started < 1.0
    _passed(1, "coin game certificate margins are exactly 1/2, 8, 2, 2")


def test_criterion_02_random_walk_synthesis():
    system = load_system(RW34)
    started = time.monotonic()
    verdict = prove(
        system, ProverConfig(shapes=(Shape("poly", 1),), solver=BOXSOLVER, timeout=10)
    )
    assert verdict.kind == "YES"
    assert verdict.certificate.kind == "poly"
    assert time.monotonic() - started < 10
    # Stub solver pinning slope and offset to 1; the file's signature has no
    # constant symbol, so those two unknowns are the whole model.
    stub = prove(
        system,
        ProverConfig(
            shapes=(Shape("poly", 1),),
            solver=f"{FAKE} --reply sat --model 'c0_1=1,c0_k=1'",
        ),
    )
    assert stub.kind == "YES"
    assert stub.certificate.epsilon == F(1, 2)
    _passed(2, "downward walk proves YES; stub model validates with epsilon 1/2")


@pytest.mark.skipif(not HAVE_Z3, reason="z3 binary not on PATH")
def test_criterion_02_random_walk_synthesis_z3():
    started = time.monotonic()
    verdict = prove(load_system(RW34), ProverConfig(shapes=(Shape("poly", 1),), timeout=10))
    assert verdict.kind == "YES"
    assert time.monotonic() - started < 10
    _passed(2, "downward walk proves YES with z3")


def test_criterion_03_matrix_synthesis_and_check():
    system = load_system(MATRIX)
    started = time.monotonic()
    # Coefficient bound 1 keeps the integer box enumerable; the known
    # dimension-2 solution uses only 0/1 entries, so it is inside.
    verdict = prove(
        system,
        ProverConfig(
            shapes=(Shape("matrix", 2),), solver=BOXSOLVER, timeout=60, coeff_bound=1
        ),
    )
    assert verdict.kind == "YES"
    assert verdict.certificate.kind == "matrix"
    assert verdict.certificate.epsilon >= F(1, 4)
    assert time.monotonic() - started < 60
    checked = check_only(system, (PROBLEMS / "matrix.cert").read_text())
    assert checked.kind == "YES"
    assert list(checked.certificate.margins) == [F(1, 2)]
    _passed(3, "matrix-2 synthesis proves YES; reference matrices give margin 1/2")


@pytest.mark.skipif(not HAVE_Z3, reason="z3 binary not on PATH")
def test_criterion_03_matrix_synthesis_z3():
    started = time.monotonic()
    verdict = prove(
        load_system(MATRIX), ProverConfig(shapes=(Shape("matrix", 2),), timeout=60)
    )
    assert verdict.kind == "YES"
    assert time.monotonic() - started < 60
    _passed(3, "matrix-2 synthesis proves YES with z3")


def test_criterion_04_semantics_regression(capsys):
    code = main(
        ["simulate", "--family", "rw", "--p", "1/2", "--start", "1", "--steps", "3",
         "--trace", "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["masses"] == ["1", "1", "1/2", "1/2"]
    assert payload["trace"][1] == [[["1/2", "0"], ["1/2", "2"]]]
    assert payload["trace"][2] == [[["1/4", "1"], ["1/4", "3"]]]
    assert payload["trace"][3] == [[["1/8", "0"], ["1/8", "2"], ["1/8", "2"], ["1/8", "4"]]]
    _passed(4, "fair walk reproduces the three displayed multidistributions exactly")


def test_criterion_05_nondeterminism_envelope():
    report = run(RunConfig(NondetBranch(), "a", 3, mode="exhaustive"))
    raw = sorted(str(mu) for mu in report.outcomes)
    assert raw == [
        "{1/2: d1, 1/2: d1}",
        "{1/2: d1, 1/2: d2}",
        "{1/2: d2, 1/2: d2}",
    ]
    merged = sorted(str(collapsed(mu)) for mu in report.outcomes)
    assert merged == ["{1/2: d1, 1/2: d2}", "{1: d1}", "{1: d2}"]
    _passed(5, "branching system yields exactly the three depth-3 outcomes")


def test_criterion_06_drift_property_suite():
    shipped = [
        (RW34, PROBLEMS / "rw34.cert"),
        (COINGAME, PROBLEMS / "coingame.cert"),
        (MATRIX, PROBLEMS / "matrix.cert"),
    ]
    for path, cert_path in shipped:
        system = load_system(path)
        cert = check_certificate(load_interpretation(str(cert_path)), system)
        report = drift_harness(
            system, cert, trials=100, max_depth=20, rng=random.Random(20260814)
        )
        assert report.ok, f"{path}: {report.violation}"
        assert report.checks >= 100
    # Mutation: doubling epsilon on the walk certificate must be caught.
    system = load_system(RW34)
    cert = check_certificate(load_interpretation(str(PROBLEMS / "rw34.cert")), system)
    forged = drift_harness(
        system, cert, trials=100, max_depth=20,
        rng=random.Random(20260814), epsilon=cert.epsilon * 2,
    )
    assert forged.violation is not None
    _passed(6, "drift inequality holds for all shipped certificates; 2x epsilon is caught")


def test_criterion_07_bound_tightness():
    # Exact value iteration on the truncated chain pins the limit first.
    times = hitting_times_truncated(F(3, 4), 64)
    for n in range(1, 7):
        assert abs(times[n] - 2 * n) < F(1, 1000)
    system = random_walk_ptrs(F(3, 4))
    cert = check_certificate(load_interpretation(str(PROBLEMS / "rw34.cert")), system)
    for n in range(1, 7):
        walk = RandomWalk(F(3, 4))
        report = run(RunConfig(walk, n, 200, collapse=True))
        estimate = estimate_edh(walk, cert, n, report)
        assert estimate.bound == 2 * n
        assert estimate.holds  # no prefix ever exceeds 2n
        assert 2 * n - F(1, 100) <= report.edl[-1] <= 2 * n
    _passed(7, "partial edl at depth 200 sits inside [2n - 1/100, 2n] for n = 1..6")


def test_criterion_08_affinity_and_monotonicity():
    from helpers import apply_symbol, rand_matrix_interp, rand_poly_interp, rand_value_distribution

    rng = random.Random(8)
    for _ in range(1000):
        arity = rng.randint(1, 2)
        interp = rand_poly_interp(rng, {"f": arity}, degree=2)
        args = [rng.randint(0, 5) + F(rng.randint(0, 3), 4) for _ in range(arity)]
        slot = rng.randrange(arity)
        dist = rand_value_distribution(rng, [F(k) for k in range(4)])
        mean = sum(p * v for v, p in items(dist))
        direct = apply_symbol(interp, "f", [*args[:slot], mean, *args[slot + 1:]])
        mixed = sum(
            p * apply_symbol(interp, "f", [*args[:slot], v, *args[slot + 1:]])
            for v, p in items(dist)
        )
        assert direct == mixed  # affine in every argument slot
        bumped = apply_symbol(
            interp, "f", [*args[:slot], args[slot] + F(1, 3), *args[slot + 1:]]
        )
        assert bumped > apply_symbol(interp, "f", args)
    for _ in range(1000):
        arity = rng.randint(1, 2)
        dim = 2
        interp = rand_matrix_interp(rng, {"f": arity}, dim)
        args = [tuple(F(rng.randint(0, 4)) for _ in range(dim)) for _ in range(arity)]
        slot = rng.randrange(arity)
        vectors = [tuple(F(rng.randint(0, 3)) for _ in range(dim)) for _ in range(3)]
        dist = rand_value_distribution(rng, vectors)
        mean = tuple(
            sum((p * v[r] for v, p in items(dist)), F(0)) for r in range(dim)
        )
        direct = apply_symbol(interp, "f", [*args[:slot], mean, *args[slot + 1:]])
        mixed = [F(0)] * dim
        for v, p in items(dist):
            value = apply_symbol(interp, "f", [*args[:slot], v, *args[slot + 1:]])
            mixed = [m + p * c for m, c in zip(mixed, value)]
        assert list(direct) == mixed
        raised = tuple(
            c + (F(1, 2) if r == 0 else F(0)) for r, c in enumerate(args[slot])
        )
        bumped = apply_symbol(interp, "f", [*args[:slot], raised, *args[slot + 1:]])
        base = apply_symbol(interp, "f", args)
        assert bumped[0] > base[0]  # witness entry forces strict first component
    _passed(8, "1000 random instances per shape: affinity and strict monotonicity hold")


def test_criterion_09_soundness_guard():
    system = load_system(RW14)
    verdict = prove(
        system, ProverConfig(shapes=DEFAULT_SHAPES, solver=BOXSOLVER, timeout=30)
    )
    assert verdict.kind == "MAYBE"  # never YES
    assert all(o.status in ("unsat", "unknown") for o in verdict.outcomes)
    encoded = encode(system, Shape("poly", 1))
    for bound in (1, 2):
        assert list(enumerate_box(encoded.constraint_set, bound)) == []
    _passed(9, "upward walk never proves YES; linear box B <= 2 is empty")


@pytest.mark.skipif(not HAVE_Z3, reason="z3 binary not on PATH")
def test_criterion_09_soundness_guard_z3():
    verdict = prove(load_system(RW14), ProverConfig(shapes=DEFAULT_SHAPES, timeout=30))
    assert verdict.kind != "YES"
    _passed(9, "upward walk never proves YES with z3")


def test_criterion_10_tooling_determinism(capsys, tmp_path):
    # Everything below runs offline with stub solvers only.
    outputs = []
    for directory in (tmp_path / "a", tmp_path / "b"):
        code = main(
            ["prove", RW34, "--solver", f"{FAKE} --reply unknown", "--json",
             "--emit-smt", str(directory)]
        )
        assert code == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    for name in ("poly-linear", "poly-multilinear-2", "matrix-2", "matrix-3"):
        first = (tmp_path / "a" / f"{name}.smt2").read_bytes()
        assert first == (tmp_path / "b" / f"{name}.smt2").read_bytes()
    reruns = []
    for _ in range(2):
        assert main(["simulate", "--family", "payout", "--start", "a0", "--steps", "6",
                     "--mode", "exhaustive", "--json"]) == 0
        reruns.append(capsys.readouterr().out)
    assert reruns[0] == reruns[1]
    result = subprocess.run(
        [sys.executable, "-m", "ptrs", "check", RW34, "--certificate",
         str(PROBLEMS / "rw34.cert")],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0 and result.stdout.splitlines()[0] == "YES"
    _passed(10, "emitted scripts and CLI output are byte-stable with stub solvers only")
