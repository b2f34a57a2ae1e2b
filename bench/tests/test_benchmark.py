"""Tests of the benchmark itself: inputs, oracles, span arithmetic, wrapping.

Run from the checkout root:  python3 -m pytest bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import chain, islice
from pathlib import Path

import pytest

import oracles
import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SOLVER = f"{sys.executable} -m ptrs.boxsolver"


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def cli(argv):
    from ptrs.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    return rc, out.getvalue()


def take(cycles, n):
    return list(islice(chain.from_iterable(cycles), n))


# ---------------------------------------------------------------------------
# seeded inputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_and_files(workload, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    first = take(workloads.op_cycles(workload, 7, a, SOLVER), 60)
    again = take(workloads.op_cycles(workload, 7, b, SOLVER), 60)
    other = take(workloads.op_cycles(workload, 8, c, SOLVER), 60)
    strip = lambda ops, d: [str(op).replace(str(d), "") for op in ops]  # noqa: E731
    assert strip(first, a) == strip(again, b)
    assert strip(first, a) != strip(other, c)
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_every_cycle_has_the_same_class_mix():
    def mix(ops):
        return sorted(op.label for op in ops)

    for seed in range(3):
        rng = random.Random(seed)
        assert mix(workloads.simulate_cycle(rng)) == mix(workloads.simulate_cycle(random.Random(99)))
        assert mix(workloads.drift_cycle(rng)) == mix(workloads.drift_cycle(random.Random(99)))


def test_random_systems_get_the_verdict_of_their_class(tmp_path):
    stream = workloads.op_cycles("prove-portfolio", 3, tmp_path, SOLVER)
    for op in take(stream, 18):
        rc, stdout = cli(op.argv)
        assert oracles.check_prove(op.oracle, rc, stdout) is None, (op, stdout)


def test_digest_ops_all_have_references():
    references = oracles.load_reference_digests()
    assert set(references) == {workloads.digest_key(a) for a in workloads.digest_argvs()}


# ---------------------------------------------------------------------------
# oracles flag planted wrong answers


@pytest.mark.parametrize("collapse", [True, False])
@pytest.mark.parametrize("mode", ["outermost", "innermost"])
def test_walk_oracle_accepts_the_program_and_flags_a_perturbed_mass(collapse, mode):
    argv = ("simulate", "problems/rw34.wst", "--start", workloads.nest("s", 4), "--steps", "7",
            "--mode", mode) + (("--collapse",) if collapse else ())
    spec = ("walk", "3/4", 4, 7, collapse, "term")
    rc, stdout = cli(argv)
    walk = oracles.WalkOracle()
    assert oracles.check_walk(walk, spec, argv, rc, oracles.walk_material(stdout)) is None

    line = next(ln for ln in stdout.splitlines() if ln.startswith("step 3: "))
    mass = Fraction(line.split("mass ")[1].split(",")[0])
    perturbed = stdout.replace(line, line.replace(f"mass {mass},", f"mass {mass + Fraction(1, 10**9)},"))
    assert perturbed != stdout
    assert "line 3" in oracles.check_walk(walk, spec, argv, rc, oracles.walk_material(perturbed))


def test_walk_oracle_matches_the_rw_family_and_flags_a_wrong_outcome():
    argv = ("simulate", "--family", "rw", "--p", "2/3", "--start", "3", "--steps", "20", "--collapse")
    spec = ("walk", "2/3", 3, 20, True, "int")
    rc, stdout = cli(argv)
    walk = oracles.WalkOracle()
    assert oracles.check_walk(walk, spec, argv, rc, oracles.walk_material(stdout)) is None
    outcome = next(ln for ln in stdout.splitlines() if ln.startswith("outcome: "))
    swapped = outcome.replace("{", "{0: 0, ", 1)
    assert oracles.check_walk(walk, spec, argv, rc, oracles.walk_material(stdout.replace(outcome, swapped)))


def _prove(name):
    path = workloads.problem_path(name)
    rc, stdout = cli(("prove", path, "--solver", SOLVER, "--coeff-bound", "1"))
    return ("prove", path, "shipped", name), rc, stdout


def test_prove_oracle_flags_a_forged_certificate():
    spec, rc, stdout = _prove("rw34")
    assert oracles.check_prove(spec, rc, stdout) is None
    assert "[s](x) = x + 1" in stdout
    forged = stdout.replace("[s](x) = x + 1", "[s](x) = x")
    assert "not accepted" in oracles.check_prove(spec, rc, forged)


def test_prove_oracle_flags_flipped_verdicts():
    spec, rc, stdout = _prove("rw34")
    assert oracles.check_prove(spec, rc, stdout.replace("YES", "MAYBE", 1)) is not None
    assert oracles.check_prove(spec, 1, stdout) is not None  # right text, wrong exit code
    for name in ("rw14", "coingame"):
        spec, rc, stdout = _prove(name)
        assert oracles.check_prove(spec, rc, stdout) is None
        assert oracles.check_prove(spec, 0, stdout.replace("MAYBE", "YES", 1)) is not None
    assert oracles.check_prove(("prove", "x.wst", "maybe"), 0, "YES\n") is not None
    assert oracles.check_prove(("prove", "x.wst", "yes"), 1, "MAYBE\n") is not None


def test_digest_oracle_flags_a_tampered_digest():
    references = oracles.load_reference_digests()
    argv = workloads.exhaustive_argvs()[0]
    rc, stdout = cli(argv)
    key = workloads.digest_key(argv)
    digest = oracles.stdout_digest(stdout)
    assert oracles.check_digest(references, key, rc, digest) is None
    assert oracles.check_digest(references, key, rc, digest[:-1] + ("0" if digest[-1] != "0" else "1"))
    assert oracles.check_digest(references, key, 1, digest)
    tampered = dict(references, **{key: {"sha256": "0" * 64, "exit": 0}})
    assert oracles.check_digest(tampered, key, rc, digest)
    assert oracles.check_digest(references, key + " --collapse --collapse", rc, digest)


@pytest.mark.parametrize("name", ["rw34", "matrix"])
def test_drift_oracle_flags_undetected_forgery_and_false_alarms(name):
    fixed = workloads.load_fixed("drift-rank")
    from ptrs.simulator import drift_harness

    system, cert = fixed[name]
    valid = drift_harness(system, cert, trials=3, max_depth=5, rng=random.Random(1))
    forged = drift_harness(system, cert, trials=100, max_depth=5, rng=random.Random(1),
                           epsilon=2 * cert.epsilon)
    assert oracles.check_drift(False, 3, valid) is None
    assert oracles.check_drift(True, 100, forged) is None
    assert oracles.check_drift(True, 3, valid) is not None  # forgery reported as ok
    assert oracles.check_drift(False, 100, forged) is not None  # valid op reporting a violation


# ---------------------------------------------------------------------------
# span arithmetic


def _synthetic():
    """op 0: bench.op [0,10] > cli.main [1,9] > a [2,5] (> a [3,4]) and b [6,8]."""
    r = tracing.Recorder()
    spans = [
        ("bench.op", 0, 10, -1), ("cli.main", 1, 9, 0), ("rewriting.step_multidist", 2, 5, 1),
        ("rewriting.step_multidist", 3, 4, 2), ("smt.encode", 6, 8, 1),
    ]
    for name, start, end, parent in spans:
        r.names.append(name)
        r.starts.append(float(start))
        r.ends.append(float(end))
        r.parents.append(parent)
        r.ops.append(0)
    return r


def test_self_times_subtract_direct_children_and_add_up_to_the_op_wall():
    r = _synthetic()
    assert r.self_times() == [2.0, 3.0, 2.0, 1.0, 2.0]
    assert sum(r.self_times()) == r.op_walls()[0] == 10.0
    m = r.layer_metrics()
    assert m["cli.main.self_s"] == 3.0 and m["cli.main.s"] == 8.0
    # the nested call is counted but its time is not counted twice
    assert m["rewriting.step_multidist.calls"] == 2
    assert m["rewriting.step_multidist.s"] == 3.0
    assert m["rewriting.step_multidist.self_s"] == 3.0
    assert m["smt.encode.s"] == m["smt.encode.self_s"] == 2.0
    assert m["smt.run_solver.calls"] == 0 and m["rewriting.redexes.hit_ratio"] == 0.0


def test_recorded_spans_nest_and_add_up():
    r = tracing.Recorder()
    r.op = 4
    r.call("bench.op", lambda: r.call("cli.main", lambda: r.call("smt.encode", sum, range(1000))))
    assert r.parents == [-1, 0, 1] and r.ops == [4, 4, 4]
    assert abs(sum(r.self_times()) - r.op_walls()[4]) < 1e-12


# ---------------------------------------------------------------------------
# wrapping


def _bindings():
    import ptrs.cli  # noqa: F401
    import ptrs.simulator  # noqa: F401

    snapshot = {}
    for module in tracing._ptrs_modules():
        for key, value in vars(module).items():
            snapshot[(module.__name__, key)] = value
            if isinstance(value, dict):
                for k, v in value.items():
                    snapshot[(module.__name__, key, k)] = v
    snapshot["TermPars.redexes"] = sys.modules["ptrs.rewriting"].TermPars.__dict__["redexes"]
    return snapshot


def test_wrappers_reach_every_import_site_and_are_removed():
    before = _bindings()
    recorder = tracing.Recorder()
    recorder.install()
    try:
        found = set(tracing.wrapped_bindings())
        for site in ("ptrs.prover.encode", "ptrs.prover.emit_smtlib", "ptrs.prover.run_solver",
                     "ptrs.prover.decode", "ptrs.smt.encode", "ptrs.simulator.step_multidist",
                     "ptrs.simulator.all_steps", "ptrs.simulator.ranking_from_certificate",
                     "ptrs.simulator.expected_value", "ptrs.rewriting.match",
                     "ptrs.rewriting.replace_at", "ptrs.simulator.MODES['innermost']",
                     "ptrs.cli.load_system", "ptrs.rewriting.TermPars.redexes"):
            assert site in found, site
        with pytest.raises(RuntimeError):
            tracing.assert_unwrapped()
    finally:
        recorder.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    tracing.assert_unwrapped()


def test_untraced_phase_calls_the_original_functions():
    import run

    fixed = workloads.load_fixed("drift-rank")
    runner = run.Runner(fixed)
    ops = workloads.drift_cycle(random.Random(5))[:2]
    recorder = tracing.Recorder()
    recorder.install()
    try:
        traced = run.run_phase(runner, ops, 60.0, recorder)
    finally:
        recorder.uninstall()
    spans = len(recorder.names)
    assert spans > 2 and not any(r[3] for r in traced)
    untraced = run.run_phase(runner, ops, 60.0)
    assert len(recorder.names) == spans and not any(r[3] for r in untraced)
    assert [r[2].checks for r in traced] == [r[2].checks for r in untraced]


# ---------------------------------------------------------------------------
# host-speed scaling (reference.py)


def test_reference_scale_uses_the_nearest_samples():
    meter = reference.Meter()
    n = reference.NEAREST
    # a slow spell at twice the reference time, then the reference speed
    meter.times = [float(i) for i in range(3 * n)]
    meter.durations = [2 * reference.REFERENCE_S] * (2 * n) + [reference.REFERENCE_S] * n
    assert meter.scale(0.0) == 0.5
    assert meter.scale(float(n)) == 0.5
    assert meter.scale(3.0 * n + 10) == 1.0


def test_reference_runs_its_share_after_each_op():
    meter = reference.Meter()
    spent = meter.after_op(0.2)
    assert spent >= reference.SHARE * 0.2 and len(meter.durations) == len(meter.times) >= 1
    assert meter.times == sorted(meter.times)


def test_reference_task_does_not_use_ptrs():
    code = "import sys, reference; reference.task(); print(any(m.startswith('ptrs') for m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# the command line: flags, result line and a checkout without the program


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_declared_metric(trace, key):
    done = _run(ROOT, "--workload", "drift-rank", "--seed", "1", "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "drift-rank", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
