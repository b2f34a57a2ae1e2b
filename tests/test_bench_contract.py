"""The names the traced benchmark wraps must stay bound.

bench/tracing.py replaces ptrs functions at their import sites and reads a
few TermPars internals; a rename in ptrs would only show when the traced
benchmark runs. This loads that file by path, without running anything in
it, and checks every name it relies on.
"""

import importlib
import importlib.util
from pathlib import Path

from ptrs import interpretations
from ptrs.interpretations import Certificate, PolyInterpretation, ranking_from_certificate
from ptrs.rewriting import TermPars, leftmost_innermost, random_walk_ptrs
from ptrs.smt import DEFAULT_SHAPES, encode
from ptrs.terms import App

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing_contract", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    for module, attribute, _ in tracing.SPANNED + tracing.COUNTED:
        assert callable(getattr(importlib.import_module(module), attribute, None)), (module, attribute)
    # functions wrapped where the redex layer binds them, not only where
    # they are defined
    rewriting = importlib.import_module("ptrs.rewriting")
    for name in ("enumerate_redexes", "match", "replace_at", "apply_substitution", "leftmost_innermost"):
        assert callable(getattr(rewriting, name, None)), name
    assert leftmost_innermost.per_object is True


def test_term_pars_exposes_what_the_tracer_reads():
    assert callable(TermPars.redexes)
    pars = TermPars(random_walk_ptrs(1))
    assert len(pars._memo) == 0


# (module, name, defining module): every place the traced benchmark's own
# tests require a wrapper to reach, bound to the function the tracer wraps.
# The tracer patches a site only where it holds that very function object.
IMPORT_SITES = (
    ("ptrs.prover", "encode", "ptrs.smt"),
    ("ptrs.prover", "emit_smtlib", "ptrs.smt"),
    ("ptrs.prover", "run_solver", "ptrs.smt"),
    ("ptrs.prover", "decode", "ptrs.smt"),
    ("ptrs.smt", "encode", "ptrs.smt"),
    ("ptrs.simulator", "step_multidist", "ptrs.rewriting"),
    ("ptrs.simulator", "all_steps", "ptrs.rewriting"),
    ("ptrs.simulator", "ranking_from_certificate", "ptrs.interpretations"),
    ("ptrs.simulator", "expected_value", "ptrs.multidist"),
    ("ptrs.rewriting", "match", "ptrs.terms"),
    ("ptrs.rewriting", "replace_at", "ptrs.terms"),
    ("ptrs.cli", "load_system", "ptrs.wst"),
)


def test_every_import_site_the_tracer_wraps_stays_bound():
    for module, name, home in IMPORT_SITES:
        bound = getattr(importlib.import_module(module), name, None)
        assert callable(bound) and bound is getattr(importlib.import_module(home), name), (module, name)
    simulator = importlib.import_module("ptrs.simulator")
    assert simulator.MODES["innermost"] is leftmost_innermost


def test_encode_returns_what_the_tracer_counts():
    # the smt.encode hook reads len() of the result's unknowns and
    # constraints; a constraint is a pair (polynomial dict, int at_least)
    for shape in DEFAULT_SHAPES:
        cs = encode(random_walk_ptrs(1), shape).constraint_set
        assert len(cs.unknowns) > 0 and len(cs.constraints) > 0
        for constraint in cs.constraints:
            assert type(constraint) is tuple and len(constraint) == 2
            poly, at_least = constraint
            assert type(poly) is dict and type(at_least) is int


def test_a_rank_counts_eval_term_once_per_fresh_term(monkeypatch):
    # Traced runs count interpretations.eval_term.calls wherever a rank is
    # computed: the rank looks eval_term up in its module at each call, so
    # the tracer's wrapper sees a fresh term once and a held one never.
    interp = PolyInterpretation({"s": 1, "0": 0}, {"s": {(): 1, (1,): 1}})
    rank, _ = ranking_from_certificate(Certificate(interp, (1,), 1))
    calls = []
    evaluate = interpretations.eval_term

    def counted(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(interpretations, "eval_term", counted)
    term = App("s", (App("s", (App("0"),)),))
    assert rank(term) == 2 and len(calls) == 1
    assert rank(term) == 2 and len(calls) == 1
