"""The names the traced benchmark wraps must stay bound.

bench/tracing.py replaces ptrs functions at their import sites and reads a
few TermPars internals; a rename in ptrs would only show when the traced
benchmark runs. This loads that file by path, without running anything in
it, and checks every name it relies on.
"""

import importlib
import importlib.util
from pathlib import Path

from ptrs.rewriting import TermPars, leftmost_innermost, random_walk_ptrs

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
