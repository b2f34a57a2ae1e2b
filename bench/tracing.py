"""Span recorder for the traced benchmark pass.

Layers are recorded from the outside: the public functions of each ptrs
module are wrapped at every place they are bound. `prover` binds encode,
emit_smtlib, run_solver and decode with `from .smt import ...`, so patching
ptrs.smt.encode alone would record nothing; install() therefore replaces
every binding of the original function object in every loaded ptrs module
(module globals and module-level dicts such as simulator.MODES), and
uninstall() puts each one back.

A span is (name, start, end, parent span, op id), kept in memory and
written out at the end. Hot helpers (terms.match and friends, eval_term)
get a call counter instead of a span.
"""

from __future__ import annotations

import functools
import gzip
import os
import resource
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

MARK = "__bench_wrapped__"

# (module, attribute, layer name). Every layer reports .calls, .s and .self_s.
SPANNED = (
    ("ptrs.cli", "main", "cli.main"),
    ("ptrs.prover", "prove", "prover.prove"),
    ("ptrs.smt", "encode", "smt.encode"),
    ("ptrs.smt", "emit_smtlib", "smt.emit_smtlib"),
    ("ptrs.smt", "run_solver", "smt.run_solver"),
    ("ptrs.smt", "decode", "smt.decode"),
    ("ptrs.interpretations", "check_certificate", "interpretations.check_certificate"),
    ("ptrs.certtext", "render_certificate", "certtext.render_certificate"),
    ("ptrs.wst", "load_system", "wst.load_system"),
    ("ptrs.rewriting", "enumerate_redexes", "rewriting.enumerate_redexes"),
    ("ptrs.rewriting", "step_multidist", "rewriting.step_multidist"),
    ("ptrs.rewriting", "leftmost_innermost", "rewriting.leftmost_innermost"),
    ("ptrs.rewriting", "all_steps", "rewriting.all_steps"),
    ("ptrs.simulator", "collapsed", "simulator.collapsed"),
    ("ptrs.simulator", "run", "simulator.run"),
    ("ptrs.simulator", "drift_harness", "simulator.drift_harness"),
    ("ptrs.multidist", "expected_value", "multidist.expected_value"),
)
RANK = "interpretations.rank"  # the closure ranking_from_certificate returns
OP = "bench.op"  # root span of each op: the benchmark's own call glue
SPAN_LAYERS = tuple(name for _, _, name in SPANNED) + (RANK, OP)

COUNTED = (
    ("ptrs.terms", "match", "terms.match"),
    ("ptrs.terms", "replace_at", "terms.replace_at"),
    ("ptrs.terms", "subterm_at", "terms.subterm_at"),
    ("ptrs.terms", "apply_substitution", "terms.apply_substitution"),
    ("ptrs.interpretations", "eval_term", "interpretations.eval_term"),
)


def _term_nodes(term) -> int:
    count, stack = 0, [term]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(getattr(node, "args", ()))
    return count


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.op = -1
        self._patches: list[tuple[object, object, object, object]] = []

    # -- spans --------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        index = len(self.names)
        self.names.append(name)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.starts[index] = start
            self.ends[index] = end

    def spanned(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span; before(args) and after(result, args, state) update counters."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            result = recorder.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, args, state)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, fn)
        return wrapper

    # -- installing wrappers ------------------------------------------------

    def _wrappers(self) -> list[tuple[object, object]]:
        """(original, wrapper) pairs for every traced function."""
        mods = sys.modules
        c = self.counts
        hooks = {
            "smt.encode": (None, lambda r, a, s: c.update({
                "smt.encode.unknowns": len(r.constraint_set.unknowns),
                "smt.encode.constraints": len(r.constraint_set.constraints)})),
            "smt.emit_smtlib": (None, lambda r, a, s: c.update({"smt.emit_smtlib.bytes": len(r)})),
            "smt.run_solver": (lambda a: _children_cpu(), lambda r, a, s: c.update({
                f"smt.run_solver.{r.status}": 1, "boxsolver.cpu_s": _children_cpu() - s})),
            "wst.load_system": (None, lambda r, a, s: c.update({"wst.load_system.bytes": os.path.getsize(a[0])})),
            "rewriting.enumerate_redexes": (
                None, lambda r, a, s: c.update({"rewriting.enumerate_redexes.term_nodes": _term_nodes(a[1])})),
            "rewriting.all_steps": (None, lambda r, a, s: c.update({"rewriting.all_steps.successors": len(r)})),
            "simulator.collapsed": (None, lambda r, a, s: c.update({
                "simulator.collapsed.entries_in": len(a[0].entries),
                "simulator.collapsed.entries_out": len(r.entries)})),
            "simulator.run": (None, lambda r, a, s: c.update({"simulator.run.nodes": r.nodes})),
            "simulator.drift_harness": (None, lambda r, a, s: c.update({"simulator.drift_harness.checks": r.checks})),
            "multidist.expected_value": (
                None, lambda r, a, s: c.update({"multidist.expected_value.entries": len(a[0].entries)})),
        }
        pairs = []
        for module, attr, name in SPANNED:
            original = getattr(mods[module], attr)
            before, after = hooks.get(name, (None, None))
            pairs.append((original, self.spanned(name, original, before, after)))
        for module, attr, name in COUNTED:
            original = getattr(mods[module], attr)
            pairs.append((original, self.counted(name, original)))

        ranking = mods["ptrs.interpretations"].ranking_from_certificate

        @functools.wraps(ranking)
        def ranking_wrapper(cert):
            rank, epsilon = ranking(cert)
            return self.spanned(RANK, rank), epsilon

        setattr(ranking_wrapper, MARK, ranking)
        pairs.append((ranking, ranking_wrapper))
        return pairs

    def install(self) -> None:
        """Replace every binding of each traced function in the loaded ptrs modules."""
        import ptrs.cli  # noqa: F401  (loads every module that binds a traced function)
        import ptrs.simulator  # noqa: F401

        if self._patches:
            raise RuntimeError("tracing wrappers are already installed")
        replacement = dict((id(o), (o, w)) for o, w in self._wrappers())
        for module in _ptrs_modules():
            for key, value in list(vars(module).items()):
                self._patch(module, key, value, replacement, setattr)
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        self._patch(value, k, v, replacement, dict.__setitem__)
        pars = sys.modules["ptrs.rewriting"].TermPars
        original = pars.redexes
        counts = self.counts
        memo_peak = "rewriting.redexes.memo_peak"

        @functools.wraps(original)
        def redexes(pars_self, term):
            counts["rewriting.redexes.calls"] += 1
            result = original(pars_self, term)
            counts[memo_peak] = max(counts[memo_peak], len(pars_self._memo))
            return result

        setattr(redexes, MARK, original)
        pars.redexes = redexes
        self._patches.append((pars, "redexes", original, setattr))

    def _patch(self, container, key, value, replacement, store) -> None:
        hit = replacement.get(id(value))
        if hit is not None and hit[0] is value:
            store(container, key, hit[1])
            self._patches.append((container, key, value, store))

    def uninstall(self) -> None:
        while self._patches:
            container, key, original, store = self._patches.pop()
            store(container, key, original)
        assert_unwrapped()

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Spans nest properly (one thread), so children never overlap and
        their durations add up to the part of the parent they cover.
        """
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def op_walls(self) -> dict[int, float]:
        return {
            self.ops[i]: self.ends[i] - self.starts[i]
            for i, name in enumerate(self.names)
            if name == OP
        }

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer .calls, .s, .self_s plus the counters and ratios."""
        totals: dict[str, float] = defaultdict(float)
        own = self.self_times()
        for i, name in enumerate(self.names):
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += own[i]
        # inclusive time: count a span only if no ancestor has the same name
        for i, name in enumerate(self.names):
            parent, nested = self.parents[i], False
            while parent >= 0:
                if self.names[parent] == name:
                    nested = True
                    break
                parent = self.parents[parent]
            if not nested:
                totals[f"{name}.s"] += self.ends[i] - self.starts[i]
        out: dict[str, float] = {}
        for layer in SPAN_LAYERS:
            for suffix in ("calls", "s", "self_s"):
                out[f"{layer}.{suffix}"] = totals.get(f"{layer}.{suffix}", 0.0)
        for _, _, name in COUNTED:
            out[f"{name}.calls"] = self.counts.get(f"{name}.calls", 0)
        for key in (
            "smt.run_solver.sat", "smt.run_solver.unsat", "smt.run_solver.unknown",
            "smt.run_solver.error", "boxsolver.cpu_s", "smt.encode.unknowns",
            "smt.encode.constraints", "smt.emit_smtlib.bytes", "wst.load_system.bytes",
            "rewriting.enumerate_redexes.term_nodes", "rewriting.all_steps.successors",
            "simulator.run.nodes", "simulator.drift_harness.checks",
            "multidist.expected_value.entries", "rewriting.redexes.calls",
            "rewriting.redexes.memo_peak",
        ):
            out[key] = self.counts.get(key, 0)
        out["rewriting.redexes.hit_ratio"] = _ratio_left(
            out["rewriting.enumerate_redexes.calls"], out["rewriting.redexes.calls"])
        out["simulator.rank_memo.hit_ratio"] = _ratio_left(
            out[f"{RANK}.calls"], out["multidist.expected_value.entries"])
        entries_in = self.counts.get("simulator.collapsed.entries_in", 0)
        out["simulator.collapsed.ratio"] = (
            self.counts.get("simulator.collapsed.entries_out", 0) / entries_in if entries_in else 0.0)
        return out

    def write(self, path: Path, op_labels: dict[int, str]) -> None:
        """Spans as gzipped TSV: name, start, end, parent, op, op label."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("index\tname\tstart\tend\tparent\top\tlabel\n")
            for i, name in enumerate(self.names):
                op = self.ops[i]
                out.write(f"{i}\t{name}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\t"
                          f"{self.parents[i]}\t{op}\t{op_labels.get(op, '')}\n")


def unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith((".s", ".self_s", "cpu_s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("ratio", "_frac")):
        return "ratio"
    return "count"


def _ratio_left(misses: float, calls: float) -> float:
    """1 - misses / calls, or 0 when nothing was called."""
    return 1.0 - misses / calls if calls else 0.0


def _ptrs_modules():
    return [m for name, m in list(sys.modules.items()) if name == "ptrs" or name.startswith("ptrs.")]


def wrapped_bindings() -> list[str]:
    """Names of every binding in the loaded ptrs modules that is a tracing wrapper."""
    found = []
    for module in _ptrs_modules():
        for key, value in vars(module).items():
            values = value.items() if isinstance(value, dict) else [(None, value)]
            for sub, v in values:
                if hasattr(v, MARK):
                    found.append(f"{module.__name__}.{key}" + (f"[{sub!r}]" if sub is not None else ""))
            if isinstance(value, type):
                for attr, v in vars(value).items():
                    if hasattr(v, MARK):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return found


def assert_unwrapped() -> None:
    """Raise unless every ptrs binding is the original, unwrapped function."""
    found = wrapped_bindings()
    if found:
        raise RuntimeError("tracing wrappers still installed: " + ", ".join(found))
