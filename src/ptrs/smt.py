"""Constraint generation and external-solver plumbing.

Orientation of l -> {p1: r1, ..., pn: rn} is encoded over the integers by
clearing denominators: with weights wj = pj * w,

    w * [l]  -  (w1 * [r1] + ... + wn * [rn])

with w the rule's denominator, must keep every entry that
`interpretations.Differences.entries` lists at 0 or more, and its constant
margin at 1 or more, which makes the rational margin at least 1/w. Each
coefficient of the shape is an integer unknown with a lower end, 0 or 1;
`coefficient_table` lays them out once per encoding, and `decode` fills
the same table with a model's values, which is then the interpretation.
The upper end of every unknown, the coefficient bound, is no part of the
encoding: it is given when a set is searched (`ConstraintSet.search_args`,
`solve_box`), emitted (`emit_smtlib`) or a model decoded (`decode`), so
one encoding serves every bound.

A polynomial over the unknowns has one form from the encoder to the
search: a dict from monomials, sorted tuples of unknown positions in
declaration order, to nonzero `int` coefficients, as `boxsolver` reads a
script into. A constraint is the pair (polynomial, at_least) that
`boxsolver.solve_sums` searches: the encoder builds it from
`Differences.entries` and nothing unwraps it. Only `emit_smtlib` maps
positions to names.

Solvers are untrusted external processes speaking SMT-LIB 2 over a pipe;
the shipped box solver may instead search the constraint set in process,
with the answer its child gives on the emitted script. Every model is
decoded and re-validated exactly before it is believed.
"""

from __future__ import annotations

import re
import shutil
import sys
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from time import monotonic
from typing import Mapping, NamedTuple, Sequence

from .boxsolver import DEFAULT_LIMIT, ScriptError, parse_script, solve_sums
from .interpretations import (
    UNKNOWNS,
    Differences,
    Interpretation,
    MatrixInterpretation,
    PolyInterpretation,
)
from .rewriting import PTRS


class EncodingError(Exception):
    """The system cannot be encoded in the requested shape."""


class ModelDecodeError(Exception):
    """The solver's model is unusable: incomplete, fractional, or out of box."""


class UnknownSpec(NamedTuple):
    name: str
    lo: int = 0


class ConstraintSet(NamedTuple):
    """Constraints over the unknowns, each a pair (poly, at_least) meaning
    poly >= at_least, with poly reading unknown i as unknowns[i]."""

    unknowns: list[UnknownSpec]
    constraints: list[tuple[dict[tuple[int, ...], int], int]]

    def search_args(self, bound: int) -> tuple[list[int], list[int], list]:
        """The set with every unknown at most `bound`, as
        `boxsolver.solve_sums` takes it: (lo, hi, constraints), the last
        the set's own list, which the search only reads."""
        lo = [spec.lo for spec in self.unknowns]
        return lo, [bound] * len(lo), self.constraints


class Shape(NamedTuple):
    kind: str  # "poly" | "matrix"
    param: int  # degree for poly, dimension for matrix

    def __str__(self) -> str:
        if self.kind == "poly":
            return "poly-linear" if self.param == 1 else f"poly-multilinear-{self.param}"
        return f"matrix-{self.param}"


def parse_shape(text: str) -> Shape:
    if text == "poly-linear":
        return Shape("poly", 1)
    if text.startswith("poly-multilinear-") and text.rsplit("-", 1)[1].isdecimal():
        degree = int(text.rsplit("-", 1)[1])
        if degree >= 2:
            return Shape("poly", degree)
    if text.startswith("matrix-") and text.split("-", 1)[1].isdecimal():
        dim = int(text.split("-", 1)[1])
        if dim >= 1:
            return Shape("matrix", dim)
    raise ValueError(
        f"unknown shape {text!r} (expected poly-linear, poly-multilinear-K or matrix-N)"
    )


DEFAULT_SHAPES = (Shape("poly", 1), Shape("poly", 2), Shape("matrix", 2), Shape("matrix", 3))


class EncodedProblem(NamedTuple):
    system: PTRS
    shape: Shape
    constraint_set: ConstraintSet
    table: dict  # `coefficient_table`'s, which `decode` fills from a model


def _subsets(indices: Sequence[int], max_size: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    for size in range(1, max_size + 1):
        out.extend(combinations(indices, size))
    return out


def coefficient_table(system: PTRS, shape: Shape) -> tuple[list[UnknownSpec], dict]:
    """The shape's coefficients, each a new unknown with its lower end, and
    the table of `interpretations.Differences` that reads them: per symbol, a
    polynomial's (argument indices, position) pairs by monomial size, or a
    matrix's argument grids and constant vector of positions. Unknowns are
    declared in this order: symbols by name, then a polynomial's monomials
    by size, or a matrix's argument matrices row by row and its constant."""
    unknowns: list[UnknownSpec] = []

    def unknown(name: str, lo: int) -> int:
        unknowns.append(UnknownSpec(name, lo))
        return len(unknowns) - 1

    n = shape.param
    table: dict = {}
    for index, (sym, arity) in enumerate(sorted(system.signature.symbols().items())):
        if shape.kind == "poly":
            # the monotonicity witnesses, the linear coefficients, start at 1
            table[sym] = tuple(
                (tuple(i - 1 for i in V), unknown(f"c{index}_{'_'.join(map(str, V)) or 'k'}", int(len(V) == 1)))
                for V in _subsets(range(1, arity + 1), n)
            )
            continue
        grids = tuple(
            tuple(tuple(unknown(f"m{index}_a{arg}_{r}_{c}", int(r == c == 1)) for c in range(1, n + 1))
                  for r in range(1, n + 1))
            for arg in range(1, arity + 1)
        )
        table[sym] = (grids, tuple(unknown(f"m{index}_k_{r}", 0) for r in range(1, n + 1)))
    return unknowns, table


def encode(system: PTRS, shape: Shape) -> EncodedProblem:
    """Orientation constraints for the whole system under the shape's
    coefficient table: one per entry of each rule's difference.

    Raises DegreeOverflow when nesting leaves the shape's multilinear
    fragment, and EncodingError for shapes that cannot start at all.
    """
    if not system.rules:
        raise EncodingError("system has no rules")
    unknowns, table = coefficient_table(system, shape)
    cap = shape.param if shape.kind == "poly" else None
    differences = Differences(shape.kind, shape.param, table, UNKNOWNS, cap)
    constraints = [
        (value, 1 if strict else 0) for rule in system.rules for _, value, strict in differences.entries(rule)
    ]
    return EncodedProblem(system, shape, ConstraintSet(unknowns, constraints), table)


# ---------------------------------------------------------------------------
# SMT-LIB emission


def _mono_sexpr(parts: list[str], k: int) -> str:
    if k != 1 or not parts:
        parts = [str(k) if k >= 0 else f"(- {-k})"] + parts
    if len(parts) == 1:
        return parts[0]
    return "(* " + " ".join(parts) + ")"


def poly_sexpr(poly: dict[tuple[int, ...], int], names: Sequence[str]) -> str:
    """`poly` with unknown i named names[i]: monomials by degree and then by
    their sorted names."""
    if not poly:
        return "0"
    monomials = sorted([(len(m), sorted([names[p] for p in m]), c) for m, c in poly.items()])
    bits = [_mono_sexpr(mono, c) for _, mono, c in monomials]
    if len(bits) == 1:
        return bits[0]
    return "(+ " + " ".join(bits) + ")"


def emit_smtlib(cs: ConstraintSet, bound: int) -> str:
    """The set with every unknown at most `bound`. Deterministic rendering:
    identical input gives identical bytes."""
    nonlinear = any(len(m) > 1 for poly, _ in cs.constraints for m in poly)
    lines = [f"(set-logic {'QF_NIA' if nonlinear else 'QF_LIA'})"]
    for spec in cs.unknowns:
        lines.append(f"(declare-const {spec.name} Int)")
    for spec in cs.unknowns:
        lines.append(f"(assert (>= {spec.name} {spec.lo}))")
        lines.append(f"(assert (<= {spec.name} {bound}))")
    names = [spec.name for spec in cs.unknowns]
    for poly, at_least in cs.constraints:
        lines.append(f"(assert (>= {poly_sexpr(poly, names)} {at_least}))")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Running an external solver


class CancelToken:
    """Cooperative cancellation: kills registered solver processes."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._procs: list[subprocess.Popen] = []

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def register(self, proc: subprocess.Popen) -> None:
        with self._lock:
            self._procs.append(proc)
            if self._event.is_set():
                self._kill(proc)

    def cancel(self) -> None:
        self._event.set()
        with self._lock:
            for proc in self._procs:
                self._kill(proc)

    @staticmethod
    def _kill(proc: subprocess.Popen) -> None:
        try:
            proc.kill()
        except ProcessLookupError:
            pass


class SolverResult(NamedTuple):
    status: str  # sat | unsat | unknown | error
    model: dict[str, int | Fraction] | None = None  # ints from the in-process search
    detail: str = ""


@lru_cache(maxsize=32)
def _split(command: str) -> tuple[str, ...]:
    """`shlex.split(command)`, split once per distinct command string; a
    string that does not split (unbalanced quotes) raises its ValueError
    again on every call."""
    import shlex

    return tuple(shlex.split(command))


def in_process_limit(command: str) -> int | None:
    """The box budget when `command` runs ptrs's own box solver on this very
    interpreter, whose search `prove` then runs in process (`solve_box`);
    None otherwise.

    Only `EXE -m ptrs.boxsolver [--limit N]` matches, with EXE this
    interpreter's path or a name `shutil.which` finds at that exact path.
    Symlinks are not resolved: a venv's python or a pyenv shim may see
    other site-packages, so it gets a child process like any other command.
    """
    try:
        argv = _split(command)
    except ValueError:
        return None
    if len(argv) not in (3, 5) or argv[1:3] != ("-m", "ptrs.boxsolver"):
        return None
    exe = argv[0]
    if not sys.executable or (exe != sys.executable and shutil.which(exe) != sys.executable):
        return None
    if len(argv) == 3:
        return DEFAULT_LIMIT
    if argv[3] != "--limit" or not argv[4].isdecimal():
        return None
    return int(argv[4])


def run_solver(
    script: str,
    command: str,
    timeout: float = 60.0,
    cancel: CancelToken | None = None,
) -> SolverResult:
    """One-shot pipe protocol: write the script, read the full reply."""
    import subprocess

    argv = _split(command)
    if not argv:
        return SolverResult("error", detail="empty solver command")
    try:
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
    except (FileNotFoundError, PermissionError) as exc:
        return SolverResult("error", detail=f"cannot start solver {argv[0]!r}: {exc}")
    if cancel is not None:
        cancel.register(proc)
    try:
        out, err = proc.communicate(script, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return SolverResult("unknown", detail=f"solver timed out after {timeout}s")
    if cancel is not None and cancel.cancelled:
        return SolverResult("unknown", detail="cancelled")
    return _read_reply(out, err, proc.returncode)


def box_floor(system: PTRS, shape: Shape, bound: int) -> int | None:
    """A lower bound on the points of the box the box solver compares with
    its budget (`boxsolver.narrow`) for `encode(system, shape)`'s set at `bound`,
    counted from the arities with no table or constraint built; None
    when `encode` may raise instead (no rules, or a coefficient on a product
    of two or more arguments, which can overflow the degree cap).

    `coefficient_table` gives a symbol of arity a 1 + a coefficients under
    `poly-linear`, as under any poly shape when a <= 1, and a*n*n + n under
    `matrix-n`. The a linear or top-left ones have lower end 1, the other
    1 or a*(n*n - 1) + n have 0.
    `narrow` raises a lower end only to a constraint's `at_least`, and only
    each rule's margin has `at_least` 1. So at most one unknown per rule
    goes from 0..bound to 1..bound.
    """
    if not system.rules:
        return None
    arities = system.signature.symbols().values()
    n, ones = shape.param, sum(arities)
    if shape.kind == "poly" and n > 1 and max(arities, default=0) > 1:
        return None
    zeros = len(arities) if shape.kind == "poly" else (n * n - 1) * ones + n * len(arities)
    raised = min(zeros, len(system.rules))
    return bound ** (ones + raised) * (bound + 1) ** (zeros - raised)


def solve_box(
    cs: ConstraintSet, bound: int, limit: int, timeout: float = 60.0, cancel: CancelToken | None = None
) -> SolverResult:
    """What `run_solver` reads from `python -m ptrs.boxsolver --limit LIMIT`
    given `emit_smtlib(cs, bound)`, found in process with no script
    written or read. The search stops on timeout or cancel, and the outcome
    is the one the killed child gives."""
    deadline = monotonic() + timeout

    def stop() -> bool:
        return (cancel is not None and cancel.cancelled) or monotonic() > deadline

    status, values = solve_sums(*cs.search_args(bound), limit, stop)
    if monotonic() > deadline:
        return SolverResult("unknown", detail=f"solver timed out after {timeout}s")
    if cancel is not None and cancel.cancelled:
        return SolverResult("unknown", detail="cancelled")
    if status == "sat":
        return SolverResult("sat", model={spec.name: value for spec, value in zip(cs.unknowns, values)})
    if status == "unsat":
        return SolverResult("unsat")
    return SolverResult("unknown", detail="solver answered unknown")


def _read_reply(out: str, err: str, returncode: int) -> SolverResult:
    """A solver's answer from its stdout; without a verdict, the first line
    of stderr (else stdout, else the exit code) goes into the detail."""
    verdict = None
    for line in out.splitlines():
        word = line.strip()
        if word in ("sat", "unsat", "unknown"):
            verdict = word
            break
    if verdict is None:
        detail = (err or out or "").strip().splitlines()
        head = detail[0] if detail else f"exit code {returncode}"
        return SolverResult("error", detail=f"no verdict in solver output ({head})")
    if verdict == "sat":
        try:
            model = parse_model(out)
        except ValueError as exc:
            return SolverResult("error", detail=str(exc))
        return SolverResult("sat", model=model)
    if verdict == "unsat":
        return SolverResult("unsat")
    return SolverResult("unknown", detail="solver answered unknown")


_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]+)?")  # an SMT-LIB numeral or decimal


def _model_value(name: str, node) -> Fraction:
    """The value given to name: a numeral or decimal, or (- v) or (/ a b)
    of values. No other atom is read: `Fraction` would take exponents, so
    a reply like 1e10000000 would cost seconds past the solver's timeout."""
    values: list[Fraction] = []
    stack = [(node, False)]
    while stack:
        item, ready = stack.pop()
        if ready and item[0] == "-":
            values.append(-values.pop())
        elif ready:
            divisor = values.pop()
            if divisor == 0:
                raise ValueError(f"model value of {name} divides by zero")
            values.append(values.pop() / divisor)
        elif isinstance(item, list):
            if not (len(item) == 2 and item[0] == "-" or len(item) == 3 and item[0] == "/"):
                raise ValueError(f"cannot read the model value of {name}")
            stack.append((item, True))
            stack.extend((arg, False) for arg in reversed(item[1:]))
        else:
            try:
                if not _NUMBER.fullmatch(item):
                    raise ValueError
                values.append(Fraction(item))
            except ValueError:  # also past Python's limit on digits
                raise ValueError(f"cannot read the model value of {name}: {item!r}") from None
    return values[0]


def parse_model(text: str) -> dict[str, Fraction]:
    """Pull (define-fun name () Int value) entries out of solver output.

    After the `sat` line, every list is a define-fun or a model: a list of
    entries, optionally headed by `model`, each a list headed by a keyword.
    Entries other than constant define-funs are skipped.
    """
    lines = text.splitlines()
    start = next((i for i, line in enumerate(lines) if line.strip() == "sat"), -1)
    try:
        nodes = parse_script("\n".join(lines[start + 1 :]))
    except ScriptError as exc:
        raise ScriptError(f"{exc} in solver output") from None
    model: dict[str, Fraction] = {}
    for node in nodes:
        if not isinstance(node, list):
            continue
        if node[:1] == ["define-fun"]:
            entries = [node]
        elif node[:1] == ["model"]:
            entries = node[1:]
        else:
            entries = node
        for entry in entries:
            if not isinstance(entry, list) or not entry or not isinstance(entry[0], str):
                raise ValueError("solver output after sat is not a model")
            if len(entry) >= 5 and entry[0] == "define-fun" and isinstance(entry[1], str) and entry[2] == []:
                model[entry[1]] = _model_value(entry[1], entry[4])
    return model


def decode(encoded: EncodedProblem, model: Mapping[str, int | Fraction], bound: int) -> Interpretation:
    """The shape's interpretation: its table with every unknown at its model
    value, a polynomial's zeros dropped. A value that is missing, not an
    integer or off the box lo..bound is rejected. The table is in the form
    the constructors store, so it is wrapped without their checks."""
    values: list[int] = []
    for spec in encoded.constraint_set.unknowns:
        if spec.name not in model:
            raise ModelDecodeError(f"model misses unknown {spec.name}")
        value = model[spec.name]
        if value.__class__ is not int:
            value = Fraction(value)
            if value.denominator != 1:
                raise ModelDecodeError(f"{spec.name} = {value} is not an integer")
            value = value.numerator
        if not spec.lo <= value <= bound:
            raise ModelDecodeError(f"{spec.name} = {value} outside box {spec.lo}..{bound}")
        values.append(value)
    arities = {sym: encoded.system.signature.arity(sym) for sym in encoded.table}
    if encoded.shape.kind == "poly":
        table = {sym: tuple((V, values[p]) for V, p in row if values[p]) for sym, row in encoded.table.items()}
        return PolyInterpretation._from_table(arities, table)
    table = {
        sym: (
            tuple(tuple(tuple(values[p] for p in row) for row in grid) for grid in grids),
            tuple(values[p] for p in const),
        )
        for sym, (grids, const) in encoded.table.items()
    }
    return MatrixInterpretation._from_table(arities, encoded.shape.param, table)
