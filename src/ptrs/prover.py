"""Portfolio termination prover.

Tries a sequence of interpretation shapes against an external SMT solver,
or in process against the shipped box solver.
The first shape whose model survives exact re-validation yields YES; if
every shape comes back unsat, unknown, or unusable the answer is MAYBE.
The prover never answers NO: failure to find a certificate proves nothing.
"""

from __future__ import annotations

import os
from typing import Callable, NamedTuple

from .certtext import CertParseError, parse_interpretation, render_certificate, render_interpretation
from .interpretations import Certificate, CertificateInvalid, DegreeOverflow, check_certificate
from .rules import PTRS
from .smt import (
    CancelToken,
    ConstraintSet,
    DEFAULT_SHAPES,
    EncodingError,
    ModelDecodeError,
    Shape,
    SolverResult,
    box_floor,
    decode,
    emit_smtlib,
    encode,
    in_process_limit,
    run_solver,
    solve_box,
)


class ProverError(Exception):
    """Internal inconsistency, e.g. a decoded model that fails validation."""


class ProverConfig(NamedTuple):
    shapes: tuple[Shape, ...] = DEFAULT_SHAPES
    solver: str = "z3 -in"
    timeout: float = 60.0
    coeff_bound: int = 16
    parallel: bool = False
    emit_smt: str | None = None  # directory that receives one <shape>.smt2 per attempt


class ShapeOutcome(NamedTuple):
    shape: Shape
    status: str  # proved | unsat | unknown | degree-overflow | solver-error | cancelled
    detail: str = ""


class Verdict(NamedTuple):
    kind: str  # YES | MAYBE | ERROR
    certificate: Certificate | None = None
    shape: Shape | None = None
    outcomes: tuple[ShapeOutcome, ...] = ()
    problems: tuple[str, ...] = ()
    error: str = ""


def _attempt(
    system: PTRS,
    shape: Shape,
    config: ProverConfig,
    cancel: CancelToken,
    limit: int | None,
    unsat_sets: list[ConstraintSet] | None = None,
    note: Callable[[Shape, int, int], None] | None = None,
) -> tuple[ShapeOutcome, Certificate | None]:
    """Encode, solve, decode and check one shape: in process with box budget
    `limit` (see `in_process_limit`), else by `config.solver` as a child.
    The encoding takes no bound; the set is searched or emitted, and a
    model decoded, with every coefficient at most `config.coeff_bound`.
    `decode` fills the encoding's coefficient table with the model, and
    that table is the interpretation `check_certificate` reads: no
    constructor runs and no coefficient is copied.
    In process and with no script to emit, a shape whose box `box_floor`
    already puts over `limit` gets the box solver's `unknown` without being
    encoded, and `note(shape, floor, limit)` is told. A constraint set in
    `unsat_sets` is answered unsat without solving it, and a set that comes
    back unsat is added to it."""
    if cancel.cancelled:
        return ShapeOutcome(shape, "cancelled", "portfolio already finished"), None
    floor = None
    if limit is not None and config.emit_smt is None:
        floor = box_floor(system, shape, config.coeff_bound)
    if floor is not None and floor > limit:
        if note is not None:
            note(shape, floor, limit)
        result = SolverResult("unknown", detail="solver answered unknown")
    else:
        try:
            encoded = encode(system, shape)
        except DegreeOverflow as exc:
            return ShapeOutcome(shape, "degree-overflow", str(exc)), None
        except EncodingError as exc:
            raise ProverError(f"cannot encode {shape}: {exc}") from exc
        result = _solve(encoded.constraint_set, shape, config, cancel, limit, unsat_sets)
    if result.status == "sat":
        try:
            interp = decode(encoded, result.model or {}, config.coeff_bound)
        except ModelDecodeError as exc:
            return ShapeOutcome(shape, "solver-error", f"unusable model: {exc}"), None
        try:
            cert = check_certificate(interp, system)
        except CertificateInvalid as exc:
            # The solver said sat and the model decoded cleanly, yet exact
            # validation rejects it: the encoding and the checker disagree.
            raise ProverError(
                f"model for shape {shape} failed validation: " + "; ".join(exc.problems)
            ) from exc
        return ShapeOutcome(shape, "proved", f"epsilon = {cert.epsilon}"), cert
    if result.status == "unsat":
        return ShapeOutcome(shape, "unsat", f"no such interpretation with coefficients 0..{config.coeff_bound}"), None
    if result.status == "unknown":
        if cancel.cancelled:
            return ShapeOutcome(shape, "cancelled", "another shape finished first"), None
        return ShapeOutcome(shape, "unknown", result.detail), None
    return ShapeOutcome(shape, "solver-error", result.detail), None


def _solve(cs, shape, config, cancel, limit, unsat_sets) -> SolverResult:
    """The answer on one encoded shape's constraint set `cs`, with its
    script written when `config.emit_smt` asks (see `_attempt`)."""
    if limit is None or config.emit_smt is not None:
        script = emit_smtlib(cs, config.coeff_bound)
    if config.emit_smt is not None:
        os.makedirs(config.emit_smt, exist_ok=True)
        with open(os.path.join(config.emit_smt, f"{shape}.smt2"), "w") as handle:
            handle.write(script)
    # equal sets emit equal scripts at one bound; `unsat_sets` lives for one
    # `prove` call, whose attempts all search at `config.coeff_bound`. Sets
    # compare with ==, under which a polynomial's monomials count in any order.
    if unsat_sets is not None and cs in unsat_sets:
        return SolverResult("unsat")
    if limit is not None:
        result = solve_box(cs, config.coeff_bound, limit, timeout=config.timeout, cancel=cancel)
    else:
        result = run_solver(script, config.solver, timeout=config.timeout, cancel=cancel)
    if unsat_sets is not None and result.status == "unsat":
        unsat_sets.append(cs)
    return result


def prove(
    system: PTRS,
    config: ProverConfig = ProverConfig(),
    note: Callable[[Shape, int, int], None] | None = None,
) -> Verdict:
    """Run the shape portfolio and return YES with a certificate or MAYBE.
    `note(shape, floor, limit)` is told of each shape answered unknown
    because at least `floor` box points exceed the in-process budget `limit`."""
    cancel = CancelToken()
    limit = in_process_limit(config.solver)
    try:
        # in-process lanes would take turns on one interpreter: they run in order
        if config.parallel and len(config.shapes) > 1 and limit is None:
            results = _run_parallel(system, config, cancel)
        else:
            results = _run_sequential(system, config, cancel, limit, note)
    except ProverError as exc:
        cancel.cancel()
        return Verdict("ERROR", error=str(exc))
    outcomes = tuple(outcome for outcome, _ in results)
    for outcome, cert in results:
        if cert is not None:
            return Verdict("YES", certificate=cert, shape=outcome.shape, outcomes=outcomes)
    return Verdict("MAYBE", outcomes=outcomes)


def _run_sequential(system, config, cancel, limit, note):
    # Shapes can encode the same constraint set (poly-multilinear-2 is
    # poly-linear when no symbol takes two arguments); an unsat one is
    # solved once.
    results, unsat_sets = [], []
    for shape in config.shapes:
        outcome, cert = _attempt(system, shape, config, cancel, limit, unsat_sets, note)
        results.append((outcome, cert))
        if cert is not None:
            break
    return results


def _run_parallel(system, config, cancel):
    from concurrent.futures import ThreadPoolExecutor

    # one child solver per lane
    def worker(shape: Shape):
        outcome, cert = _attempt(system, shape, config, cancel, None)
        if cert is not None:
            cancel.cancel()  # first success kills the remaining solvers
        return outcome, cert

    with ThreadPoolExecutor(max_workers=len(config.shapes)) as pool:
        futures = [pool.submit(worker, shape) for shape in config.shapes]
        return [f.result() for f in futures]


def check_only(system: PTRS, certificate_text: str) -> Verdict:
    """Validate a user-supplied certificate against the system."""
    try:
        interp = parse_interpretation(certificate_text)
    except CertParseError as exc:
        return Verdict("ERROR", error=f"certificate unreadable: {exc}")
    try:
        cert = check_certificate(interp, system)
    except CertificateInvalid as exc:
        return Verdict("MAYBE", problems=tuple(exc.problems))
    return Verdict("YES", certificate=cert)


def format_verdict(verdict: Verdict, system: PTRS) -> str:
    """Human-readable report; the first line is exactly the verdict kind."""
    lines = [verdict.kind]
    if verdict.kind == "YES":
        if verdict.shape is not None:
            lines.append(f"shape: {verdict.shape}")
        lines.append(render_certificate(verdict.certificate, system).rstrip("\n"))
    elif verdict.kind == "MAYBE":
        if verdict.problems:
            lines.append("certificate does not establish termination:")
            lines.extend(f"  {problem}" for problem in verdict.problems)
        else:
            lines.append("no certificate found:")
            for outcome in verdict.outcomes:
                tail = f" ({outcome.detail})" if outcome.detail else ""
                lines.append(f"  {outcome.shape}: {outcome.status}{tail}")
    else:
        lines.append(f"error: {verdict.error}")
    return "\n".join(lines) + "\n"


def verdict_json(verdict: Verdict, system: PTRS) -> dict:
    """JSON-ready summary; fractions are rendered as strings."""
    cert = verdict.certificate
    return {
        "verdict": verdict.kind,
        "shape": str(verdict.shape) if verdict.shape is not None else None,
        "epsilon": str(cert.epsilon) if cert is not None else None,
        "margins": [str(m) for m in cert.margins] if cert is not None else None,
        "certificate": render_interpretation(cert.interpretation) if cert is not None else None,
        "attempts": [
            {"shape": str(o.shape), "status": o.status, "detail": o.detail}
            for o in verdict.outcomes
        ],
        "problems": list(verdict.problems),
        "error": verdict.error or None,
    }
