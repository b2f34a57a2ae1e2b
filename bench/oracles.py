"""Output checks for benchmark ops, each independent of the code path it checks.

An op fails when its check returns a message; the benchmark never catches
and skips a mismatch.

- walk: rw34.wst from s^k(0) (outermost or innermost) and --family rw are
  the same height walk. A Fraction dynamic program over heights gives every
  mass and edl line and the final multiset exactly.
- prove: the verdict each input class must get, the exit code, and every
  printed YES certificate re-read by certtext.parse_interpretation and
  accepted by prover.check_only.
- drift: valid ops report ok; forged-epsilon ops report a violation whose
  numbers really violate the drift inequality.
- digest: sha256 of stdout plus the exit code, against references recorded
  by record_digests.py.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from workloads import SHIPPED_VERDICTS, nest

REFERENCE_DIGESTS = Path(__file__).with_name("reference_digests.json")

EXIT_CODES = {"YES": 0, "MAYBE": 1}
DEFAULT_SHAPE_LINES = ("poly-linear:", "poly-multilinear-2:", "matrix-2:", "matrix-3:")


def stdout_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def load_reference_digests() -> dict[str, dict]:
    return json.loads(REFERENCE_DIGESTS.read_text())["digests"]


# ---------------------------------------------------------------------------
# walk


class WalkOracle:
    """Height walk h -> h-1 with probability p, h -> h+1 otherwise; 0 is terminal.

    Results are memoised per (p, start), extended to the longest run asked for.
    """

    def __init__(self) -> None:
        self._runs: dict[tuple[Fraction, int], list[dict[int, Fraction]]] = {}

    def states(self, p: Fraction, start: int, steps: int) -> list[dict[int, Fraction]]:
        run = self._runs.setdefault((p, start), [{start: Fraction(1)}])
        while len(run) <= steps:
            nxt: dict[int, Fraction] = defaultdict(Fraction)
            for h, q in run[-1].items():
                if h > 0:
                    nxt[h - 1] += q * p
                    nxt[h + 1] += q * (1 - p)
            run.append(dict(nxt))
        return run[: steps + 1]

    def expected_lines(self, p: Fraction, start: int, steps: int) -> list[str]:
        lines, edl = [], Fraction(0)
        for depth, state in enumerate(self.states(p, start, steps)):
            mass = sum(state.values(), Fraction(0))
            if depth:
                edl += mass
            lines.append(f"step {depth}: mass {mass}, edl {edl}")
        return lines


def walk_material(stdout: str) -> dict:
    """What the walk check needs, so the full stdout need not be kept."""
    lines = stdout.splitlines()
    return {
        "head": lines[0] if lines else "",
        "steps": [line for line in lines if line.startswith("step ")],
        "outcome": next((line for line in lines if line.startswith("outcome: ")), ""),
        "lines": len(lines),
    }


def _render_height(h: int, view: str) -> str:
    return nest("s", h) if view == "term" else str(h)


def _parse_outcome(line: str) -> dict[str, Fraction]:
    """Sum the printed entries per object; walk objects contain no commas."""
    body = line[len("outcome: {"):-1]
    totals: dict[str, Fraction] = defaultdict(Fraction)
    for entry in filter(None, body.split(", ")):
        weight, _, obj = entry.partition(": ")
        totals[obj] += Fraction(weight)
    return dict(totals)


def check_walk(oracle: WalkOracle, spec: tuple, argv: tuple, rc: int, material: dict) -> str | None:
    _, p_text, start, steps, collapse, view = spec
    p = Fraction(p_text)
    if rc != 0:
        return f"exit code {rc}, expected 0"
    mode = argv[argv.index("--mode") + 1] if "--mode" in argv else "outermost"
    head = f"start {argv[argv.index('--start') + 1]}, steps {steps}, mode {mode}"
    if material["head"] != head:
        return f"header {material['head']!r}, expected {head!r}"
    expected = oracle.expected_lines(p, start, steps)
    if material["steps"] != expected:
        got = material["steps"]
        for i, (a, b) in enumerate(zip(got, expected)):
            if a != b:
                return f"line {i}: {a!r}, oracle says {b!r}"
        return f"{len(got)} step lines, oracle has {len(expected)}"
    if material["lines"] != steps + 3:
        return f"{material['lines']} stdout lines, expected {steps + 3}"
    final = {h: q for h, q in oracle.states(p, start, steps)[-1].items() if q}
    if collapse:
        items = sorted((_render_height(h, view), q) for h, q in final.items())
        line = "outcome: {" + ", ".join(f"{q}: {obj}" for obj, q in items) + "}"
        if material["outcome"] != line:
            return f"outcome {material['outcome'][:80]!r}..., oracle says {line[:80]!r}..."
    else:
        want = {_render_height(h, view): q for h, q in final.items()}
        if _parse_outcome(material["outcome"]) != want:
            return "outcome multiset differs from the oracle's final distribution"
    return None


# ---------------------------------------------------------------------------
# prove


def check_prove(spec: tuple, rc: int, stdout: str) -> str | None:
    from ptrs.prover import check_only
    from ptrs.wst import load_system

    path, cls = spec[1], spec[2]
    if cls == "shipped":
        want, shape = SHIPPED_VERDICTS[spec[3]]
    else:
        want, shape = ("YES", "poly-linear") if cls == "yes" else ("MAYBE", None)
    lines = stdout.splitlines()
    verdict = lines[0] if lines else ""
    if verdict != want:
        return f"verdict {verdict!r}, expected {want}"
    if rc != EXIT_CODES[want]:
        return f"exit code {rc} for {verdict}"
    if want == "MAYBE":
        shapes = tuple(line.split()[0] for line in lines[2:])
        if lines[1:2] != ["no certificate found:"] or shapes != DEFAULT_SHAPE_LINES:
            return "MAYBE report does not list the four default shapes"
        return None
    if lines[1:2] != [f"shape: {shape}"]:
        return f"{lines[1:2]}, expected shape {shape}"
    certificate = "\n".join(lines[2:]) + "\n"
    recheck = check_only(load_system(path), certificate)
    if recheck.kind != "YES":
        return f"printed certificate is not accepted: {recheck.kind} {recheck.problems or recheck.error}"
    if lines[-1] != f"epsilon = {recheck.certificate.epsilon}":
        return f"printed {lines[-1]!r}, rechecked epsilon is {recheck.certificate.epsilon}"
    return None


# ---------------------------------------------------------------------------
# drift


def check_drift(forged: bool, trials: int, report) -> str | None:
    if not forged:
        if report.violation is not None:
            return f"valid certificate reported a violation: {report.violation}"
        if report.trials != trials or report.checks < 1:
            return f"ran {report.trials} trials and {report.checks} checks, expected {trials} trials"
        return None
    v = report.violation
    if v is None:
        return "forged epsilon went undetected"
    if not v.rank_before < v.rank_after + v.epsilon * v.successor.mass():
        return f"reported violation does not violate the drift inequality: {v}"
    return None


# ---------------------------------------------------------------------------
# digest


def check_digest(references: dict[str, dict], key: str, rc: int, digest: str) -> str | None:
    ref = references.get(key)
    if ref is None:
        return f"no reference digest for {key!r}"
    if (rc, digest) != (ref["exit"], ref["sha256"]):
        return f"stdout digest {digest[:12]} exit {rc}, reference {ref['sha256'][:12]} exit {ref['exit']}"
    return None
