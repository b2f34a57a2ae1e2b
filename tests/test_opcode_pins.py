"""Complexity pins: executed-bytecode counts at sizes n, 2n and 4n.

The number of opcodes an op executes is exact, where its wall time swings
from run to run, so the growth of a layer can be pinned without timing:
a linear layer must grow at most `LINEAR` times per doubling of its
input. Counts depend on the Python version, so the pins run on 3.11 only.
A count does not weigh C-level work, such as a list scan or big-int
arithmetic, so it misses a superlinear builtin.
"""

import random
import sys
from pathlib import Path

import pytest

from ptrs.certtext import load_interpretation
from ptrs.interpretations import check_certificate
from ptrs.simulator import drift_harness
from ptrs.wst import load_system

pytestmark = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                                reason="opcode counts are pinned on Python 3.11")

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
LINEAR = 2.3


def opcodes(fn) -> int:
    """The opcodes fn() executes in this thread, in every frame it runs."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return tracer

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(old)
    return count


def assert_linear(counts: list[int]) -> None:
    assert counts[0] > 0
    for before, after in zip(counts, counts[1:]):
        assert before < after <= LINEAR * before, counts


def test_drift_harness_grows_linearly_in_trials():
    # Each call is the first on a freshly loaded system, so it builds its
    # drift state too; later trials reuse what earlier ones learned.
    counts = []
    for trials in (20, 40, 80):
        system = load_system(PROBLEMS / "rw34.wst")
        cert = check_certificate(load_interpretation(PROBLEMS / "rw34.cert"), system)
        counts.append(opcodes(lambda: drift_harness(system, cert, trials=trials, max_depth=20,
                                                   rng=random.Random(0))))
    assert_linear(counts)
