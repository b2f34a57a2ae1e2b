"""Host speed, measured by a fixed pure-Python task timed between ops.

The host this benchmark was defined on runs the same code up to about 1.6x
slower for seconds to minutes at a time: a neighbour shares the core, and
process CPU time inflates exactly like wall-clock time, so no clock of this
process can tell a slow spell from slow code. The benchmark therefore times
this reference task between ops (outside every op's latency) and scales each
op's latency by how fast the task ran around it:

    scaled latency = latency * REFERENCE_S / median task time nearby

The task does the kinds of work ptrs does (recursive walks over a deep term,
rebuilding it at a position, hashing tree nodes as dict keys, Fraction
sums and matrix products) and imports nothing from ptrs, so a change to
ptrs cannot change it: a faster or slower ptrs still reads faster or slower.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from statistics import median
from time import perf_counter

# The task's time on the idle definition host (see NOTES.md), so scaled
# times read close to wall-clock times there.
REFERENCE_S = 0.0055
SHARE = 0.2  # reference time run after each op, as a share of the op's time
NEAREST = 61  # task samples nearest an op in time that set its scale


class _Node:
    __slots__ = ("head", "args", "_hash")

    def __init__(self, head: str, args: tuple["_Node", ...]):
        self.head, self.args = head, args
        self._hash = hash((head, args))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self.head == other.head and self.args == other.args


def _positions(term: _Node, path: tuple[int, ...] = ()):
    yield path, term
    for i, arg in enumerate(term.args):
        yield from _positions(arg, path + (i,))


def _replace(term: _Node, path: tuple[int, ...], new: _Node) -> _Node:
    if not path:
        return new
    i = path[0]
    return _Node(term.head, term.args[:i] + (_replace(term.args[i], path[1:], new),) + term.args[i + 1:])


def task() -> int:
    """One fixed unit of work: a step of a random walk on s^60(0), then a
    Fraction matrix power. Returns a size, so the work cannot be skipped."""
    term = _Node("0", ())
    for _ in range(60):
        term = _Node("s", (term,))
    dist: dict[_Node, Fraction] = {}
    for path, sub in _positions(term):
        if sub.head == "s":
            for weight, new in ((Fraction(3, 4), sub.args[0]), (Fraction(1, 4), _Node("s", (sub,)))):
                successor = _replace(term, path, new)
                dist[successor] = dist.get(successor, 0) + weight
    matrix = [[Fraction(i + j, 7) for j in range(4)] for i in range(4)]
    vector = [Fraction(1)] * 4
    for _ in range(20):
        vector = [sum(a * b for a, b in zip(row, vector)) for row in matrix]
    return len(dist) + len(str(vector[0]))


class Meter:
    """Runs the reference task and keeps (midpoint, duration) samples in time order."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self._owed = 0.0

    def run_for(self, seconds: float) -> float:
        """Run whole tasks until `seconds` have passed; returns the time spent."""
        spent = 0.0
        while spent < seconds:
            start = perf_counter()
            task()
            duration = perf_counter() - start
            self.times.append(start + duration / 2)
            self.durations.append(duration)
            spent += duration
        return spent

    def after_op(self, op_seconds: float) -> float:
        """Run tasks for SHARE of the op's time, carrying the remainder; returns the time spent."""
        self._owed += SHARE * op_seconds
        if self._owed <= 0:
            return 0.0
        spent = self.run_for(self._owed)
        self._owed -= spent
        return spent

    def scale(self, at: float) -> float:
        """REFERENCE_S over the median task time of the NEAREST samples around time `at`."""
        if not self.durations:
            raise RuntimeError("the reference task has not run")
        centre = bisect_left(self.times, at)
        lo = max(0, min(centre - NEAREST // 2, len(self.times) - NEAREST))
        return REFERENCE_S / median(self.durations[lo:lo + NEAREST])
