"""Bounded-box solver for the SMT-LIB fragment the encoder emits.

Reads a script on stdin, searches the integer assignments inside the
asserted per-variable bounds, and answers like a real solver would: `sat`
with a checked model, `unsat` only after ruling out every point of a fully
bounded box (or when the bounds themselves are contradictory), `unknown`
when a variable has no asserted bounds or the box holds more points than the
assignment budget. The budget counts the box's points, however few of them
the search visits.

The search is depth first: it fixes the declared variables in declaration
order, each to ascending values, so it meets the points of the box in
lexicographic order and its first model is the first model of the box. At
each node it evaluates the assertions over the remaining sub-box with exact
integer interval arithmetic (three-valued for the connectives) and cuts the
subtree as soon as one assertion is definitely false. A caller of `solve`
may pass `stop`, which is asked at the root and then every 1024 search nodes
whether to give up; a search given up answers `unknown`.

Arithmetic understood: + - * and the predicates >= <= > < = plus and/or/not.
Every script is checked before the search; an unsupported, ill-sorted or
malformed term raises ScriptError. Useful wherever a real SMT solver is not
installed; the default coefficient boxes of the encoder stay within reach
for linear shapes.

`solve_sums` gives the same answer for the constraints the encoder would
emit, handed over as sums of products with no script: it narrows the box,
compares it with the budget, and only then builds the programs it searches.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections.abc import Callable
from math import prod
from operator import eq, ge, gt, itemgetter, le, lt

DEFAULT_LIMIT = 200_000


class ScriptError(ValueError):
    pass


# a parenthesis, a `;` comment up to the end of its line, or an atom
_TOKEN = re.compile(r"[()]|;[^\n]*|[^\s();]+")


def parse_script(text: str) -> list:
    out: list = []
    stack = [out]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            node: list = []
            stack[-1].append(node)
            stack.append(node)
        elif tok == ")":
            if len(stack) == 1:
                raise ScriptError("unbalanced ')'")
            stack.pop()
        elif tok[0] != ";":
            stack[-1].append(tok)
    if len(stack) != 1:
        raise ScriptError("unbalanced '('")
    return out


# Every operation has two readings. On a point of the box an Int term is an
# int and a Bool term a bool. On a sub-box an Int term is the interval
# (lo, hi) of the values it takes there, and a Bool term is True or False
# when it takes one value there and None when it may take both.


def _minus(args):
    return -args[0] if len(args) == 1 else args[0] - sum(args[1:])


def _points_chain(test):
    """A chained predicate on points: every adjacent pair passes `test`."""
    return lambda args: all(map(test, args, args[1:]))


def _add(args):
    lo = hi = 0
    for a, b in args:
        lo += a
        hi += b
    return lo, hi


def _sub(args):
    lo, hi = args[0]
    if len(args) == 1:
        return -hi, -lo
    for a, b in args[1:]:
        lo -= b
        hi -= a
    return lo, hi


def _mul(args):
    lo, hi = args[0]
    for a, b in args[1:]:
        if a >= 0 and lo >= 0:
            lo, hi = lo * a, hi * b
        elif a >= 0:
            lo, hi = lo * b, (hi * a if hi <= 0 else hi * b)
        else:
            ends = (lo * a, lo * b, hi * a, hi * b)
            lo, hi = min(ends), max(ends)
    return lo, hi


def _boxes_chain(definitely, possibly):
    """A chained predicate on sub-boxes, from its two tests on a pair."""

    def apply(args):
        result = True
        for x, y in zip(args, args[1:]):
            if not possibly(x, y):
                return False
            if result and not definitely(x, y):
                result = None
        return result

    return apply


def _and(args):
    return False if False in args else None if None in args else True


def _or(args):
    return True if True in args else None if None in args else False


def _not(args):
    return None if args[0] is None else not args[0]


INT, BOOL = "Int", "Bool"


def _comparison(test, definitely, possibly):
    """A chained comparison of Ints, from `test` on a pair of ints and its
    two readings on a pair of intervals."""
    return _points_chain(test), _boxes_chain(definitely, possibly), 2, None, INT, BOOL


# op: (on points, on sub-boxes, fewest and most arguments, argument sort, result sort)
_OPERATIONS = {
    "+": (sum, _add, 1, None, INT, INT),
    "-": (_minus, _sub, 1, None, INT, INT),
    "*": (prod, _mul, 1, None, INT, INT),
    ">=": _comparison(ge, lambda x, y: x[0] >= y[1], lambda x, y: x[1] >= y[0]),
    "<=": _comparison(le, lambda x, y: x[1] <= y[0], lambda x, y: x[0] <= y[1]),
    ">": _comparison(gt, lambda x, y: x[0] > y[1], lambda x, y: x[1] > y[0]),
    "<": _comparison(lt, lambda x, y: x[1] < y[0], lambda x, y: x[0] < y[1]),
    "=": _comparison(eq, lambda x, y: x[0] == x[1] == y[0] == y[1], lambda x, y: x[0] <= y[1] and y[0] <= x[1]),
    "and": (all, _and, 0, None, BOOL, BOOL),
    "or": (any, _or, 0, None, BOOL, BOOL),
    "not": (lambda args: not args[0], _not, 1, 1, BOOL, BOOL),
}
# `=` on Bools, chosen by the sort of the first argument
_BOOL_EQUAL = (
    _points_chain(eq),
    _boxes_chain(lambda x, y: x is not None and x == y, lambda x, y: x is None or y is None or x == y),
    2, None, BOOL, BOOL,
)


def _program(term, index: dict[str, int]) -> tuple[list, list, set[int]]:
    """Check one asserted term and translate it into two postfix programs,
    one for points and one for sub-boxes, plus the positions of the
    variables it reads.

    The walk is iterative, so nesting depth is no limit. It raises
    ScriptError for an unknown atom or operation, an operation with too few
    or too many arguments, an argument of the wrong sort, and a term that is
    not Bool. An instruction is (-1, position) for a variable, (0, value)
    for a constant, and (n, function) for an operation on the last n values.
    """
    point_code: list = []
    box_code: list = []
    positions: set[int] = set()
    sorts: list[str] = []
    todo = [term]  # terms to visit, and (term,) once its arguments are done
    while todo:
        node = todo.pop()
        if type(node) is str:
            position = index.get(node)
            if position is not None:
                point_code.append((-1, position))
                box_code.append((-1, position))
                positions.add(position)
            else:
                try:
                    value = int(node)
                except ValueError:
                    raise ScriptError(f"unknown atom {node!r}") from None
                point_code.append((0, value))
                box_code.append((0, (value, value)))
            sorts.append(INT)
            continue
        if type(node) is list:
            if not node:
                raise ScriptError("empty expression")
            todo.append((node,))
            todo.extend(node[:0:-1])
            continue
        node = node[0]
        op, n = node[0], len(node) - 1
        args = sorts[len(sorts) - n :]
        del sorts[len(sorts) - n :]
        if not isinstance(op, str):
            raise ScriptError("unsupported operation: a term in operator position")
        if op not in _OPERATIONS:
            raise ScriptError(f"unsupported operation {op!r}")
        entry = _BOOL_EQUAL if op == "=" and args[:1] == [BOOL] else _OPERATIONS[op]
        at_point, on_box, fewest, most, wanted, result = entry
        if n < fewest:
            raise ScriptError(f"{op} needs {'two arguments' if fewest == 2 else 'an argument'}")
        if most is not None and n > most:
            raise ScriptError(f"{op} takes one argument")
        if args.count(wanted) != n:
            raise ScriptError(f"{op} needs {wanted} arguments")
        operands = point_code[len(point_code) - n :]
        if not any(map(itemgetter(0), operands)):  # an operation on constants is a constant
            value = at_point([constant for _, constant in operands])
            del point_code[len(point_code) - n :], box_code[len(box_code) - n :]
            point_code.append((0, value))
            box_code.append((0, (value, value) if result == INT else value))
        else:
            point_code.append((n, at_point))
            box_code.append((n, on_box))
        sorts.append(result)
    if sorts != [BOOL]:
        raise ScriptError("an assertion must be a Bool term")
    return point_code, box_code, positions


def _run(program: list, variables: list):
    """The program's value, with variable i read as variables[i]: its value
    at a point, or its interval over a sub-box."""
    stack: list = []
    push = stack.append
    for n, arg in program:
        if n < 0:
            push(variables[arg])
        elif n == 0:
            push(arg)
        else:
            args = stack[-n:]
            del stack[-n:]
            push(arg(args))
    return stack[0]


def _literal(node) -> int | None:
    sign = 1
    while isinstance(node, list):
        if len(node) != 2 or node[0] != "-":
            return None
        sign, node = -sign, node[1]
    try:
        return sign * int(node)
    except ValueError:
        return None


class Box:
    def __init__(self) -> None:
        self.lo: dict[str, int] = {}
        self.hi: dict[str, int] = {}

    def tighten(self, name: str, lo: int | None = None, hi: int | None = None) -> None:
        if lo is not None:
            self.lo[name] = max(lo, self.lo.get(name, lo))
        if hi is not None:
            self.hi[name] = min(hi, self.hi.get(name, hi))


def _extract_bounds(node, declared: dict[str, int], box: Box) -> None:
    """Recognize (>= x 3), (<= 3 x), (= x 3) and alike on declared names."""
    if not isinstance(node, list) or len(node) != 3:
        return
    op, a, b = node
    if isinstance(a, str) and a in declared and (value := _literal(b)) is not None:
        name, k, flipped = a, value, False
    elif isinstance(b, str) and b in declared and (value := _literal(a)) is not None:
        name, k, flipped = b, value, True
    else:
        return
    if op == "=":
        box.tighten(name, lo=k, hi=k)
    elif (op, flipped) in ((">=", False), ("<=", True)):
        box.tighten(name, lo=k)
    elif (op, flipped) in (("<=", False), (">=", True)):
        box.tighten(name, hi=k)
    elif (op, flipped) in ((">", False), ("<", True)):
        box.tighten(name, lo=k + 1)
    elif (op, flipped) in (("<", False), (">", True)):
        box.tighten(name, hi=k - 1)


_STOPPED = object()


def _search(programs: list, lo: list[int], hi: list[int], stop: Callable[[], bool] | None):
    """The first point of the box lo..hi, in lexicographic order, on which
    every program is true; None when there is none, _STOPPED when `stop`,
    asked at the root and then every 1024 nodes, says to give up.

    A node fixes one more variable. Only the programs that read it can
    change value there, so only those are evaluated: at the point when it
    is the last variable they read, else over the sub-box. A program true
    over a sub-box stays true below it and is not evaluated there again.
    """
    if stop is not None and stop():
        return _STOPPED
    depth = len(lo)
    whole = list(zip(lo, hi))
    settled = []  # per program, the depth of the node it is known true below
    for _, box_code, _ in programs:
        value = _run(box_code, whole)
        if value is False:
            return None
        settled.append(-1 if value else depth)
    if not depth:
        return []
    readers: list[list] = [[] for _ in range(depth)]
    for i, (point_code, box_code, positions) in enumerate(programs):
        if positions:
            last = max(positions)
            readers[last].insert(0, (i, point_code, True))
            for position in positions - {last}:
                readers[position].append((i, box_code, False))
    point = list(lo)  # the values fixed so far, and the next value to try at depth d
    box = list(whole)  # the sub-box below the node
    d = 0
    nodes = 0
    while True:
        value = point[d]
        if value > hi[d]:
            if not d:
                return None
            point[d], box[d] = lo[d], whole[d]
            d -= 1
            point[d] += 1
            continue
        nodes += 1
        if stop is not None and not nodes % 1024 and stop():
            return _STOPPED
        box[d] = (value, value)
        for i, program, at_point in readers[d]:
            if settled[i] < d:
                continue
            result = _run(program, point if at_point else box)
            if result is False:
                point[d] = value + 1
                break
            settled[i] = d if result else depth
        else:
            if d == depth - 1:
                return point
            d += 1


# Σ monomials >= at_least: the one predicate of the sum-of-products form
_AT_LEAST = _OPERATIONS[">="]


def _sum_program(monomials: list, at_least: int) -> tuple[list, list, set[int]]:
    """The point and box programs, and the variables read, of one constraint
    of the sum-of-products form: the programs `_program` builds from the
    assertion `emit_smtlib` writes for it, read off the monomials directly."""
    point_code: list = []
    box_code: list = []
    positions: set[int] = set()
    for coefficient, variables in monomials:
        n = len(variables)
        if coefficient != 1 or not n:
            point_code.append((0, coefficient))
            box_code.append((0, (coefficient, coefficient)))
            n += 1
        for position in variables:
            point_code.append((-1, position))
            box_code.append((-1, position))
        if n > 1:
            point_code.append((n, prod))
            box_code.append((n, _mul))
        positions.update(variables)
    n = len(monomials)
    if not n:  # the zero polynomial
        point_code.append((0, 0))
        box_code.append((0, (0, 0)))
    elif n > 1:
        point_code.append((n, sum))
        box_code.append((n, _add))
    point_code += (0, at_least), (2, _AT_LEAST[0])
    box_code += (0, (at_least, at_least)), (2, _AT_LEAST[1])
    return point_code, box_code, positions


def narrow(lo: list[int], hi: list[int], constraints: list) -> tuple[list[int], int]:
    """The box `solve_sums` searches, given as its lower ends and its number
    of points (0 when it is empty). Each constraint that is one variable
    with coefficient 1 raises that variable's lower end: those are the only
    bounds `_extract_bounds` finds among the assertions `emit_smtlib`
    writes for the constraints."""
    lo = list(lo)
    for monomials, at_least in constraints:
        match monomials:
            case [(1, [position])]:
                lo[position] = max(lo[position], at_least)
    return lo, prod(max(0, h - l + 1) for l, h in zip(lo, hi))


def solve_sums(
    lo: list[int],
    hi: list[int],
    constraints: list,
    limit: int = DEFAULT_LIMIT,
    stop: Callable[[], bool] | None = None,
) -> tuple[str, list[int] | None]:
    """The answer of `solve` to the script of a constraint set, found
    without one: ("sat", first model), ("unsat", None) or ("unknown", None).

    Variable i ranges over lo[i]..hi[i]. Each constraint is a pair
    (monomials, at_least), meaning Σ coefficient · Π variables >= at_least
    over its monomials (coefficient, positions of the variables). The box
    is narrowed first (`narrow`); an empty box is unsat and one over `limit`
    points unknown, and no program is built before that. `stop` is asked
    at the root and then every 1024 search nodes whether to give up; a
    stopped search answers unknown.
    """
    lo, count = narrow(lo, hi, constraints)
    if not count:
        return "unsat", None
    if count > limit:
        return "unknown", None
    programs = [_sum_program(monomials, at_least) for monomials, at_least in constraints]
    found = _search(programs, lo, hi, stop)
    if found is _STOPPED:
        return "unknown", None
    if found is None:
        return "unsat", None
    return "sat", found


def solve(text: str, limit: int = DEFAULT_LIMIT, stop: Callable[[], bool] | None = None) -> list[str]:
    """The reply lines for one script. `stop`, when given, is asked every
    1024 search nodes whether to give up; a stopped search answers `unknown`."""
    script = parse_script(text)
    declared: list[str] = []
    asserts: list = []
    wants_answer = False
    wants_model = False
    for node in script:
        if not isinstance(node, list) or not node:
            continue
        head = node[0]
        if head == "declare-const":
            if len(node) != 3 or not isinstance(node[1], str) or node[2] != "Int":
                raise ScriptError("only (declare-const name Int) is supported")
            declared.append(node[1])
        elif head == "declare-fun":
            if len(node) != 4 or not isinstance(node[1], str) or node[2] != [] or node[3] != "Int":
                raise ScriptError("only zero-ary Int declare-fun is supported")
            declared.append(node[1])
        elif head == "assert":
            if len(node) != 2:
                raise ScriptError("assert takes one term")
            body = node[1]
            if isinstance(body, list) and body and body[0] == "and":
                asserts.extend(body[1:])
            else:
                asserts.append(body)
        elif head == "check-sat":
            wants_answer = True
        elif head == "get-model":
            wants_model = True
        # set-logic, set-info, set-option, exit: nothing to do
    if not wants_answer:
        return []

    # a name declared twice reads as its last declaration
    index = {name: i for i, name in enumerate(declared)}
    programs = [_program(node, index) for node in asserts]
    box = Box()
    for node in asserts:
        _extract_bounds(node, index, box)
    if any(name in box.lo and name in box.hi and box.lo[name] > box.hi[name] for name in declared):
        return ["unsat"]
    lo = [box.lo.get(name, 0) for name in declared]
    hi = [box.hi.get(name, 16) for name in declared]
    count = prod(max(0, h - l + 1) for l, h in zip(lo, hi))
    if count > limit:
        return ["unknown"]

    found = _search(programs, lo, hi, stop) if count else None
    if found is _STOPPED:
        return ["unknown"]
    if found is None:
        fully_bounded = all(name in box.lo and name in box.hi for name in declared)
        return ["unsat"] if fully_bounded else ["unknown"]
    lines = ["sat"]
    if wants_model:
        lines.append("(")
        for name in declared:
            value = found[index[name]]
            rendered = str(value) if value >= 0 else f"(- {-value})"
            lines.append(f"  (define-fun {name} () Int {rendered})")
        lines.append(")")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="ptrs.boxsolver")
    parser.add_argument("--limit", type=int, default=DEFAULT_LIMIT, help="assignment budget")
    args = parser.parse_args(argv)
    text = sys.stdin.read()
    try:
        for line in solve(text, args.limit):
            print(line)
    except ScriptError as exc:
        print(f"(error \"{exc}\")")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
