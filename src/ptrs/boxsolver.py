"""Bounded-box solver for the SMT-LIB fragment the encoder emits.

Reads a script on stdin, searches the integer assignments inside the
asserted per-variable bounds, and answers like a real solver would: `sat`
with a checked model, `unsat` only after ruling out every point of a fully
bounded box (or when the bounds themselves are contradictory), `unknown`
when a variable has no asserted bounds or the box holds more points than the
assignment budget, however few of them the search would visit.

The fragment is a conjunction of polynomial inequalities. Int terms are
numerals, declared names and + - * of Int terms; Bool terms are chained
comparisons >= <= > < = of Int terms and `and` of Bool terms. A
polynomial is a dict from monomials, sorted tuples of variable positions
in declaration order with repeats (() for the constant), to nonzero int
coefficients. `add_into`, `times`, `times_unknown` and `dot` are its
arithmetic, written here once: the script reader and the encoder's ring
(`smt.UNKNOWNS`) both compute with them. Each assertion is read into the
one constraint form the search knows, and the one `smt.encode` builds,
(polynomial, at_least), meaning polynomial >= at_least: each adjacent
pair of a comparison gives one (`=` two), and `and` the union of its
parts. The bounds are the assertions,
top-level or directly under a top-level `and`, that compare a declared
name with a literal; an open side is 0 below and 16 above. `or`, `not`,
`=` on Bools and a product of two factors of two or more monomials each
raise ScriptError, as does any unknown, ill-sorted or malformed term,
before the search. Refusing those products keeps a term's polynomial no
longer than the term has leaves.

The search fixes the declared variables depth first, in declaration order
and ascending values, so its first model is the box's first in
lexicographic order. Each node evaluates the constraints over the
remaining sub-box in exact integer interval arithmetic and cuts the
subtree once one is definitely false. `stop`, when given, is asked at the
root and then every 1024 nodes whether to give up, which answers
`unknown`. `solve_sums` answers as `solve` would, given the constraints in
that form with no script: `prove` passes the encoder's polynomials as they
are.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from functools import partial
from math import prod

DEFAULT_LIMIT = 200_000


class ScriptError(ValueError):
    pass


@contextmanager
def any_digits():
    """Lift CPython's cap on the digits of an int<->str conversion while
    the block, or each call of the function it decorates, runs, and restore
    it after: exact numbers may be of any size. Pythons without the cap
    (before 3.10.7) have no setter either."""
    cap = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


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


def _atom(node: str, index: dict[str, int]) -> dict:
    position = index.get(node)
    if position is not None:
        return {(position,): 1}
    try:
        value = int(node)
    except ValueError:
        raise ScriptError(f"unknown atom {node!r}") from None
    return {(): value} if value else {}


def add_into(total: dict, poly: dict, k: int = 1) -> dict:
    """total + k · poly, written into total, cancelled monomials dropped."""
    for monomial, coefficient in poly.items():
        coefficient = total.get(monomial, 0) + k * coefficient
        if coefficient:
            total[monomial] = coefficient
        else:
            del total[monomial]
    return total


def times(a: dict, b: dict) -> dict:
    """a · b, cancelled monomials dropped. Two keys concatenate when the
    first ends at or before the second starts, and are sorted otherwise."""
    product: dict = {}
    for m, c in a.items():
        for n, d in b.items():
            key = m + n if not (m and n) or m[-1] <= n[0] else tuple(sorted(m + n))
            coefficient = product.get(key, 0) + c * d
            if coefficient:
                product[key] = coefficient
            else:
                del product[key]
    return product


def times_unknown(p: int, poly: dict) -> dict:
    """poly · variable p."""
    return {(m + (p,) if not m or m[-1] <= p else tuple(sorted(m + (p,)))): c for m, c in poly.items()}


def dot(ps: Sequence[int], polys: Sequence[dict]) -> dict:
    """Σ polys[i] · variable ps[i], in one loop, cancelled monomials dropped."""
    out: dict = {}
    for p, poly in zip(ps, polys):
        for m, c in poly.items():
            m = m + (p,) if not m or m[-1] <= p else tuple(sorted(m + (p,)))
            c += out.get(m, 0)
            if c:
                out[m] = c
            else:
                del out[m]
    return out


def _merged(parts: list, merge: Callable) -> dict | list:
    """The parts merged into the largest of them, which is reused: a part
    is read once, so nested sums move each monomial once per doubling."""
    whole = max(parts, key=len, default=[])
    for part in parts:
        if part is not whole:
            merge(whole, part)
    return whole


def _minus(args: list) -> dict:
    first, rest = (args[0], args[1:]) if len(args) > 1 else ({}, args)  # (- x) is 0 - x
    return _merged([first, *({m: -c for m, c in poly.items()} for poly in rest)], add_into)


def _times(args: list) -> dict:
    product = args[0]
    for factor in args[1:]:
        if len(factor) > 1 < len(product):
            raise ScriptError("* takes at most one factor of two or more monomials")
        product = times(product, factor)
    return product


def _compared(ways: list, args: list) -> list:
    """The constraints of a chained comparison: for each adjacent pair x, y
    and each (sign, margin) of `ways`, sign · (x - y) >= margin."""
    constraints = []
    for x, y in zip(args, args[1:]):
        difference = add_into(dict(x), y, -1)
        constant = difference.pop((), 0)
        for sign, margin in ways:
            constraints.append(({m: sign * c for m, c in difference.items()}, margin - sign * constant))
    return constraints


# op: (fewest arguments, the type their readings must have, reading); a
# comparison gives sign · (x - y) >= margin for each (sign, margin) listed
_READINGS = {
    "+": (1, dict, partial(_merged, merge=add_into)),
    "-": (1, dict, _minus),
    "*": (1, dict, _times),
    ">=": (2, dict, partial(_compared, [(1, 0)])),
    ">": (2, dict, partial(_compared, [(1, 1)])),
    "<=": (2, dict, partial(_compared, [(-1, 0)])),
    "<": (2, dict, partial(_compared, [(-1, 1)])),
    "=": (2, dict, partial(_compared, [(1, 0), (-1, 0)])),
    "and": (0, list, partial(_merged, merge=list.extend)),
}


def _read(term, index: dict[str, int]) -> list:
    """The constraints one asserted term stands for, read by an iterative
    walk, so nesting depth is no limit. ScriptError for an unknown atom or
    operation, too few arguments, an argument of the wrong sort, a product
    of two sums, and a term that is not Bool."""
    values: list = []  # the readings of the terms read so far
    todo = [term]  # terms to visit, and (term,) once its arguments are read
    while todo:
        node = todo.pop()
        if type(node) is str:
            values.append(_atom(node, index))
        elif type(node) is list:
            if not node:
                raise ScriptError("empty expression")
            todo.append((node,))
            todo.extend(node[:0:-1])
        else:
            op, n = node[0][0], len(node[0]) - 1
            args = values[len(values) - n :]
            del values[len(values) - n :]
            if not isinstance(op, str):
                raise ScriptError("unsupported operation: a term in operator position")
            if op not in _READINGS:
                raise ScriptError(f"unsupported operation {op!r}")
            fewest, wanted, reading = _READINGS[op]
            if n < fewest:
                raise ScriptError(f"{op} needs {'two arguments' if fewest == 2 else 'an argument'}")
            if any(type(arg) is not wanted for arg in args):
                raise ScriptError(f"{op} needs {'Int' if wanted is dict else 'Bool'} arguments")
            values.append(reading(args))
    if type(values[0]) is not list:
        raise ScriptError("an assertion must be a Bool term")
    return values[0]


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


_FLIPPED = {">=": "<=", "<=": ">=", ">": "<", "<": ">", "=": "="}


def _bound(node, index: dict[str, int]) -> tuple[str, int | None, int | None] | None:
    """(name, lowest, highest) when the term `node`, which has been read,
    compares a declared name with a literal, either way round; None for a
    side it leaves open."""
    if len(node) != 3 or node[0] not in _FLIPPED:
        return None
    op, a, b = node
    if isinstance(a, str) and a in index and (k := _literal(b)) is not None:
        name = a
    elif isinstance(b, str) and b in index and (k := _literal(a)) is not None:
        name, op = b, _FLIPPED[op]
    else:
        return None
    lowest = k + (op == ">") if op in (">=", ">", "=") else None
    highest = k - (op == "<") if op in ("<=", "<", "=") else None
    return name, lowest, highest


def _holds_at(poly: dict, at_least: int, point: list[int]) -> bool:
    """Whether poly >= at_least at the point."""
    total = 0
    for positions, coefficient in poly.items():
        value = coefficient
        for position in positions:
            value *= point[position]
        total += value
    return total >= at_least


def _holds_over(poly: dict, at_least: int, box: list) -> bool | None:
    """Whether poly >= at_least over the box, a list of (lo, hi) per
    variable: True at every point, False at none, None when it may hold at
    some. Each monomial's exact range starts at its coefficient and takes
    in one variable at a time; the ranges are added, all in integers."""
    total_lo = total_hi = 0
    for positions, coefficient in poly.items():
        lo = hi = coefficient
        for position in positions:
            a, b = box[position]
            if a >= 0 and lo >= 0:
                lo, hi = lo * a, hi * b
            elif a >= 0:
                lo, hi = lo * b, (hi * a if hi <= 0 else hi * b)
            else:
                ends = (lo * a, lo * b, hi * a, hi * b)
                lo, hi = min(ends), max(ends)
        total_lo += lo
        total_hi += hi
    return True if total_lo >= at_least else None if total_hi >= at_least else False


_STOPPED = object()


def _search(constraints: list, lo: list[int], hi: list[int], stop: Callable[[], bool] | None):
    """The first point of the box lo..hi, in lexicographic order, on which
    every constraint holds; None when there is none, _STOPPED when `stop`,
    asked at the root and then every 1024 nodes, says to give up.

    A node fixes one more variable. Only the constraints that read it can
    change value there, so only those are evaluated: at the point when it
    is the last variable they read, else over the sub-box. A constraint
    true over a sub-box stays true below it and is not evaluated there
    again.
    """
    if stop is not None and stop():
        return _STOPPED
    depth = len(lo)
    whole = list(zip(lo, hi))
    settled = []  # per constraint, the depth of the node it is known true below
    for poly, at_least in constraints:
        value = _holds_over(poly, at_least, whole)
        if value is False:
            return None
        settled.append(-1 if value else depth)
    if not depth:
        return []
    point = list(lo)  # the values fixed so far, and the next value to try at depth d
    box = list(whole)  # the sub-box below the node
    # per variable, the constraints to evaluate once it is fixed, and how
    readers: list[list] = [[] for _ in range(depth)]
    for i, (poly, at_least) in enumerate(constraints):
        positions = {position for monomial in poly for position in monomial}
        if positions:
            last = max(positions)
            readers[last].insert(0, (i, _holds_at, poly, at_least, point))
            for position in positions - {last}:
                readers[position].append((i, _holds_over, poly, at_least, box))
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
        for i, holds, poly, at_least, values in readers[d]:
            if settled[i] < d:
                continue
            result = holds(poly, at_least, values)
            if result is False:
                point[d] = value + 1
                break
            settled[i] = d if result else depth
        else:
            if d == depth - 1:
                return point
            d += 1


def narrow(lo: list[int], constraints: list) -> list[int]:
    """The lower ends of the box `solve_sums` searches. A constraint that is
    one variable with coefficient 1 raises that variable's lower end, as the
    bound `solve` reads off the assertion `emit_smtlib` writes for it
    (`_bound`)."""
    lo = list(lo)
    for poly, at_least in constraints:
        match [*poly.items()]:
            case [((position,), 1)]:
                lo[position] = max(lo[position], at_least)
    return lo


def _budgeted_search(lo: list[int], hi: list[int], constraints: list, limit: int, stop):
    """("sat", first model), ("unsat", None) or ("unknown", None) for the
    constraints over the box lo..hi: an empty box is unsat and one over
    `limit` points unknown, and no constraint is evaluated before that."""
    count = prod(max(0, h - l + 1) for l, h in zip(lo, hi))
    if not count:
        return "unsat", None
    if count > limit:
        return "unknown", None
    found = _search(constraints, lo, hi, stop)
    if found is _STOPPED:
        return "unknown", None
    return ("unsat", None) if found is None else ("sat", found)


def solve_sums(
    lo: list[int],
    hi: list[int],
    constraints: list,
    limit: int = DEFAULT_LIMIT,
    stop: Callable[[], bool] | None = None,
) -> tuple[str, list[int] | None]:
    """The answer of `solve` to the script of a constraint set, found
    without one: ("sat", first model), ("unsat", None) or ("unknown", None).
    Variable i ranges over lo[i]..hi[i], narrowed first (`narrow`), and
    each constraint is a pair (polynomial, at_least), in the form `solve`
    reads an assertion into."""
    return _budgeted_search(narrow(lo, constraints), hi, constraints, limit, stop)


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
    constraints = [constraint for node in asserts for constraint in _read(node, index)]
    lows: dict[str, int] = {}
    highs: dict[str, int] = {}
    for name, lowest, highest in filter(None, (_bound(node, index) for node in asserts)):
        if lowest is not None:
            lows[name] = max(lowest, lows.get(name, lowest))
        if highest is not None:
            highs[name] = min(highest, highs.get(name, highest))
    if any(lows[name] > highs[name] for name in lows.keys() & highs.keys()):
        return ["unsat"]
    lo = [lows.get(name, 0) for name in declared]
    hi = [highs.get(name, 16) for name in declared]
    status, found = _budgeted_search(lo, hi, constraints, limit, stop)
    if status == "unsat" and not all(name in lows and name in highs for name in declared):
        return ["unknown"]
    if status != "sat":
        return [status]
    lines = ["sat"]
    if wants_model:
        lines.append("(")
        for name in declared:
            value = found[index[name]]
            rendered = str(value) if value >= 0 else f"(- {-value})"
            lines.append(f"  (define-fun {name} () Int {rendered})")
        lines.append(")")
    return lines


@any_digits()
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
