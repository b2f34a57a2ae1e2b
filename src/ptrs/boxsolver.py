"""Bounded-box solver for the SMT-LIB fragment the encoder emits.

Reads a script on stdin, enumerates integer assignments inside the asserted
per-variable bounds, and answers like a real solver would: `sat` with a
checked model, `unsat` only after exhausting a fully bounded box (or when
the bounds themselves are contradictory), `unknown` when a variable has no
asserted bounds or the box exceeds the assignment budget.

Arithmetic understood: + - * and the predicates >= <= > < = plus and/or/not.
Useful wherever a real SMT solver is not installed; the default coefficient
boxes of the encoder stay within reach for linear shapes.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from itertools import product

DEFAULT_LIMIT = 200_000


class ScriptError(ValueError):
    pass


def _tokens(text: str):
    token: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "()":
            if token:
                yield "".join(token)
                token = []
            yield ch
        elif ch.isspace():
            if token:
                yield "".join(token)
                token = []
        else:
            token.append(ch)
        i += 1
    if token:
        yield "".join(token)


def parse_script(text: str) -> list:
    out: list = []
    stack = [out]
    for tok in _tokens(text):
        if tok == "(":
            node: list = []
            stack[-1].append(node)
            stack.append(node)
        elif tok == ")":
            if len(stack) == 1:
                raise ScriptError("unbalanced ')'")
            stack.pop()
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise ScriptError("unbalanced '('")
    return out


def _compile(node, declared: set[str]) -> str:
    if not isinstance(node, list):
        if node in declared:
            return f"_e[{node!r}]"
        try:
            return str(int(node))
        except ValueError:
            raise ScriptError(f"unknown atom {node!r}") from None
    if not node:
        raise ScriptError("empty expression")
    op, args = node[0], node[1:]
    parts = [_compile(a, declared) for a in args]
    if op == "+":
        return "(" + " + ".join(parts) + ")"
    if op == "*":
        return "(" + " * ".join(parts) + ")"
    if op == "-":
        if len(parts) == 1:
            return f"(- {parts[0]})"
        return "(" + " - ".join(parts) + ")"
    if op in (">=", "<=", ">", "<"):
        py = {">=": ">=", "<=": "<=", ">": ">", "<": "<"}[op]
        if len(parts) < 2:
            raise ScriptError(f"{op} needs two arguments")
        pairs = [f"({a} {py} {b})" for a, b in zip(parts, parts[1:])]
        return "(" + " and ".join(pairs) + ")"
    if op == "=":
        pairs = [f"({a} == {b})" for a, b in zip(parts, parts[1:])]
        return "(" + " and ".join(pairs) + ")"
    if op == "and":
        return "(" + " and ".join(parts) + ")" if parts else "True"
    if op == "or":
        return "(" + " or ".join(parts) + ")" if parts else "False"
    if op == "not":
        return f"(not {parts[0]})"
    raise ScriptError(f"unsupported operation {op!r}")


def _literal(node) -> int | None:
    if isinstance(node, list):
        if len(node) == 2 and node[0] == "-":
            inner = _literal(node[1])
            return None if inner is None else -inner
        return None
    try:
        return int(node)
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


def _extract_bounds(node, declared: set[str], box: Box) -> None:
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


def solve(text: str, limit: int = DEFAULT_LIMIT, stop: Callable[[], bool] | None = None) -> list[str]:
    """The reply lines for one script. `stop`, when given, is asked every
    1024 box points whether to give up; a stopped search answers `unknown`."""
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
            if len(node) != 3 or node[2] != "Int":
                raise ScriptError("only (declare-const name Int) is supported")
            declared.append(node[1])
        elif head == "declare-fun":
            if len(node) != 4 or node[2] != [] or node[3] != "Int":
                raise ScriptError("only zero-ary Int declare-fun is supported")
            declared.append(node[1])
        elif head == "assert":
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

    names = set(declared)
    box = Box()
    for node in asserts:
        _extract_bounds(node, names, box)
    compiled = [compile(_compile(node, names), "<assert>", "eval") for node in asserts]

    empty = any(
        name in box.lo and name in box.hi and box.lo[name] > box.hi[name] for name in declared
    )
    if empty:
        return ["unsat"]
    fully_bounded = all(name in box.lo and name in box.hi for name in declared)
    ranges = [range(box.lo.get(n, 0), box.hi.get(n, 16) + 1) for n in declared]
    count = 1
    for r in ranges:
        count *= len(r)
    if count > limit:
        return ["unknown"]

    for index, values in enumerate(product(*ranges)):
        if stop is not None and not index % 1024 and stop():
            return ["unknown"]
        env = dict(zip(declared, values))
        scope = {"_e": env}
        if all(eval(code, {"__builtins__": {}}, scope) for code in compiled):
            lines = ["sat"]
            if wants_model:
                lines.append("(")
                for name in declared:
                    value = env[name]
                    rendered = str(value) if value >= 0 else f"(- {-value})"
                    lines.append(f"  (define-fun {name} () Int {rendered})")
                lines.append(")")
            return lines
    return ["unsat"] if fully_bounded else ["unknown"]


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
