"""The box solver against oracles kept here: the character loop that read
SMT-LIB tokens before the one-pattern reader, and the exhaustive
enumeration the pruned search replaced."""

import io
import random
import sys
from itertools import product
from math import prod
from pathlib import Path

import pytest

from ptrs.boxsolver import ScriptError, _holds_at, _holds_over, main, parse_script, solve, solve_sums
from ptrs.boxsolver import _read as read_assertion
from ptrs.interpretations import DegreeOverflow
from ptrs.smt import DEFAULT_SHAPES, _read_reply, emit_smtlib, encode, parse_shape, solve_box
from ptrs.wst import load_system

from helpers import box_points, random_ptrs

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _char_tokens(text: str):
    """The token reader the pattern replaced, one character at a time."""
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


def _char_loop_parse(text: str):
    out: list = []
    stack = [out]
    for tok in _char_tokens(text):
        if tok == "(":
            node: list = []
            stack[-1].append(node)
            stack.append(node)
        elif tok == ")":
            if len(stack) == 1:
                return "error", "unbalanced ')'"
            stack.pop()
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        return "error", "unbalanced '('"
    return "tree", out


def _read(text: str):
    try:
        return "tree", parse_script(text)
    except ScriptError as exc:
        return "error", str(exc)


def _shipped_scripts():
    for name in ("coingame", "matrix", "rw14", "rw34"):
        system = load_system(str(PROBLEMS / f"{name}.wst"))
        for shape in DEFAULT_SHAPES:
            cs = encode(system, shape).constraint_set
            for bound in (1, 2, 16):
                yield emit_smtlib(cs, bound)


# str.isspace() characters beyond ASCII, and a zero-width space, which is not one
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u202f\u3000"
ATOM = "ax09-+*<=>_.\xe9\u200b\x00"
ANY = "();" + WHITESPACE + ATOM


def _fuzz_text(rng: random.Random) -> str:
    if rng.random() < 0.2:
        return "".join(rng.choice(ANY) for _ in range(rng.randint(0, 12)))
    bits = []
    for _ in range(rng.randint(1, 10)):
        kind = rng.random()
        if kind < 0.3:
            bits.append(rng.choice("()"))
        elif kind < 0.6:
            bits.append("".join(rng.choice(ATOM) for _ in range(rng.randint(1, 4))))
        elif kind < 0.85:
            bits.append("".join(rng.choice(WHITESPACE) for _ in range(rng.randint(1, 2))))
        else:
            body = "".join(rng.choice(ANY.replace("\n", "")) for _ in range(rng.randint(0, 5)))
            bits.append(";" + body + rng.choice(["\n", "\n", ""]))
    return "".join(bits)


def test_parse_script_reads_like_the_character_loop():
    for text in _shipped_scripts():
        assert _read(text) == _char_loop_parse(text)
    rng = random.Random(20261018)
    for _ in range(100_000):
        text = _fuzz_text(rng)
        assert _read(text) == _char_loop_parse(text), repr(text)


def _holds(node, env):
    """An asserted term at one point, read directly off the tree."""
    if not isinstance(node, list):
        return env[node] if node in env else int(node)
    op, args = node[0], [_holds(arg, env) for arg in node[1:]]
    pairs = list(zip(args, args[1:]))
    if op == "+":
        return sum(args)
    if op == "-":
        return -args[0] if len(args) == 1 else args[0] - sum(args[1:])
    if op == "*":
        return prod(args)
    if op == ">=":
        return all(a >= b for a, b in pairs)
    if op == "<=":
        return all(a <= b for a, b in pairs)
    if op == ">":
        return all(a > b for a, b in pairs)
    if op == "<":
        return all(a < b for a, b in pairs)
    if op == "=":
        return all(a == b for a, b in pairs)
    if op == "and":
        return all(args)
    if op == "or":
        return any(args)
    assert op == "not"
    return not args[0]


def _number(node):
    """An integer literal, possibly negated: 3, -3, (- 3), (- (- 3))."""
    if isinstance(node, list):
        inner = _number(node[1]) if len(node) == 2 and node[0] == "-" else None
        return None if inner is None else -inner
    try:
        return int(node)
    except ValueError:
        return None


def _bounds(asserts, declared):
    """Each variable's lower and upper bound from the assertions that compare
    it with a literal, either way round."""
    lo: dict = {}
    hi: dict = {}
    flip = {">=": "<=", "<=": ">=", ">": "<", "<": ">", "=": "="}
    for node in asserts:
        if not isinstance(node, list) or len(node) != 3 or node[0] not in flip:
            continue
        op, a, b = node
        if a in declared and _number(b) is not None:
            name, k = a, _number(b)
        elif b in declared and _number(a) is not None:
            name, k, op = b, _number(a), flip[op]
        else:
            continue
        if op in (">=", ">", "="):
            lo[name] = max(lo.get(name, k), k + (op == ">"))
        if op in ("<=", "<", "="):
            hi[name] = min(hi.get(name, k), k - (op == "<"))
    return lo, hi


def _enumerated(text: str, limit: int) -> list[str]:
    """The reply of a solver that tries every point of the box in
    `itertools.product` order, as the box solver did before its search."""
    script = parse_script(text)
    declared = [node[1] for node in script if node[0] == "declare-const"]
    asserts = []
    for node in script:
        if node[0] == "assert":
            body = node[1]
            asserts.extend(body[1:] if isinstance(body, list) and body[0] == "and" else [body])
    lo, hi = _bounds(asserts, declared)
    if any(lo[name] > hi[name] for name in lo.keys() & hi.keys()):
        return ["unsat"]
    ranges = [range(lo.get(name, 0), hi.get(name, 16) + 1) for name in declared]
    if prod(len(r) for r in ranges) > limit:
        return ["unknown"]
    for values in product(*ranges):
        env = dict(zip(declared, values))
        if all(_holds(node, env) for node in asserts):
            model = [f"  (define-fun {n} () Int {v if v >= 0 else f'(- {-v})'})" for n, v in env.items()]
            return ["sat", "(", *model, ")"] if ["get-model"] in script else ["sat"]
    bounded = all(name in lo and name in hi for name in declared)
    return ["unsat"] if bounded else ["unknown"]


def _literal(rng: random.Random, k: int) -> str:
    return str(k) if k >= 0 else rng.choice([f"(- {-k})", str(k)])


def _int_term(rng: random.Random, names: list[str], depth: int) -> str:
    kind = rng.random() if depth else 0
    if kind < 0.5:
        return rng.choice(names) if rng.random() < 0.7 else _literal(rng, rng.randint(-4, 4))
    n = rng.randint(1, 3)
    if kind >= 0.65:
        return f"({rng.choice('+-')} {' '.join(_int_term(rng, names, depth - 1) for _ in range(n))})"
    # a product of two sums is not read: one factor may be any term, the rest are atoms
    args = [_int_term(rng, names, depth - 1), *(_int_term(rng, names, 0) for _ in range(n - 1))]
    rng.shuffle(args)
    return f"(* {' '.join(args)})"


def _bool_term(rng: random.Random, names: list[str], depth: int) -> str:
    kind = rng.random() if depth else 0
    if kind < 0.55:
        op = rng.choice([">=", "<=", ">", "<", "="])
        args = [_int_term(rng, names, 2) for _ in range(rng.choice([2, 2, 3]))]
        return f"({op} {' '.join(args)})"
    args = [_bool_term(rng, names, depth - 1) for _ in range(rng.randint(0, 3))]
    return f"(and{''.join(' ' + a for a in args)})"


def _hand_built_script(rng: random.Random) -> str:
    """Negative bounds, bounds on one side or none, bounds written either
    way round, and nested conjunctions."""
    names = [f"v{i}" for i in range(rng.randint(1, 4))]
    lines = [f"(declare-const {name} Int)" for name in names]
    for name in names:
        lo = rng.randint(-4, 2)
        hi = lo + rng.randint(-1, 5)
        if rng.random() < 0.85:
            lines.append(rng.choice([f"(assert (>= {name} {_literal(rng, lo)}))",
                                     f"(assert (< {_literal(rng, lo - 1)} {name}))"]))
        if rng.random() < 0.85:
            lines.append(rng.choice([f"(assert (<= {name} {_literal(rng, hi)}))",
                                     f"(assert (> {_literal(rng, hi + 1)} {name}))"]))
    conjuncts = [_bool_term(rng, names, 3) for _ in range(rng.randint(0, 3))]
    if len(conjuncts) > 1 and rng.random() < 0.3:
        conjuncts = [f"(and {' '.join(conjuncts)})"]
    lines += [f"(assert {c})" for c in conjuncts]
    lines += ["(check-sat)", "(get-model)"] if rng.random() < 0.8 else ["(check-sat)"]
    return "\n".join(lines)


def test_search_answers_like_enumerating_the_box():
    # the same status and first model; boxes over the limit answer unknown
    # on both sides, so it is kept low enough for the oracle to be quick
    rng = random.Random(6)
    limit = 3000
    statuses = []
    for _ in range(30):
        system = random_ptrs(rng)
        for shape in DEFAULT_SHAPES:
            try:
                cs = encode(system, shape).constraint_set
            except DegreeOverflow:
                continue
            for bound in (1, 2):
                text = emit_smtlib(cs, bound)
                reply = solve(text, limit)
                assert reply == _enumerated(text, limit), (shape, bound, text)
                # the same answer from the constraint set, with no script
                assert solve_box(cs, bound, limit) == _read_reply("".join(line + "\n" for line in reply), "", 0)
                statuses.append(reply[0])
    for _ in range(400):
        text = _hand_built_script(rng)
        reply = solve(text, limit)
        assert reply == _enumerated(text, limit), text
        statuses.append(reply[0])
    assert min(statuses.count(status) for status in ("sat", "unsat", "unknown")) > 100


def test_a_script_reads_into_the_polynomials_it_was_emitted_from():
    # one form on both paths: a child reads the emitted constraints into
    # the polynomials `prove` hands the search in process, with the
    # constant moved to the right
    rng = random.Random(8)
    systems = [load_system(str(PROBLEMS / f"{name}.wst")) for name in ("coingame", "matrix", "rw14", "rw34")]
    systems += [random_ptrs(rng) for _ in range(20)]
    for system in systems:
        for shape in DEFAULT_SHAPES:
            try:
                cs = encode(system, shape).constraint_set
            except DegreeOverflow:
                continue
            index = {spec.name: i for i, spec in enumerate(cs.unknowns)}
            asserts = [node[1] for node in parse_script(emit_smtlib(cs, 2)) if node[0] == "assert"]
            # the first two assertions of each unknown are its bounds
            read = [constraint for node in asserts[2 * len(index) :] for constraint in read_assertion(node, index)]
            in_process = cs.search_args(2)[2]
            assert read == [({m: c for m, c in poly.items() if m}, k - poly.get((), 0)) for poly, k in in_process]


def test_search_prunes_the_box():
    # the poly-linear box of matrix.wst at bound 16 holds 73,984 points and
    # no model; enumerating it took seconds
    text = emit_smtlib(encode(load_system(str(PROBLEMS / "matrix.wst")), DEFAULT_SHAPES[0]).constraint_set, 16)
    visited = []
    assert solve(text, stop=lambda: visited.append(1) or False) == ["unsat"]
    assert len(visited) == 1  # the root: fewer than 1024 nodes


@pytest.mark.parametrize(
    "name, shape, status, model, asked",
    [
        ("rw14", "matrix-3", "unsat", None, 31),
        ("coingame", "poly-linear", "sat", [0, 2, 1, 3, 2, 0, 1, 0, 1, 1, 1], 17),
        ("matrix", "matrix-2", "sat", [1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0], 2),
    ],
)
def test_the_search_visits_as_many_nodes_as_before(name, shape, status, model, asked):
    # boxes of 10^13 points and more at bound 16, searched with the budget
    # lifted; `stop` is asked at the root and every 1024 nodes, so looser
    # pruning shows as more calls
    cs = encode(load_system(str(PROBLEMS / f"{name}.wst")), parse_shape(shape)).constraint_set
    calls = []
    assert solve_sums(*cs.search_args(16), box_points(cs, 16), lambda: calls.append(1) or False) == (status, model)
    assert len(calls) == asked


def test_a_sum_over_a_box_bounds_its_values_at_the_points():
    # negative ranges and repeated variables; True over a box means the sum
    # holds at every point, False at none, and for one monomial over
    # distinct variables the bounds are exact, so None means at some only
    rng = random.Random(31)
    for _ in range(1500):
        n = rng.randint(1, 3)
        box = []
        for _ in range(n):
            lo = rng.randint(-4, 3)
            box.append((lo, lo + rng.randint(0, 4)))
        poly: dict = {}
        for _ in range(rng.randint(0, 3)):
            c, positions = rng.randint(-5, 5), tuple(sorted(rng.choices(range(n), k=rng.randint(0, 3))))
            poly[positions] = poly.get(positions, 0) + c
        poly = {positions: c for positions, c in poly.items() if c}
        values = []
        for point in product(*(range(lo, hi + 1) for lo, hi in box)):
            point = list(point)
            values.append(sum(c * prod(point[p] for p in positions) for positions, c in poly.items()))
            assert all(_holds_at(poly, k, point) == (values[-1] >= k) for k in (values[-1], values[-1] + 1))
        exact = len(poly) == 1 and all(len(set(positions)) == len(positions) for positions in poly)
        for at_least in range(min(values) - 1, max(values) + 2):
            over = _holds_over(poly, at_least, box)
            holding = [value >= at_least for value in values]
            if over is not None:
                assert all(hold == over for hold in holding), (poly, box, at_least)
            elif exact:
                assert any(holding) and not all(holding), (poly, box, at_least)


def test_a_search_told_to_stop_at_the_root_answers_unknown():
    # x >= 1 over 0..1 holds at x = 1, a point the search reaches before it
    # asks again
    constraints = [({(0,): 1}, 1)]
    assert solve_sums([0], [1], constraints, stop=lambda: False) == ("sat", [1])
    assert solve_sums([0], [1], constraints, stop=lambda: True) == ("unknown", None)


def test_an_empty_range_ends_the_search_at_once():
    # 17^11 points before the last variable, whose range 20..16 is empty
    text = "".join(f"(declare-const v{i} Int)" for i in range(12)) + "(assert (>= v11 20))(check-sat)"
    asked = []
    assert solve(text, stop=lambda: asked.append(1) or False) == ["unknown"]
    assert asked == []


@pytest.mark.parametrize(
    "term, detail",
    [
        ("(not)", "unsupported operation 'not'"),
        ("(not (> x 0) (< x 3))", "unsupported operation 'not'"),
        ("(not (> x 0))", "unsupported operation 'not'"),
        ("(or (> x 0) (< x 3))", "unsupported operation 'or'"),
        ("(> (+) 0)", "+ needs an argument"),
        ("(= x)", "= needs two arguments"),
        ("(>= x)", ">= needs two arguments"),
        ("(= x (> x 0))", "= needs Int arguments"),
        ("(= (> x 0) x)", "= needs Int arguments"),
        ("(= (> x 0) (< x 3))", "= needs Int arguments"),
        ("(> (* (+ x 1) (- x 2)) 0)", "* takes at most one factor of two or more monomials"),
        ("(> (* 2 (+ x 1) x (- x 2)) 0)", "* takes at most one factor of two or more monomials"),
        ("(> x (and x))", "and needs Bool arguments"),
        ("(+ x 1)", "an assertion must be a Bool term"),
        ("x", "an assertion must be a Bool term"),
        ("(or x)", "unsupported operation 'or'"),
        ("(< (> x 0) 1)", "< needs Int arguments"),
        ("(foo x 1)", "unsupported operation 'foo'"),
        ("((> x 0) 1)", "unsupported operation: a term in operator position"),
        ("(> y 0)", "unknown atom 'y'"),
        ("(> () 0)", "empty expression"),
    ],
)
def test_malformed_terms_are_script_errors(term, detail):
    with pytest.raises(ScriptError) as err:
        solve(f"(declare-const x Int)(assert {term})(check-sat)")
    assert str(err.value) == detail


def test_assert_takes_one_term():
    for text in ("(assert)(check-sat)", "(declare-const x Int)(assert (> x 0) (< x 3))(check-sat)"):
        with pytest.raises(ScriptError, match="^assert takes one term$"):
            solve(text)


def test_a_zero_ary_declare_fun_declares_a_constant():
    model = ["sat", "(", "  (define-fun x () Int 2)", ")"]
    assert solve("(declare-fun x () Int)(assert (>= x 2))(assert (<= x 3))(check-sat)(get-model)") == model
    for text in ("(declare-fun x (Int) Int)", "(declare-fun x () Bool)", "(declare-fun x Int)", "(declare-fun () () Int)"):
        with pytest.raises(ScriptError, match="^only zero-ary Int declare-fun is supported$"):
            solve(text + "(check-sat)")


TOKENS = ["(", ")", "+", "-", "*", "=", ">=", "<", "and", "or", "not", "x", "c0_k", "1", "-1",
          "0", "true", "Int", "assert", "declare-const", "check-sat", "get-model", ";", "()"]


def _mutated(rng: random.Random, text: str) -> str:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(tokens))
        edit = rng.random()
        if edit < 0.3:
            del tokens[at]
        elif edit < 0.6:
            tokens[at] = rng.choice(TOKENS)
        elif edit < 0.8:
            tokens.insert(at, rng.choice(TOKENS))
        else:
            other = rng.randrange(len(tokens))
            tokens[at], tokens[other] = tokens[other], tokens[at]
    return " ".join(tokens)


DEEP = 5000
DEEP_SCRIPTS = {
    "(declare-const x Int)(assert (>= " + "(+ 1 " * DEEP + "x" + ")" * DEEP + " 0))(check-sat)": ["sat"],
    "(declare-const x Int)(assert (= " + "(- " * DEEP + "x" + ")" * DEEP + " 1))(check-sat)(get-model)":
        ["sat", "(", "  (define-fun x () Int 1)", ")"],
    "(declare-const x Int)(assert (>= x " + "(- " * DEEP + "3" + ")" * DEEP + "))(check-sat)(get-model)":
        ["sat", "(", "  (define-fun x () Int 3)", ")"],
    "(declare-const x Int)(assert (and (> x 0) " + "(and " * DEEP + ")" * DEEP + "))(check-sat)": ["sat"],
    # each sum is added into the larger part, so reading this takes linear time
    "".join(f"(declare-const v{i} Int)" for i in range(DEEP))
    + "(assert (>= " + "".join(f"(+ v{i} " for i in range(DEEP)) + "0" + ")" * DEEP + " 0))(check-sat)": ["unknown"],
}


def test_box_solver_raises_only_script_errors():
    rng = random.Random(77)
    scripts = []
    for _ in range(8):
        system = random_ptrs(rng)
        for shape in (DEFAULT_SHAPES[0], DEFAULT_SHAPES[2]):
            scripts.append(emit_smtlib(encode(system, shape).constraint_set, 1))
    answers = set()
    for _ in range(3000):
        text = _mutated(rng, rng.choice(scripts))
        asked = []
        try:
            reply = solve(text, 5000, lambda: asked.append(1) or len(asked) > 20)
        except ScriptError:
            answers.add("error")
            continue
        assert all(isinstance(line, str) for line in reply)
        answers.add(reply[0] if reply else "no check-sat")
    assert answers >= {"sat", "unsat", "unknown", "error"}
    for text, reply in DEEP_SCRIPTS.items():
        assert solve(text) == reply
    for text in ("(assert " + "(" * DEEP + ")" * DEEP + ")(check-sat)",
                 "(declare-const x Int)(assert " + "(not " * DEEP + "(= x 1)" + ")" * DEEP + ")(check-sat)",
                 "(check-sat)(assert " + "(" * DEEP,
                 "(declare-const x Int)(assert ((" + "(" * DEEP + ")" * DEEP + " x) 1))(check-sat)"):
        with pytest.raises(ScriptError):
            solve(text)


def test_main_replies_with_an_error_to_a_dropped_construct(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("(declare-const x Int)(assert (or (> x 0) (< x 3)))(check-sat)"))
    assert main([]) == 1
    assert capsys.readouterr().out == "(error \"unsupported operation 'or'\")\n"


def test_main_reads_numerals_past_the_digit_cap(capsys, monkeypatch, digit_cap):
    big = "7" * 5000
    script = f"(declare-const x Int)(assert (>= x 0))(assert (<= x 1))(assert (>= (* {big} x) {big}))(check-sat)(get-model)"
    monkeypatch.setattr(sys, "stdin", io.StringIO(script))
    assert main([]) == 0
    assert capsys.readouterr().out == "sat\n(\n  (define-fun x () Int 1)\n)\n"
    assert sys.get_int_max_str_digits() == digit_cap
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"(assert (or (> {big} 0)))(check-sat)"))
    assert main([]) == 1
    assert sys.get_int_max_str_digits() == digit_cap
