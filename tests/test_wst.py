import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ptrs.multidist import FiniteDistribution
from ptrs.terms import App, Signature, TermError, Var
from ptrs.wst import (
    ElaborationError,
    ParseError,
    ProblemFile,
    RawRule,
    Token,
    elaborate,
    parse_problem,
    parse_term_text,
    tokenize,
)

from helpers import (
    looping_ptrs,
    probability,
    problem_of,
    random_ptrs,
    reference_elaborate,
    reference_parse_problem,
    reference_parse_term_text,
    render_problem,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

RW34 = """\
(VAR x)
(RULES
  s(x) -> 3 : x || 1 : s(s(x))
)
"""

COINGAME = """\
(VAR x)
(RULES
  ?(x) -> 1 : ?(s(x)) || 1 : $(g(x))
  ?(x) -> $(f(x))
  $(0) -> 0
  $(s(x)) -> $(x)
)
"""


def test_parse_weighted_rule():
    pf = parse_problem(RW34)
    assert pf.variables == ("x",)
    assert len(pf.rules) == 1
    rule = pf.rules[0]
    assert rule.lhs == App("s", (Var("x"),))
    assert [w for w, _ in rule.alternatives] == [3, 1]
    assert pf.signature.arity("s") == 1


def test_raw_rule_equality_ignores_the_position():
    near = parse_problem("(VAR x)(RULES f(x) -> x)").rules[0]
    far = parse_problem("(VAR x)\n\n(RULES\n    f(x) -> x)").rules[0]
    assert (near.line, near.col) != (far.line, far.col)
    assert near == far and hash(near) == hash(far)
    assert near != parse_problem("(VAR x)(RULES f(x) -> 2 : x)").rules[0]


def test_empty_parentheses_spell_a_constant():
    spelled = parse_problem("(VAR x)(RULES f(a()) -> a())")
    assert spelled.rules == parse_problem("(VAR x)(RULES f(a) -> a)").rules
    assert spelled.rules[0].lhs == App("f", (App("a"),))
    assert spelled.signature.symbols() == {"a": 0, "f": 1}
    # a declared variable takes no parentheses, empty or not
    with pytest.raises(ParseError) as err:
        parse_problem("(VAR x)\n(RULES f(x) ->\n  x())")
    assert (err.value.message, err.value.line, err.value.col) == ("variable 'x' used with arguments", 3, 3)


def test_parse_sugar_single_alternative():
    pf = parse_problem("(VAR x)(RULES f(x) -> x)")
    assert pf.rules[0].alternatives == ((1, Var("x")),)


def test_parse_coingame_signature():
    pf = parse_problem(COINGAME)
    assert pf.signature.symbols() == {"?": 1, "s": 1, "$": 1, "g": 1, "f": 1, "0": 0}
    assert len(pf.rules) == 4


def test_comments_and_layout():
    text = "; header\n(VAR x) ; vars\n(RULES\n  f(x) -> x ; body\n)\n"
    pf = parse_problem(text)
    assert len(pf.rules) == 1


def test_numeric_names_stay_terms():
    # A bare number is only a weight right after '->' or '||' and before ':'.
    pf = parse_problem("(RULES f(0) -> 1 : 0)")
    assert pf.rules[0].alternatives == ((1, App("0")),)
    pf2 = parse_problem("(RULES f(0) -> 0)")
    assert pf2.rules[0].alternatives == ((1, App("0")),)


def test_parse_error_locations():
    with pytest.raises(ParseError) as err:
        parse_problem("(VAR x)\n(RULES\n  f(x) ->\n)")
    assert err.value.line == 4
    with pytest.raises(ParseError) as err:
        parse_problem("(VAR x)(RULES f(x) - x)")
    assert "expected ARROW" in err.value.message
    with pytest.raises(ParseError) as err:
        parse_problem("(VAR x)(RULES f(x) -> 1 : x | 2 : x)")
    assert "'|'" in err.value.message


def test_arity_mismatch_is_rejected_with_both_uses():
    with pytest.raises(ParseError) as err:
        parse_problem("(VAR x y)(RULES f(x) -> x  f(x,y) -> x)")
    assert "f" in err.value.message and "line 1" in err.value.message


def test_variable_applied_is_rejected():
    with pytest.raises(ParseError) as err:
        parse_problem("(VAR x)(RULES x(x) -> x)")
    assert "variable" in err.value.message


def test_zero_weight_rejected():
    with pytest.raises(ParseError):
        parse_problem("(VAR x)(RULES f(x) -> 0 : x)")


def test_unbalanced_block():
    with pytest.raises(ParseError):
        parse_problem("(RULES f(x) -> x")
    with pytest.raises(ParseError):
        parse_problem("")
    with pytest.raises(ParseError):
        parse_problem("(VAR x)")


def test_render_parse_fixpoint():
    for text in (RW34, COINGAME, "(RULES a -> b  b -> 2 : a || 3 : b)"):
        pf = parse_problem(text)
        rendered = render_problem(pf)
        again = parse_problem(rendered)
        assert again == pf
        assert render_problem(again) == rendered


def test_elaborate_probabilities():
    ptrs = elaborate(parse_problem(RW34))
    rule = ptrs.rules[0]
    x = Var("x")
    assert rule.rhs == FiniteDistribution(
        {x: Fraction(3, 4), App("s", (App("s", (x,)),)): Fraction(1, 4)}
    )


def test_elaborate_merges_duplicate_alternatives():
    ptrs = elaborate(parse_problem("(VAR x)(RULES f(x) -> 1 : x || 1 : x)"))
    assert ptrs.rules[0].rhs == FiniteDistribution({Var("x"): 1})
    ptrs2 = elaborate(parse_problem("(VAR x)(RULES f(x) -> 1 : x || 1 : g(x) || 1 : x)"))
    assert probability(ptrs2.rules[0].rhs, Var("x")) == Fraction(2, 3)


def test_elaborate_rejections():
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_problem("(VAR x y)(RULES x -> y)"))
    assert err.value.reason == "variable-lhs"
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_problem("(VAR x y)(RULES f(x) -> g(y))"))
    assert err.value.reason == "free-variable-on-rhs"


def test_parse_term_text():
    pf = parse_problem(COINGAME)
    t = parse_term_text("?(s(0))", set(pf.variables), pf.signature)
    assert t == App("?", (App("s", (App("0"),)),))
    with pytest.raises(ParseError):
        parse_term_text("s(0,0)", set(), pf.signature)
    with pytest.raises(ParseError):
        parse_term_text("s(0) extra", set(), pf.signature)


def test_start_term_arity_error_names_the_declaration():
    pf = parse_problem(COINGAME)
    with pytest.raises(ParseError) as err:
        parse_term_text("?(s(0, 0))", set(), pf.signature)
    assert (err.value.line, err.value.col) == (1, 3)
    assert err.value.message == (
        "symbol 's' used with 2 arguments here but the system declares it with 1")


def test_start_term_may_add_constants_but_not_function_symbols():
    pf = parse_problem("(VAR x)(RULES s(x) -> x)")
    assert parse_term_text("s(s(z))", set(), pf.signature) == App("s", (App("s", (App("z"),)),))
    for text, col, sym in (("s^5000(0)", 1, "s^5000"), ("s(f(0, 0))", 3, "f"), ("s(g(z))", 3, "g")):
        with pytest.raises(ParseError) as err:
            parse_term_text(text, set(), pf.signature)
        assert (err.value.line, err.value.col) == (1, col)
        assert err.value.message == (
            f"symbol {sym!r} is applied to arguments but the system does not declare it; "
            "new symbols may only be constants")


def test_deep_terms_parse_without_recursion():
    depth = 5000
    pf = parse_problem(COINGAME)
    text = "?(" + "s(" * depth + "0" + ")" * (depth + 1)
    term = parse_term_text(text, set(pf.variables), pf.signature)
    assert str(term) == text
    nested = parse_problem("(VAR x)(RULES " + "g(" * depth + "x" + ")" * depth + " -> x)")
    assert str(nested.rules[0].lhs) == "g(" * depth + "x" + ")" * depth
    with pytest.raises(ParseError):
        parse_term_text("s(" * depth + "0" + ")" * (depth - 1), set(), pf.signature)


def test_symbols_are_noted_as_their_terms_complete():
    # first use wins, and an application is used when its ')' is read, after
    # its arguments: the inner f(x) below is the first use of f
    with pytest.raises(ParseError) as err:
        parse_problem("(VAR x y)(RULES f(f(x), y) -> x)")
    assert "2 arguments here but with 1" in err.value.message
    t = parse_term_text("f(a, g(b), c)", set())
    assert t == App("f", (App("a"), App("g", (App("b"),)), App("c")))
    with pytest.raises(ParseError):
        parse_term_text("f(a,)", set())
    with pytest.raises(ParseError):
        parse_term_text("f(a", set())


# The character loop `tokenize` was before it read with one pattern, kept
# verbatim as the reference for tokens, errors and their positions.
_DELIMS = set(" \t\r\n(),:;|")


def _loop_tokens(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def push(kind: str, lexeme: str) -> None:
        tokens.append(Token(kind, lexeme, line, col))

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "(":
            push("LPAREN", ch)
        elif ch == ")":
            push("RPAREN", ch)
        elif ch == ",":
            push("COMMA", ch)
        elif ch == ":":
            push("COLON", ch)
        elif ch == "|":
            if i + 1 < n and text[i + 1] == "|":
                push("BAR", "||")
                i += 2
                col += 2
                continue
            raise ParseError("stray '|' (alternatives are separated by '||')", line, col)
        elif ch == "-" and i + 1 < n and text[i + 1] == ">":
            push("ARROW", "->")
            i += 2
            col += 2
            continue
        else:
            j = i
            while j < n and text[j] not in _DELIMS:
                if text[j] == "-" and j + 1 < n and text[j + 1] == ">":
                    break
                j += 1
            if j == i:
                raise ParseError(f"unexpected character {ch!r}", line, col)
            push("IDENT", text[i:j])
            col += j - i
            i = j
            continue
        i += 1
        col += 1
    return tokens


def _read(tokens, text):
    try:
        return [tuple(tok) for tok in tokens(text)]
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)


def test_tokens_and_errors_match_the_character_loop():
    alphabet = "-->>||;;\r\n\n\x0b\xa0\u00e9()),:  \tab01"
    rng = random.Random(20261018)
    texts = ["".join(rng.choices(alphabet, k=rng.randrange(24))) for _ in range(20000)]
    texts += [path.read_text() for path in sorted(PROBLEMS.glob("*.wst"))]
    texts.append("s(" * 5000 + "0" + ")" * 5000)
    assert len(texts) == 20005
    for text in texts:
        assert _read(tokenize, text) == _read(_loop_tokens, text), repr(text)


def test_token_positions_count_code_points_and_lines():
    for text, line, col in (("f\t| x", 1, 3), ("f\r\n|", 2, 1), ("a\r\n \t|", 2, 3), ("\u00e9\xa0\r|", 1, 4)):
        with pytest.raises(ParseError) as err:
            tokenize(text)
        assert (err.value.message, err.value.line, err.value.col) == (
            "stray '|' (alternatives are separated by '||')", line, col)
    assert tokenize("a->b") == [("IDENT", "a", 1, 1), ("ARROW", "->", 1, 2), ("IDENT", "b", 1, 4)]
    assert tokenize("-->") == [("IDENT", "-", 1, 1), ("ARROW", "->", 1, 2)]
    assert tokenize("x- ; c\n->") == [("IDENT", "x-", 1, 1), ("ARROW", "->", 2, 1)]


def _problem_outcome(parse, text):
    try:
        pf = parse(text)
    except ParseError as exc:
        return ("error", type(exc), exc.message, exc.line, exc.col)
    rules = [(r.lhs, r.alternatives, r.line, r.col) for r in pf.rules]
    return pf.variables, rules, list(pf.signature.symbols().items())


def _elaboration_outcome(elab, pf):
    try:
        system = elab(pf)
    except ElaborationError as exc:
        return ("error", exc.reason, exc.message, exc.line, exc.col)
    return [(rule.lhs, rule.rhs.numerators, rule.rhs.denominator) for rule in system.rules]


def _term_outcome(parse, text, variables, signature):
    try:
        return parse(text, variables, signature)
    except ParseError as exc:
        return ("error", type(exc), exc.message, exc.line, exc.col)


def _mutants(rng, text, count):
    """Token-level mutations of `text`: drop, duplicate or swap a token, or
    insert a token that often breaks a rule."""
    toks = [tok.text for tok in tokenize(text)]
    for _ in range(count):
        out = list(toks)
        k = rng.randrange(len(out))
        move = rng.randrange(4)
        if move == 0:
            del out[k]
        elif move == 1:
            out.insert(k, out[k])
        elif move == 2:
            j = rng.randrange(len(out))
            out[k], out[j] = out[j], out[k]
        else:
            out.insert(k, rng.choice(["|", "||", ":", "->", "3", "0", "()", "(", ")", ",", "x"]))
        yield rng.choice([" ", "\n", " ;c\n "]).join(out)


def test_reader_matches_the_token_cursor_reader():
    rng = random.Random(20261019)
    alphabet = "-->>||;;\r\n\n\x0b\xa0é()),:  \tab01"
    fuzz = ["".join(rng.choices(alphabet, k=rng.randrange(24))) for _ in range(20000)]
    shipped = [path.read_text() for path in sorted(PROBLEMS.glob("*.wst"))]
    generated = []
    for index in range(60):
        generated.append(render_problem(problem_of((random_ptrs if index % 2 else looping_ptrs)(rng))))
    blocks = ["(VAR x y)(RULES f(x,y) -> 2 : x || 4 : y)(VAR z)(RULES g(z) -> z)", "(RULES a -> b)(FOO)"]
    mutated = [m for text in shipped + generated + blocks for m in _mutants(rng, text, 40)]
    errors = 0
    for text in fuzz + shipped + generated + blocks + mutated:
        new, old = _problem_outcome(parse_problem, text), _problem_outcome(reference_parse_problem, text)
        assert new == old, repr(text)
        if new[0] == "error":
            errors += 1
        else:
            pf, ref = parse_problem(text), reference_parse_problem(text)
            assert _elaboration_outcome(elaborate, pf) == _elaboration_outcome(reference_elaborate, ref), repr(text)
    assert 0 < errors < len(fuzz) + len(mutated)

    coingame = parse_problem(COINGAME)
    starts = ["s(" * 5000 + "0" + ")" * 5000, "s^5000(0)", "?(s(0))", "s(0,0)", "f(a,)", "f(a", "x(0)",
              "?(x)", "g(y, x)", "a b", "", " ; only a comment"]
    starts += [m for text in ("?(s(s(0)))", "f(g(x), h(a, b))") for m in _mutants(rng, text, 60)]
    for text in fuzz[:2000] + starts:
        for names, signature in ((set(), None), ({"x"}, None), ({"x"}, coingame.signature)):
            new = _term_outcome(parse_term_text, text, names, signature)
            assert new == _term_outcome(reference_parse_term_text, text, names, signature), repr(text)


def test_elaboration_gives_the_weights_a_fraction_per_alternative_gives():
    rng = random.Random(7)
    x = Var("x")
    terms = [x, App("g", (x,)), App("g", (App("g", (x,)),)), App("a"), App("h", (x, x))]
    for _ in range(500):
        factor = rng.choice([1, 2, 6, 12, 35, 10**20])
        alternatives = tuple((factor * rng.randint(1, 9), rng.choice(terms)) for _ in range(rng.randint(1, 6)))
        if rng.random() < 0.1:
            alternatives = alternatives[:1]
        problem = ProblemFile(("x",), (RawRule(App("f", (x,)), alternatives),), Signature({"f": 1, "g": 1, "h": 2, "a": 0}))
        rhs = elaborate(problem).rules[0].rhs
        merged = {}
        for weight, term in alternatives:
            merged[term] = merged.get(term, 0) + weight
        total = sum(merged.values())
        expected = FiniteDistribution({t: Fraction(w, total) for t, w in merged.items()})
        assert (rhs.numerators, rhs.denominator) == (expected.numerators, expected.denominator)


def test_rule_positions_are_read_on_demand_and_kept():
    text = "(VAR x)\n(RULES\n  f(x) -> x\n\n     g(x) -> 2 : x || 1 : f(x))\n"
    rules = parse_problem(text).rules
    assert [(r.line, r.col) for r in rules] == [(3, 3), (5, 6)]
    assert [(r.line, r.col) for r in rules] == [(3, 3), (5, 6)]
    assert (RawRule(Var("x"), ()).line, RawRule(Var("x"), (), 4, 2).col) == (0, 2)
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_problem("(VAR x y)\n(RULES\n  f(x) -> x\n   g(x) -> y)"))
    assert (err.value.reason, err.value.line, err.value.col) == ("free-variable-on-rhs", 4, 4)


def test_elaboration_errors_name_the_rule_line_and_column():
    # a free right-hand variable, behind a good alternative and repeated:
    # one error, at the rule's line and column
    text = "(VAR x y)\n(RULES\n  f(x) -> x\n    f(g(x)) -> 1 : x || 2 : g(y) || 1 : g(y))"
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_problem(text))
    assert (err.value.message, err.value.reason, err.value.line, err.value.col) == (
        "right-hand side uses variable 'y' not bound on the left", "free-variable-on-rhs", 4, 5)
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_problem("(VAR x)\n(RULES f(x) -> x\n x -> f(x))"))
    assert (err.value.reason, err.value.line, err.value.col) == ("variable-lhs", 3, 2)
    # an arity clash is the reader's error, before anything is elaborated
    with pytest.raises(ParseError) as err:
        parse_problem("(VAR x)(RULES f(x) -> f(x,x))")
    assert (err.value.message, err.value.col) == (
        "symbol 'f' used with 2 arguments here but with 1 at line 1, column 15", 23)
    # every rule is checked against the signature it is elaborated with,
    # whether the reader or other code built it
    problem = parse_problem("(VAR x)(RULES f(x) -> x)")
    with pytest.raises(TermError):
        elaborate(ProblemFile(problem.variables, problem.rules, Signature({"f": 2})))
    free = RawRule(App("f", (Var("x"),)), ((1, Var("y")),), 7, 3)
    with pytest.raises(ElaborationError) as err:
        elaborate(ProblemFile(("x", "y"), (free,), problem.signature))
    assert (err.value.reason, err.value.line, err.value.col) == ("free-variable-on-rhs", 7, 3)


def test_weights_are_decimal_digits():
    # '²' passes str.isdigit() but int() cannot read it: it is a name, and
    # the ':' after it a positioned error
    with pytest.raises(ParseError) as err:
        parse_problem("(VAR x)\n(RULES f(x) -> ² : x || 1 : f(x))")
    assert (err.value.message, err.value.line, err.value.col) == ("expected IDENT, found ':'", 2, 18)
    # a digit that int() reads is a weight
    rule = parse_problem("(VAR x)(RULES f(x) -> ٣ : x || 1 : f(x))").rules[0]
    assert rule.alternatives == ((3, Var("x")), (1, App("f", (Var("x"),))))


def test_repeated_var_names_keep_their_first_seen_order():
    pf = parse_problem("(VAR y x)(VAR z y)(RULES f(x, y, z) -> x)(VAR x w y)")
    assert pf.variables == ("y", "x", "z", "w")


def test_a_long_var_block_reads_in_linear_time():
    # a list-membership test made this block quadratic: several seconds
    names = [f"v{i}" for i in range(30_000)]
    text = f"(VAR {' '.join(names)} v0)(RULES f(v0) -> v0)"
    start = time.perf_counter()
    pf = parse_problem(text)
    assert time.perf_counter() - start < 1.0
    assert pf.variables == tuple(names)
