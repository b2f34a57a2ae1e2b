"""Reader for rule files in WST block syntax.

The probabilistic extension writes a rule as

    l -> w1 : r1 || w2 : r2 || ... || wn : rn

with positive integer weights; alternative j fires with probability wj over
the weight total. A rule without weights, `l -> r`, abbreviates `l -> 1 : r`.
Comments run from `;` to end of line. Symbol arities are inferred from use,
first use wins.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .multidist import FiniteDistribution
from .rewriting import PTRS, ProbRule, RuleError
from .terms import App, Signature, Term, Var


class WstError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        return f"line {self.line}, column {self.col}: {self.message}"


class ParseError(WstError):
    pass


class ElaborationError(WstError):
    """A parsed rule that cannot be turned into a probabilistic rewrite rule."""

    def __init__(self, message: str, line: int, col: int, reason: str):
        super().__init__(message, line, col)
        self.reason = reason


class Token(NamedTuple):
    kind: str  # LPAREN RPAREN COMMA COLON ARROW BAR IDENT
    text: str
    line: int
    col: int


# Every character falls in exactly one alternative, so `finditer` skips
# nothing. An identifier is a run of the other characters, and takes a
# '-' only when no '>' follows it.
_TOKEN = re.compile(
    r"(?P<NEWLINE>\n)|(?P<SKIP>[ \t\r]+|;[^\n]*)|(?P<ARROW>->)|(?P<BAR>\|\|)|(?P<STRAY>\|)"
    r"|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<COMMA>,)|(?P<COLON>:)|(?P<IDENT>(?:[^ \t\r\n(),:;|-]|-(?!>))+)"
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
        elif kind == "STRAY":
            raise ParseError("stray '|' (alternatives are separated by '||')", line, m.start() - line_start + 1)
        elif kind != "SKIP":
            tokens.append(Token(kind, m.group(), line, m.start() - line_start + 1))
    return tokens


class RawRule:
    """A rule as written: weighted alternatives, at the line and column
    where it starts. Equality and hashing ignore the position."""

    __slots__ = ("lhs", "alternatives", "line", "col")

    def __init__(self, lhs: Term, alternatives: tuple[tuple[int, Term], ...], line: int = 0, col: int = 0):
        self.lhs = lhs
        self.alternatives = alternatives
        self.line = line
        self.col = col

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not RawRule:
            return NotImplemented
        return self.lhs == other.lhs and self.alternatives == other.alternatives

    def __hash__(self) -> int:
        return hash((self.lhs, self.alternatives))


class ProblemFile(NamedTuple):
    variables: tuple[str, ...]
    rules: tuple[RawRule, ...]
    signature: Signature


class _Cursor:
    def __init__(self, tokens: list[Token], end_line: int):
        self.tokens = tokens
        self.pos = 0
        self.end_line = end_line

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expected: str | None = None) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.end_line, 1)
        if expected is not None and tok.kind != expected:
            raise ParseError(f"expected {expected}, found {tok.text!r}", tok.line, tok.col)
        self.pos += 1
        return tok


class _TermReader:
    """Parses terms while inferring arities, first use winning."""

    def __init__(self, variables: set[str]):
        self.variables = variables
        # each symbol's arity and its first use; None for a declared symbol
        self.arities: dict[str, tuple[int, Token | None]] = {}

    def read(self, cur: _Cursor) -> Term:
        # Open applications wait on a stack, so nesting depth costs no
        # recursion. Symbols are noted in post-order, as they complete.
        pending: list[tuple[Token, list[Term]]] = []
        while True:
            head = cur.next("IDENT")
            nxt = cur.peek()
            if nxt is not None and nxt.kind == "LPAREN":
                if head.text in self.variables:
                    raise ParseError(f"variable {head.text!r} used with arguments", head.line, head.col)
                cur.next("LPAREN")
                if cur.peek() is not None and cur.peek().kind != "RPAREN":
                    pending.append((head, []))
                    continue
                cur.next("RPAREN")
                self._note(head, 0)
                term: Term = App(head.text, ())
            elif head.text in self.variables:
                term = Var(head.text)
            else:
                self._note(head, 0)
                term = App(head.text, ())
            while pending:
                head, args = pending[-1]
                args.append(term)
                if cur.peek() is not None and cur.peek().kind == "COMMA":
                    cur.next("COMMA")
                    break
                cur.next("RPAREN")
                pending.pop()
                self._note(head, len(args))
                term = App(head.text, tuple(args))
            else:
                return term

    def _note(self, tok: Token, arity: int) -> None:
        seen = self.arities.get(tok.text)
        if seen is None:
            self.arities[tok.text] = (arity, tok)
        elif seen[0] != arity:
            first = seen[1]
            if first is None:
                earlier = f"the system declares it with {seen[0]}"
            else:
                earlier = f"with {seen[0]} at line {first.line}, column {first.col}"
            raise ParseError(
                f"symbol {tok.text!r} used with {arity} arguments here but {earlier}",
                tok.line,
                tok.col,
            )


def _split_blocks(tokens: list[Token]) -> list[tuple[Token, list[Token]]]:
    blocks: list[tuple[Token, list[Token]]] = []
    i = 0
    while i < len(tokens):
        if tokens[i].kind != "LPAREN":
            raise ParseError(f"expected '(', found {tokens[i].text!r}", tokens[i].line, tokens[i].col)
        if i + 1 >= len(tokens) or tokens[i + 1].kind != "IDENT":
            tok = tokens[i + 1] if i + 1 < len(tokens) else tokens[i]
            raise ParseError("expected a block name after '('", tok.line, tok.col)
        name = tokens[i + 1]
        depth = 1
        j = i + 2
        while j < len(tokens) and depth > 0:
            if tokens[j].kind == "LPAREN":
                depth += 1
            elif tokens[j].kind == "RPAREN":
                depth -= 1
            j += 1
        if depth != 0:
            raise ParseError(f"unclosed block {name.text!r}", name.line, name.col)
        blocks.append((name, tokens[i + 2 : j - 1]))
        i = j
    return blocks


def parse_problem(text: str) -> ProblemFile:
    tokens = tokenize(text)
    end_line = text.count("\n") + 1
    if not tokens:
        raise ParseError("empty problem file", 1, 1)
    blocks = _split_blocks(tokens)

    variables: list[str] = []
    for name, body in blocks:
        if name.text == "VAR":
            for tok in body:
                if tok.kind != "IDENT":
                    raise ParseError(f"unexpected {tok.text!r} in VAR block", tok.line, tok.col)
                if tok.text not in variables:
                    variables.append(tok.text)

    reader = _TermReader(set(variables))
    rules: list[RawRule] = []
    for name, body in blocks:
        if name.text == "VAR":
            continue
        if name.text != "RULES":
            raise ParseError(f"unknown block {name.text!r}", name.line, name.col)
        cur = _Cursor(body, end_line)
        while cur.peek() is not None:
            rules.append(_read_rule(cur, reader))
    if not rules:
        raise ParseError("no rules found", end_line, 1)
    return ProblemFile(tuple(variables), tuple(rules), Signature({s: a for s, (a, _) in reader.arities.items()}))


def _read_rule(cur: _Cursor, reader: _TermReader) -> RawRule:
    start = cur.peek()
    lhs = reader.read(cur)
    cur.next("ARROW")
    alternatives: list[tuple[int, Term]] = []
    alternatives.append(_read_alternative(cur, reader))
    while cur.peek() is not None and cur.peek().kind == "BAR":
        cur.next("BAR")
        alternatives.append(_read_alternative(cur, reader))
    return RawRule(lhs, tuple(alternatives), start.line, start.col)


def _read_alternative(cur: _Cursor, reader: _TermReader) -> tuple[int, Term]:
    tok = cur.peek()
    if tok is not None and tok.kind == "IDENT" and tok.text.isdigit():
        after = cur.tokens[cur.pos + 1] if cur.pos + 1 < len(cur.tokens) else None
        if after is not None and after.kind == "COLON":
            cur.next("IDENT")
            cur.next("COLON")
            weight = int(tok.text)
            if weight <= 0:
                raise ParseError("weights must be positive integers", tok.line, tok.col)
            return weight, reader.read(cur)
    return 1, reader.read(cur)


def elaborate(problem: ProblemFile) -> PTRS:
    """Turn raw weighted rules into probability-carrying rewrite rules.

    Duplicate alternatives merge by summing their weights.
    """
    rules: list[ProbRule] = []
    for raw in problem.rules:
        merged: dict[Term, int] = {}
        for weight, term in raw.alternatives:
            merged[term] = merged.get(term, 0) + weight
        total = sum(merged.values())
        dist = FiniteDistribution({term: Fraction(w, total) for term, w in merged.items()})
        try:
            rules.append(ProbRule(raw.lhs, dist))
        except RuleError as exc:
            raise ElaborationError(str(exc), raw.line, raw.col, exc.reason) from None
    return PTRS(problem.signature, tuple(rules))


def load_problem(path: str) -> ProblemFile:
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_problem(handle.read())


def load_system(path: str) -> PTRS:
    return elaborate(load_problem(path))


def parse_term_text(text: str, variables: set[str], signature: Signature | None = None) -> Term:
    """Parse a standalone term, e.g. a start object given on a command line.

    Symbols already known from `signature` must keep their arity. A symbol
    the signature does not declare is accepted as a new constant, but not
    with arguments: `s^5000(0)` is an error, not a normal form named
    `s^5000`. Without a signature every symbol is accepted at the arity it
    is first used with.
    """
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty term", 1, 1)
    reader = _TermReader(set(variables))
    if signature is not None:
        for sym, arity in signature.symbols().items():
            reader.arities[sym] = (arity, None)
    cur = _Cursor(tokens, 1)
    term = reader.read(cur)
    leftover = cur.peek()
    if leftover is not None:
        raise ParseError(f"unexpected trailing {leftover.text!r}", leftover.line, leftover.col)
    if signature is not None:
        for sym, (arity, first) in reader.arities.items():
            if first is not None and arity > 0:
                raise ParseError(
                    f"symbol {sym!r} is applied to arguments but the system does not "
                    "declare it; new symbols may only be constants",
                    first.line,
                    first.col,
                )
    return term
