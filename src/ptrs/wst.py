"""Reader for rule files in WST block syntax.

The probabilistic extension writes a rule as

    l -> w1 : r1 || w2 : r2 || ... || wn : rn

with positive integer weights written in decimal digits; alternative j fires
with probability wj over the weight total. A rule without weights, `l -> r`,
abbreviates `l -> 1 : r`. Comments run from `;` to end of line. Symbol
arities are inferred from use, first use wins. The reader works on token
texts alone, as one `findall` gives them. `elaborate` builds the rules and
the system with the checking `ProbRule` and `PTRS` constructors only.
"""

from __future__ import annotations

import re
from functools import partial
from math import gcd
from typing import Callable, NamedTuple

from .multidist import FiniteDistribution
from .rules import PTRS, ProbRule, RuleError
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


# Every character falls in exactly one alternative, so `findall` skips
# nothing; whitespace and comments match outside the group and come out as
# ''. An identifier is a run of the other characters, and takes a '-' only
# when no '>' follows it. A lone '|' is read only to be reported.
_TOKEN = re.compile(r"[ \t\r\n]+|;[^\n]*|(->|\|\|?|[(),:]|(?:[^ \t\r\n(),:;|-]|-(?!>))+)")
_PUNCTUATION = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", ":": "COLON", "->": "ARROW", "||": "BAR"}


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        tok = m.group(1)
        if tok is None:
            if "\n" in m.group():
                line += m.group().count("\n")
                line_start = m.start() + m.group().rindex("\n") + 1
        elif tok == "|":
            raise ParseError("stray '|' (alternatives are separated by '||')", line, m.start() - line_start + 1)
        else:
            tokens.append(Token(_PUNCTUATION.get(tok, "IDENT"), tok, line, m.start() - line_start + 1))
    return tokens


class RawRule:
    """A rule as written: weighted alternatives, at the line and column
    where it starts. Equality and hashing ignore the position, which a
    parsed rule works out when it is first read."""

    __slots__ = ("lhs", "alternatives", "_at")

    def __init__(self, lhs: Term, alternatives: tuple[tuple[int, Term], ...], line: int = 0, col: int = 0):
        self.lhs = lhs
        self.alternatives = alternatives
        self._at: tuple[int, int] | Callable[[], tuple[int, int]] = (line, col)

    def _where(self) -> tuple[int, int]:
        if callable(self._at):
            self._at = self._at()
        return self._at

    line = property(lambda self: self._where()[0])
    col = property(lambda self: self._where()[1])

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


class _Reader:
    """Reads terms from `toks`, the token texts of `text`, while inferring
    arities, first use winning. A '' in `toks` ends the input. A token's
    line and column are worked out only for an error or a rule's position."""

    __slots__ = ("text", "toks", "end_line", "variables", "arities", "_tokens")

    def __init__(self, text: str, end_line: int, variables: set[str]):
        self.toks = list(filter(None, _TOKEN.findall(text)))
        if "|" in self.toks:
            tokenize(text)  # raises the stray-bar error at the first '|'
        self.text, self.end_line, self.variables = text, end_line, variables
        # each symbol's arity and the index of its first use; None for a declared symbol
        self.arities: dict[str, tuple[int, int | None]] = {}
        self._tokens: list[Token] | None = None

    def position(self, index: int) -> tuple[int, int]:
        # the i-th token text is the i-th token of `tokenize`
        if self._tokens is None:
            self._tokens = tokenize(self.text)
        return self._tokens[index][2:]

    def error(self, index: int, message: str) -> ParseError:
        return ParseError(message, *self.position(index))

    def expected(self, index: int, kind: str) -> ParseError:
        if not self.toks[index]:
            return ParseError("unexpected end of input", self.end_line, 1)
        return self.error(index, f"expected {kind}, found {self.toks[index]!r}")

    def term(self, i: int) -> tuple[Term, int]:
        """The term that starts at token i, and the index after it."""
        # Open applications wait on a stack, so nesting depth costs no
        # recursion. Symbols are noted in post-order, as they complete.
        toks, variables, arities = self.toks, self.variables, self.arities
        pending: list[tuple[str, int, list[Term]]] = []
        while True:
            head = toks[i]
            if not head or head in _PUNCTUATION:
                raise self.expected(i, "IDENT")
            at = i
            i += 1
            if toks[i] != "(" and head in variables:
                term: Term = Var(head)
            else:
                if toks[i] == "(":
                    if head in variables:
                        raise self.error(at, f"variable {head!r} used with arguments")
                    i += 1
                    if toks[i] != ")":
                        if not toks[i]:
                            raise self.expected(i, "RPAREN")
                        pending.append((head, at, []))
                        continue
                    i += 1
                if arities.setdefault(head, (0, at))[0]:
                    raise self._arity_error(head, 0, at)
                term = App(head, ())
            while pending:
                head, at, args = pending[-1]
                args.append(term)
                if toks[i] == ",":
                    i += 1
                    break
                if toks[i] != ")":
                    raise self.expected(i, "RPAREN")
                i += 1
                pending.pop()
                if arities.setdefault(head, (len(args), at))[0] != len(args):
                    raise self._arity_error(head, len(args), at)
                term = App(head, tuple(args))
            else:
                return term, i

    def _arity_error(self, sym: str, arity: int, at: int) -> ParseError:
        declared, first = self.arities[sym]
        if first is None:
            earlier = f"the system declares it with {declared}"
        else:
            earlier = "with {} at line {}, column {}".format(declared, *self.position(first))
        return self.error(at, f"symbol {sym!r} used with {arity} arguments here but {earlier}")


def parse_problem(text: str) -> ProblemFile:
    reader = _Reader(text, text.count("\n") + 1, set())
    toks = reader.toks
    if not toks:
        raise ParseError("empty problem file", 1, 1)
    blocks: list[tuple[int, int]] = []  # each block's name and closing ')', by index
    i, n = 0, len(toks)
    while i < n:
        if toks[i] != "(":
            raise reader.error(i, f"expected '(', found {toks[i]!r}")
        if i + 1 == n or toks[i + 1] in _PUNCTUATION:
            raise reader.error(min(i + 1, n - 1), "expected a block name after '('")
        depth, j = 1, i + 2
        while j < n and depth:
            depth += (toks[j] == "(") - (toks[j] == ")")
            j += 1
        if depth:
            raise reader.error(i + 1, f"unclosed block {toks[i + 1]!r}")
        blocks.append((i + 1, j - 1))
        i = j
    for _, close in blocks:
        toks[close] = ""  # the end of the reader's input

    variables: dict[str, None] = {}  # the names in first-seen order
    for name, close in blocks:
        for k in range(name + 1, close) if toks[name] == "VAR" else ():
            if toks[k] in _PUNCTUATION:
                raise reader.error(k, f"unexpected {toks[k]!r} in VAR block")
            variables[toks[k]] = None

    reader.variables = set(variables)
    rules: list[RawRule] = []
    for name, close in blocks:
        if toks[name] == "VAR":
            continue
        if toks[name] != "RULES":
            raise reader.error(name, f"unknown block {toks[name]!r}")
        i = name + 1
        while i < close:
            start = i
            lhs, i = reader.term(i)
            if toks[i] != "->":
                raise reader.expected(i, "ARROW")
            alternatives: list[tuple[int, Term]] = []
            while not alternatives or toks[i] == "||":  # i is at '->' or '||'
                weight = 1
                if toks[i + 1].isdecimal() and toks[i + 2] == ":":
                    weight = int(toks[i + 1])
                    if weight <= 0:
                        raise reader.error(i + 1, "weights must be positive integers")
                    i += 2
                term, i = reader.term(i + 1)
                alternatives.append((weight, term))
            rule = RawRule(lhs, tuple(alternatives))
            rule._at = partial(reader.position, start)
            rules.append(rule)
    if not rules:
        raise ParseError("no rules found", reader.end_line, 1)
    signature = Signature({s: a for s, (a, _) in reader.arities.items()})
    return ProblemFile(tuple(variables), tuple(rules), signature)


def elaborate(problem: ProblemFile) -> PTRS:
    """Turn raw weighted rules into probability-carrying rewrite rules.

    Duplicate alternatives merge by summing their weights. Divided by
    their gcd g, the weights over their total are in the least terms that
    `FiniteDistribution` gives: lcm(total/gcd(w_i, total)) = total/g.
    """
    rules: list[ProbRule] = []
    for raw in problem.rules:
        merged: dict[Term, int] = {}
        for weight, term in raw.alternatives:
            merged[term] = merged.get(term, 0) + weight
        g = gcd(*merged.values())
        total = sum(merged.values()) // g
        dist = FiniteDistribution._unchecked(tuple((w // g, term) for term, w in merged.items()), total, total)
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
    reader = _Reader(text, 1, set(variables))
    toks = reader.toks
    if not toks:
        raise ParseError("empty term", 1, 1)
    toks.append("")
    if signature is not None:
        reader.arities = {sym: (arity, None) for sym, arity in signature.symbols().items()}
    term, i = reader.term(0)
    if toks[i]:
        raise reader.error(i, f"unexpected trailing {toks[i]!r}")
    if signature is not None:
        for sym, (arity, first) in reader.arities.items():
            if first is not None and arity > 0:
                raise reader.error(
                    first,
                    f"symbol {sym!r} is applied to arguments but the system does not "
                    "declare it; new symbols may only be constants",
                )
    return term
