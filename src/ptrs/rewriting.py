"""Probabilistic rewriting and the one-step multidistribution semantics.

A PARS maps every object to finitely many reduct distributions; objects with
none are terminal. A multidistribution steps by replacing each nonterminal
entry (p, a) with p times one chosen reduct distribution of a, and dropping
terminal entries, so mass only ever shrinks.

A PTRS induces a PARS on terms: every redex occurrence of a rule contributes
one reduct distribution, built by instantiating the rule's right-hand sides,
collapsing duplicates created by the substitution, and plugging the results
back into the surrounding context.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import lcm, prod
from typing import Callable, Hashable, NamedTuple, Sequence

from .multidist import (
    FiniteDistribution,
    MultiDistribution,
    _step,
    as_fraction,
)
# the rule system, re-exported: callers of the engine may import it from here
from .rules import PTRS, ProbRule, RuleError  # noqa: F401
from .terms import (
    App,
    Position,
    Signature,
    Term,
    Var,
    apply_substitution,  # not called here; bench/tracing.py counts calls at this binding
    fold_term,
    match,
    replace_at,  # not called here; bench/tracing.py counts calls at this binding
)


class NodeBudgetExceeded(RuntimeError):
    """Exhaustive exploration grew past the configured node budget."""


class RedexStep:
    """One rule applied at one position, with the resulting distribution.

    A step is read off its term's redex index: the position and the reduct
    distribution are found by descent when read, so a step that is never
    chosen costs no term construction.
    """

    __slots__ = ("rule_index", "substitution", "_pars", "_top", "_index")

    def __init__(
        self, pars: "TermPars", top: "_Entry", index: int, rule_index: int, substitution: dict[str, Term]
    ):
        self.rule_index = rule_index
        self.substitution = substitution
        self._pars = pars
        self._top = top
        self._index = index

    @property
    def position(self) -> Position:
        position = []
        entry, k = self._top, self._index
        while k >= len(entry.matches):
            i, entry, k = _step_down(entry, k)
            position.append(i)
        return tuple(position)

    @property
    def result(self) -> FiniteDistribution[Term]:
        return self._pars._reduct(self._top, self._index)

    def __repr__(self) -> str:
        return f"RedexStep(position={self.position}, rule_index={self.rule_index})"


def enumerate_redexes(system: PTRS, term: Term) -> list[RedexStep]:
    """All redexes in pre-order position order, rule order within a position."""
    return TermPars(system).redexes(term)


class Pars:
    """One-step semantics: each object has finitely many reduct distributions.

    `truncate` is the cutoff of a system that truncates, and None for one
    whose `truncates` is always False, so callers can skip asking it.
    """

    truncate: int | None = None

    def options(self, obj: Hashable) -> list[FiniteDistribution]:
        raise NotImplementedError

    def choose(self, obj: Hashable, chooser: "Chooser") -> FiniteDistribution | None:
        """The reduct distribution the chooser picks for obj, or None when
        obj is terminal."""
        options = self.options(obj)
        if not options:
            return None
        return options[chooser(self, obj, options)]

    def truncates(self, obj: Hashable) -> bool:
        """True when the object sits on a configured truncation boundary."""
        return False

    def term_view(self, obj: Hashable) -> Term | None:
        """A term rendering of the object, when one exists (for ranking)."""
        return None

    def parse_object(self, text: str) -> Hashable:
        raise NotImplementedError(f"{type(self).__name__} cannot parse start objects")


MEMO_LIMIT = 65536
"""The cap of every table that grows with the terms met. A TermPars
starts its redex memo afresh before it indexes a term once the memo
holds this many nodes, so it holds at most this many plus one term's.
`simulator.run` starts a single-strategy step table afresh before a step
could take it past this many objects, and keeps an exhaustive one whole.
`simulator.drift_harness` keeps its TermPars, rank function and step
table on the system between calls, for the certificate it last checked;
before a trial, once the table holds more than this many objects or the
memo this many nodes, all three start afresh."""


class _Entry:
    """The redex index of one interned node.

    `matches` holds the index of every rule that matches at the node
    itself, in rule order; `count` is the number of redexes in the whole
    subterm, the node's matches first and then its children's in argument
    order, which is pre-order. `innermost` is the
    number of the leftmost-innermost redex: the first child's that holds
    a redex, else the node's first match (0 when there is none).
    `reducts` maps the number k of a redex in that order to its reduct
    distribution, plugged into this node; it keeps those built for a term
    this node is the root of or that a strategy's descent passed through,
    and those of the node's own matches.
    """

    __slots__ = ("node", "matches", "children", "count", "innermost", "reducts")

    def __init__(self, node: App | None, matches: tuple, children: tuple["_Entry", ...]):
        self.node = node
        self.matches = matches
        self.children = children
        count = len(matches)
        innermost = None
        for child in children:
            if innermost is None and child.count:
                innermost = count + child.innermost
            count += child.count
        self.count = count
        self.innermost = innermost or 0
        self.reducts: dict[int, FiniteDistribution[Term]] = {}


_LEAF = _Entry(None, (), ())  # a variable: no redex


def _leaf(var: Var) -> _Entry:
    return _LEAF


def _step_down(entry: _Entry, k: int) -> tuple[int, _Entry, int]:
    """For the k-th redex below entry's node, when it is not one of the
    node's own: the argument number of the child that holds it, the child's
    entry, and the redex's number below the child."""
    k -= len(entry.matches)
    for i, child in enumerate(entry.children, 1):
        if k < child.count:
            return i, child, k
        k -= child.count
    raise IndexError("redex index out of range")


def _compile_rule(rule: ProbRule) -> tuple[int, tuple, tuple, tuple]:
    """The program that instantiates the rule's right-hand sides at a node
    its left-hand side matches, over a list of slots that starts with the
    node: the rule's denominator; reads (slot, i), one per distinct
    left-hand subterm below the root, each adding argument i of an earlier
    slot; builds (symbol, argument slots), one per distinct right-hand node
    that is not a left-hand one, each adding that node over earlier slots,
    a single argument slot given as a plain int; and, per right-hand side
    in order, its numerator and its slot. Every part is linear in the size
    of the rule."""
    slots: dict[Term, int] = {rule.lhs: 0}
    reads: list[tuple[int, int]] = []
    stack = [rule.lhs]
    while stack:
        term = stack.pop()
        for i, arg in enumerate(term.args):
            if arg not in slots:
                slots[arg] = len(slots)
                reads.append((slots[term], i))
                if arg.__class__ is App:
                    stack.append(arg)
    builds: list[tuple[str, int | tuple[int, ...]]] = []

    def build(term: App, args: list[int]) -> int:
        builds.append((term.symbol, args[0] if len(args) == 1 else tuple(args)))
        return len(slots)  # fold_term files the node under it next

    # a right-hand variable occurs on the left, so it has a slot already
    alternatives = tuple((n, fold_term(rhs_term, slots.__getitem__, build, slots))
                         for n, rhs_term in rule.rhs.numerators)
    return rule.rhs.denominator, tuple(reads), tuple(builds), alternatives


class TermPars(Pars):
    """The PARS a PTRS induces on terms.

    Redexes are indexed per interned node by fold_term, so a term built
    from known subterms costs `match` calls only at its new nodes, and its
    reducts are plugged from those its subterms keep. The memo starts
    afresh once it holds MEMO_LIMIT nodes; on_memo_full, if given, is
    called with the limit the first time. A TermPars lives as long as its
    caller keeps it: one `simulate` run, or, in the drift harness, the
    system's held state until it starts afresh."""

    def __init__(self, system: PTRS, on_memo_full: Callable[[int], None] | None = None):
        self.system = system
        self._memo: dict[Term, _Entry] = {}
        self._on_memo_full = on_memo_full
        self._programs: list[tuple | None] = [None] * len(system.rules)
        rules_at: dict[str, list[tuple[int, Term]]] = {}
        for rule_index, rule in enumerate(system.rules):
            rules_at.setdefault(rule.lhs.symbol, []).append((rule_index, rule.lhs))
        rules_for = rules_at.get

        def index_node(node: App, children: list[_Entry]) -> _Entry:
            """fold_term's step: the entry of node, with the rules that
            match at it in rule order."""
            matches = []
            for rule_index, lhs in rules_for(node.symbol, ()):
                if match(lhs, node) is not None:
                    matches.append(rule_index)
            return _Entry(node, tuple(matches), tuple(children))

        self._index_node = index_node  # a closure: no bound method per call

    def _entry(self, term: Term) -> _Entry:
        """The index entry of term; nodes not indexed yet are indexed
        children first."""
        memo = self._memo
        entry = memo.get(term)
        if entry is not None:
            return entry
        if len(memo) >= MEMO_LIMIT:
            memo.clear()
            if self._on_memo_full is not None:
                self._on_memo_full(MEMO_LIMIT)
                self._on_memo_full = None
        return fold_term(term, _leaf, self._index_node, memo)

    def _contract(self, node: App, rule_index: int) -> FiniteDistribution[Term]:
        """The reduct distribution of a redex of the rule at the root of
        node. The rule's program reads what its variables match off node."""
        # Instantiation can merge distinct right-hand sides, so collapse
        # here; plugging into a context keeps them distinct (contexts are
        # injective). The rule's weights were checked when it was built, and
        # merging and plugging keep them positive and summing to the rule's
        # denominator.
        program = self._programs[rule_index]
        if program is None:
            program = self._programs[rule_index] = _compile_rule(self.system.rules[rule_index])
        den, reads, builds, alternatives = program
        slots = [node]
        for j, i in reads:
            slots.append(slots[j].args[i])
        for symbol, args in builds:
            if args.__class__ is int:
                slots.append(App(symbol, (slots[args],)))
            else:
                slots.append(App(symbol, tuple([slots[k] for k in args])))
        local: dict[Term, int] = {}
        for n, k in alternatives:
            image = slots[k]
            local[image] = local.get(image, 0) + n
        pairs = tuple((n, image) for image, n in local.items())
        return FiniteDistribution._unchecked(pairs, den, den)

    def _reduct(self, top: _Entry, k: int, keep_spine: bool = False) -> FiniteDistribution[Term]:
        """The reduct distribution of the k-th redex of top's node.

        Descend towards the redex to the first node that keeps the reduct
        sought there, or to the redex itself, which then keeps its own;
        plug back up one level at a time, and keep the result at top. With
        `keep_spine`, every node passed on the way keeps the result plugged
        into it, under its own number of the redex, so a later term that
        shares the subterm plugs only its new levels."""
        spine: list[tuple[_Entry, int, int]] = []
        entry, j = top, k
        while True:
            dist = entry.reducts.get(j)
            if dist is not None:
                break
            if j < len(entry.matches):
                dist = entry.reducts[j] = self._contract(entry.node, entry.matches[j])
                break
            i, child, j_below = _step_down(entry, j)
            spine.append((entry, i, j))
            entry, j = child, j_below
        pairs = dist.numerators
        den = dist.denominator
        for entry, i, j in reversed(spine):  # the last one is top's
            symbol, args = entry.node.symbol, entry.node.args
            pairs = [(n, App(symbol, args[: i - 1] + (image,) + args[i:])) for n, image in pairs]
            if keep_spine or entry is top:
                dist = entry.reducts[j] = FiniteDistribution._unchecked(tuple(pairs), den, den)
        return dist

    def redexes(self, term: Term) -> list[RedexStep]:
        """The steps of term in pre-order, each rule matched again for its substitution."""
        top = self._entry(term)
        steps: list[RedexStep] = []
        stack = [top]
        while stack:
            entry = stack.pop()
            for rule_index in entry.matches:
                substitution = match(self.system.rules[rule_index].lhs, entry.node)
                steps.append(RedexStep(self, top, len(steps), rule_index, substitution))
            stack.extend(child for child in reversed(entry.children) if child.count)
        return steps

    def innermost(self, term: Term) -> int:
        """The number of term's leftmost-innermost redex, 0 when it has none."""
        return self._entry(term).innermost

    def options(self, term: Term) -> list[FiniteDistribution]:
        top = self._entry(term)
        return [self._reduct(top, k) for k in range(top.count)]

    def choose(self, term: Term, chooser: "Chooser") -> FiniteDistribution | None:
        # Only the chosen redex has its reduct distribution built.
        top = self._entry(term)
        if not top.count:
            return None
        options = _LazyReducts(self, top)
        return options[chooser(self, term, options)]

    def term_view(self, obj: Hashable) -> Term | None:
        return obj if isinstance(obj, (Var, App)) else None

    def parse_object(self, text: str) -> Term:
        from .wst import parse_term_text

        return parse_term_text(text, set(), self.system.signature)


class _LazyReducts(Sequence):
    """The reduct distributions of a term's redexes, each built when indexed."""

    __slots__ = ("_pars", "_top")

    def __init__(self, pars: TermPars, top: _Entry):
        self._pars = pars
        self._top = top

    def __len__(self) -> int:
        return self._top.count

    def __getitem__(self, index: int) -> FiniteDistribution[Term]:
        count = self._top.count
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("redex index out of range")
        return self._pars._reduct(self._top, index, keep_spine=True)


Chooser = Callable[[Pars, Hashable, Sequence[FiniteDistribution]], int]


def leftmost_outermost(pars: Pars, obj: Hashable, options: Sequence[FiniteDistribution]) -> int:
    # Redexes are enumerated in pre-order, so the first option is outermost.
    return 0


def leftmost_innermost(pars: Pars, obj: Hashable, options: Sequence[FiniteDistribution]) -> int:
    return pars.innermost(obj) if isinstance(pars, TermPars) else 0


# Both strategies pick by the object alone, so a run may choose once per
# distinct object. The mark is an attribute, not membership in a set, so
# that wrappers made with functools.wraps keep it.
leftmost_outermost.per_object = True
leftmost_innermost.per_object = True


def step_multidist(pars: Pars, mu: MultiDistribution, chooser: Chooser) -> MultiDistribution:
    """One reduction step; terminal entries vanish, so mass is monotone.

    The chooser is asked once per entry, in entry order. Nothing in the
    package steps through here: `simulator.run` steps over integer
    indices with `multidist._step`, and `simulator.drift_harness` in its
    own loop. It stays as the one-step semantics for tests and the tracer."""
    return mu.bind(lambda obj: pars.choose(obj, chooser))


class BudgetTracker:
    def __init__(self, budget: int):
        self.budget = budget
        self.spent = 0

    def spend(self, amount: int) -> None:
        self.spent += amount
        if self.spent > self.budget:
            raise NodeBudgetExceeded(f"node budget of {self.budget} exceeded")


def all_steps(
    pars: Pars, mu: MultiDistribution, tracker: BudgetTracker | None = None
) -> list[MultiDistribution]:
    """Every one-step successor of mu, one choice per nonterminal entry.

    Duplicate results (as multisets) are removed; first-seen order is kept.
    """
    entries, choices = [], []
    for n, obj in mu.numerators:
        options = pars.options(obj)
        if options:
            entries.append((n, len(entries)))  # entry i takes combo[i]
            choices.append([(d.denominator, d.numerators) for d in options])
    if not choices:
        return [MultiDistribution.empty()]
    # every option is scaled to one common denominator of all of them, so
    # each successor is over mu's denominator times it and weighs the
    # nonterminal entries of mu: at most mass(mu)
    common = lcm(*{d for weighted in choices for d, _ in weighted})
    alternatives = [[(common, [(m * (common // d), image) for m, image in pairs]) for d, pairs in weighted]
                    for weighted in choices]
    if tracker is not None:
        tracker.spend(prod(map(len, alternatives)) * len(alternatives))
    den = mu.denominator * common
    seen: dict[MultiDistribution, None] = {}
    for combo in product(*alternatives):
        out, _, kept = _step(entries, combo, [], False)
        seen.setdefault(MultiDistribution._unchecked(tuple(out), den, kept * common))
    return list(seen)


def term_sampler(
    signature: Signature, variable_pool: Sequence[str] = ("x", "y")
) -> Callable[[random.Random, int], Term]:
    """Random well-formed terms over one signature, as a function of the
    rng and max_depth: a leaf is a nullary symbol or a name from the
    variable pool. The symbol and leaf lists are built once."""
    symbols = sorted(signature.symbols().items())
    leaves: list[Term] = [App(s, ()) for s, a in symbols if a == 0]
    leaves.extend(Var(name) for name in variable_pool)
    if not leaves:
        raise ValueError("need a nullary symbol or a variable pool to close terms")

    def draw(rng: random.Random, max_depth: int) -> Term:
        def build(depth: int) -> Term:
            if depth >= max_depth or rng.random() < 0.25:
                return rng.choice(leaves)
            sym, arity = rng.choice(symbols)
            return App(sym, tuple(build(depth + 1) for _ in range(arity)))

        return build(0)

    return draw


# ---------------------------------------------------------------------------
# Built-in PARS families, constructed in code rather than parsed.


class RandomWalk(Pars):
    """Walk on the naturals: n+1 steps to n with probability p, else to n+2.

    p is the probability of the decreasing alternative; 0 is terminal.
    """

    def __init__(self, p: Fraction | int | str, truncate: int | None = None):
        self.p = as_fraction(p)
        if not 0 <= self.p <= 1:
            raise ValueError(f"probability {self.p} outside [0, 1]")
        self.truncate = truncate

    def options(self, obj: int) -> list[FiniteDistribution]:
        if obj <= 0 or self.truncates(obj):
            return []
        # p = a/b in lowest terms, so a and b - a over b are the weights in
        # lowest terms too; a zero weight is left out
        a, b = self.p.numerator, self.p.denominator
        pairs = tuple((n, image) for n, image in ((a, obj - 1), (b - a, obj + 1)) if n)
        return [FiniteDistribution._unchecked(pairs, b, b)]

    def truncates(self, obj: int) -> bool:
        return self.truncate is not None and obj >= self.truncate

    def term_view(self, obj: int) -> Term:
        term: Term = App("0", ())
        for _ in range(obj):
            term = App("s", (term,))
        return term

    def parse_object(self, text: str) -> int:
        if not text.isdecimal():
            raise ValueError(f"cannot read start object {text!r} (expected a natural)")
        return int(text)


def random_walk_ptrs(p: Fraction | int | str) -> PTRS:
    """The term form of the walk: a single rule over s/1 (0 closes terms)."""
    p = as_fraction(p)
    x = Var("x")
    rule = ProbRule(
        App("s", (x,)),
        FiniteDistribution([(x, p), (App("s", (App("s", (x,)),)), 1 - p)]),
    )
    return PTRS(Signature({"s": 1, "0": 0}), (rule,))


class NondetBranch(Pars):
    """Six objects; a branches to b1/b2 fairly, both reach c, and c picks
    d1 or d2 nondeterministically. Terminal: d1, d2."""

    _OPTIONS: dict[str, list[FiniteDistribution]] = {
        "a": [FiniteDistribution({"b1": Fraction(1, 2), "b2": Fraction(1, 2)})],
        "b1": [FiniteDistribution.point("c")],
        "b2": [FiniteDistribution.point("c")],
        "c": [FiniteDistribution.point("d1"), FiniteDistribution.point("d2")],
    }

    def options(self, obj: str) -> list[FiniteDistribution]:
        return self._OPTIONS.get(obj, [])

    def parse_object(self, text: str) -> str:
        if text not in {"a", "b1", "b2", "c", "d1", "d2"}:
            raise ValueError(f"unknown object {text!r} (expected a, b1, b2, c, d1 or d2)")
        return text


class Stake(NamedTuple):
    """Pending stake in the payout family, rendered a0, a1, ..."""

    round: int

    def __str__(self) -> str:
        return f"a{self.round}"


class Payout(Pars):
    """Double-or-cash game: a_n either moves to a_{n+1} or busts (fair coin),
    or cashes out into a countdown of 2^n * n steps. Almost surely
    terminating, yet the expected derivation length over all schedulers is
    unbounded."""

    def __init__(self, truncate: int | None = None):
        self.truncate = truncate

    def options(self, obj: "Stake | int") -> list[FiniteDistribution]:
        if self.truncates(obj):
            return []
        if isinstance(obj, Stake):
            n = obj.round
            raise_or_bust = FiniteDistribution([(Stake(n + 1), Fraction(1, 2)), (0, Fraction(1, 2))])
            return [raise_or_bust, FiniteDistribution.point(2**n * n)]
        return [FiniteDistribution.point(obj - 1)] if obj > 0 else []

    def truncates(self, obj: "Stake | int") -> bool:
        return self.truncate is not None and isinstance(obj, Stake) and obj.round >= self.truncate

    def parse_object(self, text: str) -> "Stake | int":
        if text.startswith("a") and text[1:].isdecimal():
            return Stake(int(text[1:]))
        if text.isdecimal():
            return int(text)
        raise ValueError(f"cannot read start object {text!r} (expected aN or a natural)")


def make_family(name: str, p: Fraction | None = None, truncate: int | None = None) -> Pars:
    if name == "rw":
        if p is None:
            raise ValueError("family rw needs --p")
        return RandomWalk(p, truncate)
    if name == "nd":
        return NondetBranch()
    if name == "payout":
        return Payout(truncate)
    raise ValueError(f"unknown family {name!r} (expected rw, nd or payout)")
