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
from itertools import chain, product
from math import lcm
from typing import Callable, Hashable, NamedTuple, Sequence

from .multidist import (
    FiniteDistribution,
    MultiDistribution,
    as_fraction,
)
from .terms import (
    App,
    Position,
    Signature,
    Term,
    Var,
    apply_substitution,  # not called here; bench/tracing.py counts calls at this binding
    check_term,
    match,
    replace_at,  # not called here; bench/tracing.py counts calls at this binding
    variables,
)


class RuleError(ValueError):
    """Ill-formed probabilistic rewrite rule; `reason` names the defect."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class NodeBudgetExceeded(RuntimeError):
    """Exhaustive exploration grew past the configured node budget."""


class ProbRule:
    """l -> {p1: r1, ..., pn: rn} with vars(ri) contained in vars(l)."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: FiniteDistribution[Term]):
        if isinstance(lhs, Var):
            raise RuleError(f"left-hand side is the bare variable {lhs}", "variable-lhs")
        bound = variables(lhs)
        for term in rhs.support():
            extra = variables(term) - bound
            if extra:
                raise RuleError(
                    f"right-hand side uses variable {sorted(extra)[0]!r} not bound on the left",
                    "free-variable-on-rhs",
                )
        self.lhs = lhs
        self.rhs = rhs

    def __str__(self) -> str:
        return f"{self.lhs} -> {self.rhs}"


class PTRS:
    __slots__ = ("signature", "rules")

    def __init__(self, signature: Signature, rules: tuple[ProbRule, ...]):
        for rule in rules:
            check_term(rule.lhs, signature)
            for term in rule.rhs.support():
                check_term(term, signature)
        self.signature = signature
        self.rules = rules


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
"""Most term nodes a TermPars keeps the redex index of, with the reducts
kept at them. Past it the memo stops growing: a node left out is matched
afresh, and its reducts rebuilt, each time a term containing it is
visited, which bounds memory on long exhaustive runs at the price of
repeated work. The memo holds its nodes, so they stay interned while it
lives. `simulator.run` starts its step table afresh before a step could
take it past this many objects."""


class _Entry:
    """The redex index of one interned node.

    `matches` holds the (rule index, substitution) of every rule that
    matches at the node itself, in rule order; `count` is the number of
    redexes in the whole subterm, the node's matches first and then its
    children's in argument order, which is pre-order. `innermost` is the
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


def _compile_rule(rule: ProbRule) -> tuple[int, tuple, tuple]:
    """The plan that instantiates the rule's right-hand sides at a node its
    left-hand side matches: the rule's denominator; reads (slot, i), each
    of which adds a slot that holds argument i of the subject in an earlier
    slot, slot 0 being the node; and, per right-hand side in order, its
    numerator and a post-order list of steps. A step (None, slot) pushes
    that slot's subject, and (symbol, arity) pops that many values and
    pushes them as the arguments of symbol. A right-hand subterm that is a
    left-hand one, every variable among them, is read off the subject and
    not rebuilt. Every part is linear in the size of the rule."""
    parent: dict[Term, tuple[Term, int]] = {}
    stack = [rule.lhs]
    while stack:
        term = stack.pop()
        if term.__class__ is App:
            for i, arg in enumerate(term.args):
                if arg not in parent:
                    parent[arg] = (term, i)
                    stack.append(arg)
    slots: dict[Term, int] = {rule.lhs: 0}
    reads: list[tuple[int, int]] = []

    def slot(term: Term) -> int:
        unread, up = [], term
        while up not in slots:
            unread.append(up)
            up = parent[up][0]
        for below in reversed(unread):
            up, i = parent[below]
            slots[below] = len(slots)
            reads.append((slots[up], i))
        return slots[term]

    alternatives = []
    for n, rhs_term in rule.rhs.numerators:
        plan: list[tuple] = []
        todo: list[tuple[Term, bool]] = [(rhs_term, False)]
        while todo:
            term, built = todo.pop()
            if built:
                plan.append((term.symbol, len(term.args)))
            elif term in slots or term in parent:
                plan.append((None, slot(term)))
            else:
                todo.append((term, True))
                todo.extend((arg, False) for arg in reversed(term.args))
        alternatives.append((n, tuple(plan)))
    return rule.rhs.denominator, tuple(reads), tuple(alternatives)


class TermPars(Pars):
    """The PARS a PTRS induces on terms.

    Redexes are indexed per interned node, up to MEMO_LIMIT nodes: a term
    built from known subterms costs `match` calls only at its new nodes,
    and its reducts are plugged from those its subterms keep. on_memo_full,
    if given, is called with the limit once, the first time a node is left
    out of the full memo."""

    def __init__(self, system: PTRS, on_memo_full: Callable[[int], None] | None = None):
        self.system = system
        self._memo: dict[Term, _Entry] = {}
        self._on_memo_full = on_memo_full
        self._rules_at: dict[str, list[tuple[int, Term]]] = {}
        for index, rule in enumerate(system.rules):
            self._rules_at.setdefault(rule.lhs.symbol, []).append((index, rule.lhs))
        self._plans: list[tuple | None] = [None] * len(system.rules)

    def _entry(self, term: Term) -> _Entry:
        """The index entry of term. Nodes not indexed yet are indexed
        children first; past MEMO_LIMIT their entries are linked below the
        returned one but not kept in the memo."""
        memo = self._memo
        entry = memo.get(term)
        if entry is not None:
            return entry
        if term.__class__ is Var:
            return _LEAF
        made: dict[Term, _Entry] = {}  # entries left out of the full memo
        rules_at = self._rules_at
        stack = [term]
        while stack:
            node = stack[-1]
            children = []
            for arg in node.args:
                child = memo.get(arg) or made.get(arg)
                if child is None:
                    if arg.__class__ is Var:
                        child = _LEAF
                    else:
                        stack.append(arg)
                children.append(child)
            if stack[-1] is not node:
                continue  # index the new children first
            stack.pop()
            if node in memo or node in made:
                continue  # a shared child, pushed more than once
            matches = []
            for index, lhs in rules_at.get(node.symbol, ()):
                subst = match(lhs, node)
                if subst is not None:
                    matches.append((index, subst))
            entry = _Entry(node, tuple(matches), tuple(children))
            if len(memo) < MEMO_LIMIT:
                memo[node] = entry
            else:
                made[node] = entry
                if self._on_memo_full is not None:
                    self._on_memo_full(MEMO_LIMIT)
                    self._on_memo_full = None
        return memo.get(term) or made[term]

    def _contract(self, node: App, rule_index: int, substitution: dict[str, Term]) -> FiniteDistribution[Term]:
        """The reduct distribution of a redex at the root of node. The
        rule's plan reads the substitution's values off node itself."""
        # Instantiation can merge distinct right-hand sides, so collapse
        # here; plugging into a context keeps them distinct (contexts are
        # injective). The rule's weights were checked when it was built, and
        # merging and plugging keep them positive and summing to the rule's
        # denominator.
        plan = self._plans[rule_index]
        if plan is None:
            plan = self._plans[rule_index] = _compile_rule(self.system.rules[rule_index])
        den, reads, alternatives = plan
        slots = [node]
        for j, i in reads:
            slots.append(slots[j].args[i])
        local: dict[Term, int] = {}
        for n, steps in alternatives:
            values: list[Term] = []
            for symbol, operand in steps:
                if symbol is None:
                    values.append(slots[operand])
                elif operand == 1:
                    values[-1] = App(symbol, (values[-1],))
                elif operand:
                    args = tuple(values[-operand:])
                    del values[-operand:]
                    values.append(App(symbol, args))
                else:
                    values.append(App(symbol, ()))
            image = values[0]
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
                dist = entry.reducts[j] = self._contract(entry.node, *entry.matches[j])
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
        """The steps of term, read off its index in pre-order."""
        top = self._entry(term)
        steps: list[RedexStep] = []
        stack = [top]
        while stack:
            entry = stack.pop()
            for rule_index, substitution in entry.matches:
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


def random_chooser(rng: random.Random) -> Chooser:
    def choose(pars: Pars, obj: Hashable, options: Sequence[FiniteDistribution]) -> int:
        return rng.randrange(len(options))

    return choose


def step_multidist(pars: Pars, mu: MultiDistribution, chooser: Chooser) -> MultiDistribution:
    """One reduction step; terminal entries vanish, so mass is monotone.

    The chooser is asked once per entry, in entry order. Nothing in the
    package steps through here: `simulator.run` and
    `simulator.drift_harness` step over integer indices in their own
    loops. It stays as the one-step semantics for tests and the tracer."""
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
    choices = []
    for n, obj in mu.numerators:
        options = pars.options(obj)
        if options:
            choices.append((n, [(d.denominator, d.numerators) for d in options]))
    if not choices:
        return [MultiDistribution.empty()]
    # every successor's weights are numerators over mu's denominator times
    # one common denominator of all the options
    common = lcm(*{d for _, weighted in choices for d, _ in weighted})
    alternatives: list[list[tuple[tuple[int, Hashable], ...]]] = []
    for n, weighted in choices:
        opts = []
        for d, pairs in weighted:
            factor = n * (common // d)
            opts.append(tuple((factor * m, image) for m, image in pairs))
        alternatives.append(opts)
    # each option keeps the mass of the entry it replaces, so every
    # successor weighs the nonterminal entries of mu: at most mass(mu)
    den = mu.denominator * common
    mass = common * sum(n for n, _ in choices)
    seen: dict[MultiDistribution, None] = {}
    combos = 1
    for opts in alternatives:
        combos *= len(opts)
    if tracker is not None:
        tracker.spend(combos * len(alternatives))
    for combo in product(*alternatives):
        nu = MultiDistribution._unchecked(tuple(chain.from_iterable(combo)), den, mass)
        if nu not in seen:
            seen[nu] = None
    return list(seen)


def random_term(
    signature: Signature,
    rng: random.Random,
    *,
    max_depth: int = 4,
    variable_pool: Sequence[str] = ("x", "y"),
) -> Term:
    """Random well-formed term; leaves are variables or nullary symbols."""
    symbols = sorted(signature.symbols().items())
    leaves: list[Term] = [App(s, ()) for s, a in symbols if a == 0]
    leaves.extend(Var(name) for name in variable_pool)
    if not leaves:
        raise ValueError("need a nullary symbol or a variable pool to close terms")

    def build(depth: int) -> Term:
        if depth >= max_depth or rng.random() < 0.25:
            return rng.choice(leaves)
        sym, arity = rng.choice(symbols)
        return App(sym, tuple(build(depth + 1) for _ in range(arity)))

    return build(0)


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
        # options per height, built once: a run of k steps from n visits at
        # most n + k heights
        self._options: dict[int, list[FiniteDistribution]] = {}

    def options(self, obj: int) -> list[FiniteDistribution]:
        if obj <= 0 or self.truncates(obj):
            return []
        options = self._options.get(obj)
        if options is None:
            # p = a/b in lowest terms, so a and b - a over b are the weights
            # in lowest terms too; a zero weight is left out
            a, b = self.p.numerator, self.p.denominator
            pairs = tuple((n, image) for n, image in ((a, obj - 1), (b - a, obj + 1)) if n)
            options = self._options[obj] = [FiniteDistribution._unchecked(pairs, b, b)]
        return options

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
        # options per stake, built once; a countdown height is visited
        # about once, so its point distribution is built on each visit
        self._options: dict[Stake, list[FiniteDistribution]] = {}

    def options(self, obj: "Stake | int") -> list[FiniteDistribution]:
        if self.truncates(obj):
            return []
        if isinstance(obj, Stake):
            options = self._options.get(obj)
            if options is None:
                n = obj.round
                raise_or_bust = FiniteDistribution([(Stake(n + 1), Fraction(1, 2)), (0, Fraction(1, 2))])
                options = self._options[obj] = [raise_or_bust, FiniteDistribution.point(2**n * n)]
            return options
        return [FiniteDistribution.point(obj - 1)] if obj > 0 else []

    def truncates(self, obj: "Stake | int") -> bool:
        return self.truncate is not None and isinstance(obj, Stake) and obj.round >= self.truncate

    def parse_object(self, text: str) -> "Stake | int":
        if text.startswith("a") and text[1:].isdecimal():
            return Stake(int(text[1:]))
        if text.isdecimal():
            return int(text)
        raise ValueError(f"cannot read start object {text!r} (expected aN or a natural)")


FAMILY_NAMES = ("rw", "nd", "payout")


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
