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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import lcm
from typing import Callable, Hashable, Sequence

from .multidist import (
    FiniteDistribution,
    MultiDistribution,
    as_fraction,
)
from .terms import (
    App,
    Context,
    Position,
    Signature,
    Term,
    Var,
    apply_substitution,
    check_term,
    context_position,
    match,
    replace_at,
    term_size,
    variables,
)


class RuleError(ValueError):
    """Ill-formed probabilistic rewrite rule; `reason` names the defect."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class NodeBudgetExceeded(RuntimeError):
    """Exhaustive exploration grew past the configured node budget."""


@dataclass(frozen=True)
class ProbRule:
    """l -> {p1: r1, ..., pn: rn} with vars(ri) contained in vars(l)."""

    lhs: Term
    rhs: FiniteDistribution[Term]

    def __post_init__(self) -> None:
        if isinstance(self.lhs, Var):
            raise RuleError(f"left-hand side is the bare variable {self.lhs}", "variable-lhs")
        bound = variables(self.lhs)
        for term in self.rhs.support():
            extra = variables(term) - bound
            if extra:
                raise RuleError(
                    f"right-hand side uses variable {sorted(extra)[0]!r} not bound on the left",
                    "free-variable-on-rhs",
                )

    def __str__(self) -> str:
        return f"{self.lhs} -> {self.rhs}"


@dataclass(frozen=True)
class PTRS:
    signature: Signature
    rules: tuple[ProbRule, ...]

    def __post_init__(self) -> None:
        for rule in self.rules:
            check_term(rule.lhs, self.signature)
            for term in rule.rhs.support():
                check_term(term, self.signature)


class RedexStep:
    """One rule applied at one position, with the resulting distribution.

    The walk records only the redex's context, so the position and the
    reduct distribution are built on first access; a step that is never
    chosen costs no term construction.
    """

    __slots__ = (
        "rule_index", "substitution", "_rule", "_term", "_context", "_span", "_position", "_result"
    )

    def __init__(
        self,
        rule_index: int,
        substitution: dict[str, Term],
        rule: ProbRule,
        term: Term,
        context: Context,
        span: tuple[int, int],
    ):
        self.rule_index = rule_index
        self.substitution = substitution
        self._rule = rule
        self._term = term
        self._context = context
        # pre-order numbers of the redex node and of the first node after
        # its subterm: later redexes below it number inside this span
        self._span = span
        self._position: Position | None = None
        self._result: FiniteDistribution[Term] | None = None

    @property
    def position(self) -> Position:
        if self._position is None:
            self._position = context_position(self._context)
        return self._position

    @property
    def result(self) -> FiniteDistribution[Term]:
        if self._result is None:
            # Instantiation can merge distinct right-hand sides, so collapse
            # before plugging into the context (contexts are injective).
            # The rule's weights were checked when it was built, and merging
            # and plugging keep them positive and summing to the rule's denominator.
            rhs = self._rule.rhs
            local: dict[Term, int] = {}
            for n, rhs_term in rhs.numerators:
                image = apply_substitution(rhs_term, self.substitution)
                local[image] = local.get(image, 0) + n
            position = self.position
            self._result = FiniteDistribution._unchecked(
                tuple((n, replace_at(self._term, position, image)) for image, n in local.items()),
                rhs.denominator,
                rhs.denominator,
            )
        return self._result

    def __repr__(self) -> str:
        return f"RedexStep(position={self.position}, rule_index={self.rule_index})"


def enumerate_redexes(system: PTRS, term: Term) -> list[RedexStep]:
    """All redexes in pre-order position order, rule order within a position.

    One walk over the term: every node carries its context down, so no
    subterm is located or rebuilt from the root.
    """
    steps: list[RedexStep] = []
    rules = list(enumerate(system.rules))
    stack: list[tuple[Term, Context]] = [(term, None)]
    number = 0
    while stack:
        node, context = stack.pop()
        if node.__class__ is App:
            for index, rule in rules:
                if rule.lhs.symbol != node.symbol:
                    continue
                subst = match(rule.lhs, node)
                if subst is not None:
                    span = (number, number + term_size(node))
                    steps.append(RedexStep(index, subst, rule, term, context, span))
            args = node.args
            for i in range(len(args), 0, -1):
                stack.append((args[i - 1], (context, node, i)))
        number += 1
    return steps


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
"""Most terms a TermPars keeps the redexes of. Past it the memo stops
growing and every further term is enumerated afresh on each visit, which
bounds memory on long exhaustive runs at the price of repeated walks. The
memo holds its terms, so they stay interned while it lives."""


class TermPars(Pars):
    """The PARS a PTRS induces on terms; redexes are memoised per term up to
    MEMO_LIMIT terms. on_memo_full, if given, is called with the limit once,
    the first time a term is left out of the full memo."""

    def __init__(self, system: PTRS, on_memo_full: Callable[[int], None] | None = None):
        self.system = system
        self._memo: dict[Term, list[RedexStep]] = {}
        self._on_memo_full = on_memo_full

    def redexes(self, term: Term) -> list[RedexStep]:
        steps = self._memo.get(term)
        if steps is None:
            steps = enumerate_redexes(self.system, term)
            if len(self._memo) < MEMO_LIMIT:
                self._memo[term] = steps
            elif self._on_memo_full is not None:
                self._on_memo_full(MEMO_LIMIT)
                self._on_memo_full = None
        return steps

    def options(self, term: Term) -> list[FiniteDistribution]:
        return [step.result for step in self.redexes(term)]

    def choose(self, term: Term, chooser: "Chooser") -> FiniteDistribution | None:
        # Only the chosen redex has its reduct distribution built.
        steps = self.redexes(term)
        if not steps:
            return None
        return steps[chooser(self, term, _LazyReducts(steps))].result

    def term_view(self, obj: Hashable) -> Term | None:
        return obj if isinstance(obj, (Var, App)) else None

    def parse_object(self, text: str) -> Term:
        from .wst import parse_term_text

        return parse_term_text(text, set(), self.system.signature)


class _LazyReducts(Sequence):
    """The reduct distributions of a list of redexes, each built when indexed."""

    def __init__(self, steps: list[RedexStep]):
        self._steps = steps

    def __len__(self) -> int:
        return len(self._steps)

    def __getitem__(self, index: int) -> FiniteDistribution[Term]:
        return self._steps[index].result


Chooser = Callable[[Pars, Hashable, Sequence[FiniteDistribution]], int]


def leftmost_outermost(pars: Pars, obj: Hashable, options: Sequence[FiniteDistribution]) -> int:
    # Redexes are enumerated in pre-order, so the first option is outermost.
    return 0


def leftmost_innermost(pars: Pars, obj: Hashable, options: Sequence[FiniteDistribution]) -> int:
    # Redexes come in pre-order, so one is innermost exactly when the next
    # redex at another node does not lie below it: its pre-order number is
    # past the end of the first one's span.
    if isinstance(pars, TermPars):
        steps = pars.redexes(obj)
        first = 0
        for index in range(1, len(steps) + 1):
            if index < len(steps) and steps[index]._span[0] == steps[first]._span[0]:
                continue  # another rule at the same node
            if index == len(steps) or steps[index]._span[0] >= steps[first]._span[1]:
                return first
            first = index
    return 0


# Both strategies pick by the object alone, so a step may choose once per
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

    A chooser marked `per_object` is asked once per distinct object; any
    other chooser once per entry, in entry order."""
    if getattr(chooser, "per_object", False):
        chosen = dict.fromkeys(obj for _, obj in mu.numerators)
        for obj in chosen:
            chosen[obj] = pars.choose(obj, chooser)
        return mu.bind(chosen.__getitem__)
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


@dataclass
class EmbeddingReport:
    ok: bool
    problems: list[str]


def ars_embedding_check(pars: Pars, objects: Sequence[Hashable]) -> EmbeddingReport:
    """For non-probabilistic systems the multidistribution semantics must
    mirror plain rewriting: one-step reducts of {1: a} are exactly the point
    masses of the successors of a, and the empty multidistribution for
    normal forms."""
    problems: list[str] = []
    for obj in objects:
        options = pars.options(obj)
        for dist in options:
            if len(dist) != 1:
                problems.append(f"{obj} has a non-point reduct distribution {dist}")
        got = all_steps(pars, MultiDistribution.point(obj))
        if not options:
            expected = [MultiDistribution.empty()]
        else:
            expected = [MultiDistribution.from_distribution(d) for d in options]
        if Counter(got) != Counter(expected):
            problems.append(
                f"one-step reducts of {{1: {obj}}} are "
                f"{[str(m) for m in got]}, expected {[str(m) for m in expected]}"
            )
    return EmbeddingReport(not problems, problems)


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
        value = int(text)
        if value < 0:
            raise ValueError("start object must be a natural number")
        return value


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


@dataclass(frozen=True)
class Stake:
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
        if text.startswith("a") and text[1:].isdigit():
            return Stake(int(text[1:]))
        if text.isdigit():
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
