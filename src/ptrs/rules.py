"""The rule system: probabilistic rewrite rules and the systems they form.

A rule l -> {p1: r1, ..., pn: rn} rewrites an instance of l to the matching
instance of ri with probability pi; every variable of a right-hand side
occurs in l, which is not a bare variable. A PTRS is a signature and a
tuple of rules whose terms are well formed over it. The rewriting engine,
the prover and the certificate checker all read these names from here.
"""

from __future__ import annotations

from typing import Iterable

from .multidist import FiniteDistribution
from .terms import Signature, Term, Var, check_term, variables


class RuleError(ValueError):
    """Ill-formed probabilistic rewrite rule; `reason` names the defect."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class ProbRule:
    """l -> {p1: r1, ..., pn: rn} with vars(ri) contained in vars(l)."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: FiniteDistribution[Term]):
        self._set(lhs, rhs, variables(lhs), map(variables, rhs.support()))

    @classmethod
    def _read(cls, lhs: Term, rhs: FiniteDistribution[Term], bound: set[str], used: Iterable[set[str]]):
        """The rule with the same checks, made from the variables a reader
        collected as it built the terms: `bound` of the left-hand side, and
        `used` of each right-hand side in the order of `rhs.support()`,
        where a term may come more than once."""
        rule = cls.__new__(cls)
        rule._set(lhs, rhs, bound, used)
        return rule

    def _set(self, lhs: Term, rhs: FiniteDistribution[Term], bound: set[str], used: Iterable[set[str]]) -> None:
        if isinstance(lhs, Var):
            raise RuleError(f"left-hand side is the bare variable {lhs}", "variable-lhs")
        for names in used:
            extra = names - bound
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
    """A probabilistic term rewrite system.

    `_drift` holds what `simulator.drift_harness` keeps between its calls
    on the system: at most one state, for the certificate it last checked.
    It is a list, so that a call takes the state with one atomic `pop` and
    a concurrent call finds it empty and builds its own."""

    __slots__ = ("signature", "rules", "_drift")

    def __init__(self, signature: Signature, rules: tuple[ProbRule, ...]):
        for rule in rules:
            check_term(rule.lhs, signature)
            for term in rule.rhs.support():
                check_term(term, signature)
        self.signature = signature
        self.rules = rules
        self._drift: list = []

    @classmethod
    def _read(cls, signature: Signature, rules: tuple[ProbRule, ...]) -> "PTRS":
        """The system of rules whose terms a reader built with the arities
        it gave `signature`, so no term is checked against it again."""
        system = cls.__new__(cls)
        system.signature, system.rules, system._drift = signature, rules, []
        return system


# the built-in PARS families `rewriting.make_family` builds, by name
FAMILY_NAMES = ("rw", "nd", "payout")
