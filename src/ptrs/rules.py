"""The rule system: probabilistic rewrite rules and the systems they form.

A rule l -> {p1: r1, ..., pn: rn} rewrites an instance of l to the matching
instance of ri with probability pi; every variable of a right-hand side
occurs in l, which is not a bare variable. A PTRS is a signature and a
tuple of rules whose terms are well formed over it. Only the checking
`ProbRule` and `PTRS` constructors build them, for the WST reader too.
The rewriting engine, the prover and the certificate checker all read
these names from here.
"""

from __future__ import annotations

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


# the built-in PARS families `rewriting.make_family` builds, by name
FAMILY_NAMES = ("rw", "nd", "payout")
