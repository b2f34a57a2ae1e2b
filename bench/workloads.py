"""Seeded op streams for the three benchmark workloads.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned. Ops come in cycles. A cycle holds a fixed
number of ops of each class, with seeded parameters drawn from narrow
ranges, shuffled by the seed; so every run sees the same class mix and the
seed only changes the concrete inputs. The same seed gives the same op
stream and byte-identical input files.

This module does not import ptrs: the set-up probe loads it before it
starts its clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path

WORKLOADS = ("prove-portfolio", "simulate-exact", "drift-rank")

SHIPPED_PROBLEMS = ("rw34", "matrix", "coingame", "rw14")
CERTIFICATES = ("coingame", "rw34", "matrix")

# Inputs each workload loads once through the program; the set-up probe
# times exactly these loads.
FIXED_SYSTEMS = {
    "prove-portfolio": SHIPPED_PROBLEMS,
    "simulate-exact": ("rw34", "coingame"),
    "drift-rank": CERTIFICATES,
}

COEFF_BOUND = "1"

# Nominal time of one cycle at the reference speed of reference.py: both
# timed rounds, with the reference task's share. A run of --seconds holds
# round(seconds / CYCLE_SECONDS) whole cycles, so every run of a workload
# has the same mix of op classes.
CYCLE_SECONDS = {"prove-portfolio": 5.3, "simulate-exact": 6.4, "drift-rank": 1.6}

# Verdicts of the shipped problems at --coeff-bound 1 with the box solver.
SHIPPED_VERDICTS = {
    "rw34": ("YES", "poly-linear"),
    "matrix": ("YES", "matrix-2"),
    "coingame": ("MAYBE", None),
    "rw14": ("MAYBE", None),
}


@dataclass(frozen=True)
class Op:
    """One benchmark op and what its output is checked against.

    kind "cli" runs ptrs.cli.main(argv); kind "drift" runs
    ptrs.simulator.drift_harness on a shipped certificate. `oracle` names
    the check in oracles.py and carries its parameters.
    """

    label: str
    kind: str
    argv: tuple[str, ...] = ()
    oracle: tuple = ()
    cert: str = ""
    trials: int = 0
    max_depth: int = 0
    rng_seed: int = 0
    forged: bool = False


def problem_path(name: str, suffix: str = "wst") -> str:
    return f"problems/{name}.{suffix}"


def nest(symbol: str, depth: int, leaf: str = "0") -> str:
    return f"{symbol}(" * depth + leaf + ")" * depth


# ---------------------------------------------------------------------------
# prove-portfolio: random small systems over one fixed signature.
#
# Two classes whose verdict at --coeff-bound 1 follows from how they are
# built, so the oracle knows it without running a prover:
#   yes-class: every alternative is non-duplicating and the weighted
#     expected symbol count drops, so [f](x1..xn) = x1 + ... + xn + 1
#     orients every rule; that interpretation lies in the poly-linear box
#     0..1, which the box solver searches completely: YES at poly-linear.
#   maybe-class: one rule rewrites l only to contexts C[l]. Every template
#     in the portfolio has linear (or (1,1) matrix) coefficients of at
#     least 1 and no negative entries, so [C[l]] >= [l] and that rule is
#     never oriented: MAYBE. Each such system uses all four symbols, which
#     puts the matrix-2 box (2^20 points) over the box solver's budget, so
#     a MAYBE costs three or four solver start-ups instead of a search
#     whose length depends on which symbols happen to occur.

SIGNATURE = (("0", 0), ("s", 1), ("f", 1), ("g", 2))
FUNCTIONS = tuple(s for s in SIGNATURE if s[1] > 0)
VARIABLES = ("x", "y")


class Tree:
    """Tiny term tree used only to generate systems as text."""

    __slots__ = ("head", "args")

    def __init__(self, head: str, args: tuple["Tree", ...] = ()):
        self.head = head
        self.args = args

    def __str__(self) -> str:
        if not self.args:
            return self.head
        return f"{self.head}({','.join(str(a) for a in self.args)})"

    def symbols(self) -> int:
        if self.head in VARIABLES:
            return 0
        return 1 + sum(a.symbols() for a in self.args)

    def occurrences(self) -> dict[str, int]:
        if self.head in VARIABLES:
            return {self.head: 1}
        out: dict[str, int] = {}
        for a in self.args:
            for v, n in a.occurrences().items():
                out[v] = out.get(v, 0) + n
        return out

    def heads(self) -> set[str]:
        out = set() if self.head in VARIABLES else {self.head}
        for a in self.args:
            out |= a.heads()
        return out

    def proper_subterms(self) -> list["Tree"]:
        out: list[Tree] = []
        for a in self.args:
            out.append(a)
            out.extend(a.proper_subterms())
        return out


def _random_tree(rng: random.Random, leaves: list[str], depth: int) -> Tree:
    if depth <= 0 or rng.random() < 0.35:
        return Tree(rng.choice(leaves))
    head, arity = rng.choice(FUNCTIONS)
    return Tree(head, tuple(_random_tree(rng, leaves, depth - 1) for _ in range(arity)))


def _random_lhs(rng: random.Random) -> Tree:
    head, arity = rng.choice(FUNCTIONS)
    leaves = list(VARIABLES) + ["0"]
    return Tree(head, tuple(_random_tree(rng, leaves, 1) for _ in range(arity)))


def _wrap(rng: random.Random, inner: Tree, lhs_vars: list[str]) -> Tree:
    """A one-symbol context around `inner`; g's other argument is random."""
    head, _ = rng.choice(FUNCTIONS)
    if head != "g":
        return Tree(head, (inner,))
    other = _random_tree(rng, lhs_vars + ["0"], 1)
    return Tree("g", (inner, other) if rng.random() < 0.5 else (other, inner))


Rule = tuple[Tree, list[tuple[int, Tree]]]


def _rule_text(rule: Rule) -> str:
    lhs, alternatives = rule
    return f"  {lhs} -> " + " || ".join(f"{w} : {r}" for w, r in alternatives)


def _rule_heads(rule: Rule) -> set[str]:
    lhs, alternatives = rule
    return lhs.heads().union(*(alt.heads() for _, alt in alternatives))


def _decreasing_rule(rng: random.Random) -> Rule:
    """A rule that the all-ones linear interpretation orients."""
    while True:
        lhs = _random_lhs(rng)
        subterms = lhs.proper_subterms() + [Tree("0")]
        alternatives = []
        for _ in range(rng.randint(1, 3)):
            alt = rng.choice(subterms)
            if rng.random() < 0.4:
                alt = _wrap(rng, alt, [])  # growth, paid for by the other weights
                while alt.symbols() <= lhs.symbols() and rng.random() < 0.5:
                    alt = _wrap(rng, alt, [])
            alternatives.append((rng.randint(1, 4), alt))
        occ = lhs.occurrences()
        non_duplicating = all(
            n <= occ.get(v, 0) for _, alt in alternatives for v, n in alt.occurrences().items()
        )
        total = sum(w for w, _ in alternatives)
        drop = total * lhs.symbols() - sum(w * alt.symbols() for w, alt in alternatives)
        if non_duplicating and drop > 0:
            return lhs, alternatives


def _looping_rule(rng: random.Random, missing: set[str]) -> Rule:
    """l -> w1 : C1[l] || ... with every symbol in `missing` placed in a context."""
    lhs = _random_lhs(rng)
    lhs_vars = sorted(lhs.occurrences())
    alternatives = []
    for _ in range(rng.randint(1, 2)):
        alt = lhs
        for _ in range(rng.randint(0, 2)):
            alt = _wrap(rng, alt, lhs_vars)
        alternatives.append((rng.randint(1, 4), alt))
    need = missing - _rule_heads((lhs, alternatives))
    if need:
        alt = lhs
        for head in sorted(need):
            if head == "0":
                alt = Tree("g", (alt, Tree("0")))
            elif head == "g":
                alt = Tree("g", (alt, Tree(lhs_vars[0] if lhs_vars else "0")))
            else:
                alt = Tree(head, (alt,))
        alternatives.append((rng.randint(1, 4), alt))
    return lhs, alternatives


def random_system(rng: random.Random, cls: str) -> str:
    """A .wst text with 1 to 3 rules of the given class."""
    count = rng.randint(1, 3)
    if cls == "yes":
        rules = [_decreasing_rule(rng) for _ in range(count)]
    else:
        rules = [_decreasing_rule(rng) for _ in range(count - 1)]
        used = set().union(*(_rule_heads(rule) for rule in rules))
        rules.append(_looping_rule(rng, {s for s, _ in SIGNATURE} - used))
        rng.shuffle(rules)
    return "(VAR x y)\n(RULES\n" + "\n".join(_rule_text(r) for r in rules) + "\n)\n"


# Per cycle: 10 yes-class, 4 maybe-class and the 4 shipped problems, so 11
# of 18 ops are one-call YES answers (the median sits inside that class)
# and 7 are three- or four-call answers (the tail sits inside those).
PROVE_CYCLE = (("yes", 10), ("maybe", 4))


def prove_cycle(rng: random.Random, solver: str, inputs: Path, counter: list[int]) -> list[Op]:
    ops: list[Op] = []
    for name in SHIPPED_PROBLEMS:
        ops.append(_prove_op(f"prove:{name}", problem_path(name), solver, ("shipped", name)))
    for cls, count in PROVE_CYCLE:
        for _ in range(count):
            path = inputs / f"sys-{counter[0]:05d}.wst"
            counter[0] += 1
            path.write_text(random_system(rng, cls))
            ops.append(_prove_op(f"prove:{cls}-class", str(path), solver, (cls,)))
    return ops


def _prove_op(label: str, path: str, solver: str, expect: tuple) -> Op:
    argv = ("prove", path, "--solver", solver, "--coeff-bound", COEFF_BOUND)
    return Op(label, "cli", argv, ("prove", path) + expect)


# ---------------------------------------------------------------------------
# simulate-exact
#
# Walk ops (rw34.wst from s^k(0), and --family rw) are checked against the
# height-walk oracle. The coingame and exhaustive ops come from the finite
# tables below, whose every stdout digest is recorded in
# reference_digests.json.
#
# Deep starts stay at k <= 100 because op time grows with k^3 per step
# (k = 100 for 4 steps takes about 0.3 s). s^250(0) would raise
# RecursionError, a known defect, but that is not what caps k.

COINGAME_STARTS = tuple(f"?({nest('s', n)})" for n in range(4)) + ("?(g(s(0)))", "?(f(0))")
COINGAME_STEPS = (20, 30, 40)
COINGAME_EXTRAS = ((), ("--collapse",), ("--mode", "innermost"), ("--collapse", "--mode", "innermost"))

EXHAUSTIVE_TABLE = tuple(
    [("--family", "nd", "--start", start, "--steps", str(steps))
     for start, steps in product(("a", "b1", "c"), range(2, 7))]
    + [("--family", "payout", "--start", "a0", "--steps", str(steps)) for steps in range(6, 25, 2)]
    + [(problem_path("coingame"), "--start", start, "--steps", str(steps))
       for start, steps in product(("?(0)", "?(s(0))", "?(s(s(0)))"), range(3, 10))]
)

WALK_PROBABILITIES = ("3/4", "2/3", "3/5")


def coingame_argvs() -> list[tuple[str, ...]]:
    return [
        ("simulate", problem_path("coingame"), "--start", start, "--steps", str(steps)) + extra
        for start, steps, extra in product(COINGAME_STARTS, COINGAME_STEPS, COINGAME_EXTRAS)
    ]


def exhaustive_argvs() -> list[tuple[str, ...]]:
    return [
        ("simulate",) + row + ("--mode", "exhaustive") + extra
        for row, extra in product(EXHAUSTIVE_TABLE, ((), ("--collapse",)))
    ]


def digest_argvs() -> list[tuple[str, ...]]:
    """Every digest-checked op the generator can draw, for recording references."""
    return coingame_argvs() + exhaustive_argvs()


def digest_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def _rw34_walk(label: str, k: int, steps: int, mode: str, collapse: bool) -> Op:
    argv = ("simulate", problem_path("rw34"), "--start", nest("s", k), "--steps", str(steps),
            "--mode", mode) + (("--collapse",) if collapse else ())
    return Op(label, "cli", argv, ("walk", "3/4", k, steps, collapse, "term"))


def simulate_cycle(rng: random.Random) -> list[Op]:
    # 4 light ops (coingame, exhaustive: under 50 ms), 8 middle ops (rw
    # family, uncollapsed: 0.15 to 0.2 s) and 5 deep starts (about 0.3 s):
    # the median falls in the middle of the middle class, which the six
    # rw-family runs of nearly equal cost dominate, and the tail inside the
    # deep starts.
    ops = [
        # deep starts at s^100(0): the cubic redex walk; they set peak memory.
        # k is fixed because op time grows as k^3 and the tail falls here.
        *(_rw34_walk("simulate:deep-outermost", 100, 4, "outermost", True) for _ in range(3)),
        *(_rw34_walk("simulate:deep-innermost", 100, 4, "innermost", True) for _ in range(2)),
        # uncollapsed: entries double per step
        _rw34_walk("simulate:uncollapsed", rng.randint(4, 6), 12, "outermost", False),
        _rw34_walk("simulate:uncollapsed", rng.randint(4, 6), 12, "innermost", False),
    ]
    for p in WALK_PROBABILITIES * 2:
        start, steps = rng.randint(3, 8), 110
        argv = ("simulate", "--family", "rw", "--p", p, "--start", str(start),
                "--steps", str(steps), "--collapse")
        ops.append(Op("simulate:family-rw", "cli", argv, ("walk", p, start, steps, True, "int")))
    for argv in rng.sample(coingame_argvs(), 2):
        ops.append(Op("simulate:coingame", "cli", argv, ("digest", digest_key(argv))))
    for argv in rng.sample(exhaustive_argvs(), 2):
        ops.append(Op("simulate:exhaustive", "cli", argv, ("digest", digest_key(argv))))
    return ops


# ---------------------------------------------------------------------------
# drift-rank
#
# Trials and depth per certificate put a valid op near 40 ms (coingame),
# 60 ms (matrix) and 125 ms (rw34) at the reference speed. The cost of a
# trial depends on its random start term; matrix ops run many short trials
# (80 of 4 steps), whose cost varies least per second of op time. Below the
# 4 matrix ops of a cycle are 3 cheap ops and above them 3 rw34 ops, so the
# median sits in the middle of the matrix ops and the tail inside the rw34
# ops. Forged ops ask for twice the certified epsilon on rw34 and matrix,
# where every rewrite step drops the rank by exactly the certified
# epsilon, so the first step that rewrites anything is a violation; 100
# trials make a run without any redex impossible in practice.

DRIFT_CYCLE = (
    ("matrix", 80, 4, False, 4),
    ("rw34", 8, 20, False, 3),
    ("coingame", 150, 20, False, 1),
    ("rw34", 100, 20, True, 1),
    ("matrix", 100, 20, True, 1),
)


def drift_cycle(rng: random.Random) -> list[Op]:
    ops = []
    for cert, trials, depth, forged, count in DRIFT_CYCLE:
        for _ in range(count):
            label = f"drift:{cert}" + (":forged" if forged else "")
            ops.append(Op(label, "drift", oracle=("drift",), cert=cert, trials=trials,
                          max_depth=depth, rng_seed=rng.getrandbits(32), forged=forged))
    return ops


# ---------------------------------------------------------------------------


def load_fixed(workload: str) -> dict:
    """Import what the workload uses and load its fixed inputs through the program.

    drift-rank gets {name: (system, checked certificate)}; the CLI workloads
    get {name: system}, which their ops parse again on every call.
    """
    from ptrs.wst import load_system

    if workload == "drift-rank":
        import ptrs.simulator  # noqa: F401  (the module every drift op calls)
        from ptrs.certtext import load_interpretation
        from ptrs.interpretations import check_certificate

        return {
            name: (system, check_certificate(load_interpretation(problem_path(name, "cert")), system))
            for name in FIXED_SYSTEMS[workload]
            for system in [load_system(problem_path(name))]
        }
    import ptrs.cli  # noqa: F401

    return {name: load_system(problem_path(name)) for name in FIXED_SYSTEMS[workload]}


def op_cycles(workload: str, seed: int, inputs: Path, solver: str):
    """Endless seeded stream of shuffled cycles; inputs holds the generated .wst files."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    counter = [0]
    while True:
        if workload == "prove-portfolio":
            cycle = prove_cycle(rng, solver, inputs, counter)
        elif workload == "simulate-exact":
            cycle = simulate_cycle(rng)
        else:
            cycle = drift_cycle(rng)
        rng.shuffle(cycle)
        yield cycle

