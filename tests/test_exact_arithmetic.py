"""The trusted path computes with ints and Fractions only.

Every module of the package is parsed, unless `UNTRUSTED` names it with
its reason, and any float literal, use of the name `float`, or true
division `/` in it is reported: `int / int` is a float. A division is
allowed only where an operand is a `Fraction` (`DIVIDES`). A new module is
scanned without being listed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ptrs"

# Modules that build, step, rank and check no weight, and encode, search
# for and decode no certificate coefficient.
UNTRUSTED = {
    "cli": "argument parsing, output and timings of the commands",
    "prover": "runs the shape portfolio; its only float is a solver's time limit",
    "__init__": "the package marker",
    "__main__": "`python -m ptrs`, which calls `cli.main`",
}
TRUSTED = sorted(path.stem for path in SRC.glob("*.py") if path.stem not in UNTRUSTED)

# Functions whose floats never meet a weight, a rank or a certificate value.
EXEMPT = {
    # draws random start terms: `rng.random() < 0.25` picks a leaf
    ("rewriting", "term_sampler"),
    # a solver call's time limit in seconds, `timeout: float = 60.0`
    ("smt", "run_solver"),
    ("smt", "solve_box"),
}

# Functions whose `/` has a Fraction operand.
DIVIDES = {
    # `rank(term) / epsilon`, with epsilon a Fraction
    ("simulator", "estimate_edh"),
    # `values.pop() / divisor`, both read as Fractions
    ("smt", "_model_value"),
}


def float_uses(tree: ast.AST, module: str) -> list[str]:
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = function or node.name
        if (module, function) not in EXEMPT:
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{module}.py:{node.lineno}: float literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{module}.py:{node.lineno}: name float")
        if (module, function) not in DIVIDES and isinstance(getattr(node, "op", None), ast.Div):
            found.append(f"{module}.py:{node.lineno}: true division")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_every_untrusted_module_exists():
    assert set(UNTRUSTED) <= {path.stem for path in SRC.glob("*.py")}
    assert "interpretations" in TRUSTED and "smt" in TRUSTED


@pytest.mark.parametrize("module", TRUSTED)
def test_no_floats_in_the_trusted_path(module):
    path = SRC / f"{module}.py"
    assert float_uses(ast.parse(path.read_text(), str(path)), module) == []


def test_the_guard_sees_literals_and_the_name():
    tree = ast.parse("def f(x):\n    return x * 0.5 + float(x) + 1j\n")
    assert float_uses(tree, "m") == [
        "m.py:2: float literal 0.5", "m.py:2: name float", "m.py:2: float literal 1j"
    ]
    exempt = ast.parse("def term_sampler(rng):\n    return rng.random() < 0.25\n")
    assert float_uses(exempt, "rewriting") == []
    assert float_uses(exempt, "simulator") == ["simulator.py:2: float literal 0.25"]


def test_the_guard_sees_true_division():
    tree = ast.parse("def margin(value, d):\n    value /= d\n    return value / d + value // d\n")
    assert float_uses(tree, "m") == ["m.py:2: true division", "m.py:3: true division"]
    allowed = ast.parse("def estimate_edh(rank, epsilon):\n    return rank / epsilon\n")
    assert float_uses(allowed, "simulator") == []
    assert float_uses(allowed, "smt") == ["smt.py:2: true division"]
