"""The trusted path computes with ints and Fractions only.

Every module that builds, steps, ranks or checks weights, or encodes,
searches for or decodes certificate coefficients, is parsed, and any float
literal or use of the name `float` in it is reported.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ptrs"

TRUSTED = ("multidist", "rewriting", "simulator", "interpretations", "terms", "certtext", "wst", "boxsolver", "smt")

# Functions whose floats never meet a weight, a rank or a certificate value.
EXEMPT = {
    # draws random start terms: `rng.random() < 0.25` picks a leaf
    ("rewriting", "random_term"),
    # a solver call's time limit in seconds, `timeout: float = 60.0`
    ("smt", "run_solver"),
    ("smt", "solve_box"),
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
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


@pytest.mark.parametrize("module", TRUSTED)
def test_no_floats_in_the_trusted_path(module):
    path = SRC / f"{module}.py"
    assert float_uses(ast.parse(path.read_text(), str(path)), module) == []


def test_the_guard_sees_literals_and_the_name():
    tree = ast.parse("def f(x):\n    return x * 0.5 + float(x) + 1j\n")
    assert float_uses(tree, "m") == [
        "m.py:2: float literal 0.5", "m.py:2: name float", "m.py:2: float literal 1j"
    ]
    exempt = ast.parse("def random_term(rng):\n    return rng.random() < 0.25\n")
    assert float_uses(exempt, "rewriting") == []
    assert float_uses(exempt, "simulator") == ["simulator.py:2: float literal 0.25"]
