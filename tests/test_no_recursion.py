"""No traversal in the package recurses.

Terms, formulas and solver replies can be thousands of levels deep, so
every walk keeps an explicit stack or runs on `terms.fold_term`. Every
module of the package is parsed, and any function that calls itself by
name, or method that calls itself on its first parameter (`self.name(...)`),
is reported unless `EXEMPT` names it with its reason. A new module is
scanned without being listed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ptrs"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))

# Self-calls whose depth is bounded by a parameter, not by the input, as
# (module, qualified name): none at present.
EXEMPT: set[tuple[str, str]] = set()


def _self_call(call: ast.Call, function: ast.FunctionDef, receiver: str | None) -> bool:
    func = call.func
    if receiver is None:
        return isinstance(func, ast.Name) and func.id == function.name
    return (isinstance(func, ast.Attribute) and func.attr == function.name
            and isinstance(func.value, ast.Name) and func.value.id == receiver)


def self_calls(tree: ast.AST, module: str) -> list[str]:
    """Where a function of tree calls itself, as "module.py:line: name"."""
    found: list[tuple[int, str]] = []
    stack: list[tuple[ast.AST, str]] = [(tree, "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                params = child.args.posonlyargs + child.args.args
                receiver = params[0].arg if isinstance(node, ast.ClassDef) and params else None
                if (module, name) not in EXEMPT:
                    found += [(call.lineno, name) for call in ast.walk(child)
                              if isinstance(call, ast.Call) and _self_call(call, child, receiver)]
                stack.append((child, name + "."))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, prefix + child.name + "."))
            else:
                stack.append((child, prefix))
    return [f"{module}.py:{line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("module", MODULES)
def test_no_function_calls_itself(module):
    path = SRC / f"{module}.py"
    assert self_calls(ast.parse(path.read_text(), str(path)), module) == []


def test_every_exemption_is_a_self_call():
    for module, name in EXEMPT:
        path = SRC / f"{module}.py"
        tree = ast.parse(path.read_text(), str(path))
        assert any(line.endswith(f": {name}") for line in self_calls(tree, "")), (module, name)


def test_the_guard_sees_functions_and_methods():
    tree = ast.parse(
        "def walk(t):\n"
        "    return [walk(a) for a in t]\n"
        "class C:\n"
        "    def size(self, t):\n"
        "        return 1 + sum(self.size(a) for a in t)\n"
        "    def other(self, t):\n"
        "        return size(t) + self.walk(t)\n"
        "    @classmethod\n"
        "    def make(cls, n):\n"
        "        def inner(k):\n"
        "            return inner(k - 1) if k else cls.make(0)\n"
        "        return inner(n)\n"
    )
    assert self_calls(tree, "m") == [
        "m.py:2: walk", "m.py:5: C.size", "m.py:11: C.make", "m.py:11: C.make.inner"
    ]
