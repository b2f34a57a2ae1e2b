"""Every definition in the package is reached from a command, or listed.

Every module of the package is parsed, and a reference graph is walked
from the commands' entry points, `cli.main` and `boxsolver.main`, and from
the statements a module runs at the top level: `__main__`'s body, and the
`if __name__ == "__main__":` blocks of the modules a command starts
(`COMMANDS`). Such a block in any other module would make a root of code
that only a test runs, so the test fails on it. A definition reaches
every top-level definition it names, through the package's imports,
including those made inside functions, and through attributes of an
imported module. A method of a reached class is reached when any reached
code uses its name as an attribute: the walk cannot tell receivers apart,
so a method shares its fate with every other attribute of that name.
Dunder methods, which the interpreter calls (pickling hooks such as
`__reduce__` among them), are reached with their class.

The test fails on a top-level definition, or a method of a reached class,
that the walk does not reach and that `ALLOWED` does not list with its
reason; and on an `ALLOWED` entry that names no definition or one that is
reached, so the table shrinks when its code gains a caller or leaves.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ptrs"
ROOTS = ("cli.main", "boxsolver.main")
# `python -m ptrs`, `python -m ptrs.cli`, and the box solver `--solver` starts
COMMANDS = ("__main__", "cli", "boxsolver")

_BENCH = "bench tracer binding, no caller in src/ (item 12, group 2), until item 18"
_DRIFT = "drift harness, which no command runs yet, until item 23"
ALLOWED = {
    "rewriting.RedexStep": _BENCH,
    "rewriting.TermPars.redexes": _BENCH,
    "rewriting.enumerate_redexes": _BENCH,
    "rewriting.step_multidist": _BENCH,
    "rewriting.all_steps": _BENCH,
    "multidist.MultiDistribution.bind": _BENCH,
    "multidist.expected_value": _BENCH,
    "simulator.collapsed": _BENCH,
    "terms.apply_substitution": _BENCH,
    "terms.subterm_at": _BENCH,
    "terms.replace_at": _BENCH,
    "terms.InvalidPosition": "raised by subterm_at and replace_at (item 12, group 2)",
    "terms.Substitution": "the type apply_substitution takes (item 12, group 2)",
    "terms.Position": "the type subterm_at and replace_at take (item 12, group 2)",
    "multidist.S": "the type variable of MultiDistribution.bind (item 12, group 2)",
    "multidist.MultiDistribution.empty": "called only by all_steps (item 12, group 2)",
    "multidist.MultiDistribution.merged": "called only by collapsed (item 12, group 2)",
    "multidist.MultiDistribution.mass_numerator": "read only by collapsed (item 12, group 2)",
    "multidist.MultiDistribution.mass": "read only by the drift harness's DriftViolation, until item 23",
    "simulator.drift_harness": _DRIFT,
    "simulator.DriftViolation": _DRIFT,
    "simulator.DriftReport": _DRIFT,
    "simulator._fresh_drift": _DRIFT,
    "rewriting.term_sampler": "the drift harness's start-term sampler, until item 23",
    "__init__.__version__": "package metadata",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_main_block(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) in (
        "__name__ == '__main__'", "'__main__' == __name__"
    )


class Package:
    """The definitions of a package directory and what each one names."""

    def __init__(self, src: Path, commands=COMMANDS):
        self.defs: dict[str, tuple[str, ast.AST]] = {}  # key -> (module, node)
        self.methods: dict[str, dict[str, ast.AST]] = {}  # class key -> name -> node
        self.imports: dict[str, dict[str, tuple[str, str | None]]] = {}
        self.top_level: list[tuple[str, ast.AST]] = []  # statements run at import
        self.stray_main_blocks: list[str] = []  # "module.py:line" outside `commands`
        paths = sorted(src.glob("*.py"))
        modules = {path.stem for path in paths}
        for path in paths:
            module, tree = path.stem, ast.parse(path.read_text(), str(path))
            self.imports[module] = aliases = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    for alias in node.names:
                        # `from . import name` imports a module or a name of the package's __init__
                        if node.module:
                            target = (node.module, alias.name)
                        else:
                            target = (alias.name, None) if alias.name in modules else ("__init__", alias.name)
                        aliases[alias.asname or alias.name] = target
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    key = f"{module}.{node.name}"
                    self.defs[key] = (module, node)
                    if isinstance(node, ast.ClassDef):
                        self.methods[key] = {
                            item.name: item for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        }
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        for name in ast.walk(target):
                            if isinstance(name, ast.Name):
                                self.defs[f"{module}.{name.id}"] = (module, node)
                elif _is_main_block(node) and module not in commands:
                    self.stray_main_blocks.append(f"{module}.py:{node.lineno}")
                elif not isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                    isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)  # a docstring
                ):
                    self.top_level.append((module, node))

    def resolve(self, module: str, name: str) -> str | None:
        """The key of the definition `name` stands for in `module`, through
        imports; a module's own name for a module alias; None for a name
        from outside the package or a local one."""
        for _ in range(len(self.imports) + 1):
            if f"{module}.{name}" in self.defs:
                return f"{module}.{name}"
            target = self.imports.get(module, {}).get(name)
            if target is None:
                return None
            module, name = target
            if name is None:
                return module
        return None

    def mentions(self, module: str, nodes) -> tuple[set[str], set[str]]:
        """The definitions the nodes name, and the attribute names they use."""
        keys: set[str] = set()
        attrs: set[str] = set()
        for root in nodes:
            for node in ast.walk(root):
                if isinstance(node, ast.Name):
                    keys.add(self.resolve(module, node.id))
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                    if isinstance(node.value, ast.Name):
                        owner = self.resolve(module, node.value.id)
                        if owner in self.imports:  # a module alias
                            keys.add(self.resolve(owner, node.attr))
        return keys - {None} - self.imports.keys(), attrs

    def reached(self, roots) -> set[str]:
        """Every definition and method reached from the root keys and the
        top-level statements."""
        reached: set[str] = set()
        attrs: set[str] = set()
        todo: list[str] = list(roots)
        for module, node in self.top_level:
            keys, used = self.mentions(module, [node])
            todo += keys
            attrs |= used
        while todo:
            while todo:
                key = todo.pop()
                if key in reached:
                    continue
                reached.add(key)
                if key in self.defs:
                    module, node = self.defs[key]
                    if isinstance(node, ast.ClassDef):
                        parts = [*node.decorator_list, *node.bases, *node.keywords]
                        parts += [item for item in node.body if item not in self.methods[key].values()]
                    else:
                        parts = [node]
                else:  # a method
                    cls, name = key.rsplit(".", 1)
                    module, parts = key.split(".", 1)[0], [self.methods[cls][name]]
                keys, used = self.mentions(module, parts)
                todo += keys
                attrs |= used
            for cls in reached & self.methods.keys():
                todo += [f"{cls}.{name}" for name in self.methods[cls]
                         if (_is_dunder(name) or name in attrs) and f"{cls}.{name}" not in reached]
        return reached

    def unreached(self, roots) -> list[str]:
        """The keys of the definitions, and of the methods of reached
        classes, that the walk from `roots` does not reach."""
        reached = self.reached(roots)
        candidates = set(self.defs)
        candidates |= {f"{cls}.{name}" for cls in reached & self.methods.keys() for name in self.methods[cls]}
        return sorted(candidates - reached)


@pytest.fixture(scope="module")
def package() -> Package:
    return Package(SRC)


@pytest.fixture(scope="module")
def unreached(package) -> list[str]:
    return package.unreached(ROOTS)


def test_every_definition_is_reached_or_allowed(unreached):
    assert [key for key in unreached if key not in ALLOWED] == []


def test_every_allowed_entry_is_an_unreached_definition_with_a_reason(unreached):
    assert all(reason.strip() for reason in ALLOWED.values())
    assert [key for key in ALLOWED if key not in unreached] == []


def test_only_the_modules_a_command_starts_have_a_main_block(package):
    assert package.stray_main_blocks == []


def test_the_walk_follows_names_imports_and_attributes(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import used, Box\n"
        "from . import c\n"
        "LIMIT = 3\n"
        "def main():\n"
        "    from .b import late\n"
        "    return used(LIMIT) + c.helper() + late() + Box().shown()\n"
        "def orphan():\n"
        "    return used(0)\n"
    )
    (tmp_path / "b.py").write_text(
        "def used(n):\n"
        "    return n\n"
        "def late():\n"
        "    return 0\n"
        "class Box:\n"
        "    def __reduce__(self):\n"
        "        return Box, ()\n"
        "    def shown(self):\n"
        "        return 1\n"
        "    def hidden(self):\n"
        "        return unlisted()\n"
        "def unlisted():\n"
        "    return 2\n"
        "class Spare:\n"
        "    def shown(self):\n"
        "        return 3\n"
    )
    (tmp_path / "c.py").write_text(
        "def helper():\n"
        "    return 0\n"
        "def spare():\n"
        "    return 1\n"
        "if __name__ == '__main__':\n"
        "    spare()\n"
    )
    package = Package(tmp_path, commands=("c",))
    assert package.unreached(["a.main"]) == ["a.orphan", "b.Box.hidden", "b.Spare", "b.unlisted"]
    assert package.stray_main_blocks == []
    # in a module no command starts, the block is reported and is no root
    package = Package(tmp_path, commands=("a",))
    assert package.unreached(["a.main"]) == ["a.orphan", "b.Box.hidden", "b.Spare", "b.unlisted", "c.spare"]
    assert package.stray_main_blocks == ["c.py:5"]
