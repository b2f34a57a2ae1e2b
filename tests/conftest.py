"""Child processes started by the tests (`python -m ptrs`, the solver
stand-ins) import ptrs from this checkout as well, so the suite runs from a
clean checkout without installing the package or setting PYTHONPATH."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def children_import_this_checkout():
    patch = pytest.MonkeyPatch()
    patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    yield
    patch.undo()
