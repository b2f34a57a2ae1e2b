"""Child processes started by the tests (`python -m ptrs`, the solver
stand-ins) import ptrs from this checkout as well, so the suite runs from a
clean checkout without installing the package or setting PYTHONPATH."""

import os
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def children_import_this_checkout():
    patch = pytest.MonkeyPatch()
    patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    yield
    patch.undo()


@pytest.fixture
def digit_cap():
    """CPython's default cap of 4300 digits on an int<->str conversion, set
    for one test; the test is skipped on a Python without the cap."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no cap on int<->str conversions")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)
