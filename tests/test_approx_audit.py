"""Every ``approx`` in every test file names its absolute tolerance.

``pytest.approx(x, rel=r)`` without ``abs`` also accepts anything within
1e-12 of x, which swamps ``rel`` once |x| is below 1e-12 / r, so an assert
can pass on 0.0. Each ``approx`` call names ``abs``: 0.0 where the reference
is exact, or a stated bound where the quantity is absolute.
"""

import ast
from pathlib import Path

import pytest

TEST_FILES = sorted(Path(__file__).parent.glob("test_*.py"))


def _approx_without_abs(source: str):
    """Line numbers of the ``approx(...)`` calls with no ``abs`` keyword."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        if name == "approx" and not any(k.arg == "abs" for k in node.keywords):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_finds_a_missing_abs():
    source = ("assert a == pytest.approx(1.0, rel=1e-9)\n"
              "assert b == approx(2.0)\n"
              "assert c == pytest.approx(3.0, rel=1e-9, abs=0.0)\n"
              "assert d == pytest.approx(4.0, **tol)\n")
    assert _approx_without_abs(source) == [1, 2, 4]


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda path: path.name)
def test_every_approx_names_abs(path):
    assert _approx_without_abs(path.read_text()) == []
