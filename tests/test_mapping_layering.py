"""Layering: the solver package never reaches up into its callers.

``repro.mapping`` holds the whole solver ladder — greedy seeds, refine,
branch-and-bound, MILP, the portfolio that escalates through them, and
the repair path built from the same rungs.  The flow, the sweep engine
and the service sit on top of it.  An import the other way, even one
tucked inside a function to dodge an import cycle, turns the layers
into a knot; this test parses every module of the package and fails on
any such import at any nesting depth.
"""

import ast
from pathlib import Path

import pytest

MAPPING = Path(__file__).resolve().parent.parent / "src" / "repro" / "mapping"
FORBIDDEN = ("repro.service", "repro.flow", "repro.sweep")


def _imported_modules(tree, package="repro.mapping"):
    """Every module an ``import`` statement anywhere in ``tree`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def _forbidden(name):
    return any(name == top or name.startswith(top + ".") for top in FORBIDDEN)


@pytest.mark.parametrize(
    "path", sorted(MAPPING.glob("*.py")), ids=lambda p: p.name
)
def test_mapping_imports_nothing_above_it(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = sorted({name for name in _imported_modules(tree) if _forbidden(name)})
    assert not bad, f"{path.name} imports {bad}"


def test_the_scan_sees_nested_and_relative_imports():
    tree = ast.parse(
        "def f():\n"
        "    if True:\n"
        "        from repro.service.server import x\n"
        "    from .. import flow\n"
        "    import repro.sweep.cache\n"
    )
    assert sorted(n for n in _imported_modules(tree) if _forbidden(n)) == [
        "repro.flow", "repro.service.server", "repro.service.server.x",
        "repro.sweep.cache",
    ]
