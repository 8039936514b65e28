"""Every name a module of the package imports is used in that module.

``__init__.py`` is exempt (its imports are the public re-exports), and so is
``from __future__ import annotations``.  With postponed annotations the
annotations are still parsed into name nodes, so a name used only in an
annotation counts as used.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chainscope"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of ``source`` and never read."""
    tree = ast.parse(source)
    bound: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = "import os.path\nfrom typing import Callable, Sequence as Seq\nx: Seq = os\n"
    assert unused_imports(source) == ["Callable"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
