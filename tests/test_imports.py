"""Every module-level import in the package is used in its module.

No linter runs on this repository, so this test is the gate: an import that
nothing reads is either dead code or a hint that a call site was lost.
``__init__.py`` is excepted because its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hermkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nfrom typing import Callable, Sequence\n"
                          "def f(x: Callable):\n    return x\n") == ["os", "Sequence"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
