"""No module imports a name it never reads.

Covers the package, the tests and the tools.  A name counts as read
when it appears as an expression name anywhere in the module, attribute
bases included.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    list((ROOT / "src" / "graphcurves").glob("*.py"))
    + list((ROOT / "tests").glob("*.py")) + list((ROOT / "tools").glob("*.py")))


def unused_imports(source: str):
    """Names bound by the imports of source that source never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_guard_sees_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from random import Random, choice as pick\n"
              "np.zeros(os.sep)\n")
    assert unused_imports(source) == ["Random", "pick"]


def test_no_unused_imports():
    assert len(MODULES) > 20
    found = {str(p.relative_to(ROOT)): names for p in MODULES
             if (names := unused_imports(p.read_text()))}
    assert found == {}
