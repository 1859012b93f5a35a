"""No module of the library or the suite imports a name it never uses.

No linter ships with the project, so this AST scan is the check. Package
`__init__.py` files are skipped (their imports are re-exports), and so is
`from __future__ import annotations`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source):
    """(line, name) of every imported name that no Name node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = [*(ROOT / "src" / "sspeq").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    paths = sorted(p for p in paths if p.name != "__init__.py")
    assert len(paths) > 10
    hits = [
        f"{p.relative_to(ROOT)}:{line}: {name}"
        for p in paths
        for line, name in unused_imports(p.read_text())
    ]
    assert hits == []


def test_scan_flags_only_the_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from fractions import Fraction as F\n"
        "def f(x: F) -> None:\n"
        "    print(sys.argv)\n"
    )
    assert unused_imports(source) == [(2, "os")]
