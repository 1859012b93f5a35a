"""No module of the library or the suite imports a name it never uses, the
library imports nothing outside the standard library and holds no `assert`,
and every `CapabilityError` the library raises names the cap it hit, a cap
that some test names too.

No linter ships with the project, so these AST scans are the check. Package
`__init__.py` files are skipped by the unused-name scan (their imports are
re-exports), and so is `from __future__ import annotations`.
"""

import ast
import re
import sys
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


def third_party_imports(source):
    """(line, module) of every absolute import whose top-level package is not
    in the standard library, at any depth of the module."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        hits += [(node.lineno, n) for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    return hits


def test_library_has_no_runtime_dependency():
    paths = sorted((ROOT / "src" / "sspeq").glob("*.py"))
    assert len(paths) > 5
    hits = [
        f"{p.relative_to(ROOT)}:{line}: {name}"
        for p in paths
        for line, name in third_party_imports(p.read_text())
    ]
    assert hits == []


def test_scan_flags_a_planted_third_party_import():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from .money import parse_money\n"
        "def f():\n"
        "    import sympy\n"
        "    from sympy.solvers.simplex import linprog\n"
    )
    assert third_party_imports(source) == [(5, "sympy"), (6, "sympy.solvers.simplex")]


def assert_statements(source):
    """Sorted line of every `assert` statement, at any depth of the module."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_library_has_no_assert():
    # an assert vanishes under `python -O` and otherwise escapes as a bare
    # AssertionError; the library raises a named error instead
    paths = sorted((ROOT / "src" / "sspeq").glob("*.py"))
    assert len(paths) > 5
    hits = [f"{p.relative_to(ROOT)}:{line}" for p in paths for line in assert_statements(p.read_text())]
    assert hits == []


def test_assert_scan_flags_a_planted_assert():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        assert x > 0, 'positive'\n"
        "    return 'assert x'\n"
        "class C:\n"
        "    def g(self):\n"
        "        assert self\n"
    )
    assert assert_statements(source) == [3, 7]


def cap_raises(source):
    """(line, names) of every `raise CapabilityError(...)`: the upper-case
    constants bound at module level that its message formats."""
    tree = ast.parse(source)
    constants = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            constants |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.ImportFrom):
            constants |= {alias.asname or alias.name for alias in node.names}
    constants = {name for name in constants if name.isupper()}
    hits = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        if getattr(node.exc.func, "id", None) != "CapabilityError":
            continue
        formatted = {
            name.id
            for arg in node.exc.args
            if isinstance(arg, ast.JoinedStr)
            for part in arg.values
            if isinstance(part, ast.FormattedValue)
            for name in ast.walk(part.value)
            if isinstance(name, ast.Name)
        }
        hits.append((node.lineno, formatted & constants))
    return hits


def unnamed_cap_raises(source):
    """Line of every `raise CapabilityError(...)` whose message formats no
    upper-case constant bound at module level."""
    return [line for line, names in cap_raises(source) if not names]


def untested_caps(sources, test_sources):
    """Sorted constants that a `raise CapabilityError(...)` of `sources`
    formats and that no text of `test_sources` names as a whole word."""
    caps = {name for source in sources for _, names in cap_raises(source) for name in names}
    return sorted(caps - set(re.findall(r"\w+", "\n".join(test_sources))))


def test_every_capability_error_names_its_cap():
    paths = sorted((ROOT / "src" / "sspeq").glob("*.py"))
    raises = sum(p.read_text().count("raise CapabilityError(") for p in paths)
    assert raises > 15
    hits = [
        f"{p.relative_to(ROOT)}:{line}"
        for p in paths
        for line in unnamed_cap_raises(p.read_text())
    ]
    assert hits == []


def test_cap_scan_flags_a_literal_message():
    source = (
        "from .valuations import CapabilityError\n"
        "CAP = 8\n"
        "def f(m, n):\n"
        "    if m > CAP:\n"
        "        raise CapabilityError(f'capped at m={CAP}')\n"
        "    if n > 9:\n"
        "        raise CapabilityError('too large')\n"
        "    if n > m:\n"
        "        raise CapabilityError(f'n={n} exceeds m={m}')\n"
    )
    assert unnamed_cap_raises(source) == [7, 9]


def test_every_formatted_cap_is_named_in_a_test():
    sources = [p.read_text() for p in sorted((ROOT / "src" / "sspeq").glob("*.py"))]
    tests = [p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))]
    assert sum(len(names) for s in sources for _, names in cap_raises(s)) > 15
    assert untested_caps(sources, tests) == []


def test_cap_test_scan_flags_a_cap_no_test_names():
    source = (
        "from .valuations import CapabilityError\n"
        "CAP = 8\n"
        "OTHER_CAP = 9\n"
        "def f(m):\n"
        "    if m > CAP:\n"
        "        raise CapabilityError(f'capped at m={CAP}')\n"
        "    if m > OTHER_CAP:\n"
        "        raise CapabilityError(f'capped at m={OTHER_CAP}')\n"
    )
    assert untested_caps([source], ["assert f(CAP) is None\n"]) == ["OTHER_CAP"]
    assert untested_caps([source], ["f(CAP)\n", "# OTHER_CAPS\n"]) == ["OTHER_CAP"]
    assert untested_caps([source], ["f(CAP)\n", "f(OTHER_CAP + 1)\n"]) == []
