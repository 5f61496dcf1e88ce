"""No module under src/agmx imports a name it never uses, every name the
package exports is read by code outside the tests, and startup imports no
scipy.

``__init__.py`` is left out of the unused-import guard: its imports are the
package's public names.  An import statement may keep an unused binding only
when its ``# noqa: F401`` comment names that binding (the ones
``bench/instrument.py`` patches).
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "agmx"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# Exports that only the acceptance tests read: check_gradient (criterion 02)
# and asymmetry_bound_check (criterion 08).
TEST_ONLY_EXPORTS = {"check_gradient", "asymmetry_bound_check"}


def unused_imports(source: str) -> list[str]:
    """The imported names ``source`` never reads, except those its noqa names."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        text = "\n".join(lines[node.lineno - 1:node.end_lineno])
        noqa = re.search(r"# noqa: F401(.*)", text)
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name in used:
                continue
            if noqa and re.search(rf"\b{re.escape(name)}\b", noqa.group(1)):
                continue
            unused.append(f"{name} (line {alias.lineno})")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_catches_an_unused_import():
    source = ("from .a import (  # noqa: F401  kept: a patched binding\n"
              "    kept,\n    used,\n    stray,\n)\n"
              "import os.path\nimport json as js\n\nprint(used)\n")
    assert unused_imports(source) == ["stray (line 4)", "os (line 6)", "js (line 7)"]


def reads(source: str) -> set[str]:
    """The names ``source`` reads: a loaded Name, a loaded Attribute's attr or
    a str constant (which covers bench/instrument.py's TARGETS), except a
    name read inside its own def or class."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return found


def exported_names() -> list[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_every_export_is_read_outside_the_tests():
    files = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "bench").glob("*.py")]
    read = set().union(*(reads(p.read_text()) for p in files))
    exported = exported_names()
    assert TEST_ONLY_EXPORTS <= set(exported)
    assert [name for name in exported
            if name not in read and name not in TEST_ONLY_EXPORTS] == []


def test_reads_skips_a_name_inside_its_own_definition():
    source = "def f():\n    return f, g.attr, 'h'\n\nclass C:\n    x = C\n\nk = 1\n"
    assert reads(source) == {"g", "attr", "h"}


@pytest.mark.parametrize("run", [False, True], ids=["import", "laplacian_run"])
def test_startup_imports_no_scipy(run, tmp_path):
    # only numpy loads at startup, and the Laplacian's oracle is matrix-free
    code = "import sys\nimport agmx.cli\n"
    if run:
        code += ("assert agmx.cli.main(['run', '--problem', 'laplacian2d', '--n', '9', "
                 f"'--method', 'hnag', '--out', {str(tmp_path / 't.csv')!r}]) == 0\n")
    code += "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
