"""No module under src/agmx imports a name it never uses.

``__init__.py`` is left out: its imports are the package's public names.  An
import statement may keep an unused binding only when its ``# noqa: F401``
comment names that binding (the ones ``bench/instrument.py`` patches).
"""

import ast
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "agmx"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
