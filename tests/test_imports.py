"""Every name a library module imports is used in it.

No lint tool is part of the toolchain, so this AST check stands in for
pyflakes' F401. An import line marked ``# noqa: F401`` is exempt: those names
are re-exported on purpose.
"""

import ast
from pathlib import Path

import pytest

import rtsa

MODULES = sorted(Path(rtsa.__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each name bound by an import but never referenced."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            # Exempt when the marker is on the statement's first line or the name's.
            if any("noqa: F401" in lines[n - 1] for n in (node.lineno, alias.lineno)):
                continue
            name = alias.asname or alias.name.split(".")[0]
            imported.setdefault(name, alias.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Names listed in __all__ are exported, which is a use.
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_check_finds_an_unused_import_and_honours_noqa():
    source = ("import os\nimport sys\nfrom math import (  # noqa: F401\n    pi,\n)\n"
              "from json import (\n    dumps,\n    loads,  # noqa: F401\n)\n"
              "__all__ = ['sys']\n")
    assert unused_imports(source) == [(1, "os"), (7, "dumps")]
