"""No psverify module keeps an import or a private helper that it never reads.

A deletion can leave either behind. Each module under `src/psverify` is
parsed: every name it imports, and every module-level `_private` function,
class or constant it defines, must be read somewhere in that module.
Dunder names are exempt.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "psverify").glob("*.py"))


def defined_names(tree) -> list[tuple[str, str]]:
    """(kind, name) for each import and module-level private definition."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [("import", alias.asname or alias.name.partition(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [("import", alias.asname or alias.name) for alias in node.names]
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                       if isinstance(t, ast.Name)]
        else:
            continue
        names += [("private", name) for name in targets
                  if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]
    return names


def unread(source: str) -> list[str]:
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{kind} {name}" for kind, name in defined_names(tree) if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_and_private_name_is_read(path):
    assert not unread(path.read_text(encoding="utf-8")), f"{path.name} never reads these names"


def test_the_check_finds_what_it_is_meant_to():
    source = "import os\nfrom a import b as c\n_UNUSED = 1\n_used = 2\ndef _helper(): return _used\n__all__ = []\n"
    assert unread(source) == ["import os", "import c", "private _UNUSED", "private _helper"]
