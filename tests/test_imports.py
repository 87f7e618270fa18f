"""Every name a module of the package or of the tests imports is used in
that module, read from its syntax tree; a name listed in the module's
``__all__`` counts as used, as a re-export."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "hmlbn").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports but never reads, sorted."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds "a"
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES,
                         ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_what_it_should():
    assert unused_imports(
        "from hmlbn.forwarding import DataPacket, Label\nDataPacket()\n") \
        == ["Label"]
    assert unused_imports("import os.path\nimport json as j\nos.sep\n") \
        == ["j"]
    assert unused_imports(
        "from __future__ import annotations\nfrom .x import a, b as c\n"
        "__all__ = ['a']\nx: c\n") == []
