"""Static hygiene of the package source, with the standard library only."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dp2guard"
# Exports without a caller in the package: the baseline rules as one call
# each (rows in, aggregate out) for scripts and tests.  The round loop
# composes their parts (multi_krum_select, dnc_survivors, kept_mean) instead.
API_ENTRY_POINTS = {"dnc", "fedavg", "multi_krum"}


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads.  A name listed in the
    module's `__all__` counts as read (a re-export)."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def exported_names(tree: ast.Module) -> set[str]:
    """The names a module lists in `__all__`."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= set(ast.literal_eval(node.value))
    return names


def uncalled_exports(sources: dict[str, str]) -> list[str]:
    """Names the package's `__init__.py` exports that no other module of the
    package reads, as a bare name or as an attribute."""
    read: set[str] = set()
    for name, source in sources.items():
        if name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(exported_names(ast.parse(sources["__init__.py"])) - read)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os (line 1)"]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_uncalled_export():
    sources = {"__init__.py": "from .a import f, g, h\n__all__ = ['f', 'g', 'h']\n",
               "a.py": "def f():\n    pass\ndef g():\n    f()\ndef h():\n    pass\n",
               "b.py": "from . import a\na.h()\n"}
    assert uncalled_exports(sources) == ["g"]


def test_every_export_has_a_caller():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert sorted(set(uncalled_exports(sources)) - API_ENTRY_POINTS) == []
