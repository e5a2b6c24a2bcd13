"""Static hygiene of the package source, with the standard library only."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dp2guard"
# Exports without a caller in the package: the baseline rules as one call
# each (rows in, aggregate out) for scripts and tests.  The round loop
# composes their parts (multi_krum_select, dnc_survivors, kept_mean) instead.
API_ENTRY_POINTS = {"dnc", "multi_krum"}
# Package modules a module must not import: the wire layer takes plain
# values, not client records, and a client only trains and masks.
FORBIDDEN_IMPORTS = {"servers.py": {"client"}, "client.py": {"attacks"}}


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


def package_imports(source: str) -> set[str]:
    """Sibling modules a package module imports (`from .x import y`,
    `from . import x`)."""
    modules: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules |= {alias.name for alias in node.names}
            else:
                modules.add(node.module.split(".")[0])
    return modules


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


def test_checker_lists_package_imports():
    source = "import os\nfrom . import models, trust\nfrom .data import Dataset\n"
    assert package_imports(source) == {"models", "trust", "data"}


@pytest.mark.parametrize("name", sorted(FORBIDDEN_IMPORTS))
def test_module_layering(name):
    source = (SRC / name).read_text(encoding="utf-8")
    assert package_imports(source) & FORBIDDEN_IMPORTS[name] == set()
