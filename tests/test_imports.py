"""Hygiene of the package source and its documented API, with the
standard library only."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dp2guard"
README = SRC.parent.parent / "README.md"
# The package's top level exports exactly the README's Library names; every
# other name is imported from its submodule.
PACKAGE_API = ["ExperimentConfig", "run_experiment", "split_and_mask"]
# Public functions and classes no package module reads, each kept on purpose.
UNREAD_ON_PURPOSE = {
    # The wire codec that servers.Channel mirrors; the fuzz tests and the
    # benchmark's channel byte counts use it.
    "servers.py": {"encode_message", "decode_message"},
    # The benchmark's tracer patches them as detection layers.
    "defense.py": {"top_direction", "median_cosines"},
    # The benchmark times it as the auditor's read path; the CLI reads the
    # head through `audit_file`, which it wraps.
    "ledger.py": {"verify_file"},
}
MODULES = {p.stem for p in SRC.glob("*.py")}
# Package modules a module must not import: the wire layer takes plain
# values, not client records, a client only trains and masks, the trust
# state is S2's, not the round loop's, and the ring layer, which owns the
# block size that clients and servers share, sits below every other module
# but `errors`.  The config reads only the attack specs and the ring's
# limits, and the run outputs only format what the round loop hands them;
# neither reaches back into the round loop.
FORBIDDEN_IMPORTS = {"servers.py": {"client"}, "client.py": {"attacks"},
                     "harness.py": {"trust"},
                     "numeric.py": MODULES - {"__init__", "errors", "numeric"},
                     "config.py": MODULES - {"__init__", "attacks", "numeric", "errors",
                                             "config"},
                     "report.py": {"harness", "servers", "client", "attacks", "baselines"}}


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


def private_imports(source: str) -> list[str]:
    """Underscore names a package module imports from a sibling
    (`from .x import _y`)."""
    return [f"{node.module}.{alias.name} (line {node.lineno})"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names if alias.name.startswith("_")]


def uncalled_exports(sources: dict[str, str]) -> dict[str, set[str]]:
    """Per module, the public top-level functions and classes that no module
    of the package reads, as a bare name or as an attribute.  A re-export
    from `__init__.py` is not a read."""
    read: set[str] = set()
    for name, source in sources.items():
        if name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {}
    for name, source in sources.items():
        defined = {node.name for node in ast.parse(source).body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")}
        if defined - read:
            unread[name] = defined - read
    return unread


def readme_library_snippet() -> str:
    """The Python block of the README's Library section."""
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os (line 1)"]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_uncalled_export():
    sources = {"__init__.py": "from .a import f, g, h\n__all__ = ['f', 'g', 'h']\n",
               "a.py": "def f():\n    pass\ndef g():\n    f()\ndef h():\n    pass\n"
                       "def _k():\n    pass\nclass C:\n    def m(self):\n        pass\n",
               "b.py": "from . import a\na.h()\n"}
    assert uncalled_exports(sources) == {"a.py": {"g", "C"}}


def test_every_export_has_a_caller():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert uncalled_exports(sources) == UNREAD_ON_PURPOSE


def test_package_exports_the_readme_api():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert sorted(exported_names(init)) == PACKAGE_API
    imported = {alias.name for node in ast.walk(ast.parse(readme_library_snippet()))
                if isinstance(node, ast.ImportFrom) and node.module == "dp2guard"
                for alias in node.names}
    assert sorted(imported) == PACKAGE_API


def test_readme_library_snippet_runs(capsys):
    # Its last line documents what it prints.
    snippet = readme_library_snippet()
    exec(compile(snippet, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert float(printed[0]) > 0.5
    assert printed[-1] == snippet.rstrip().rsplit("# ", 1)[1]


def test_checker_lists_package_imports():
    source = "import os\nfrom . import models, trust\nfrom .data import Dataset\n"
    assert package_imports(source) == {"models", "trust", "data"}


def test_checker_flags_a_private_import():
    source = "from .a import b, _c\nfrom . import d\nfrom x import _e\n"
    assert private_imports(source) == ["a._c (line 1)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_from_siblings(path):
    # A name another module needs is public in the module that owns it.
    assert private_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("name", sorted(FORBIDDEN_IMPORTS))
def test_module_layering(name):
    source = (SRC / name).read_text(encoding="utf-8")
    assert package_imports(source) & FORBIDDEN_IMPORTS[name] == set()


def test_importing_the_package_loads_numpy_random():
    # numpy loads numpy.random lazily; the package loads it at import, so a
    # run's first draw does not import it inside the run's timed setup.
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; import dp2guard; "
            "print(before, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), check=True)
    assert proc.stdout.split() == ["False", "True"]
