"""Every import in the package is used (no linter is assumed installed),
and the package needs numpy only."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "donorspin"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport re\nre.compile('x')\n") == \
        [(1, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def function_level_imports(source: str):
    """(line, module) of every import statement inside a function body;
    imports belong at module level, where the unused-import check sees
    them."""
    tree = ast.parse(source)
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    found.add((node.lineno, node.names[0].name))
                elif isinstance(node, ast.ImportFrom):
                    found.add((node.lineno, "." * node.level
                               + (node.module or "")))
    return sorted(found)


def test_detects_a_function_level_import():
    source = "import os\n\ndef f():\n    from .gates import g\n    return g\n"
    assert function_level_imports(source) == [(4, ".gates")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_imports(path):
    assert function_level_imports(path.read_text()) == []


def test_package_imports_without_scipy():
    # scipy is a test oracle only: neither the package nor its CLI loads it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, donorspin, donorspin.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
