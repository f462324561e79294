"""divfact has no runtime dependencies: every absolute import in the
package names a standard-library module or divfact itself.  It also starts
cold cheaply: importing the CLI loads neither `dataclasses` nor the modules
that `dataclasses` pulls in."""

import ast
import subprocess
import sys
from pathlib import Path

import divfact

PACKAGE = Path(divfact.__file__).parent


def absolute_imports():
    """(file name, imported module) for every absolute import in the package."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, name


def test_imports_are_stdlib_only():
    outside = []
    for file, name in absolute_imports():
        top = name.split(".")[0]
        if top != "divfact" and top not in sys.stdlib_module_names:
            outside.append(f"{file}: {name}")
    assert outside == []


def test_no_module_imports_dataclasses():
    found = [
        f"{file}: {name}"
        for file, name in absolute_imports()
        if name.split(".")[0] == "dataclasses"
    ]
    assert found == []


def test_cli_import_leaves_heavy_modules_unloaded():
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    code = f"import sys, divfact.cli; print([m for m in {heavy!r} if m in sys.modules])"
    # -S: no site hooks, so only what divfact.cli imports is seen
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(PACKAGE.parent)},
    ).stdout
    assert out.strip() == "[]"
