"""divfact has no runtime dependencies: every absolute import in the
package names a standard-library module or divfact itself."""

import ast
import sys
from pathlib import Path

import divfact

PACKAGE = Path(divfact.__file__).parent


def test_imports_are_stdlib_only():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "divfact" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []
