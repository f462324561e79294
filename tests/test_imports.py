"""divfact has no runtime dependencies: every absolute import in the
package names a standard-library module or divfact itself.  It also starts
cold cheaply: importing the CLI loads neither `dataclasses` nor the modules
that `dataclasses` pulls in, and each command loads only what it runs."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_no_module_imports_argparse_or_json():
    found = [
        f"{file}: {name}"
        for file, name in absolute_imports()
        if name.split(".")[0] in ("argparse", "json")
    ]
    assert found == []


# one argv per command; the first five read integers only
COMMANDS = [
    ["degree", "--family", "cb", "--r", "2", "--weights", "1,1,1,1,0", "--partition", "1/2/3/4,5"],
    ["degvec", "--family", "git", "--r", "4", "--weights", "2,1,3,3,1,2"],
    ["verify-main", "--r", "3", "--n", "5"],
    ["factor-check", "--r", "4", "--weights", "2,1,3,3,1,2", "--cut", "1,2,3"],
    ["--table", "cover", "--r", "4", "--weights", "2,1,3,3,1,2", "--split", "3"],
    ["tableaux", "--d", "2", "--k", "2", "--content", "1,1,1,1,1,1", "--restrict", "--n1", "3", "--d1", "1"],
    ["semistable", "--d", "1", "--weights", "1/2,1/2,1/2,1/2", "--points", "1,0;0,1;1,1;2,1"],
]
NEVER = ["argparse", "gettext", "locale", "json"]
NOT_FOR_INTEGERS = ["fractions", "decimal", "divfact.invariants", "divfact.polynomials"]


def loaded_after(code):
    """The modules loaded once `code` has run in a fresh interpreter without site hooks."""
    script = f"import sys\n{code}\nprint(sorted(sys.modules), file=sys.stderr)"
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(PACKAGE.parent)},
    )
    assert result.returncode == 0, result.stderr
    return set(ast.literal_eval(result.stderr.splitlines()[-1]))


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[argv[0] == "--table"])
def test_command_loads_only_what_it_runs(argv):
    loaded = loaded_after(f"import divfact.cli\nassert divfact.cli.main({argv!r}) == 0")
    assert "divfact.cli" in loaded
    heavy = NEVER + (NOT_FOR_INTEGERS if argv in COMMANDS[:5] else [])
    assert [name for name in heavy if name in loaded] == []


def test_cover_warning_is_one_plain_line():
    # the default warning display would print the CLI's path and a source
    # line, and load linecache, tokenize and re to do so
    script = (
        "import sys, divfact.cli\n"
        "code = divfact.cli.main(['cover', '--r', '4', '--weights', '2,2,2,2'])\n"
        "print(code, [m for m in ('linecache', 'tokenize', 're') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(PACKAGE.parent)},
    )
    assert result.stderr == (
        "warning: gcd of branch weights and r=4 is 2 > 1; the cover may be disconnected\n"
    )
    assert result.stdout.splitlines()[-1] == "0 []"


def test_package_import_is_lazy():
    loaded = loaded_after("import divfact\nassert divfact.is_semistable.__name__ == 'is_semistable'")
    assert "divfact.invariants" in loaded
    loaded = loaded_after("import divfact")
    assert [name for name in loaded if name.startswith("divfact.")] == []
    # a submodule is still an attribute of the package
    loaded = loaded_after("import divfact\nassert divfact.strata.count_fcurves(5) == 10")
    assert "divfact.strata" in loaded


def test_every_public_name_resolves_to_its_definition():
    assert set(divfact.__all__) <= set(dir(divfact))
    assert len(set(divfact.__all__)) == len(divfact.__all__) == 40
    for name in divfact.__all__:
        value = getattr(divfact, name)
        # each is a class or function whose defining module names it the same
        module = importlib.import_module(value.__module__)
        assert module.__name__.startswith("divfact.")
        assert getattr(module, name) is value
        assert value.__name__ == name
    with pytest.raises(AttributeError):
        divfact.no_such_name
