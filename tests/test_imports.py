"""Every module of the package imports on its own, in a fresh interpreter,
and every name in its ``__all__`` exists.

The package ``__init__`` files import nothing, so nothing loads the modules
in a fixed order first: an import cycle that works in only one order fails here.
The CLI loads no test-only code, and ``pyproject.toml``'s runtime
dependencies are exactly what the source imports.
"""

import ast
import importlib
import os
import re
import subprocess
import sys

import pytest

import detseg

PACKAGE_DIR = os.path.dirname(os.path.abspath(detseg.__file__))
SRC = os.path.dirname(PACKAGE_DIR)


def module_names() -> list[str]:
    names = []
    for root, _, files in os.walk(PACKAGE_DIR):
        for file in files:
            if file.endswith(".py"):
                parts = os.path.relpath(os.path.join(root, file[:-3]), SRC).split(os.sep)
                names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return sorted(names)


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("module", module_names())
def test_module_imports_on_its_own(module):
    done = run_fresh(f"import {module}")
    assert done.returncode == 0, done.stderr


def test_cli_loads_no_selftest_code():
    # every CLI process pays for what the CLI module imports; only `selftest` needs the suites
    done = run_fresh("import sys, detseg.pipeline.cli; "
                     "print(sorted({'detseg.selftest', 'detseg.oracles'} & set(sys.modules)))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_cli_loads_no_jsonschema():
    # settings are checked in the package; jsonschema is only the tests' reference for that checker
    done = run_fresh("import sys, detseg.pipeline.cli; "
                     "print(sorted(name for name in sys.modules if name.partition('.')[0] == 'jsonschema'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def imported_top_level_names() -> set[str]:
    """Top-level names of the modules the package's source imports, leaving out the standard library and itself."""
    names = set()
    for root, _, files in os.walk(PACKAGE_DIR):
        for file in files:
            if file.endswith(".py"):
                with open(os.path.join(root, file), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        names.update(alias.name.partition(".")[0] for alias in node.names)
                    elif isinstance(node, ast.ImportFrom) and node.level == 0:
                        names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names) - {"detseg"}


def test_runtime_dependencies_are_what_the_source_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    assert {re.match(r"[A-Za-z0-9_.-]+", requirement).group() for requirement in declared} == imported_top_level_names()


@pytest.mark.parametrize("module", module_names())
def test_every_name_in_all_resolves(module):
    # a stale __all__ entry breaks `from module import *` and nothing else
    imported = importlib.import_module(module)
    assert [name for name in getattr(imported, "__all__", ()) if not hasattr(imported, name)] == []
