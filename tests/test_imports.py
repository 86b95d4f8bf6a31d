"""Every module of the package imports on its own, in a fresh interpreter,
and every name in its ``__all__`` exists.

The package ``__init__`` files import nothing, so nothing loads the modules
in a fixed order first: an import cycle that works in only one order fails here.
"""

import importlib
import os
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


@pytest.mark.parametrize("module", module_names())
def test_module_imports_on_its_own(module):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", f"import {module}"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("module", module_names())
def test_every_name_in_all_resolves(module):
    # a stale __all__ entry breaks `from module import *` and nothing else
    imported = importlib.import_module(module)
    assert [name for name in getattr(imported, "__all__", ()) if not hasattr(imported, name)] == []
