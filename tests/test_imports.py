"""Each module imports on its own, first, in a fresh interpreter.

``gravent/__init__.py`` imports the modules in one fixed order, so an import
cycle between two of them can hide behind that order. Here the package is
entered without running its ``__init__``, so the module named is the first
to load and pulls in only what it imports itself."""

import functools
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gravent

PACKAGE_DIR = Path(gravent.__file__).resolve().parent
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(PACKAGE_DIR)]))

FIRST_IMPORT = """
import importlib, json, sys, types
package = types.ModuleType("gravent")
package.__path__ = [sys.argv[1]]
sys.modules["gravent"] = package
importlib.import_module("gravent." + sys.argv[2])
print(json.dumps(sorted(name for name in sys.modules if name.startswith("gravent."))))
"""


@functools.cache
def loaded_after_importing(module: str) -> frozenset[str]:
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_IMPORT, str(PACKAGE_DIR), module],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return frozenset(name.removeprefix("gravent.") for name in json.loads(proc.stdout))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    assert module in loaded_after_importing(module)


def test_kernel_loads_none_of_the_scalar_pipeline():
    """The scalar modules evaluate through the kernel, not the other way round."""
    assert not loaded_after_importing("kernel") & {"potential", "dynamics", "measures"}


def test_model_loads_no_module_but_errors():
    """Every module's input checks rest on ``model``, so it imports none of them."""
    assert loaded_after_importing("model") <= {"model", "errors"}
