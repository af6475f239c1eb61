"""Each module imports on its own, first, in a fresh interpreter, and each
entry point loads only the modules it runs.

An import cycle between two modules can hide behind the order in which
another import loads them. The first checks enter the package without
running its ``__init__``, so the module named is the first to load and pulls
in only what it imports itself. The later ones go through the real
``__init__``, which loads ``errors`` and ``model`` and the rest of its names
on first access."""

import functools
import importlib
import inspect
import json
import os
import pkgutil
import re
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


def run_fresh(code: str, *args: str) -> str:
    """Standard output of a fresh interpreter that runs ``code`` with the
    package on its path, so that ``import gravent`` runs its ``__init__``."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


PACKAGE_IMPORT = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(sys.modules)))
"""


def loaded_after(statement: str) -> frozenset[str]:
    """Every module in ``sys.modules`` after a fresh interpreter runs ``statement``."""
    return frozenset(json.loads(run_fresh(PACKAGE_IMPORT, statement)))


def test_cli_loads_none_of_the_scalar_pipeline():
    """No CLI mode calls ``potential``, ``dynamics`` or ``measures``."""
    loaded = loaded_after("import gravent.cli")
    assert "gravent.cli" in loaded
    assert not loaded & {"gravent.potential", "gravent.dynamics", "gravent.measures"}


def test_measures_loads_neither_sweep_nor_config():
    loaded = loaded_after("import gravent.measures")
    assert "gravent.measures" in loaded
    assert not loaded & {"gravent.sweep", "gravent.config", "configparser"}


@pytest.mark.parametrize("statement", ["import gravent.measures", "import gravent; gravent.report"])
def test_report_loads_only_its_own_path(statement):
    """``report()`` runs the kernel alone: the density-matrix route in
    ``dynamics`` and the scalar potential stay unloaded."""
    loaded = {name for name in loaded_after(statement) if name.startswith("gravent")}
    assert loaded == {"gravent", "gravent.errors", "gravent.model", "gravent.kernel",
                      "gravent.measures"}


DATACLASSES = """
import dataclasses, json, sys
exec(sys.argv[1])
print(json.dumps(sorted({
    value.__qualname__ for name, module in list(sys.modules.items()) if name.startswith("gravent")
    for value in vars(module).values() if isinstance(value, type) and dataclasses.is_dataclass(value)
})))
"""


def test_entry_points_build_no_validity_assessment():
    """The regime check's dataclass lives in ``potential``, which neither
    entry point loads."""
    assert json.loads(run_fresh(DATACLASSES, "import gravent.measures")) == [
        "EntanglementReport", "MassiveBody", "PairSystem", "PhysicalConstants"]
    assert "ValidityAssessment" not in json.loads(run_fresh(DATACLASSES, "import gravent.cli"))


@pytest.mark.parametrize("module, name, home", [
    *(("measures", name, "dynamics") for name in (
        "DensityMatrix", "accumulated_phase", "evolve_closed_form", "report_from_phases",
        "von_neumann_entropy",
    )),
    ("sweep", "assess_validity", "potential"),
])
def test_a_moved_name_resolves_to_its_home(module, name, home):
    """Each name the benchmark's tracer wraps where it used to live keeps
    resolving there, to the very object of the module that holds it now."""
    value = getattr(importlib.import_module(f"gravent.{module}"), name)
    assert value is getattr(importlib.import_module(f"gravent.{home}"), name)


@pytest.mark.parametrize("module, name", [
    *(("measures", name) for name in (
        "MATRIX_TOL", "EIGENVALUE_FLOOR", "density_from_state", "partial_trace", "purity",
        "linear_entropy", "nearest_multiple_distance", "PhaseSet", "TwoQubitState",
        "initial_product_state", "LN2", "PHASE_TOL", "SEPARABLE_EPSILON_TOL",
        "InputDomainError", "PositivityError",
    )),
    ("model", "assess_validity"),
    ("model", "ValidityAssessment"),
])
def test_a_moved_name_resolves_only_from_its_home(module, name):
    """A name that left a module for good is no attribute of it."""
    message = f"module 'gravent.{module}' has no attribute {name!r}"
    with pytest.raises(AttributeError, match=f"^{re.escape(message)}$"):
        getattr(importlib.import_module(f"gravent.{module}"), name)


def test_model_has_no_module_getattr():
    from gravent import model

    assert "__getattr__" not in vars(model)


@pytest.mark.parametrize("module", MODULES)
def test_each_exported_function_and_class_is_defined_where_it_is_exported(module):
    """A module's ``__all__`` names no function or class of another module."""
    namespace = importlib.import_module(f"gravent.{module}")
    for name in getattr(namespace, "__all__", ()):
        value = getattr(namespace, name)
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == namespace.__name__, name


STAR_IMPORT = """
import sys
import gravent
assert set(gravent.__all__) <= set(dir(gravent)), set(gravent.__all__) - set(dir(gravent))
from gravent import *
for name in gravent.__all__:
    value = globals()[name]
    assert getattr(sys.modules[value.__module__], name) is value is getattr(gravent, name), name
print(len(gravent.__all__))
"""


def test_star_import_binds_every_name_to_its_module_object():
    """Before any access ``dir`` lists every name; ``import *`` then loads
    each from the module that defines it."""
    assert run_fresh(STAR_IMPORT) == "21\n"


def test_an_unknown_name_is_an_attribute_error():
    from gravent import measures, model, sweep

    for module in (gravent, sweep, measures, model):
        message = f"module {module.__name__!r} has no attribute 'no_such_name'"
        with pytest.raises(AttributeError, match=f"^{re.escape(message)}$"):
            module.no_such_name


def test_sweep_resolves_the_scalar_pipeline_it_re_exports():
    from gravent import measures, potential, sweep

    assert sweep.report is measures.report
    assert sweep.entanglement_force is potential.entanglement_force


def test_the_force_unit_is_imported_from_kernel():
    from gravent import kernel, potential

    assert kernel.FORCE_CLOSED_FORM_UNIT == "J*s"
    assert "FORCE_CLOSED_FORM_UNIT" not in potential.__all__
