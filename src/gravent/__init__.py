"""gravent: gravitationally induced two-qubit entanglement numerics.

Pipeline: size-corrected Newtonian potential -> Planck-linear quantum
correction -> accumulated branch phases -> evolved two-qubit state ->
matrix-derived entanglement measures, with a sweep engine and batch CLI
on top. The reference helpers behind the scalar pipeline stay in their
modules (``gravent.dynamics``, ``gravent.measures``, ...).

Importing the package loads ``errors`` and ``model`` alone. Each other name
in ``__all__`` loads its module on first access (``__getattr__``, PEP 562),
so ``import gravent.cli`` leaves the scalar modules ``potential``,
``dynamics`` and ``measures`` unloaded, and ``import gravent.measures``
leaves out ``sweep`` and ``config``.
"""

import importlib

from .errors import (
    ConfigError,
    ConvergenceDomainError,
    FloatRangeError,
    GraventError,
    InputDomainError,
    NoEntanglementError,
    PrecisionError,
    RegimeWarning,
    WidthWarning,
)
from .model import MassiveBody, PairSystem, PhysicalConstants

__version__ = "0.1.0"

__all__ = [
    "AxisSpec",
    "ConfigError",
    "ConvergenceDomainError",
    "FloatRangeError",
    "GraventError",
    "InputDomainError",
    "MassiveBody",
    "NoEntanglementError",
    "PairSystem",
    "PhysicalConstants",
    "PrecisionError",
    "RegimeWarning",
    "SweepSpec",
    "WidthWarning",
    "accumulated_phase",
    "entanglement_force",
    "parse_config",
    "quantum_correction",
    "report",
    "run_sweep",
    "time_to_max_entanglement",
]

#: The names of ``__all__`` that load on first access, each with its module.
_ON_FIRST_USE = {
    "report": "measures",
    "accumulated_phase": "dynamics",
    "entanglement_force": "potential",
    "quantum_correction": "potential",
    "AxisSpec": "sweep",
    "SweepSpec": "sweep",
    "run_sweep": "sweep",
    "time_to_max_entanglement": "sweep",
    "parse_config": "config",
}


def __getattr__(name: str):
    try:
        module = _ON_FIRST_USE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ON_FIRST_USE})
