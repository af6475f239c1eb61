"""gravent: gravitationally induced two-qubit entanglement numerics.

Pipeline: size-corrected Newtonian potential -> Planck-linear quantum
correction -> accumulated branch phases -> evolved two-qubit state ->
matrix-derived entanglement measures, with a sweep engine and batch CLI
on top. The reference helpers behind the scalar pipeline stay in their
modules: the density-matrix route in ``gravent.dynamics``, the regime check
and the series in ``gravent.potential``.

Importing the package loads ``errors`` and ``model`` alone. Each other name
in ``__all__`` loads its module on first access (``__getattr__``, PEP 562),
so ``import gravent.cli`` leaves the scalar modules ``potential``,
``dynamics`` and ``measures`` unloaded, and ``import gravent.measures``, or
``gravent.report``, loads ``kernel`` and ``measures`` besides and nothing
else.
"""

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
from .model import MassiveBody, PairSystem, PhysicalConstants, _on_first_use

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


__getattr__ = _on_first_use(globals(), _ON_FIRST_USE)


def __dir__() -> list[str]:
    return sorted({*globals(), *_ON_FIRST_USE})
