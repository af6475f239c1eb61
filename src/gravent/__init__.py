"""gravent: gravitationally induced two-qubit entanglement numerics.

Pipeline: size-corrected Newtonian potential -> Planck-linear quantum
correction -> accumulated branch phases -> evolved two-qubit state ->
matrix-derived entanglement measures, with a sweep engine and batch CLI
on top. The reference helpers behind the scalar pipeline stay in their
modules (``gravent.dynamics``, ``gravent.measures``, ...).
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
from .model import MassiveBody, PairSystem, PhysicalConstants
from .potential import entanglement_force, quantum_correction
from .dynamics import accumulated_phase
from .measures import report
from .sweep import AxisSpec, SweepSpec, run_sweep, time_to_max_entanglement
from .config import parse_config

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
