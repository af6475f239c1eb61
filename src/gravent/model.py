"""Physical constants, body/system descriptions, and expansion-regime checks.

Everything here is an immutable value object in SI units; the numeric
engines consume these and nothing else.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import FloatRangeError, InputDomainError

#: CODATA-2018 Newtonian constant of gravitation, m^3 kg^-1 s^-2.
G_DEFAULT = 6.67430e-11
#: CODATA-2018 reduced Planck constant, J s.
HBAR_DEFAULT = 1.054571817e-34

#: Default upper bound on (dr1 + dr2)/d for the truncated expansion
#: to be considered trustworthy.
REGIME_THRESHOLD_DEFAULT = 0.1


def _real(name: str, value) -> float:
    """``value`` as a float; ``InputDomainError`` if it is not a real number."""
    if not isinstance(value, (float, numbers.Real)):
        raise InputDomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the float64 range
        raise InputDomainError(f"{name} is outside the float64 range") from None


def _require_type(name: str, value, cls: type) -> None:
    """``InputDomainError`` unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise InputDomainError(f"{name} must be of type {cls.__name__}, got {value!r}")


def _require_finite(**values: float) -> list[float]:
    """Each of ``values`` as its float (``_real``), which must be finite; the
    callers' sign checks test these floats, as the kernel's do."""
    floats = []
    for name, value in values.items():
        x = _real(name, value)
        if not math.isfinite(x):
            raise InputDomainError(f"{name} must be finite, got {x!r}")
        floats.append(x)
    return floats


@dataclass(frozen=True, slots=True)
class PhysicalConstants:
    """Gravitational and Planck constants, overridable for scaling tests.

    ``hbar = 0`` is accepted as the classical limit: every quantum
    correction collapses to zero and only the phase accumulators reject it.
    """

    G: float = G_DEFAULT
    hbar: float = HBAR_DEFAULT

    def __post_init__(self) -> None:
        G, hbar = _require_finite(G=self.G, hbar=self.hbar)
        if G <= 0:
            raise InputDomainError(f"G must be positive, got {G!r}")
        if hbar < 0:
            raise InputDomainError(f"hbar must be non-negative, got {hbar!r}")


@dataclass(frozen=True, slots=True)
class MassiveBody:
    """One particle: mass (kg), geometric radius (m), oscillator frequency (rad/s).

    The radius is bookkeeping only; the dynamics depend on the mass and the
    vibrational frequency through the zero-point width sqrt(hbar/(m*omega)).
    """

    mass: float
    radius: float
    omega: float

    def __post_init__(self) -> None:
        mass, radius, omega = _require_finite(mass=self.mass, radius=self.radius, omega=self.omega)
        if mass <= 0:
            raise InputDomainError(f"mass must be positive, got {mass!r}")
        if radius < 0:
            raise InputDomainError(f"radius must be non-negative, got {radius!r}")
        if omega <= 0:
            raise InputDomainError(f"omega must be positive, got {omega!r}")


@dataclass(frozen=True, slots=True)
class PairSystem:
    """Two massive bodies a center-of-mass distance ``separation_d`` apart."""

    body1: MassiveBody
    body2: MassiveBody
    separation_d: float
    constants: PhysicalConstants = PhysicalConstants()

    def __post_init__(self) -> None:
        _require_type("body1", self.body1, MassiveBody)
        _require_type("body2", self.body2, MassiveBody)
        _require_type("constants", self.constants, PhysicalConstants)
        (d,) = _require_finite(separation_d=self.separation_d)
        if d <= 0:
            raise InputDomainError(f"separation_d must be positive, got {d!r}")

    def swapped(self) -> "PairSystem":
        """The same system with body labels 1 and 2 exchanged."""
        return PairSystem(self.body2, self.body1, self.separation_d, self.constants)


@dataclass(frozen=True, slots=True)
class ValidityAssessment:
    """Quantified check of the small-displacement assumption.

    ``ratio_x`` is (dr1 + dr2)/d with dr_i the zero-point widths;
    ``in_regime`` holds exactly when ratio_x < threshold.
    """

    ratio_x: float
    threshold: float
    in_regime: bool


def zero_point_width(m: float, omega: float, c: PhysicalConstants) -> float:
    """Ground-state displacement scale sqrt(hbar/(m*omega)) of an oscillator, in m.

    Parameters
    ----------
    m : float
        Oscillator mass in kg, must be positive.
    omega : float
        Angular frequency in rad/s, must be positive.
    c : PhysicalConstants
        Supplies hbar.
    """
    m, omega = _require_finite(m=m, omega=omega)
    if m <= 0:
        raise InputDomainError(f"mass must be positive, got {m!r}")
    if omega <= 0:
        raise InputDomainError(f"omega must be positive, got {omega!r}")
    if m * omega == 0:
        raise FloatRangeError(f"mass*omega underflows to 0 at {m!r} and {omega!r}")
    return math.sqrt(c.hbar / (m * omega))


def assess_validity(
    sys: PairSystem, threshold: float = REGIME_THRESHOLD_DEFAULT
) -> ValidityAssessment:
    """Compare the summed zero-point widths against the separation.

    Returns the dimensionless ratio x = (dr1 + dr2)/d and whether it sits
    below ``threshold``; the truncated potential expansion is only reliable
    when it does.
    """
    _require_finite(threshold=threshold)
    if threshold <= 0:
        raise InputDomainError(f"threshold must be positive, got {threshold!r}")
    dr1 = zero_point_width(sys.body1.mass, sys.body1.omega, sys.constants)
    dr2 = zero_point_width(sys.body2.mass, sys.body2.omega, sys.constants)
    ratio = (dr1 + dr2) / sys.separation_d
    return ValidityAssessment(ratio_x=ratio, threshold=threshold, in_regime=ratio < threshold)
