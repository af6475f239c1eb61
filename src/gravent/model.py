"""Physical constants, body/system descriptions, the zero-point width, and
the input checks of the value objects and of the kernel's array path.

The value objects are immutable, in SI units; the numeric engines consume
these and nothing else. ``MassiveBody`` and ``PairSystem`` set their slots
in their own ``__init__`` (``_slot_setters``, which ``measures.report`` uses
too) and then run ``__post_init__``: it accepts valid floats in one chained
test and makes the ordered checks only where that test fails, so a rejected
input raises what they raise.

The checks here report a failed condition to an adder, ``add(fails, exc,
message, *args)``: the value objects and the scalar functions pass
``_raise``, which raises at the first failure, and the kernel's array path
``kernel.Batch.add``, which records ``fails`` as a mask over a column. The
kernel body writes out its per-point checks (tau, hbar, m*omega, the
expansion, the correction's range, the phases) with this module's messages;
``test_each_float_check_fails_as_the_array_path_does`` and
``test_views_match_the_oracles`` hold the float path, the array path and the
oracles to the same classes and messages. Each check calls its adder under
``if fails is not False:``: on floats a passing check makes no call, while an
array condition always reaches the adder, so the array path records every
mask. ``_real``, ``_require_type``, ``_bool`` and ``_count`` decide which
Python values are inputs at all.

``_on_first_use`` builds each lazy module ``__getattr__`` of the package
(PEP 562). Importing this module builds three dataclasses and loads no
module but ``errors``.
"""

from __future__ import annotations

import importlib
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import FloatRangeError, GraventError, InputDomainError

#: CODATA-2018 Newtonian constant of gravitation, m^3 kg^-1 s^-2.
G_DEFAULT = 6.67430e-11
#: CODATA-2018 reduced Planck constant, J s.
HBAR_DEFAULT = 1.054571817e-34

#: Default upper bound on (dr1 + dr2)/d for the truncated expansion
#: to be considered trustworthy.
REGIME_THRESHOLD_DEFAULT = 0.1

#: The value objects' valid-case tests compare against this global, which
#: costs less than looking up ``math.inf``.
_INF = math.inf


def _real(name: str, value) -> float:
    """``value`` as a float; ``InputDomainError`` if it is not a real number.
    A bool is not a real number; a float is decided by its first test."""
    if not isinstance(value, float) and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise InputDomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the float64 range
        raise InputDomainError(f"{name} is outside the float64 range") from None


def _require_type(name: str, value, cls: type) -> None:
    """``InputDomainError`` unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise InputDomainError(f"{name} must be of type {cls.__name__}, got {value!r}")


def _bool(name: str, value) -> bool:
    if not isinstance(value, (bool, np.bool_)):
        raise InputDomainError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def _count(name: str, value, least: int = 1) -> None:
    """``InputDomainError`` unless ``value`` is an integer >= ``least``; a
    bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputDomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InputDomainError(f"{name} must be >= {least}, got {value!r}")


def _raise(fails, exc: type[GraventError], message: str, *args) -> None:
    """The adder of checks on single values: a check that fails raises."""
    if fails:
        raise exc(message.format(*map(repr, args)))


def _finite(add, name: str, x, bound: str | None = None):
    """``x`` must be finite, then within ``bound`` if given; returns ``x``."""
    fails = x - x != 0  # x - x is 0 exactly when x is finite
    if fails is not False:
        add(fails, InputDomainError, name + " must be finite, got {}", x)
    if bound is not None:
        _bound(add, name, x, bound)
    return x


def _bound(add, name: str, x, bound: str) -> None:
    """``x`` must be ``bound``: "positive" or "non-negative"."""
    fails = x <= 0 if bound == "positive" else x < 0
    if fails is not False:
        add(fails, InputDomainError, f"{name} must be {bound}, got {{}}", x)


def _check_body(add, mass, radius, omega, real=lambda name, x: x) -> None:
    """A body's six checks: each field finite, then each within its bound.
    ``real`` (``MassiveBody``'s ``_real``) converts a field just before its check."""
    mass = _finite(add, "mass", real("mass", mass))
    radius = _finite(add, "radius", real("radius", radius))
    omega = _finite(add, "omega", real("omega", omega))
    _bound(add, "mass", mass, "positive")
    _bound(add, "radius", radius, "non-negative")
    _bound(add, "omega", omega, "positive")


def _mass_omega(add, m, omega):
    """m*omega, which the widths and the correction divide by, checked non-zero."""
    mw = m * omega
    fails = mw == 0
    if fails is not False:
        add(fails, FloatRangeError, "mass*omega underflows to 0 at {} and {}", m, omega)
    return mw


@dataclass(frozen=True, slots=True)
class PhysicalConstants:
    """Gravitational and Planck constants, overridable for scaling tests.

    ``hbar = 0`` is accepted as the classical limit: every quantum
    correction collapses to zero and only the phase accumulators reject it.
    """

    G: float = G_DEFAULT
    hbar: float = HBAR_DEFAULT

    def __post_init__(self) -> None:
        G = _finite(_raise, "G", _real("G", self.G))
        hbar = _finite(_raise, "hbar", _real("hbar", self.hbar))
        _bound(_raise, "G", G, "positive")
        _bound(_raise, "hbar", hbar, "non-negative")


def _slot_setters(cls: type) -> tuple:
    """Each field's slot setter, in field order: the ``__set__`` of the
    field's member descriptor. A frozen dataclass's ``__init__`` sets each
    field with ``object.__setattr__``, which looks the slot up again by name;
    the setters store straight into it."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


def _on_first_use(namespace: dict, table: dict[str, str]):
    """A module's ``__getattr__`` (PEP 562) over ``table``, which maps each
    name to the sibling module that defines it. The first access to a name
    loads that module and binds the name in ``namespace``, the module's
    globals, so later accesses find it there."""
    module_name, package = namespace["__name__"], namespace["__package__"]

    def __getattr__(name: str):
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(f".{module}", package), name)
        namespace[name] = value
        return value

    return __getattr__


@dataclass(frozen=True, slots=True, init=False)
class MassiveBody:
    """One particle: mass (kg), geometric radius (m), oscillator frequency (rad/s).

    The radius is bookkeeping only; the dynamics depend on the mass and the
    vibrational frequency through the zero-point width sqrt(hbar/(m*omega)).
    """

    mass: float
    radius: float
    omega: float

    def __init__(self, mass: float, radius: float, omega: float) -> None:
        _set_mass(self, mass)
        _set_radius(self, radius)
        _set_omega(self, omega)
        self.__post_init__()

    def __post_init__(self) -> None:
        mass, radius, omega = self.mass, self.radius, self.omega
        # Floats that pass every check pass this one test; anything else
        # takes the ordered checks, which raise the first failure or accept
        # a real number that is not a float.
        if not (type(mass) is type(radius) is type(omega) is float
                and 0.0 < mass < _INF and 0.0 < omega < _INF and 0.0 <= radius < _INF):
            _check_body(_raise, mass, radius, omega, _real)


_set_mass, _set_radius, _set_omega = _slot_setters(MassiveBody)
#: ``PairSystem``'s default constants: CODATA 2018.
_CODATA = PhysicalConstants()


@dataclass(frozen=True, slots=True, init=False)
class PairSystem:
    """Two massive bodies a center-of-mass distance ``separation_d`` apart."""

    body1: MassiveBody
    body2: MassiveBody
    separation_d: float
    constants: PhysicalConstants = _CODATA

    def __init__(
        self,
        body1: MassiveBody,
        body2: MassiveBody,
        separation_d: float,
        constants: PhysicalConstants = _CODATA,
    ) -> None:
        _set_body1(self, body1)
        _set_body2(self, body2)
        _set_separation_d(self, separation_d)
        _set_constants(self, constants)
        self.__post_init__()

    def __post_init__(self) -> None:
        body1, body2, d, constants = self.body1, self.body2, self.separation_d, self.constants
        # As MassiveBody's: the valid case in one test, then the ordered checks.
        if not (type(body1) is type(body2) is MassiveBody and type(constants) is PhysicalConstants
                and type(d) is float and 0.0 < d < _INF):
            _require_type("body1", body1, MassiveBody)
            _require_type("body2", body2, MassiveBody)
            _require_type("constants", constants, PhysicalConstants)
            _finite(_raise, "separation_d", _real("separation_d", d), "positive")

    def swapped(self) -> "PairSystem":
        """The same system with body labels 1 and 2 exchanged."""
        return PairSystem(self.body2, self.body1, self.separation_d, self.constants)


_set_body1, _set_body2, _set_separation_d, _set_constants = _slot_setters(PairSystem)


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
    m, omega = _finite(_raise, "m", _real("m", m)), _finite(_raise, "omega", _real("omega", omega))
    _bound(_raise, "mass", m, "positive")
    _bound(_raise, "omega", omega, "positive")
    _require_type("c", c, PhysicalConstants)
    return math.sqrt(c.hbar / _mass_omega(_raise, m, omega))
