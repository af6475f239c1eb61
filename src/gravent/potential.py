"""Potential engine: classical, size-corrected, expanded, and quantum-corrected
gravitational potential energies, plus the entanglement energy and force.

Conventions
-----------
All potentials are energies in joules and are negative for attracting
bodies. The quantum correction ``delta_v_g`` is stored signed (negative);
consumers that need a positive scale take its magnitude.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import ConvergenceDomainError, InputDomainError, RegimeWarning, SingularityError
from .model import (
    REGIME_THRESHOLD_DEFAULT,
    PairSystem,
    PhysicalConstants,
    assess_validity,
    zero_point_width,
)

__all__ = [
    "SeriesTerm",
    "PotentialBreakdown",
    "ForceEstimate",
    "newtonian_potential",
    "exact_size_corrected_potential",
    "expand_potential",
    "zero_point_width",
    "quantum_correction",
    "corrected_potential",
    "entanglement_force",
    "FORCE_CLOSED_FORM_UNIT",
]

#: Dimensional content of the fixed closed-form force expression. Its
#: bracket carries 1/(mass * omega^2), one power of omega short of a
#: force, so the product evaluates to an energy*time. The value is
#: reported unaltered under this tag next to the gradient-based force
#: in newtons.
FORCE_CLOSED_FORM_UNIT = "J*s"

#: Highest supported truncation order for the expansion bookkeeping.
MAX_SERIES_ORDER = 12


@dataclass(frozen=True, slots=True)
class SeriesTerm:
    """One term of the expanded potential: value of order n in joules.

    ``absorbable`` marks the linear term, a pure center-of-mass displacement
    that can be folded into a redefinition of the separation.
    """

    order: int
    value: float
    absorbable: bool


@dataclass(frozen=True, slots=True)
class PotentialBreakdown:
    """Classical term, series terms, truncated form, and quantum correction.

    ``v_g_total`` is ``v0 + delta_v_g`` by construction; ``v_truncated`` is
    the quadratic truncation v0*(1 + x^2) evaluated at the zero-point widths
    and agrees with ``v_g_total`` up to rounding.
    """

    v0: float
    series_terms: tuple[SeriesTerm, ...]
    v_truncated: float
    delta_v_g: float
    v_g_total: float


@dataclass(frozen=True, slots=True)
class ForceEstimate:
    """Entanglement-force numbers, both routes.

    ``closed_form`` evaluates the fixed bracket expression unaltered (see
    ``FORCE_CLOSED_FORM_UNIT`` for its actual dimension); ``gradient_based``
    is the magnitude of -d(delta_v_g)/dd, a genuine force in newtons.
    """

    closed_form: float
    closed_form_unit: str
    gradient_based: float


def newtonian_potential(m1: float, m2: float, d: float, c: PhysicalConstants) -> float:
    """Point-mass gravitational potential energy -G*m1*m2/d in joules.

    Masses may be zero (the energy vanishes); the separation must be
    positive.
    """
    for name, v in (("m1", m1), ("m2", m2), ("d", d)):
        if not math.isfinite(v):
            raise InputDomainError(f"{name} must be finite, got {v!r}")
    if m1 < 0 or m2 < 0:
        raise InputDomainError("masses must be non-negative")
    if d <= 0:
        raise InputDomainError(f"d must be positive, got {d!r}")
    return -c.G * m1 * m2 / d


def exact_size_corrected_potential(sys: PairSystem, dr1: float, dr2: float) -> float:
    """Potential energy -G*m1*m2/(d + dr1 + dr2) with explicit displacements.

    This is the un-expanded reference value the series results are checked
    against. Raises ``SingularityError`` when the effective separation
    d + dr1 + dr2 is not positive.
    """
    if not (math.isfinite(dr1) and math.isfinite(dr2)):
        raise InputDomainError("displacements must be finite")
    denom = sys.separation_d + dr1 + dr2
    if denom <= 0:
        raise SingularityError(
            f"effective separation d + dr1 + dr2 = {denom!r} is not positive"
        )
    return -sys.constants.G * sys.body1.mass * sys.body2.mass / denom


def expand_potential(
    sys: PairSystem, dr_sum: float, max_order: int
) -> tuple[SeriesTerm, ...]:
    """Expand -K/(d + dr_sum) in powers of x = dr_sum/d, K = G*m1*m2.

    term(n) = -(K/d) * (-x)^n, the alternating geometric series of
    1/(1 + x); partial sums converge to the exact size-corrected potential
    for |x| < 1. The n = 1 term is flagged absorbable: it only shifts the
    reference separation.
    """
    if not math.isfinite(dr_sum):
        raise InputDomainError("dr_sum must be finite")
    if max_order < 0:
        raise InputDomainError(f"max_order must be >= 0, got {max_order!r}")
    x = dr_sum / sys.separation_d
    if abs(x) >= 1:
        raise ConvergenceDomainError(
            f"|dr_sum/d| = {abs(x)!r} >= 1: geometric expansion diverges"
        )
    v0 = newtonian_potential(
        sys.body1.mass, sys.body2.mass, sys.separation_d, sys.constants
    )
    return tuple(
        SeriesTerm(order=n, value=v0 * (-x) ** n, absorbable=(n == 1))
        for n in range(max_order + 1)
    )


def quantum_correction(sys: PairSystem) -> float:
    """Planck-linear correction to the pair potential, in joules (<= 0).

    delta_v_g = -(hbar*G*m1*m2/d^3) * (1/(m1*w1) + 1/(m2*w2)
                                       + 2/sqrt(m1*m2*w1*w2))

    Equivalently -(G*m1*m2/d^3)*(dr1 + dr2)^2 with dr_i the zero-point
    widths; the bracket form above is what is evaluated here.
    """
    m1, w1 = sys.body1.mass, sys.body1.omega
    m2, w2 = sys.body2.mass, sys.body2.omega
    c = sys.constants
    bracket = 1.0 / (m1 * w1) + 1.0 / (m2 * w2) + 2.0 / math.sqrt(m1 * m2 * w1 * w2)
    return -(c.hbar * c.G * m1 * m2 / sys.separation_d**3) * bracket


def corrected_potential(
    sys: PairSystem,
    series_order: int = 2,
    regime_threshold: float = REGIME_THRESHOLD_DEFAULT,
) -> PotentialBreakdown:
    """Full bookkeeping of the corrected pair potential at zero-point widths.

    Emits ``RegimeWarning`` (never an error) when the displacement ratio
    exceeds ``regime_threshold``; out-of-regime numbers are still computed.
    """
    if not 0 <= series_order <= MAX_SERIES_ORDER:
        raise InputDomainError(
            f"series_order must be in [0, {MAX_SERIES_ORDER}], got {series_order!r}"
        )
    check = assess_validity(sys, regime_threshold)
    if not check.in_regime:
        warn_out_of_regime(check.ratio_x, regime_threshold, stacklevel=2)
    dr1 = zero_point_width(sys.body1.mass, sys.body1.omega, sys.constants)
    dr2 = zero_point_width(sys.body2.mass, sys.body2.omega, sys.constants)
    terms = expand_potential(sys, dr1 + dr2, series_order)
    v0 = terms[0].value
    x = (dr1 + dr2) / sys.separation_d
    delta = quantum_correction(sys)
    return PotentialBreakdown(
        v0=v0,
        series_terms=terms,
        v_truncated=v0 * (1.0 + x * x),
        delta_v_g=delta,
        v_g_total=v0 + delta,
    )


def warn_out_of_regime(ratio_x: float, threshold: float, stacklevel: int) -> None:
    """Emit ``RegimeWarning``; ``stacklevel`` counts from the caller, as in ``warnings.warn``."""
    warnings.warn(
        f"displacement ratio x = {ratio_x:.3e} >= {threshold:.3e}: "
        "the quadratic truncation is unreliable here",
        RegimeWarning,
        stacklevel=stacklevel + 1,
    )


def entanglement_force(sys: PairSystem, symmetrize: bool = False) -> ForceEstimate:
    """Two routes to the force scale tied to the correction energy.

    ``closed_form`` evaluates

        (hbar*G*m1*m2/d^3) * [1/(m1*w1^2) + 1/(m1*w2^2)
                              + (1/sqrt(m1*m2)) * (1/sqrt(w1^3*w2) + 1/sqrt(w1*w2^3))]

    exactly as written, including the m1 in the second denominator;
    ``symmetrize=True`` substitutes m2 there instead. ``gradient_based``
    differentiates the d^-3 correction analytically: 3*|delta_v_g|/d.
    """
    m1, w1 = sys.body1.mass, sys.body1.omega
    m2, w2 = sys.body2.mass, sys.body2.omega
    c = sys.constants
    d = sys.separation_d
    second_mass = m2 if symmetrize else m1
    bracket = (
        1.0 / (m1 * w1**2)
        + 1.0 / (second_mass * w2**2)
        + (1.0 / math.sqrt(m1 * m2)) * (1.0 / math.sqrt(w1**3 * w2) + 1.0 / math.sqrt(w1 * w2**3))
    )
    closed_form = (c.hbar * c.G * m1 * m2 / d**3) * bracket
    gradient = 3.0 * abs(quantum_correction(sys)) / d
    return ForceEstimate(
        closed_form=closed_form,
        closed_form_unit=FORCE_CLOSED_FORM_UNIT,
        gradient_based=gradient,
    )
