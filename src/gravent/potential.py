"""Potential engine: the expanded and the quantum-corrected gravitational
potential energies, plus the entanglement energy and force.

``quantum_correction`` and ``entanglement_force`` evaluate the kernel's
expressions; ``tests/oracles.py`` keeps their scalar forms, and the
point-mass and un-expanded size-corrected potentials, as the reference.

Conventions
-----------
All potentials are energies in joules and are negative for attracting
bodies. The quantum correction ``delta_v_g`` is stored signed (negative);
consumers that need a positive scale take its magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernel
from .errors import ConvergenceDomainError, InputDomainError
from .kernel import FORCE_CLOSED_FORM_UNIT, warn_out_of_regime
from .model import PairSystem, _count, _real, _require_type, assess_validity, zero_point_width

__all__ = [
    "SeriesTerm",
    "PotentialBreakdown",
    "ForceEstimate",
    "expand_potential",
    "zero_point_width",
    "quantum_correction",
    "corrected_potential",
    "entanglement_force",
    "FORCE_CLOSED_FORM_UNIT",
]

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


def expand_potential(
    sys: PairSystem, dr_sum: float, max_order: int
) -> tuple[SeriesTerm, ...]:
    """Expand -K/(d + dr_sum) in powers of x = dr_sum/d, K = G*m1*m2.

    term(n) = -(K/d) * (-x)^n, the alternating geometric series of
    1/(1 + x); partial sums converge to the exact size-corrected potential
    for |x| < 1. The n = 1 term is flagged absorbable: it only shifts the
    reference separation.
    """
    dr_sum = _real("dr_sum", dr_sum)
    if dr_sum - dr_sum != 0:
        raise InputDomainError("dr_sum must be finite")
    _count("max_order", max_order, least=0)
    _require_type("sys", sys, PairSystem)
    x = dr_sum / sys.separation_d
    if abs(x) >= 1:
        raise ConvergenceDomainError(f"|dr_sum/d| = {abs(x)!r} >= 1: geometric expansion diverges")
    v0 = -sys.constants.G * sys.body1.mass * sys.body2.mass / sys.separation_d
    return tuple(
        SeriesTerm(order=n, value=v0 * (-x) ** n, absorbable=(n == 1))
        for n in range(max_order + 1)
    )


def quantum_correction(sys: PairSystem) -> float:
    """Planck-linear correction to the pair potential, in joules (<= 0).

    delta_v_g = -(hbar*G*m1*m2/d^3) * (1/(m1*w1) + 1/(m2*w2)
                                       + 2/sqrt(m1*m2*w1*w2))

    Equivalently -(G*m1*m2/d^3)*(dr1 + dr2)^2 with dr_i the zero-point
    widths; the bracket form above is what is evaluated here. Raises
    ``FloatRangeError`` when a product in it underflows to 0 or d^3
    leaves the float64 range.
    """
    (delta_v_g,) = kernel.evaluate_correction(sys)
    return delta_v_g


def corrected_potential(sys: PairSystem) -> PotentialBreakdown:
    """Full bookkeeping of the corrected pair potential at zero-point widths,
    with the series to order 2, the paper's truncation.

    Emits ``RegimeWarning`` (never an error) when the displacement ratio
    reaches the default regime threshold; out-of-regime numbers are still
    computed. More terms are ``expand_potential``'s, another threshold is
    ``assess_validity``'s.
    """
    check = assess_validity(sys)
    if not check.in_regime:
        warn_out_of_regime(check.ratio_x, check.threshold, stacklevel=2)
    dr1 = zero_point_width(sys.body1.mass, sys.body1.omega, sys.constants)
    dr2 = zero_point_width(sys.body2.mass, sys.body2.omega, sys.constants)
    terms = expand_potential(sys, dr1 + dr2, 2)
    v0 = terms[0].value
    x = check.ratio_x
    delta = quantum_correction(sys)
    return PotentialBreakdown(
        v0=v0,
        series_terms=terms,
        v_truncated=v0 * (1.0 + x * x),
        delta_v_g=delta,
        v_g_total=v0 + delta,
    )


def entanglement_force(sys: PairSystem, symmetrize: bool = False) -> ForceEstimate:
    """Two routes to the force scale tied to the correction energy.

    ``closed_form`` evaluates

        (hbar*G*m1*m2/d^3) * [1/(m1*w1^2) + 1/(m1*w2^2)
                              + (1/sqrt(m1*m2)) * (1/sqrt(w1^3*w2) + 1/sqrt(w1*w2^3))]

    exactly as written, including the m1 in the second denominator;
    ``symmetrize=True`` substitutes m2 there instead. ``gradient_based``
    differentiates the d^-3 correction analytically: 3*|delta_v_g|/d.
    Raises ``FloatRangeError`` where ``quantum_correction`` does, and when
    a power of omega overflows or a denominator underflows to 0.
    """
    _, closed_form, gradient = kernel.evaluate_correction(sys, force=True, symmetrize=symmetrize)
    return ForceEstimate(closed_form, FORCE_CLOSED_FORM_UNIT, gradient)
