"""Reference forms the package is checked against.

The hand-written scalar forms of the correction, the entanglement force and
the accumulated phase are the reference the kernel's expressions are held
to. ``gravent.quantum_correction``, ``gravent.entanglement_force`` and
``gravent.accumulated_phase`` evaluate the kernel (``gravent.kernel``);
these are the bodies they had before, written out one expression at a
time, with each cube and square formed as a left-to-right product
(``d*d*d``, ``w*w``, ``w*w*w``) as the kernel forms it. They must agree
with the kernel bit for bit: values, error class and message, and the
``RegimeWarning`` text.

``newtonian_potential`` (-G*m1*m2/d) and ``exact_size_corrected_potential``
(-G*m1*m2/(d + dr1 + dr2), which raises ``SingularityError`` where that
separation is not positive) are the reference values of the expansion
``gravent.potential.expand_potential``: its zeroth term is the first, and its
partial sums converge to the second.

``operator_from_phases``, ``evolve_numeric`` (a fixed-step RK4 integrator
of the Schrodinger equation under a diagonal operator) and
``is_product_state`` (the rank of the amplitude matrix) are the independent
checks on ``gravent.dynamics.evolve_closed_form`` and on the separability
verdicts.

Nothing here calls the kernel, nor a public function that does.
"""

import math
import warnings

import numpy as np

from gravent.dynamics import PhaseSet, PotentialOperator, TwoQubitState
from gravent import model
from gravent.errors import (
    FloatRangeError, GraventError, InputDomainError, PrecisionError, RegimeWarning,
)
from gravent.kernel import FORCE_CLOSED_FORM_UNIT
from gravent.model import PairSystem, PhysicalConstants, zero_point_width
from gravent.potential import ForceEstimate, assess_validity, expand_potential

#: The smallest delta_phi whose ulp exceeds 1e-6 rad.
PHASE_RESOLUTION_LIMIT = 2.0**33


class SingularityError(GraventError, ArithmeticError):
    """A potential was requested at (or past) a vanishing separation."""


def _finite(value: float, name: str) -> float:
    """``value``, a power formed as a product; inf means ``name`` overflowed."""
    if value == math.inf:
        raise FloatRangeError(f"{name} overflows")
    return value


def _nonzero(value: float, name: str) -> float:
    """``value``, which a later step divides by; 0 means ``name`` underflowed."""
    if value == 0:
        raise FloatRangeError(f"{name} underflows to 0")
    return value


def newtonian_potential(m1: float, m2: float, d: float, c: PhysicalConstants) -> float:
    """Point-mass gravitational potential energy -G*m1*m2/d in joules.

    Masses may be zero (the energy vanishes); the separation must be
    positive.
    """
    for name, v in (("m1", m1), ("m2", m2), ("d", d)):
        model._real(name, v)
        model._finite(model._raise, name, v)
    if m1 < 0 or m2 < 0:
        raise InputDomainError("masses must be non-negative")
    model._bound(model._raise, "d", d, "positive")
    return -c.G * m1 * m2 / d


def exact_size_corrected_potential(sys: PairSystem, dr1: float, dr2: float) -> float:
    """Potential energy -G*m1*m2/(d + dr1 + dr2) with explicit displacements.

    Raises ``SingularityError`` when the effective separation d + dr1 + dr2
    is not positive.
    """
    dr1 = model._finite(model._raise, "dr1", model._real("dr1", dr1))
    dr2 = model._finite(model._raise, "dr2", model._real("dr2", dr2))
    model._require_type("sys", sys, PairSystem)
    denom = sys.separation_d + dr1 + dr2
    if denom <= 0:
        raise SingularityError(
            f"effective separation d + dr1 + dr2 = {denom!r} is not positive"
        )
    return -sys.constants.G * sys.body1.mass * sys.body2.mass / denom


def quantum_correction(sys: PairSystem) -> float:
    """delta_v_g = -(hbar*G*m1*m2/d^3) * (1/(m1*w1) + 1/(m2*w2) + 2/sqrt(m1*m2*w1*w2))."""
    m1, w1 = sys.body1.mass, sys.body1.omega
    m2, w2 = sys.body2.mass, sys.body2.omega
    c = sys.constants
    for m, w in ((m1, w1), (m2, w2)):
        if m * w == 0:
            raise FloatRangeError(f"mass*omega underflows to 0 at {m!r} and {w!r}")
    product = _nonzero(m1 * m2 * w1 * w2, "m1*m2*omega1*omega2")
    bracket = 1.0 / (m1 * w1) + 1.0 / (m2 * w2) + 2.0 / math.sqrt(product)
    d = sys.separation_d
    d3 = _nonzero(_finite(d * d * d, "d**3"), "d**3")
    return -(c.hbar * c.G * m1 * m2 / d3) * bracket


def entanglement_force(sys: PairSystem, symmetrize: bool = False) -> ForceEstimate:
    """The closed-form bracket, with m1 (or, symmetrized, m2) in the second
    denominator, and the gradient 3*|delta_v_g|/d."""
    m1, w1 = sys.body1.mass, sys.body1.omega
    m2, w2 = sys.body2.mass, sys.body2.omega
    c = sys.constants
    d = sys.separation_d
    # checks m1*m2 and d**3 first, as the batched kernel does
    correction = quantum_correction(sys)
    second_mass, second_name = (m2, "m2") if symmetrize else (m1, "m1")
    first_term = _nonzero(m1 * _finite(w1 * w1, "omega1**2"), "m1*omega1**2")
    second_term = _nonzero(second_mass * _finite(w2 * w2, "omega2**2"), f"{second_name}*omega2**2")
    cross1 = _nonzero(_finite(w1 * w1 * w1, "omega1**3") * w2, "omega1**3*omega2")
    cross2 = _nonzero(w1 * _finite(w2 * w2 * w2, "omega2**3"), "omega1*omega2**3")
    bracket = (
        1.0 / first_term
        + 1.0 / second_term
        + (1.0 / math.sqrt(m1 * m2)) * (1.0 / math.sqrt(cross1) + 1.0 / math.sqrt(cross2))
    )
    closed_form = (c.hbar * c.G * m1 * m2 / (d * d * d)) * bracket
    gradient = 3.0 * abs(correction) / d
    return ForceEstimate(
        closed_form=closed_form,
        closed_form_unit=FORCE_CLOSED_FORM_UNIT,
        gradient_based=gradient,
    )


def accumulated_phase(sys: PairSystem, tau: float) -> PhaseSet:
    """phi = v0*tau/hbar, phi_prime = (v0 + delta_v_g)*tau/hbar and
    delta_phi = rate*tau, the rate (G*m1*m2/d^3)*bracket free of hbar, after
    the checks and the RegimeWarning of ``corrected_potential`` at its
    defaults."""
    if not math.isfinite(tau):
        raise InputDomainError(f"tau must be finite, got {tau!r}")
    if tau < 0:
        raise InputDomainError(f"tau must be non-negative, got {tau!r}")
    c = sys.constants
    if c.hbar <= 0:
        raise InputDomainError("hbar must be positive to accumulate phases")
    check = assess_validity(sys)
    if not check.in_regime:
        warnings.warn(
            f"displacement ratio x = {check.ratio_x:.3e} >= {check.threshold:.3e}: "
            "the quadratic truncation is unreliable here",
            RegimeWarning,
            stacklevel=2,
        )
    dr1 = zero_point_width(sys.body1.mass, sys.body1.omega, c)
    dr2 = zero_point_width(sys.body2.mass, sys.body2.omega, c)
    v0 = expand_potential(sys, dr1 + dr2, 2)[0].value
    delta = quantum_correction(sys)
    v_g_total = v0 + delta
    phi = (v_g_total - delta) * tau / c.hbar
    phi_prime = v_g_total * tau / c.hbar
    m1, w1 = sys.body1.mass, sys.body1.omega
    m2, w2 = sys.body2.mass, sys.body2.omega
    bracket = 1.0 / (m1 * w1) + 1.0 / (m2 * w2) + 2.0 / math.sqrt(m1 * m2 * w1 * w2)
    # rate first, then * tau: keeps delta_phi exactly linear in tau
    d = sys.separation_d
    rate = (c.G * m1 * m2 / (d * d * d)) * bracket
    phases = PhaseSet(phi=phi, phi_prime=phi_prime, delta_phi=rate * tau)
    if phases.delta_phi >= PHASE_RESOLUTION_LIMIT:
        raise PrecisionError(
            f"delta_phi = {phases.delta_phi!r} rad >= 2**33: its ulp exceeds 1e-6 rad"
        )
    return phases


def operator_from_phases(
    phases: PhaseSet, tau: float, c: PhysicalConstants
) -> PotentialOperator:
    """Diagonal energies whose evolution over ``tau`` reproduces ``phases``.

    diag = (hbar/tau) * (phi, phi', phi', phi); requires tau > 0 and
    hbar > 0.
    """
    if not math.isfinite(tau) or tau <= 0:
        raise InputDomainError(f"tau must be positive to invert phases, got {tau!r}")
    if c.hbar <= 0:
        raise InputDomainError("hbar must be positive to convert phases to energies")
    scale = c.hbar / tau
    outer = scale * phases.phi
    inner = scale * phases.phi_prime
    return PotentialOperator(np.array([outer, inner, inner, outer]))


def evolve_numeric(
    psi0: TwoQubitState,
    op: PotentialOperator,
    tau: float,
    c: PhysicalConstants,
    steps: int = 1024,
    method: str = "rk4",
) -> TwoQubitState:
    """Propagate i*hbar*dpsi/dt = V*psi for time ``tau`` under a diagonal V.

    ``method="rk4"`` integrates with a fixed-step classical 4th-order
    scheme and is the independent check on ``evolve_closed_form``;
    ``method="exact"`` applies the diagonal exponential directly.
    """
    if not math.isfinite(tau) or tau < 0:
        raise InputDomainError(f"tau must be non-negative, got {tau!r}")
    if c.hbar <= 0:
        raise InputDomainError("hbar must be positive to integrate the evolution")
    if steps < 1:
        raise InputDomainError(f"steps must be >= 1, got {steps!r}")
    if tau == 0.0:
        return psi0

    omega = op.diag / c.hbar  # rad/s per branch
    if method == "exact":
        return TwoQubitState(np.exp(-1j * omega * tau) * psi0.amplitudes)
    if method != "rk4":
        raise InputDomainError(f"unknown method {method!r}; use 'rk4' or 'exact'")

    h = tau / steps
    if h == 0.0:
        warnings.warn(
            f"step size tau/steps = {tau!r}/{steps} underflowed to zero",
            stacklevel=2,
        )
    psi = psi0.amplitudes.copy()
    deriv = -1j * omega
    for _ in range(steps):
        k1 = deriv * psi
        k2 = deriv * (psi + 0.5 * h * k1)
        k3 = deriv * (psi + 0.5 * h * k2)
        k4 = deriv * (psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return TwoQubitState(psi)


def is_product_state(state: TwoQubitState, tol: float = 1e-12) -> bool:
    """Whether the state factorizes over the two qubits.

    Tests the rank of the 2x2 amplitude matrix: a second singular value
    below ``tol`` means rank one, i.e. a product state.
    """
    singular_values = np.linalg.svd(state.amplitude_matrix(), compute_uv=False)
    return bool(singular_values[1] < tol)
