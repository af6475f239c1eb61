"""Two-qubit basis, diagonal potential operator, accumulated phases, and the
state propagators (closed form plus an independent numeric integrator).

Basis order is fixed everywhere as

    (|r1+ r2+>, |r1+ r2->, |r1- r2+>, |r1- r2->)

i.e. same-direction displacement branches occupy the outer slots and
opposite-direction branches the inner ones.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputDomainError, NoEntanglementError, PrecisionError
from .kernel import PHASE_RESOLUTION_LIMIT
from .model import PairSystem, PhysicalConstants
from .potential import corrected_potential

__all__ = [
    "TwoQubitState",
    "PotentialOperator",
    "PhaseSet",
    "initial_product_state",
    "build_operator",
    "operator_from_phases",
    "accumulated_phase",
    "evolve_closed_form",
    "evolve_numeric",
    "is_product_state",
    "delta_phi_to_tau",
]

#: Construction-time norm tolerance; the closed-form propagator stays within
#: 1e-12 of unit norm, the fixed-step integrator within 1e-9.
NORM_TOL = 1e-9


def _as_readonly(vec: np.ndarray) -> np.ndarray:
    out = np.array(vec, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, slots=True)
class TwoQubitState:
    """Four complex amplitudes over the fixed displacement basis."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = _as_readonly(self.amplitudes)
        if amp.shape != (4,):
            raise InputDomainError(f"state needs 4 amplitudes, got shape {amp.shape}")
        if not np.all(np.isfinite(amp.real) & np.isfinite(amp.imag)):
            raise InputDomainError("state amplitudes must be finite")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > NORM_TOL:
            raise InputDomainError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def amplitude_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to a 2x2 matrix, rows = qubit 1, cols = qubit 2."""
        return self.amplitudes.reshape(2, 2)


@dataclass(frozen=True, slots=True)
class PotentialOperator:
    """Diagonal potential operator over the displacement basis, energies in J.

    Entries 0 and 3 (same-direction branches) are equal, as are entries
    1 and 2 (opposite-direction branches).
    """

    diag: np.ndarray

    def __post_init__(self) -> None:
        d = np.array(self.diag, dtype=np.float64, copy=True)
        if d.shape != (4,):
            raise InputDomainError(f"operator needs 4 diagonal energies, got {d.shape}")
        if not np.all(np.isfinite(d)):
            raise InputDomainError("operator energies must be finite")
        if d[0] != d[3] or d[1] != d[2]:
            raise InputDomainError("operator must pair equal outer and inner energies")
        d.setflags(write=False)
        object.__setattr__(self, "diag", d)

    def shifted(self, offset: float) -> "PotentialOperator":
        """Subtract a constant energy offset.

        Shifting the energy zero multiplies every evolved state by one
        global phase and leaves all observables unchanged; it keeps the
        integrated phases small enough for float64 when the common branch
        energy dwarfs the branch splitting.
        """
        return PotentialOperator(self.diag - offset)


@dataclass(frozen=True, slots=True)
class PhaseSet:
    """Accumulated branch phases in radians.

    ``phi`` is the same-direction branch phase, ``phi_prime`` the
    opposite-direction one. ``delta_phi`` is the entangling phase reported
    with a positive sign; the signed branch difference is
    ``phi_prime - phi``, whose magnitude equals ``delta_phi`` (up to float
    resolution of the subtraction when ``phi`` is many orders larger).
    """

    phi: float
    phi_prime: float
    delta_phi: float

    def __post_init__(self) -> None:
        for name, v in (("phi", self.phi), ("phi_prime", self.phi_prime),
                        ("delta_phi", self.delta_phi)):
            if not math.isfinite(v):
                raise InputDomainError(f"{name} must be finite, got {v!r}")
        if self.delta_phi < 0:
            raise InputDomainError(f"delta_phi must be non-negative, got {self.delta_phi!r}")


def initial_product_state() -> TwoQubitState:
    """Each qubit in the balanced superposition of its two displacement states."""
    return TwoQubitState(np.full(4, 0.5, dtype=np.complex128))


def build_operator(sys: PairSystem) -> PotentialOperator:
    """Diagonal operator (v_g - delta_v_g, delta_v_g, delta_v_g, v_g - delta_v_g).

    Same-direction branches carry the classical part of the corrected
    potential, opposite-direction branches the bare correction alone.
    Note its inner/outer energy gap is delta_v_g - v0, not the delta_v_g
    splitting that the accumulated phases encode; ``operator_from_phases``
    builds the diagonal consistent with ``accumulated_phase`` and the
    closed-form propagator.
    """
    breakdown = corrected_potential(sys)
    outer = breakdown.v_g_total - breakdown.delta_v_g
    inner = breakdown.delta_v_g
    return PotentialOperator(np.array([outer, inner, inner, outer]))


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


def accumulated_phase(sys: PairSystem, tau: float) -> PhaseSet:
    """Branch phases after interaction time ``tau`` (s).

    phi        = (v_g - delta_v_g) * tau / hbar      (same direction)
    phi_prime  = v_g * tau / hbar                    (opposite direction)
    delta_phi  = (G*m1*m2*tau/d^3) * (1/(m1*w1) + 1/(m2*w2)
                                      + 2/sqrt(m1*m2*w1*w2))

    ``delta_phi`` is evaluated from the last expression, which contains no
    hbar at all: the hbar in the correction energy cancels against the one
    in the phase accumulation. A ``delta_phi`` of 2**33 rad or more, whose
    ulp exceeds 1e-6 rad, raises ``PrecisionError``.
    """
    if not math.isfinite(tau):
        raise InputDomainError(f"tau must be finite, got {tau!r}")
    if tau < 0:
        raise InputDomainError(f"tau must be non-negative, got {tau!r}")
    c = sys.constants
    if c.hbar <= 0:
        raise InputDomainError("hbar must be positive to accumulate phases")
    breakdown = corrected_potential(sys)
    v0 = breakdown.v_g_total - breakdown.delta_v_g
    phi = v0 * tau / c.hbar
    phi_prime = breakdown.v_g_total * tau / c.hbar
    m1, w1 = sys.body1.mass, sys.body1.omega
    m2, w2 = sys.body2.mass, sys.body2.omega
    bracket = 1.0 / (m1 * w1) + 1.0 / (m2 * w2) + 2.0 / math.sqrt(m1 * m2 * w1 * w2)
    # rate first, then * tau: keeps delta_phi exactly linear in tau
    rate = (c.G * m1 * m2 / sys.separation_d**3) * bracket
    phases = PhaseSet(phi=phi, phi_prime=phi_prime, delta_phi=rate * tau)
    if phases.delta_phi >= PHASE_RESOLUTION_LIMIT:
        raise PrecisionError(
            f"delta_phi = {phases.delta_phi!r} rad >= 2**33: its ulp exceeds 1e-6 rad"
        )
    return phases


def evolve_closed_form(psi0: TwoQubitState, phases: PhaseSet) -> TwoQubitState:
    """Apply the diagonal phase factors (e^-i*phi, e^-i*phi', e^-i*phi', e^-i*phi).

    For the canonical initial state this yields
    (e^-i*phi / 2) * (1, e^-i*(phi'-phi), e^-i*(phi'-phi), 1): the global
    factor is carried, not stripped.
    """
    factors = np.exp(
        -1j * np.array([phases.phi, phases.phi_prime, phases.phi_prime, phases.phi])
    )
    return TwoQubitState(factors * psi0.amplitudes)


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


def delta_phi_to_tau(sys: PairSystem, delta_phi: float) -> float:
    """Interaction time at which the entangling phase reaches ``delta_phi``.

    Inverts the linear relation delta_phi(tau); requires a non-zero
    quantum correction.
    """
    if delta_phi < 0:
        raise InputDomainError(f"delta_phi must be non-negative, got {delta_phi!r}")
    rate = accumulated_phase(sys, 1.0).delta_phi
    if rate == 0.0:
        raise NoEntanglementError("quantum correction is zero; no phase accumulates")
    return delta_phi / rate
