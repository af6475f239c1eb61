"""Two-qubit basis, diagonal potential operator, accumulated phases, and the
closed-form state propagator.

Basis order is fixed everywhere as

    (|r1+ r2+>, |r1+ r2->, |r1- r2+>, |r1- r2->)

i.e. same-direction displacement branches occupy the outer slots and
opposite-direction branches the inner ones.

``accumulated_phase`` and ``delta_phi_to_tau`` evaluate the kernel's
expressions. ``tests/oracles.py`` keeps the scalar phase as the reference,
and the checks on the closed form: the phase-generator operator, a
fixed-step RK4 integrator and the product-state test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import InputDomainError
from .model import PairSystem, _bound, _finite, _raise, _real
from .potential import corrected_potential

__all__ = [
    "TwoQubitState",
    "PotentialOperator",
    "PhaseSet",
    "initial_product_state",
    "build_operator",
    "accumulated_phase",
    "evolve_closed_form",
    "delta_phi_to_tau",
]

#: Construction-time norm tolerance; the closed-form propagator stays within
#: 1e-12 of unit norm, the RK4 integrator in ``tests/oracles.py`` within 1e-9.
NORM_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class TwoQubitState:
    """Four complex amplitudes over the fixed displacement basis."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        amp.setflags(write=False)
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
        for name in ("phi", "phi_prime", "delta_phi"):
            _real(name, getattr(self, name))
            _finite(_raise, name, getattr(self, name))
        _bound(_raise, "delta_phi", self.delta_phi, "non-negative")


def initial_product_state() -> TwoQubitState:
    """Each qubit in the balanced superposition of its two displacement states."""
    return TwoQubitState(np.full(4, 0.5, dtype=np.complex128))


def build_operator(sys: PairSystem) -> PotentialOperator:
    """Diagonal operator (v_g - delta_v_g, delta_v_g, delta_v_g, v_g - delta_v_g).

    Same-direction branches carry the classical part of the corrected
    potential, opposite-direction branches the bare correction alone.
    Note its inner/outer energy gap is delta_v_g - v0, not the delta_v_g
    splitting that the accumulated phases encode; the diagonal consistent
    with ``accumulated_phase`` and the closed-form propagator is built from
    the phases, in ``tests/oracles.py``.
    """
    breakdown = corrected_potential(sys)
    outer = breakdown.v_g_total - breakdown.delta_v_g
    inner = breakdown.delta_v_g
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
    ulp exceeds 1e-6 rad, raises ``PrecisionError``; the other checks, and
    the ``RegimeWarning``, are ``report``'s.
    """
    _, _, _, phi, phi_prime, delta_phi, *_ = kernel.evaluate_system(sys, tau, stacklevel=2)
    return PhaseSet(phi=phi, phi_prime=phi_prime, delta_phi=delta_phi)


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


def delta_phi_to_tau(sys: PairSystem, delta_phi: float) -> float:
    """Interaction time at which the entangling phase reaches ``delta_phi``.

    Inverts the linear relation delta_phi(tau) in one evaluation of the
    kernel (``kernel.evaluate_system``), as ``time_to_max_entanglement``
    does, so it fails as report mode fails at the solved time; requires a
    non-zero quantum correction (``NoEntanglementError``). A ``delta_phi``
    that is not a finite, non-negative real number is an
    ``InputDomainError``, and a tau past the float64 range a
    ``FloatRangeError``.
    """
    delta_phi = _finite(_raise, "delta_phi", _real("delta_phi", delta_phi), "non-negative")
    *_, tau, _, _ = kernel.evaluate_system(sys, delta_phi, label=f"tau = {delta_phi!r}")
    return tau
