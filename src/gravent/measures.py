"""Density matrices, partial traces, purity, linear entropy, and von Neumann
entropy, assembled into a per-scenario entanglement report.

The measures are always computed from the state's matrices; the
cos(delta_phi) closed forms of the canonical family live in the test suite
as independent oracles, not here. ``report`` takes them from the 2x2
amplitude matrix's determinant through the kernel, exact to a few ulp
wherever epsilon is a normal float, and its phase from the kernel, whose
scalar reference is ``tests/oracles.py``. The density-matrix route below
(``report_from_phases``: rho, its partial trace, Tr(rho1^2) and the
eigenvalues) is kept as the scalar reference for the measures; its
``1 - Tr(rho1^2)`` cancels to 0 for delta_phi below ~1e-8 rad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .dynamics import (
    PhaseSet,
    TwoQubitState,
    accumulated_phase,  # noqa: F401 - looked up here by callers that wrap it by name
    evolve_closed_form,
    initial_product_state,
)
from .errors import InputDomainError, PositivityError
from .kernel import LN2, PHASE_TOL, SEPARABLE_EPSILON_TOL
from .model import PairSystem, _slot_setters

#: Hermiticity / trace tolerance for density-matrix construction.
MATRIX_TOL = 1e-12
#: Eigenvalues below this are a genuine positivity violation, not noise.
EIGENVALUE_FLOOR = -1e-9

__all__ = [
    "DensityMatrix",
    "EntanglementReport",
    "density_from_state",
    "partial_trace",
    "purity",
    "linear_entropy",
    "von_neumann_entropy",
    "report",
    "report_from_phases",
    "nearest_multiple_distance",
]


@dataclass(frozen=True, slots=True)
class DensityMatrix:
    """Hermitian, unit-trace matrix over 2 or 4 basis states."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        rho = np.array(self.entries, dtype=np.complex128, copy=True)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] not in (2, 4):
            raise InputDomainError(f"density matrix must be 2x2 or 4x4, got {rho.shape}")
        if not np.all(np.isfinite(rho.real) & np.isfinite(rho.imag)):
            raise InputDomainError("density matrix entries must be finite")
        if np.max(np.abs(rho - rho.conj().T)) > MATRIX_TOL:
            raise InputDomainError("density matrix is not Hermitian within tolerance")
        trace = complex(np.trace(rho))
        if abs(trace - 1.0) > MATRIX_TOL:
            raise InputDomainError(f"density matrix trace {trace!r} is not 1")
        rho.setflags(write=False)
        object.__setattr__(self, "entries", rho)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Real spectrum in ascending order (Hermitian eigensolver)."""
        return np.linalg.eigvalsh(self.entries)


@dataclass(frozen=True, slots=True)
class EntanglementReport:
    """Scenario-level entanglement diagnostics.

    ``separable_by_measures`` is the verdict of the measures themselves:
    linear entropy below ``SEPARABLE_EPSILON_TOL`` (1e-12), which for the
    canonical family means |sin(delta_phi)| < sqrt(2)*1e-6, a phase within
    about 1.4e-6 rad of a multiple of pi. ``separable_by_two_pi_criterion``
    applies the weaker phase criterion that only counts multiples of 2*pi
    as unentangled. The two disagree at odd multiples of pi, where the
    state re-factorizes; both are reported so the discrepancy stays
    visible.
    """

    delta_phi: float
    purity_full: float
    purity_reduced: float
    epsilon: float
    entropy_nats: float
    entropy_bits: float
    separable_by_measures: bool
    separable_by_two_pi_criterion: bool

    @property
    def verdicts_disagree(self) -> bool:
        return self.separable_by_measures and not self.separable_by_two_pi_criterion


def density_from_state(psi: TwoQubitState) -> DensityMatrix:
    """Pure-state projector |psi><psi| as a 4x4 density matrix."""
    amp = psi.amplitudes
    if abs(float(np.linalg.norm(amp)) - 1.0) > 1e-9:
        raise InputDomainError("state must be normalized")
    return DensityMatrix(np.outer(amp, amp.conj()))


def partial_trace(rho: DensityMatrix, subsystem: int) -> DensityMatrix:
    """Reduced state of qubit ``subsystem`` (1 or 2), tracing out the other."""
    if rho.dim != 4:
        raise InputDomainError("partial trace needs the full 4x4 density matrix")
    blocks = rho.entries.reshape(2, 2, 2, 2)
    if subsystem == 1:
        reduced = np.trace(blocks, axis1=1, axis2=3)
    elif subsystem == 2:
        reduced = np.trace(blocks, axis1=0, axis2=2)
    else:
        raise InputDomainError(f"subsystem must be 1 or 2, got {subsystem!r}")
    return DensityMatrix(reduced)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); 1 for pure states, 1/dim for maximally mixed ones."""
    return float(np.vdot(rho.entries, rho.entries).real)


def linear_entropy(rho_reduced: DensityMatrix) -> float:
    """1 - Tr(rho^2) of a reduced state; positive exactly when it is mixed."""
    return 1.0 - purity(rho_reduced)


def von_neumann_entropy(rho_reduced: DensityMatrix) -> tuple[float, float]:
    """Spectral entropy -sum(lam * ln(lam)) of a reduced state.

    Returns (nats, bits). Eigenvalues in [EIGENVALUE_FLOOR, 0) are clipped
    to zero with the 0*ln(0) = 0 convention; anything below the floor
    raises ``PositivityError``.
    """
    eigenvalues = rho_reduced.eigenvalues()
    if eigenvalues[0] < EIGENVALUE_FLOOR:
        raise PositivityError(
            f"eigenvalue {eigenvalues[0]!r} below {EIGENVALUE_FLOOR}: not a state"
        )
    clipped = np.clip(eigenvalues, 0.0, None)
    nonzero = clipped[clipped > 0.0]
    nats = float(-np.sum(nonzero * np.log(nonzero))) + 0.0  # avoid -0.0
    return nats, nats / LN2


def nearest_multiple_distance(value: float, period: float) -> float:
    """Distance from ``value`` to the nearest integer multiple of ``period``."""
    remainder = math.fmod(value, period)
    return min(abs(remainder), period - abs(remainder))


def report_from_phases(phases: PhaseSet) -> EntanglementReport:
    """Evolve the canonical product state and measure the outcome."""
    psi = evolve_closed_form(initial_product_state(), phases)
    rho = density_from_state(psi)
    rho1 = partial_trace(rho, 1)
    purity_reduced = purity(rho1)
    epsilon = linear_entropy(rho1)
    nats, bits = von_neumann_entropy(rho1)
    separable = epsilon < SEPARABLE_EPSILON_TOL
    violated = nearest_multiple_distance(phases.delta_phi, 2.0 * math.pi) < PHASE_TOL
    return EntanglementReport(
        delta_phi=phases.delta_phi,
        purity_full=purity(rho),
        purity_reduced=purity_reduced,
        epsilon=epsilon,
        entropy_nats=nats,
        entropy_bits=bits,
        separable_by_measures=separable,
        separable_by_two_pi_criterion=violated,
    )


#: Each field's slot setter, in field order: ``report`` builds its return
#: without the frozen ``__init__`` and sets the slots itself.
(
    _set_delta_phi, _set_purity_full, _set_purity_reduced, _set_epsilon, _set_entropy_nats,
    _set_entropy_bits, _set_separable_by_measures, _set_separable_by_two_pi_criterion,
) = _slot_setters(EntanglementReport)


def report(sys: PairSystem, tau: float) -> EntanglementReport:
    """Full pipeline for one system and interaction time.

    Accumulates the entangling phase, evolves the canonical state in closed
    form and takes every measure from its 2x2 amplitude matrix A: the
    linear entropy 2|det A|^2, the reduced spectrum from it, and the full
    purity from the norm. Rows come from the kernel's array path; report()
    runs the same body on plain floats (``kernel.evaluate_system``): it
    takes the system's values and tau as positional floats and returns its
    outputs as one tuple, which report() unpacks into the fields. So it
    gives the values of a sweep row at the same point, bit for bit. The
    first failed check raises what the scalar pipeline raises, after
    ``RegimeWarning`` if the ratio, reached before it, is past the default
    regime threshold; the body warns as soon as it has the ratio. A ``tau``
    that is not a real number raises ``InputDomainError``.

    The evolution runs in the same-direction gauge (common branch phase
    subtracted): every measure is invariant under a global phase, and the
    signed relative phase -delta_phi is well conditioned where the raw
    branch phases can exceed float64 angular resolution by many orders.
    """
    (_, _, _, _, _, delta_phi, purity_full, purity_reduced, epsilon, entropy_nats, entropy_bits,
     separable_by_measures, separable_by_two_pi_criterion, _, _, _) = kernel.evaluate_system(
        sys, tau, stacklevel=2)
    rep = object.__new__(EntanglementReport)
    _set_delta_phi(rep, delta_phi)
    _set_purity_full(rep, purity_full)
    _set_purity_reduced(rep, purity_reduced)
    _set_epsilon(rep, epsilon)
    _set_entropy_nats(rep, entropy_nats)
    _set_entropy_bits(rep, entropy_bits)
    _set_separable_by_measures(rep, separable_by_measures)
    _set_separable_by_two_pi_criterion(rep, separable_by_two_pi_criterion)
    return rep
