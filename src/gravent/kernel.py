"""Batched physics kernel: the one evaluation path behind sweeps,
``evaluate_point`` and ``report``.

Inputs are columns, one entry per point. ``evaluate`` returns columns of the
validity ratio, the entangling phase, the matrix-derived measures and both
forces, and for each point the first check it fails. The checks are the ones
the value objects and scalar functions make (``MassiveBody``, ``PairSystem``,
``assess_validity``, ``accumulated_phase``, ``expand_potential``,
``PhaseSet``, ``TwoQubitState``, ``DensityMatrix``, ``von_neumann_entropy``),
in the order a scalar evaluation meets them, plus ``FloatRangeError`` where
the scalar arithmetic would divide by an underflowed zero or overflow a
power.

Every column agrees bit for bit with the scalar functions. That rests on
evaluating each expression in the same order (left-to-right products, the
phase rate before the multiplication by tau), on taking single-parameter
powers with Python float ``**`` on each axis's distinct values (numpy's
``power`` rounds differently), and on stacked ``matmul`` for the purities,
which sums in the same order as ``np.vdot``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .dynamics import NORM_TOL
from .errors import (
    ConvergenceDomainError,
    FloatRangeError,
    GraventError,
    InputDomainError,
    PositivityError,
)
from .model import REGIME_THRESHOLD_DEFAULT, PhysicalConstants
from .potential import warn_out_of_regime

LN2 = math.log(2.0)

#: Hermiticity / trace tolerance for density-matrix construction.
MATRIX_TOL = 1e-12
#: Linear-entropy floor below which a state counts as separable.
SEPARABLE_EPSILON_TOL = 1e-12
#: Phase distance to the nearest 2*pi multiple below which the
#: "entangling phase is non-zero" requirement counts as violated.
PHASE_TOL = 1e-9
#: Eigenvalues below this are a genuine positivity violation, not noise.
EIGENVALUE_FLOOR = -1e-9

#: Input columns, in canonical grid order.
PARAMETERS = ("m1", "m2", "omega1", "omega2", "d", "tau")

#: ``inputs`` maps each of PARAMETERS to its distinct values and the
#: position of each point in them, or None for a batch of one point.
Inputs = Mapping[str, tuple[np.ndarray, "np.ndarray | None"]]

#: The canonical product state: each qubit in the balanced superposition.
_PSI0 = np.full(4, 0.5, dtype=np.complex128)
_PSI0.setflags(write=False)


def single(**values: float) -> dict[str, tuple[np.ndarray, None]]:
    """``Inputs`` of a batch of one point."""
    column = np.array([values[name] for name in PARAMETERS], dtype=np.float64)
    return {name: (column[k : k + 1], None) for k, name in enumerate(PARAMETERS)}


def _column(values: np.ndarray, pos: np.ndarray | None):
    # A batch of one is evaluated on numpy scalars, whose arithmetic skips
    # the ufunc machinery; the rounding is the same IEEE double arithmetic.
    return values[0] if pos is None else values[pos]


def _nonfinite(x):
    """Where x is inf or nan: x - x is 0 exactly when x is finite. Unlike
    np.isfinite, this stays numpy scalar arithmetic in a batch of one."""
    return x - x != 0


def _power(value: float, exponent: int) -> float:
    try:
        return value**exponent
    except OverflowError:
        return math.inf


def _python_power(inputs: Inputs, name: str, exponent: int):
    """The column of ``name``**exponent, taken with Python float ``**`` on
    the distinct values; an overflow becomes inf (and nothing else does, as
    the inputs are finite by the time a power is taken)."""
    values, pos = inputs[name]
    powers = np.array([_power(value, exponent) for value in values.tolist()], dtype=np.float64)
    return _column(powers, pos)


class _Checks:
    """Failure conditions in evaluation order; the first that holds at a point
    is that point's error.

    A condition is a bool array, or a scalar bool for a check on a value
    shared by every point. A condition that holds at no point of a batch of
    one, or a scalar one that does not hold, is dropped at once.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.masks: list[np.ndarray] = []
        self.errors: list[tuple[type[GraventError], str, tuple]] = []

    def add(self, fails, exc: type[GraventError], message: str, *args) -> None:
        """``message`` is formatted with the repr of each of ``args`` at the point."""
        if self.n == 1 or not isinstance(fails, np.ndarray):
            if not fails:
                return
            fails = np.ones(self.n, dtype=bool)
        self.masks.append(fails)
        self.errors.append((exc, message, args))

    def first_failures(self) -> tuple[np.ndarray, np.ndarray]:
        """Per point: whether any check fails, and the index of the first that does."""
        if not self.masks:
            return np.zeros(self.n, dtype=bool), np.zeros(self.n, dtype=np.intp)
        masks = np.array(self.masks)
        return masks.any(axis=0), masks.argmax(axis=0)


def _shown(arg, i: int) -> str:
    value = arg[i] if isinstance(arg, np.ndarray) else arg
    return repr(value.item() if isinstance(value, np.generic) else value)


@dataclass(frozen=True, slots=True)
class Batch:
    """What ``evaluate`` returns.

    ``values`` maps output names to columns; at a failed point they hold
    whatever the arithmetic gave and mean nothing. ``failed`` marks the
    points that fail a check and ``first`` the check each fails first.
    """

    values: dict[str, np.ndarray]
    failed: np.ndarray
    first: np.ndarray
    errors: list[tuple[type[GraventError], str, tuple]]
    #: Checks made before the potential expansion; a point that passes them
    #: has been compared against the default regime threshold.
    expansion_check: int

    def error(self, i: int) -> GraventError:
        """The exception a scalar evaluation of failed point ``i`` raises."""
        exc, message, args = self.errors[self.first[i]]
        return exc(message.format(*(_shown(arg, i) for arg in args)))

    def status(self, i: int) -> str:
        exc = self.error(i)
        return f"error: {type(exc).__name__}: {exc}"

    def warn_out_of_regime(self, i: int, stacklevel: int) -> None:
        """The ``RegimeWarning`` a scalar evaluation of point ``i`` emits, if any."""
        reached = not self.failed[i] or self.first[i] >= self.expansion_check
        ratio = float(self.values["ratio_x"][i])
        if reached and not ratio < REGIME_THRESHOLD_DEFAULT:
            warn_out_of_regime(ratio, REGIME_THRESHOLD_DEFAULT, stacklevel + 1)


def evaluate(
    inputs: Inputs,
    r1: float,
    r2: float,
    constants: PhysicalConstants,
    threshold: float = REGIME_THRESHOLD_DEFAULT,
    symmetrize: bool = False,
    force: bool = True,
) -> Batch:
    """Evaluate every point of ``inputs``; ``force=False`` leaves out the forces
    and their checks, as ``report`` does."""
    pos = inputs["tau"][1]
    n = 1 if pos is None else len(pos)
    m1, m2, w1, w2, d, tau = (_column(*inputs[name]) for name in PARAMETERS)
    G, hbar = constants.G, constants.hbar
    checks = _Checks(n)
    add = checks.add
    with np.errstate(all="ignore"):
        # MassiveBody, PairSystem, assess_validity, accumulated_phase
        for m, r, w in ((m1, r1, w1), (m2, r2, w2)):
            add(_nonfinite(m), InputDomainError, "mass must be finite, got {}", m)
            add(not math.isfinite(r), InputDomainError, "radius must be finite, got {}", r)
            add(_nonfinite(w), InputDomainError, "omega must be finite, got {}", w)
            add(m <= 0, InputDomainError, "mass must be positive, got {}", m)
            add(r < 0, InputDomainError, "radius must be non-negative, got {}", r)
            add(w <= 0, InputDomainError, "omega must be positive, got {}", w)
        add(_nonfinite(d), InputDomainError, "separation_d must be finite, got {}", d)
        add(d <= 0, InputDomainError, "separation_d must be positive, got {}", d)
        add(not math.isfinite(threshold), InputDomainError, "threshold must be finite, got {}", threshold)
        add(threshold <= 0, InputDomainError, "threshold must be positive, got {}", threshold)
        add(_nonfinite(tau), InputDomainError, "tau must be finite, got {}", tau)
        add(tau < 0, InputDomainError, "tau must be non-negative, got {}", tau)
        add(hbar <= 0, InputDomainError, "hbar must be positive to accumulate phases")

        # zero-point widths and the validity ratio
        mw1, mw2 = m1 * w1, m2 * w2
        add(mw1 == 0, FloatRangeError, "mass*omega underflows to 0 at {} and {}", m1, w1)
        add(mw2 == 0, FloatRangeError, "mass*omega underflows to 0 at {} and {}", m2, w2)
        dr_sum = np.sqrt(hbar / mw1) + np.sqrt(hbar / mw2)
        ratio = dr_sum / d

        # expand_potential and quantum_correction
        expansion_check = len(checks.masks)
        add(_nonfinite(dr_sum), InputDomainError, "dr_sum must be finite")
        abs_x = abs(ratio)
        add(abs_x >= 1, ConvergenceDomainError,
            "|dr_sum/d| = {} >= 1: geometric expansion diverges", abs_x)
        v0 = -G * m1 * m2 / d
        product = m1 * m2 * w1 * w2
        add(product == 0, FloatRangeError, "m1*m2*omega1*omega2 underflows to 0")
        bracket = 1.0 / mw1 + 1.0 / mw2 + 2.0 / np.sqrt(product)
        d3 = _python_power(inputs, "d", 3)
        add(d3 == math.inf, FloatRangeError, "d**3 overflows")
        add(d3 == 0, FloatRangeError, "d**3 underflows to 0")
        correction = hbar * G * m1 * m2 / d3 * bracket  # |delta_v_g|
        delta = -correction

        # PhaseSet
        v_total = v0 + delta
        phi, phi_prime = (v_total - delta) * tau / hbar, v_total * tau / hbar
        add(_nonfinite(phi), InputDomainError, "phi must be finite, got {}", phi)
        add(_nonfinite(phi_prime), InputDomainError, "phi_prime must be finite, got {}", phi_prime)
        delta_phi = G * m1 * m2 / d3 * bracket * tau
        nonfinite_phase = _nonfinite(delta_phi)
        add(nonfinite_phase, InputDomainError, "delta_phi must be finite, got {}", delta_phi)
        add(delta_phi < 0, InputDomainError, "delta_phi must be non-negative, got {}", delta_phi)

        # A point whose phase is not finite has failed above; it gets phase
        # 0 below, so that the matrix route never sees a non-finite entry.
        values = _measures(np.where(nonfinite_phase, 0.0, delta_phi).reshape(n), add)
        values["ratio_x"] = ratio
        values["in_regime"] = ratio < threshold
        values["delta_phi"] = delta_phi
        if force:
            w1_2, w1_3 = _python_power(inputs, "omega1", 2), _python_power(inputs, "omega1", 3)
            w2_2, w2_3 = _python_power(inputs, "omega2", 2), _python_power(inputs, "omega2", 3)
            second, second_name = (m2, "m2") if symmetrize else (m1, "m1")
            first_term, second_term = m1 * w1_2, second * w2_2
            masses, cross1, cross2 = m1 * m2, w1_3 * w2, w1 * w2_3
            # entanglement_force, its float64 range checks in the order the
            # scalar expression meets them
            add(w1_2 == math.inf, FloatRangeError, "omega1**2 overflows")
            add(first_term == 0, FloatRangeError, "m1*omega1**2 underflows to 0")
            add(w2_2 == math.inf, FloatRangeError, "omega2**2 overflows")
            add(second_term == 0, FloatRangeError, f"{second_name}*omega2**2 underflows to 0")
            add(masses == 0, FloatRangeError, "m1*m2 underflows to 0")
            add(w1_3 == math.inf, FloatRangeError, "omega1**3 overflows")
            add(cross1 == 0, FloatRangeError, "omega1**3*omega2 underflows to 0")
            add(w2_3 == math.inf, FloatRangeError, "omega2**3 overflows")
            add(cross2 == 0, FloatRangeError, "omega1*omega2**3 underflows to 0")
            force_bracket = (
                1.0 / first_term
                + 1.0 / second_term
                + (1.0 / np.sqrt(masses)) * (1.0 / np.sqrt(cross1) + 1.0 / np.sqrt(cross2))
            )
            values["force_closed_form"] = hbar * G * m1 * m2 / d3 * force_bracket
            values["force_gradient"] = 3.0 * correction / d

    for name in ("ratio_x", "in_regime", "delta_phi", "force_closed_form", "force_gradient"):
        if name in values:
            values[name] = values[name].reshape(n)
    failed, first = checks.first_failures()
    return Batch(values, failed, first, checks.errors, expansion_check)


def _density_checks(rho: np.ndarray, rho1: np.ndarray):
    """DensityMatrix's three conditions on rho and on rho1, each as a (2, n)
    failure mask, and the (2, n) traces.

    Both stacks are checked in one pass, rho1 zero-padded to 4x4, which
    changes none of the three conditions.
    """
    n = len(rho)
    both = np.zeros((2, n, 4, 4), dtype=np.complex128)
    both[0] = rho
    both[1, :, :2, :2] = rho1
    flat = both.reshape(2, n, 16)
    nonfinite = ~np.logical_and.reduce(np.isfinite(flat), axis=2)
    adjoint = both.conj().swapaxes(2, 3).reshape(2, n, 16)
    asymmetric = np.maximum.reduce(np.abs(flat - adjoint), axis=2) > MATRIX_TOL
    trace = np.add.reduce(flat[:, :, ::5], axis=2)
    return nonfinite, asymmetric, np.abs(trace - 1.0) > MATRIX_TOL, trace


def _purity(rho: np.ndarray) -> np.ndarray:
    """Tr(rho^2) of each matrix, summed in np.vdot's order."""
    n, size = len(rho), rho.shape[1] * rho.shape[2]
    return np.matmul(rho.reshape(n, 1, size).conj(), rho.reshape(n, size, 1))[:, 0, 0].real


def _measures(delta_phi: np.ndarray, add) -> dict[str, np.ndarray]:
    """Evolve the canonical product state by the entangling phase, in the
    same-direction gauge, and measure it from its matrices."""
    n = len(delta_phi)
    phases = np.zeros((n, 4))
    phases[:, 1] = phases[:, 2] = -delta_phi
    amplitudes = np.exp(-1j * phases) * _PSI0
    rho = amplitudes[:, :, None] * amplitudes.conj()[:, None, :]
    rho1 = rho.reshape(n, 2, 2, 2, 2).trace(axis1=2, axis2=4)
    nonfinite, asymmetric, off_trace, trace = _density_checks(rho, rho1)
    # TwoQubitState; its squared norm is the trace of rho.
    add(~np.logical_and.reduce(np.isfinite(amplitudes), axis=1), InputDomainError,
        "state amplitudes must be finite")
    norm = np.sqrt(trace[0].real)
    add(np.abs(norm - 1.0) > NORM_TOL, InputDomainError,
        f"state norm {{}} deviates from 1 beyond {NORM_TOL}", norm)
    for k in (0, 1):  # DensityMatrix of rho, then of rho1
        add(nonfinite[k], InputDomainError, "density matrix entries must be finite")
        add(asymmetric[k], InputDomainError, "density matrix is not Hermitian within tolerance")
        add(off_trace[k], InputDomainError, "density matrix trace {} is not 1", trace[k])

    eigenvalues = np.linalg.eigvalsh(rho1)
    add(eigenvalues[:, 0] < EIGENVALUE_FLOOR, PositivityError,
        f"eigenvalue {{}} below {EIGENVALUE_FLOOR}: not a state", eigenvalues[:, 0])
    clipped = np.maximum(eigenvalues, 0.0)
    # 0*ln(0) = 0: a zero eigenvalue is logged as 1.
    terms = clipped * np.log(clipped + (clipped == 0.0))
    nats = 0.0 - np.add.reduce(terms, axis=1)  # 0.0 - x: never -0.0

    purity_reduced = _purity(rho1)
    epsilon = 1.0 - purity_reduced
    two_pi = 2.0 * math.pi
    remainder = np.abs(np.fmod(delta_phi, two_pi))
    return {
        "purity_full": _purity(rho),
        "purity_reduced": purity_reduced,
        "epsilon": epsilon,
        "entropy_nats": nats,
        "entropy_bits": nats / LN2,
        "separable_by_measures": epsilon < SEPARABLE_EPSILON_TOL,
        "separable_by_two_pi_criterion": np.minimum(remainder, two_pi - remainder) < PHASE_TOL,
    }
