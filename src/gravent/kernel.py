"""Batched physics kernel: the one evaluation path behind sweeps,
``evaluate_point``, ``report`` and ``time_to_max_entanglement``.

Inputs are columns, one entry per point. ``evaluate`` returns columns of the
validity ratio, the entangling phase, the matrix-derived measures and both
forces, and for each point the first check it fails. The checks are the ones
the value objects and scalar functions make on the inputs (``MassiveBody``,
``PairSystem``, ``assess_validity``, ``accumulated_phase``,
``expand_potential``, ``PhaseSet``), in the order a scalar evaluation meets
them, plus ``FloatRangeError`` where the scalar arithmetic would divide by an
underflowed zero or overflow a power, and ``PrecisionError`` where the phase
is past float resolution.

The measures come from the evolved state's 2x2 amplitude matrix A and its
determinant: for a pure two-qubit state, the linear entropy is 2|det A|^2
and the reduced spectrum follows from it, so neither the 4x4 density matrix
nor an eigensolver is needed. Im(det A) carries sin(delta_phi) without the
cancellation of 1 - Tr(rho1^2), so the measures hold to a few ulp wherever
epsilon is a normal float, the reference scenario's 2.7e-11 rad included
(delta_phi above ~2e-154 rad, away from multiples of pi). The state is not
checked: the kernel builds it itself from a phase it has checked finite.

The inputs, the ratio, the phase and the forces agree bit for bit with the
scalar functions. That rests on evaluating each expression in the same order
(left-to-right products, the phase rate before the multiplication by tau)
and on taking single-parameter powers with Python float ``**`` on each axis's
distinct values (numpy's ``power`` rounds differently). The scalar
``report_from_phases`` still measures through rho and its eigenvalues, so
its measures match the kernel's only where that route does not cancel.

A batch of one runs on numpy scalars, whose arithmetic skips the ufunc
machinery; every expression is elementwise, so a column and a scalar round
alike.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceDomainError,
    FloatRangeError,
    GraventError,
    InputDomainError,
    PrecisionError,
)
from .model import REGIME_THRESHOLD_DEFAULT, PairSystem, PhysicalConstants
from .potential import warn_out_of_regime

LN2 = math.log(2.0)

#: Linear-entropy floor below which a state counts as separable.
SEPARABLE_EPSILON_TOL = 1e-12
#: Phase distance to the nearest 2*pi multiple below which the
#: "entangling phase is non-zero" requirement counts as violated.
PHASE_TOL = 1e-9

#: The smallest delta_phi whose ulp exceeds 1e-6 rad. At or past it the
#: phase mod 2*pi, and every measure with it, is noise: a PrecisionError.
PHASE_RESOLUTION_LIMIT = 2.0**33

#: Input columns, in canonical grid order.
PARAMETERS = ("m1", "m2", "omega1", "omega2", "d", "tau")

#: ``inputs`` maps each of PARAMETERS to its distinct values and the
#: position of each point in them, or None for a batch of one point.
Inputs = Mapping[str, tuple[np.ndarray, "np.ndarray | None"]]


def single(**values: float) -> dict[str, tuple[np.ndarray, None]]:
    """``Inputs`` of a batch of one point."""
    column = np.array([values[name] for name in PARAMETERS], dtype=np.float64)
    return {name: (column[k : k + 1], None) for k, name in enumerate(PARAMETERS)}


def _column(values: np.ndarray, pos: np.ndarray | None):
    # A batch of one is evaluated on numpy scalars.
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
        add(_nonfinite(delta_phi), InputDomainError, "delta_phi must be finite, got {}", delta_phi)
        add(delta_phi >= PHASE_RESOLUTION_LIMIT, PrecisionError,
            "delta_phi = {} rad >= 2**33: its ulp exceeds 1e-6 rad", delta_phi)

        values = _measures(delta_phi)
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
            # scalar expression meets them; m1*m2 is not 0 where
            # m1*m2*omega1*omega2 is not
            add(w1_2 == math.inf, FloatRangeError, "omega1**2 overflows")
            add(first_term == 0, FloatRangeError, "m1*omega1**2 underflows to 0")
            add(w2_2 == math.inf, FloatRangeError, "omega2**2 overflows")
            add(second_term == 0, FloatRangeError, f"{second_name}*omega2**2 underflows to 0")
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

    if pos is None:  # numpy scalars, lifted to one-point columns
        values = {name: value[None] for name, value in values.items()}
    failed, first = checks.first_failures()
    return Batch(values, failed, first, checks.errors, expansion_check)


def evaluate_system(sys: PairSystem, tau: float) -> Batch:
    """``sys`` at interaction time ``tau``, without the forces: a batch of one."""
    body1, body2 = sys.body1, sys.body2
    inputs = single(
        m1=body1.mass, m2=body2.mass, omega1=body1.omega, omega2=body2.omega,
        d=sys.separation_d, tau=tau,
    )
    return evaluate(inputs, body1.radius, body2.radius, sys.constants, force=False)


def _measures(delta_phi: np.ndarray | np.float64) -> dict:
    """Measure the canonical product state evolved by the entangling phase,
    in the same-direction gauge, from its 2x2 amplitude matrix
    A = [[1/2, b], [b, 1/2]], b = exp(i*delta_phi)/2.

    For a pure two-qubit state the reduced purity is 1 - 2|det A|^2 and the
    reduced spectrum is {lam, 1 - lam} with lam(1 - lam) = |det A|^2 (2|det A|
    is the concurrence; Wootters, PRL 80, 2245, 1998). ``delta_phi`` is a
    column, or a numpy scalar for a batch of one; a non-finite phase, which
    has failed a check, gives nan measures.
    """
    b_re, b_im = 0.5 * np.cos(delta_phi), 0.5 * np.sin(delta_phi)
    # det A = 1/4 - b^2, in real arithmetic: numpy rounds a complex scalar
    # product differently from a complex array product. Im(det A) carries
    # sin(delta_phi) without cancellation.
    det_re = 0.25 - (b_re * b_re - b_im * b_im)
    det_im = -2.0 * b_re * b_im
    epsilon = 2.0 * det_re * det_re + 2.0 * det_im * det_im
    # The smaller Schmidt weight, the root of lam^2 - lam + epsilon/2 = 0
    # without the cancelling 1 - sqrt(1 - 2*epsilon).
    lam = epsilon / (1.0 + np.sqrt(np.maximum(1.0 - 2.0 * epsilon, 0.0)))
    # 0*ln(0) = 0: a zero weight is logged as 1; 0.0 - x is never -0.0.
    nats = 0.0 - (lam * np.log(lam + (lam == 0.0)) + (1.0 - lam) * np.log1p(-lam))
    norm = 0.25 + (b_re * b_re + b_im * b_im) * 2.0 + 0.25  # sum of |a|^2

    two_pi = 2.0 * math.pi
    remainder = abs(np.fmod(delta_phi, two_pi))
    return {
        "purity_full": norm * norm,
        "purity_reduced": 1.0 - epsilon,
        "epsilon": epsilon,
        "entropy_nats": nats,
        "entropy_bits": nats / LN2,
        "separable_by_measures": epsilon < SEPARABLE_EPSILON_TOL,
        "separable_by_two_pi_criterion": np.minimum(remainder, two_pi - remainder) < PHASE_TOL,
    }
