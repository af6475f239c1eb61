"""Physics kernel: the one set of expressions behind sweeps, ``evaluate_point``,
``report``, ``time_to_max_entanglement`` and the public scalar functions.

``evaluate`` takes columns, one entry per point, and returns columns of the
validity ratio, the correction, the phases, the matrix-derived measures and
both forces, and for each point the first check it fails; every row, of a
sweep or of one point, comes from it, the CLI's tau-star row included.
``evaluate_system`` evaluates one system on plain floats, without the
forces, for ``report`` and ``accumulated_phase``; given a phase instead, it
solves for the time at which the phase is reached and evaluates the system
there, for ``time_to_max_entanglement`` and ``delta_phi_to_tau``.
``evaluate_correction`` runs only the correction and the forces, for
``quantum_correction`` and ``entanglement_force``. The input checks are
``gravent.model``'s, or written out with its messages, made in the order a
scalar evaluation meets them, plus ``FloatRangeError`` where the arithmetic
would divide by an underflowed zero or overflow a power, and
``PrecisionError`` where the phase is past float resolution. ``evaluate``
makes them all; the float entries take a ``PairSystem``, whose value
objects have checked its fields, and check only tau, hbar and the
intermediates.

The measures come from the evolved state's 2x2 amplitude matrix A and its
determinant: for a pure two-qubit state, the linear entropy is 2|det A|^2
and the reduced spectrum follows from it, so neither the 4x4 density matrix
nor an eigensolver is needed. Im(det A) carries sin(delta_phi) without the
cancellation of 1 - Tr(rho1^2), so the measures hold to a few ulp wherever
epsilon is a normal float, the reference scenario's 2.7e-11 rad included
(delta_phi above ~2e-154 rad, away from multiples of pi). The state is not
checked: the kernel builds it itself from a phase it has checked finite.

The inputs, the ratio, the correction, the phases and the forces agree bit
for bit, errors included, with the hand-written scalar pipeline kept as the
reference in ``tests/oracles.py``. That rests on evaluating each expression
in the same order: left-to-right products, the cubes and squares among them
(``d*d*d``, ``w*w``, ``(w*w)*w``), and the phase rate before the
multiplication by tau. The scalar ``report_from_phases`` still measures
through rho and its eigenvalues, so its measures match the kernel's only
where that route does not cancel.

Every entry runs the same stages (the m*omega divisors, the correction, the
phases and measures, the forces) in one body, ``_physics``. It takes its
inputs as positional columns or floats (m1, m2, omega1, omega2, d, tau, G,
hbar) and returns its outputs as one tuple, in ``_OUTPUTS``' order.
``evaluate`` runs it on numpy columns, records every check as a mask
(``Batch.add``) and names the tuple into ``Batch.values``; the float entries
run it on Python floats with ``model._raise``, which stops at the first
failed check, the one ``evaluate`` reports first, and unpack the tuple.
``report`` and ``accumulated_phase`` warn from inside the body, once the
ratio exists and before a later check raises. Each check calls its adder
under ``if fails is not False:`` (``gravent.model``'s idiom), so on floats a
check that passes makes no call, and a passing ``report()`` none at all; an
array condition always reaches ``Batch.add``. Every divisor is checked
non-zero before the division, so float arithmetic raises nothing else. The
functions the expressions call come from a table per path: on floats,
``math.sqrt``, ``math.fmod`` and the builtin ``max``, which are correctly
rounded or exact and so round as numpy's ufuncs do. ``log`` and
``log1p`` stay numpy's ufuncs on both paths, because numpy's and the C
library's differ in the last bit on some arguments (``log1p`` on about 7% of
[-0.5, 0] on an AVX-512 host); ``cos`` and ``sin`` stay numpy's too, so that
no result rests on the two libraries agreeing.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from .errors import (
    ConvergenceDomainError,
    FloatRangeError,
    GraventError,
    InputDomainError,
    NoEntanglementError,
    PrecisionError,
    RegimeWarning,
)
from .model import (
    REGIME_THRESHOLD_DEFAULT, PairSystem, PhysicalConstants, _bool, _check_body, _finite,
    _mass_omega, _raise, _real, _require_type,
)

LN2 = math.log(2.0)

#: Linear-entropy floor below which a state counts as separable.
SEPARABLE_EPSILON_TOL = 1e-12
#: Phase distance to the nearest 2*pi multiple below which the
#: "entangling phase is non-zero" requirement counts as violated.
PHASE_TOL = 1e-9

#: The smallest delta_phi whose ulp exceeds 1e-6 rad. At or past it the
#: phase mod 2*pi, and every measure with it, is noise: a PrecisionError.
PHASE_RESOLUTION_LIMIT = 2.0**33

#: Dimensional content of the fixed closed-form force expression (``_forces``).
#: Its bracket carries 1/(mass * omega^2), one power of omega short of a
#: force, so the product evaluates to an energy*time. The value is
#: reported unaltered under this tag next to the gradient-based force
#: in newtons.
FORCE_CLOSED_FORM_UNIT = "J*s"

#: Input columns, in canonical grid order.
PARAMETERS = ("m1", "m2", "omega1", "omega2", "d", "tau")
_parameters = itemgetter(*PARAMETERS)

#: ``inputs`` maps each of PARAMETERS to a float64 column, one entry per point.
Inputs = Mapping[str, np.ndarray]

#: The measures ``_measures`` returns, in order: ``EntanglementReport``'s
#: fields after delta_phi.
_MEASURES = ("purity_full", "purity_reduced", "epsilon", "entropy_nats", "entropy_bits",
             "separable_by_measures", "separable_by_two_pi_criterion")
#: The outputs ``_physics`` returns, in order.
_OUTPUTS = ("ratio_x", "delta_v_g", "phase_rate", "phi", "phi_prime", "delta_phi", *_MEASURES,
            "tau")
#: Why a system with no phase rate has no time at which a phase is reached.
_NO_ENTANGLEMENT = "quantum correction is zero; entanglement never accumulates"


def _on_float(ufunc):
    return lambda x: float(ufunc(x))


#: The functions the physics calls, on columns and on floats.
_ARRAY_MATH = SimpleNamespace(
    sqrt=np.sqrt, fmod=np.fmod, maximum=np.maximum,
    cos=np.cos, sin=np.sin, log=np.log, log1p=np.log1p,
)
_FLOAT_MATH = SimpleNamespace(
    sqrt=math.sqrt, fmod=math.fmod, maximum=max,
    cos=_on_float(np.cos), sin=_on_float(np.sin), log=_on_float(np.log),
    log1p=_on_float(np.log1p),
)


#: The one-point path: each input a float, and the first failed check raises.
_Floats = SimpleNamespace(fn=_FLOAT_MATH, add=_raise)


class Batch:
    """The array path, each input a column and each check a mask (``add``),
    and what ``evaluate`` returns: ``values`` maps output names to columns,
    which mean nothing at a failed point; ``failed`` marks the points that
    fail a check and ``first`` the check each fails first, in ``errors``."""

    __slots__ = ("n", "masks", "values", "errors", "failed", "first")
    fn = _ARRAY_MATH

    def __init__(self, n: int) -> None:
        self.n = n
        self.masks: list[np.ndarray] = []
        self.errors: list[tuple[type[GraventError], str, tuple]] = []

    def add(self, fails, exc: type[GraventError], message: str, *args) -> None:
        """``fails`` is a bool array, or a scalar bool for a value every point
        shares, dropped if false; ``message`` is formatted with the repr of
        each of ``args`` at the point."""
        if not isinstance(fails, np.ndarray):
            if not fails:
                return
            fails = np.ones(self.n, dtype=bool)
        self.masks.append(fails)
        self.errors.append((exc, message, args))

    def error(self, i: int) -> GraventError:
        """The exception a scalar evaluation of failed point ``i`` raises."""
        exc, message, args = self.errors[self.first[i]]
        shown = (arg[i] if isinstance(arg, np.ndarray) else arg for arg in args)
        shown = (v.item() if isinstance(v, np.generic) else v for v in shown)
        return exc(message.format(*map(repr, shown)))


def warn_out_of_regime(ratio_x: float, threshold: float, stacklevel: int) -> None:
    """Emit ``RegimeWarning``; ``stacklevel`` counts from the caller, as in ``warnings.warn``."""
    warnings.warn(
        f"displacement ratio x = {ratio_x:.3e} >= {threshold:.3e}: "
        "the quadratic truncation is unreliable here",
        RegimeWarning,
        stacklevel=stacklevel + 1,
    )


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
    and their checks, as ``evaluate_system`` does on floats."""
    m1, m2, w1, w2, d, tau = _parameters(inputs)
    batch = Batch(len(tau))
    with np.errstate(all="ignore"):
        # The checks of MassiveBody, PairSystem and assess_validity, which
        # only evaluate makes: a PairSystem has passed them.
        _check_body(batch.add, m1, r1, w1)
        _check_body(batch.add, m2, r2, w2)
        _finite(batch.add, "separation_d", d, "positive")
        _finite(batch.add, "threshold", threshold, "positive")
        *outputs, correction, scale = _physics(
            batch, m1, m2, w1, w2, d, tau, float(constants.G), float(constants.hbar)
        )
        values = batch.values = dict(zip(_OUTPUTS, outputs))
        values["in_regime"] = values["ratio_x"] < float(threshold)
        if force:
            values["force_closed_form"], values["force_gradient"] = _forces(
                batch, correction, scale, m1, m2, w1, w2, d, symmetrize
            )
    masks = np.array(batch.masks)
    del batch.masks  # a chunk keeps failed and first, not a mask per check
    batch.failed, batch.first = masks.any(axis=0), masks.argmax(axis=0)
    return batch


def evaluate_system(sys: PairSystem, tau: float, stacklevel: int = 0, label: str = "") -> tuple:
    """``sys`` at interaction time ``tau``: ``evaluate`` at one point, without
    the forces and at the default regime threshold, the same outputs and,
    for a failed point, the same error. Returns ``_physics``' tuple of
    floats and bools; the first failed check raises its exception. A
    ``stacklevel`` above 0 emits ``RegimeWarning`` where the ratio is
    reached and not below the default threshold, before any later check
    fails; it counts from the caller, as in ``warnings.warn``. A ``tau``
    that is not a real number raises ``InputDomainError``.

    With a ``label``, ``tau`` is instead a phase delta_phi, a finite float
    >= 0 that the caller has checked, and the body solves for the time at
    which the phase reaches it, delta_phi over the phase rate: the tuple
    holds ``sys`` at that time, its ``tau`` output, and fails as report mode
    fails there. hbar = 0 or a zero rate raises ``NoEntanglementError``, and
    a time past the float64 range ``FloatRangeError``,
    "{label}/{rate!r} overflows"."""
    # The system's values as floats, which its value objects have checked
    # finite and positive, so the float path does not check them again.
    _require_type("sys", sys, PairSystem)
    body1, body2, constants = sys.body1, sys.body2, sys.constants
    m1, m2, w1, w2 = float(body1.mass), float(body2.mass), float(body1.omega), float(body2.omega)
    d, tau = float(sys.separation_d), _real("tau", tau)
    return _physics(_Floats, m1, m2, w1, w2, d, tau, float(constants.G), float(constants.hbar),
                    stacklevel and stacklevel + 1, label)


def evaluate_correction(sys: PairSystem, force: bool = False, symmetrize: bool = False) -> tuple:
    """``sys``'s ``delta_v_g`` and, with ``force``, both forces, on floats,
    making only the checks of the divisors, the correction and the forces (so
    hbar = 0 and |x| >= 1 give values); the first that fails raises. Returns
    (delta_v_g,) or (delta_v_g, force_closed_form, force_gradient). A
    ``symmetrize`` that is not a bool raises ``InputDomainError``."""
    symmetrize = _bool("symmetrize", symmetrize)
    _require_type("sys", sys, PairSystem)
    body1, body2 = sys.body1, sys.body2
    m1, m2, w1, w2 = float(body1.mass), float(body2.mass), float(body1.omega), float(body2.omega)
    d, G, hbar = float(sys.separation_d), float(sys.constants.G), float(sys.constants.hbar)
    mw1, mw2 = _mass_omega(_raise, m1, w1), _mass_omega(_raise, m2, w2)
    correction, scale, _ = _correction(_Floats, G, hbar, m1, m2, w1, w2, mw1, mw2, d)
    if force:
        return (-correction, *_forces(_Floats, correction, scale, m1, m2, w1, w2, d, symmetrize))
    return (-correction,)


def _physics(path, m1, m2, w1, w2, d, tau, G, hbar, stacklevel=0, label="") -> tuple:
    """Evaluate the columns or floats m1 to hbar on ``path``, making its
    checks from tau's on. Returns ``_OUTPUTS``' values in their order (the
    ratio, the correction, the phase rate, the branch phases and phase, the
    measures, tau), then |delta_v_g| and hbar*G*m1*m2/d**3, which
    ``_forces`` takes. On floats, a ``stacklevel`` above 0 emits
    ``RegimeWarning`` once the ratio is not below the default threshold,
    counted from the caller; 0 warns nothing. On floats, a ``label`` makes
    ``tau`` the phase delta_phi to reach, and tau = delta_phi/rate is solved
    for once the rate exists (``evaluate_system``)."""
    fn, add = path.fn, path.add
    # The checks of tau, the m*omega divisors, the expansion and the phases
    # are written out, not through gravent.model's functions: report()'s
    # path runs them.
    # accumulated_phase
    fails = tau - tau != 0
    if fails is not False:
        add(fails, InputDomainError, "tau must be finite, got {}", tau)
    fails = tau < 0
    if fails is not False:
        add(fails, InputDomainError, "tau must be non-negative, got {}", tau)
    fails = hbar <= 0
    if fails is not False:
        if label:
            raise NoEntanglementError(_NO_ENTANGLEMENT)
        add(fails, InputDomainError, "hbar must be positive to accumulate phases")

    # zero-point widths and the validity ratio
    mw1, mw2 = m1 * w1, m2 * w2
    fails = mw1 == 0
    if fails is not False:
        add(fails, FloatRangeError, "mass*omega underflows to 0 at {} and {}", m1, w1)
    fails = mw2 == 0
    if fails is not False:
        add(fails, FloatRangeError, "mass*omega underflows to 0 at {} and {}", m2, w2)
    dr_sum = fn.sqrt(hbar / mw1) + fn.sqrt(hbar / mw2)
    ratio = dr_sum / d
    # Before the expansion's checks: a point that has a ratio has been
    # compared against the regime threshold.
    if stacklevel and not ratio < REGIME_THRESHOLD_DEFAULT:
        warn_out_of_regime(ratio, REGIME_THRESHOLD_DEFAULT, stacklevel + 1)

    # expand_potential
    fails = dr_sum - dr_sum != 0
    if fails is not False:
        add(fails, InputDomainError, "dr_sum must be finite")
    x = abs(ratio)
    fails = x >= 1
    if fails is not False:
        add(fails, ConvergenceDomainError, "|dr_sum/d| = {} >= 1: geometric expansion diverges", x)
    v0 = -G * m1 * m2 / d
    correction, scale, rate = _correction(path, G, hbar, m1, m2, w1, w2, mw1, mw2, d)
    if label:
        if rate == 0.0:
            raise NoEntanglementError(_NO_ENTANGLEMENT)
        tau = tau / rate
        if tau == math.inf:
            raise FloatRangeError(f"{label}/{rate!r} overflows")
        if tau != tau:  # a nan rate: report mode's first check at tau = nan
            raise InputDomainError(f"tau must be finite, got {tau!r}")

    # PhaseSet
    delta = -correction
    v_total = v0 + delta
    phi, phi_prime = (v_total - delta) * tau / hbar, v_total * tau / hbar
    delta_phi = rate * tau
    fails = phi - phi != 0
    if fails is not False:
        add(fails, InputDomainError, "phi must be finite, got {}", phi)
    fails = phi_prime - phi_prime != 0
    if fails is not False:
        add(fails, InputDomainError, "phi_prime must be finite, got {}", phi_prime)
    fails = delta_phi - delta_phi != 0
    if fails is not False:
        add(fails, InputDomainError, "delta_phi must be finite, got {}", delta_phi)
    fails = delta_phi >= PHASE_RESOLUTION_LIMIT
    if fails is not False:
        add(fails, PrecisionError,
            "delta_phi = {} rad >= 2**33: its ulp exceeds 1e-6 rad", delta_phi)
    return (ratio, delta, rate, phi, phi_prime, delta_phi, *_measures(delta_phi, fn), tau,
            correction, scale)


def _correction(path, G, hbar, m1, m2, w1, w2, mw1, mw2, d) -> tuple:
    """quantum_correction: |delta_v_g|, hbar*G*m1*m2/d**3, the scale the
    closed-form force shares, and the phase rate."""
    product = m1 * m2 * w1 * w2
    d3 = d * d * d
    # Written out, not as a loop like _forces': report()'s path runs them.
    add = path.add
    fails = product == 0
    if fails is not False:
        add(fails, FloatRangeError, "m1*m2*omega1*omega2 underflows to 0")
    fails = d3 == math.inf
    if fails is not False:
        add(fails, FloatRangeError, "d**3 overflows")
    fails = d3 == 0
    if fails is not False:
        add(fails, FloatRangeError, "d**3 underflows to 0")
    bracket = 1.0 / mw1 + 1.0 / mw2 + 2.0 / path.fn.sqrt(product)
    scale = hbar * G * m1 * m2 / d3
    # delta_phi per unit tau: |delta_v_g|/hbar, with hbar cancelled
    return scale * bracket, scale, G * m1 * m2 / d3 * bracket


def _forces(path, correction, scale, m1, m2, w1, w2, d, symmetrize) -> tuple:
    """entanglement_force, its float64 range checks in the order its
    expression meets them, the adder called only where one may fail; m1*m2
    is not 0 where m1*m2*omega1*omega2 is not. Returns the closed-form and
    the gradient force."""
    w1_2, w2_2 = w1 * w1, w2 * w2
    w1_3, w2_3 = w1_2 * w1, w2_2 * w2
    second, second_name = (m2, "m2") if symmetrize else (m1, "m1")
    first_term, second_term = m1 * w1_2, second * w2_2
    masses, cross1, cross2 = m1 * m2, w1_3 * w2, w1 * w2_3
    for fails, message in (
        (w1_2 == math.inf, "omega1**2 overflows"),
        (first_term == 0, "m1*omega1**2 underflows to 0"),
        (w2_2 == math.inf, "omega2**2 overflows"),
        (second_term == 0, f"{second_name}*omega2**2 underflows to 0"),
        (w1_3 == math.inf, "omega1**3 overflows"),
        (cross1 == 0, "omega1**3*omega2 underflows to 0"),
        (w2_3 == math.inf, "omega2**3 overflows"),
        (cross2 == 0, "omega1*omega2**3 underflows to 0"),
    ):
        if fails is not False:
            path.add(fails, FloatRangeError, message)
    sqrt = path.fn.sqrt
    force_bracket = (
        1.0 / first_term
        + 1.0 / second_term
        + (1.0 / sqrt(masses)) * (1.0 / sqrt(cross1) + 1.0 / sqrt(cross2))
    )
    return scale * force_bracket, 3.0 * correction / d


def _measures(delta_phi, fn=_ARRAY_MATH) -> tuple:
    """Measure the canonical product state evolved by the entangling phase,
    in the same-direction gauge, from its 2x2 amplitude matrix
    A = [[1/2, b], [b, 1/2]], b = exp(i*delta_phi)/2.

    For a pure two-qubit state the reduced purity is 1 - 2|det A|^2 and the
    reduced spectrum is {lam, 1 - lam} with lam(1 - lam) = |det A|^2 (2|det A|
    is the concurrence; Wootters, PRL 80, 2245, 1998). ``delta_phi`` is a
    column, or a float with ``fn`` the float functions; a non-finite phase,
    which has failed a check, gives nan measures in a column. Returns the
    values of ``_MEASURES``, in its order.
    """
    b_re, b_im = 0.5 * fn.cos(delta_phi), 0.5 * fn.sin(delta_phi)
    # det A = 1/4 - b^2, in real arithmetic. Im(det A) carries
    # sin(delta_phi) without cancellation.
    det_re = 0.25 - (b_re * b_re - b_im * b_im)
    det_im = -2.0 * b_re * b_im
    epsilon = 2.0 * det_re * det_re + 2.0 * det_im * det_im
    # The smaller Schmidt weight, the root of lam^2 - lam + epsilon/2 = 0
    # without the cancelling 1 - sqrt(1 - 2*epsilon).
    lam = epsilon / (1.0 + fn.sqrt(fn.maximum(1.0 - 2.0 * epsilon, 0.0)))
    # 0*ln(0) = 0: a zero weight is logged as 1; 0.0 - x is never -0.0.
    nats = 0.0 - (lam * fn.log(lam + (lam == 0.0)) + (1.0 - lam) * fn.log1p(-lam))
    norm = 0.25 + (b_re * b_re + b_im * b_im) * 2.0 + 0.25  # sum of |a|^2

    two_pi = 2.0 * math.pi
    remainder = abs(fn.fmod(delta_phi, two_pi))
    return (norm * norm, 1.0 - epsilon, epsilon, nats, nats / LN2, epsilon < SEPARABLE_EPSILON_TOL,
            (remainder < PHASE_TOL) | (two_pi - remainder < PHASE_TOL))
