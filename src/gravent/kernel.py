"""Physics kernel: the one set of expressions behind sweeps, ``evaluate_point``,
``report``, ``time_to_max_entanglement`` and the public scalar functions.

``evaluate`` takes columns, one entry per point, and returns columns of the
validity ratio, the correction, the phases, the matrix-derived measures and
both forces, and for each point the first check it fails; every row, of a
sweep or of one point, comes from it, the CLI's tau-star row included.
``evaluate_system`` evaluates one system on plain floats, without the
forces, for tau* and, through ``report_system``, for ``report`` and
``accumulated_phase``; ``evaluate_correction`` runs only the
correction and the forces, for ``quantum_correction`` and
``entanglement_force``. The input checks are ``gravent.model``'s, made in
the order a scalar evaluation meets them, plus ``FloatRangeError`` where the
arithmetic would divide by an underflowed zero or overflow a power, and
``PrecisionError`` where the phase is past float resolution. ``evaluate``
makes them all; the float entries take a ``PairSystem``, whose value objects
have checked its fields, and check only tau, hbar and the intermediates.

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
phases and measures, the forces). ``evaluate`` runs them on numpy columns
and records every check as a mask (``Batch.add``); the float entries run
them on Python floats with ``model._raise``, which stops at the first failed
check, the one ``evaluate`` reports first. Each check calls its adder under
``if fails is not False:`` (``gravent.model``'s idiom), so on floats a check
that passes makes no call, and a passing ``report()`` none at all; an array
condition always reaches ``Batch.add``. Every divisor is checked non-zero
before the division, so float arithmetic raises nothing else. The functions the
expressions call come from a table per path: on floats, ``math.sqrt``,
``math.fmod`` and the builtins ``max`` and ``min``, which are correctly
rounded or exact and so round as numpy's ufuncs do. ``log`` and ``log1p``
stay numpy's ufuncs on both paths, because numpy's and the C library's
differ in the last bit on some arguments (``log1p`` on about 7% of [-0.5, 0]
on an AVX-512 host); ``cos`` and ``sin`` stay numpy's too, so that no result
rests on the two libraries agreeing.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from .errors import (
    FloatRangeError,
    GraventError,
    InputDomainError,
    NoEntanglementError,
    PrecisionError,
    RegimeWarning,
)
from .model import (
    REGIME_THRESHOLD_DEFAULT, PairSystem, PhysicalConstants, _bool, _check_body, _check_converges,
    _check_dr_sum, _finite, _mass_omega, _raise, _real, _require_type,
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

#: Input columns, in canonical grid order.
PARAMETERS = ("m1", "m2", "omega1", "omega2", "d", "tau")
_parameters = itemgetter(*PARAMETERS)

#: ``inputs`` maps each of PARAMETERS to a float64 column, one entry per point.
Inputs = Mapping[str, np.ndarray]


def _on_float(ufunc):
    return lambda x: float(ufunc(x))


#: The functions the physics calls, on columns and on floats.
_ARRAY_MATH = SimpleNamespace(
    sqrt=np.sqrt, fmod=np.fmod, maximum=np.maximum, minimum=np.minimum,
    cos=np.cos, sin=np.sin, log=np.log, log1p=np.log1p,
)
_FLOAT_MATH = SimpleNamespace(
    sqrt=math.sqrt, fmod=math.fmod, maximum=max, minimum=min,
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
        self.values: dict[str, np.ndarray] = {}
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
    batch = Batch(len(inputs["tau"]))
    with np.errstate(all="ignore"):
        _check_inputs(batch.add, inputs, r1, r2, threshold)
        _physics(batch, inputs, constants, threshold, symmetrize, force, batch.values)
    masks = np.array(batch.masks)
    del batch.masks  # a chunk keeps failed and first, not a mask per check
    batch.failed, batch.first = masks.any(axis=0), masks.argmax(axis=0)
    return batch


def _system_values(sys: PairSystem) -> dict[str, float]:
    """The system's values as floats, which its value objects have checked
    finite and positive, so the float path does not check them again."""
    _require_type("sys", sys, PairSystem)
    body1, body2 = sys.body1, sys.body2
    return dict(m1=float(body1.mass), m2=float(body2.mass), omega1=float(body1.omega),
                omega2=float(body2.omega), d=float(sys.separation_d))


def evaluate_system(
    sys: PairSystem, tau: float
) -> tuple[dict[str, float | bool], GraventError | None]:
    """``sys`` at interaction time ``tau``: ``evaluate`` at one point, without
    the forces and at the default regime threshold, the same outputs and,
    for a failed point, the same error. Returns the input and output values
    as floats and bools, up to the first failed check, and that check's
    exception, or None. A ``tau`` that is not a real number raises
    ``InputDomainError``."""
    values = _system_values(sys)
    values["tau"] = _real("tau", tau)
    try:
        _physics(_Floats, values, sys.constants, REGIME_THRESHOLD_DEFAULT, False, False, values)
    except GraventError as error:
        return values, error
    return values, None


def report_system(sys: PairSystem, tau: float, stacklevel: int) -> dict[str, float | bool]:
    """``evaluate_system``'s values, after the ``RegimeWarning`` if the ratio
    was reached and is not below the default regime threshold; then the first
    failed check raises. ``stacklevel`` counts from the caller."""
    values, error = evaluate_system(sys, tau)
    ratio = values.get("ratio_x")
    if ratio is not None and not ratio < REGIME_THRESHOLD_DEFAULT:
        warn_out_of_regime(ratio, REGIME_THRESHOLD_DEFAULT, stacklevel + 1)
    if error is not None:
        raise error
    return values


def evaluate_correction(sys: PairSystem, force: bool = False, symmetrize: bool = False) -> dict:
    """``sys``'s ``delta_v_g`` and phase rate and, with ``force``, both forces,
    on floats, making only the checks of the divisors, the correction and the
    forces (so hbar = 0 and |x| >= 1 give values); the first that fails raises.
    A ``symmetrize`` that is not a bool raises ``InputDomainError``."""
    symmetrize = _bool("symmetrize", symmetrize)
    values = _system_values(sys)
    m1, m2, w1, w2, d = values.values()
    G, hbar = float(sys.constants.G), float(sys.constants.hbar)
    mw1, mw2 = _mass_omega(_raise, m1, w1), _mass_omega(_raise, m2, w2)
    correction, scale = _correction(_Floats, G, hbar, m1, m2, w1, w2, mw1, mw2, d, values)
    if force:
        _forces(_Floats, correction, scale, m1, m2, w1, w2, d, symmetrize, values)
    return values


def phase_rate(sys: PairSystem) -> float:
    """``sys``'s delta_phi per second, which tau-star and ``delta_phi_to_tau``
    invert. A system that fails a check at tau = 0 raises the error report
    mode gives at tau = 1 s; a zero rate, or hbar = 0, ``NoEntanglementError``."""
    _require_type("sys", sys, PairSystem)
    if sys.constants.hbar != 0.0:
        # A check that depends on tau fails at tau = 0 only where the
        # potential or the rate is not finite, and then at every tau. The
        # error raised is report mode's at tau = 1 s, where each check failed
        # at tau = 0 fails too, or an earlier one does.
        values, error = evaluate_system(sys, 0.0)
        if error is not None:
            raise evaluate_system(sys, 1.0)[1] or error
        if values["phase_rate"] != 0.0:
            return values["phase_rate"]
    raise NoEntanglementError("quantum correction is zero; entanglement never accumulates")


def _check_inputs(add, inputs, r1, r2, threshold) -> None:
    """The checks of MassiveBody, PairSystem and assess_validity, which only
    ``evaluate`` makes: a ``PairSystem`` has passed them."""
    m1, m2, w1, w2, d, _ = _parameters(inputs)
    _check_body(add, m1, r1, w1)
    _check_body(add, m2, r2, w2)
    _finite(add, "separation_d", d, "positive")
    _finite(add, "threshold", threshold, "positive")


def _physics(path, inputs, constants, threshold, symmetrize, force, out) -> None:
    """Evaluate ``inputs`` on ``path``, making its checks from tau's on, into
    ``out``: the ratio, the correction, the phase rate, the branch phases and
    phase, the measures and, with ``force``, both forces."""
    m1, m2, w1, w2, d, tau = _parameters(inputs)
    fn, add = path.fn, path.add
    # Plain floats: a numpy scalar would turn a point's outputs into numpy
    # scalars (the threshold, too, where it is compared below).
    G, hbar = float(constants.G), float(constants.hbar)
    # The checks of tau, the m*omega divisors and the phases are written
    # out, not through gravent.model's functions: report()'s path runs them.
    # accumulated_phase
    fails = tau - tau != 0
    if fails is not False:
        add(fails, InputDomainError, "tau must be finite, got {}", tau)
    fails = tau < 0
    if fails is not False:
        add(fails, InputDomainError, "tau must be non-negative, got {}", tau)
    fails = hbar <= 0
    if fails is not False:
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
    # Set before the expansion's checks: a point that has a ratio has been
    # compared against the regime threshold.
    out["ratio_x"] = ratio
    out["in_regime"] = ratio < float(threshold)

    # expand_potential
    _check_dr_sum(add, dr_sum)
    _check_converges(add, ratio)
    v0 = -G * m1 * m2 / d
    correction, scale = _correction(path, G, hbar, m1, m2, w1, w2, mw1, mw2, d, out)

    # PhaseSet
    delta = out["delta_v_g"]
    v_total = v0 + delta
    phi, phi_prime = (v_total - delta) * tau / hbar, v_total * tau / hbar
    delta_phi = out["phase_rate"] * tau
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
    out["phi"], out["phi_prime"], out["delta_phi"] = phi, phi_prime, delta_phi
    _measures(delta_phi, out, fn)

    if force:
        _forces(path, correction, scale, m1, m2, w1, w2, d, symmetrize, out)


def _correction(path, G, hbar, m1, m2, w1, w2, mw1, mw2, d, out):
    """quantum_correction: ``out`` gets delta_v_g and the phase rate. Returns
    |delta_v_g| and hbar*G*m1*m2/d**3, the scale the closed-form force shares."""
    product = m1 * m2 * w1 * w2
    d3 = d * d * d
    # Written out, not through _range_checks: report()'s path runs them.
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
    correction = scale * bracket
    out["delta_v_g"] = -correction
    # delta_phi per unit tau: |delta_v_g|/hbar, with hbar cancelled
    out["phase_rate"] = G * m1 * m2 / d3 * bracket
    return correction, scale


def _forces(path, correction, scale, m1, m2, w1, w2, d, symmetrize, out) -> None:
    """entanglement_force, its float64 range checks in the order its
    expression meets them; m1*m2 is not 0 where m1*m2*omega1*omega2 is not."""
    w1_2, w2_2 = w1 * w1, w2 * w2
    w1_3, w2_3 = w1_2 * w1, w2_2 * w2
    second, second_name = (m2, "m2") if symmetrize else (m1, "m1")
    first_term, second_term = m1 * w1_2, second * w2_2
    masses, cross1, cross2 = m1 * m2, w1_3 * w2, w1 * w2_3
    _range_checks(path.add, (
        (w1_2 == math.inf, "omega1**2 overflows"),
        (first_term == 0, "m1*omega1**2 underflows to 0"),
        (w2_2 == math.inf, "omega2**2 overflows"),
        (second_term == 0, f"{second_name}*omega2**2 underflows to 0"),
        (w1_3 == math.inf, "omega1**3 overflows"),
        (cross1 == 0, "omega1**3*omega2 underflows to 0"),
        (w2_3 == math.inf, "omega2**3 overflows"),
        (cross2 == 0, "omega1*omega2**3 underflows to 0"),
    ))
    sqrt = path.fn.sqrt
    force_bracket = (
        1.0 / first_term
        + 1.0 / second_term
        + (1.0 / sqrt(masses)) * (1.0 / sqrt(cross1) + 1.0 / sqrt(cross2))
    )
    out["force_closed_form"] = scale * force_bracket
    out["force_gradient"] = 3.0 * correction / d


def _range_checks(add, checks) -> None:
    """``FloatRangeError`` checks, each a (fails, message) pair, in order,
    the adder called only where one may fail."""
    for fails, message in checks:
        if fails is not False:
            add(fails, FloatRangeError, message)


def _measures(delta_phi, out, fn=_ARRAY_MATH) -> None:
    """Measure the canonical product state evolved by the entangling phase,
    in the same-direction gauge, from its 2x2 amplitude matrix
    A = [[1/2, b], [b, 1/2]], b = exp(i*delta_phi)/2.

    For a pure two-qubit state the reduced purity is 1 - 2|det A|^2 and the
    reduced spectrum is {lam, 1 - lam} with lam(1 - lam) = |det A|^2 (2|det A|
    is the concurrence; Wootters, PRL 80, 2245, 1998). ``delta_phi`` is a
    column, or a float with ``fn`` the float functions; a non-finite phase,
    which has failed a check, gives nan measures in a column. The measures
    go into ``out``.
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
    out["purity_full"] = norm * norm
    out["purity_reduced"] = 1.0 - epsilon
    out["epsilon"] = epsilon
    out["entropy_nats"] = nats
    out["entropy_bits"] = nats / LN2
    out["separable_by_measures"] = epsilon < SEPARABLE_EPSILON_TOL
    out["separable_by_two_pi_criterion"] = fn.minimum(remainder, two_pi - remainder) < PHASE_TOL
