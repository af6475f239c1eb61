"""Independent reference for gravent's outputs.

Nothing here imports gravent. Every expected value is computed from the
point's inputs with mpmath at 50 significant digits:

- delta_phi = (G*m1*m2*tau/d^3) * (1/(m1*w1) + 1/(m2*w2) + 2/sqrt(m1*m2*w1*w2))
- x = (sqrt(hbar/(m1*w1)) + sqrt(hbar/(m2*w2))) / d, the row diverges when x >= 1
- force_gradient = 3*|delta_v_g|/d with delta_v_g = hbar * delta_phi / tau
- force_closed_form from the bracket the README documents, with m1 in its
  second denominator (``symmetrize_force = false``, the default)
- the canonical family's measures in stable closed form:
  epsilon = sin^2(delta_phi)/2, reduced spectrum {sin^2(delta_phi/2),
  cos^2(delta_phi/2)}, S = -sum(lam*ln(lam)), purity = 1 - epsilon.

A checked output is classified as

- ``OK``: every value within tolerance;
- ``CLIFF``: everything within tolerance except epsilon or the entropy,
  which miss the reference by more than ``CLIFF_RTOL``. This is the
  cancellation in the matrix route's ``1 - Tr(rho1^2)`` and eigenvalues
  where epsilon is tiny (delta_phi below ~1e-5 rad, or close to a multiple
  of pi). It counts as a failed operation, not as a wrong one;
- ``WRONG``: any other mismatch.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Mapping

import mpmath

mpmath.mp.dps = 50

#: CODATA-2018 constants, the values in effect when a config leaves
#: [constants] out.
G = 6.67430e-11
HBAR = 1.054571817e-34

#: Relative tolerance for every value except the cliff-prone measures. CSV
#: cells carry 12 significant digits (relative rounding <= 5e-12).
RTOL = 1e-10
#: Relative tolerance for epsilon and the entropy, the measures the matrix
#: route computes by cancellation.
CLIFF_RTOL = 1e-6
#: The documented policies behind the two separability verdicts:
#: epsilon below 1e-12, and delta_phi within 1e-9 rad of a multiple of 2*pi.
SEPARABLE_EPSILON_TOL = 1e-12
PHASE_TOL = 1e-9
#: A verdict whose reference sits within this relative distance of its
#: threshold may go either way.
BORDERLINE_RTOL = 1e-3

#: Grid parameters in canonical row-major order, the last varying fastest.
SWEEP_PARAMETERS = ("m1", "m2", "omega1", "omega2", "d", "tau")
ROW_FIELDS = (
    "index", "m1", "m2", "r1", "r2", "omega1", "omega2", "d", "tau",
    "ratio_x", "in_regime", "regime_threshold", "delta_phi", "purity_full",
    "purity_reduced", "epsilon", "entropy_nats", "entropy_bits",
    "separable_by_measures", "separable_by_two_pi_criterion",
    "force_closed_form", "force_closed_form_unit", "force_gradient", "status",
)
INPUT_FIELDS = ("m1", "m2", "r1", "r2", "omega1", "omega2", "d", "tau")
#: Fields that carry a value on "ok" rows and are empty (NaN/null) on error rows.
RESULT_FIELDS = (
    "ratio_x", "regime_threshold", "delta_phi", "purity_full", "purity_reduced",
    "epsilon", "entropy_nats", "entropy_bits", "force_closed_form", "force_gradient",
)
FORCE_UNIT = "J*s"
DIVERGENCE_STATUS = "error: ConvergenceDomainError:"

OK, CLIFF, WRONG = "ok", "cliff", "wrong"


@dataclass(frozen=True)
class Measures:
    """Reference measures of the canonical state at one delta_phi."""

    delta_phi: float
    purity_reduced: float
    epsilon: float
    entropy_nats: float
    #: None where the reference sits on the verdict's threshold.
    separable_by_measures: bool | None
    separable_by_two_pi_criterion: bool | None


@dataclass(frozen=True)
class Point:
    """Reference values for one sweep point."""

    ratio_x: float
    diverges: bool | None
    in_regime: bool | None
    force_closed_form: float
    force_gradient: float
    measures: Measures | None  # None when the point diverges for certain


def _verdict(value: mpmath.mpf, threshold: float) -> bool | None:
    """value < threshold, or None when value is within BORDERLINE_RTOL of it."""
    if abs(value - threshold) <= BORDERLINE_RTOL * threshold:
        return None
    return bool(value < threshold)


def measures_reference(delta_phi: mpmath.mpf) -> Measures:
    """Closed-form measures of the canonical family at phase ``delta_phi``."""
    dphi = mpmath.mpf(delta_phi)
    epsilon = mpmath.sin(dphi) ** 2 / 2
    spectrum = (mpmath.sin(dphi / 2) ** 2, mpmath.cos(dphi / 2) ** 2)
    nats = -sum((lam * mpmath.log(lam) for lam in spectrum if lam > 0), mpmath.mpf(0))
    two_pi = 2 * mpmath.pi
    rem = dphi % two_pi
    distance = min(rem, two_pi - rem)
    return Measures(
        delta_phi=float(dphi),
        purity_reduced=float(1 - epsilon),
        epsilon=float(epsilon),
        entropy_nats=float(nats),
        separable_by_measures=_verdict(epsilon, SEPARABLE_EPSILON_TOL),
        separable_by_two_pi_criterion=_verdict(distance, PHASE_TOL),
    )


def point_reference(
    m1: float, m2: float, omega1: float, omega2: float, d: float, tau: float,
    *, threshold: float,
) -> Point:
    """Reference values for one parameter point, from its float inputs."""
    m1, m2, w1, w2, d, tau = (mpmath.mpf(v) for v in (m1, m2, omega1, omega2, d, tau))
    g, hbar = mpmath.mpf(G), mpmath.mpf(HBAR)
    bracket = 1 / (m1 * w1) + 1 / (m2 * w2) + 2 / mpmath.sqrt(m1 * m2 * w1 * w2)
    scale = g * m1 * m2 / d**3
    x = (mpmath.sqrt(hbar / (m1 * w1)) + mpmath.sqrt(hbar / (m2 * w2))) / d
    closed = hbar * scale * (
        1 / (m1 * w1**2)
        + 1 / (m1 * w2**2)
        + (1 / mpmath.sqrt(m1 * m2)) * (1 / mpmath.sqrt(w1**3 * w2) + 1 / mpmath.sqrt(w1 * w2**3))
    )
    diverges = None if abs(x - 1) <= 1e-12 else bool(x >= 1)
    return Point(
        ratio_x=float(x),
        diverges=diverges,
        in_regime=_verdict(x, threshold),
        force_closed_form=float(closed),
        force_gradient=float(3 * hbar * scale * bracket / d),
        measures=None if diverges else measures_reference(scale * bracket * tau),
    )


def log_axis(start: float, stop: float, count: int) -> list[float]:
    """count log-spaced values from start to stop, endpoints exact."""
    if count == 1:
        return [start]
    a, b = mpmath.mpf(start), mpmath.mpf(stop)
    inner = [float(a * (b / a) ** (mpmath.mpf(i) / (count - 1))) for i in range(1, count - 1)]
    return [start, *inner, stop]


def grid_points(axes: Mapping[str, tuple[float, float, int]], fixed: Mapping[str, float]) -> list[dict]:
    """Every point of a log grid in canonical row-major order."""
    values = {name: log_axis(*axes[name]) for name in SWEEP_PARAMETERS if name in axes}
    points = [dict(fixed)]
    for name in SWEEP_PARAMETERS:
        if name in values:
            points = [{**p, name: v} for p in points for v in values[name]]
    return points


def _close(value: float | None, ref: float, rtol: float) -> bool:
    return value is not None and abs(value - ref) <= rtol * abs(ref)


def _flag(value: object, ref: bool | None) -> bool:
    return isinstance(value, bool) and (ref is None or value is ref)


def check_measures(values: Mapping[str, object], ref: Measures) -> tuple[str, list[str]]:
    """Classify one set of reported measures (a row or a ``report()`` result).

    Returns the class and the names of the fields that missed.
    """
    wrong = [name for name in ("epsilon", "entropy_nats") if values[name] is None]
    if not _close(values["delta_phi"], ref.delta_phi, RTOL):
        wrong.append("delta_phi")
    if not _close(values["purity_full"], 1.0, RTOL):
        wrong.append("purity_full")
    if not _close(values["purity_reduced"], ref.purity_reduced, RTOL):
        wrong.append("purity_reduced")
    nats = values["entropy_nats"]
    if nats is None or not _close(values["entropy_bits"], nats / math.log(2.0), RTOL):
        wrong.append("entropy_bits")
    if not _flag(values["separable_by_measures"], ref.separable_by_measures):
        wrong.append("separable_by_measures")
    if not _flag(values["separable_by_two_pi_criterion"], ref.separable_by_two_pi_criterion):
        wrong.append("separable_by_two_pi_criterion")
    if wrong:
        return WRONG, wrong
    cliff = [
        name
        for name, ref_value in (("epsilon", ref.epsilon), ("entropy_nats", ref.entropy_nats))
        if not _close(values[name], ref_value, CLIFF_RTOL)
    ]
    return (CLIFF, cliff) if cliff else (OK, [])


def check_row(
    row: Mapping[str, object], index: int, point: Mapping[str, float], ref: Point,
    *, threshold: float,
) -> tuple[str, list[str]]:
    """Classify one sweep row against its grid point and reference values."""
    if list(row) != list(ROW_FIELDS):
        return WRONG, ["fields"]
    wrong = [] if row["index"] == index else ["index"]
    wrong += [name for name in INPUT_FIELDS if not _close(row[name], point[name], RTOL)]
    if row["force_closed_form_unit"] != FORCE_UNIT:
        wrong.append("force_closed_form_unit")
    status = row["status"]
    if status != "ok":
        diverged_ok = ref.diverges is not False and str(status).startswith(DIVERGENCE_STATUS)
        empty = all(row[name] is None for name in RESULT_FIELDS) and not any(
            row[name] for name in ("in_regime", "separable_by_measures", "separable_by_two_pi_criterion")
        )
        if not (diverged_ok and empty):
            wrong.append("status")
        return (WRONG, wrong) if wrong else (OK, [])
    if ref.diverges is True or ref.measures is None:
        return WRONG, wrong + ["status"]
    for name, ref_value in (
        ("ratio_x", ref.ratio_x),
        ("regime_threshold", threshold),
        ("force_closed_form", ref.force_closed_form),
        ("force_gradient", ref.force_gradient),
    ):
        if not _close(row[name], ref_value, RTOL):
            wrong.append(name)
    if not _flag(row["in_regime"], ref.in_regime):
        wrong.append("in_regime")
    verdict, missed = check_measures(row, ref.measures)
    if wrong or verdict == WRONG:
        return WRONG, wrong + (missed if verdict == WRONG else [])
    return verdict, missed


def _cell(text: str) -> object:
    if text in ("true", "false"):
        return text == "true"
    try:
        value = float(text)
    except ValueError:
        return text
    return None if math.isnan(value) else value


def parse_csv(text: str) -> list[dict]:
    """Rows of a gravent CSV table; NaN cells become None."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = []
    for cells in reader:
        row = {name: _cell(cell) for name, cell in zip(header, cells)}
        row["index"] = int(cells[0])
        row["status"] = ",".join(cells[len(header) - 1:])
        row["force_closed_form_unit"] = cells[header.index("force_closed_form_unit")]
        rows.append(row)
    return rows


def parse_json(text: str) -> list[dict]:
    """Rows of a gravent JSON array; integers in float columns become floats."""
    rows = json.loads(text)
    for row in rows:
        for name in INPUT_FIELDS + RESULT_FIELDS:
            if isinstance(row.get(name), int) and not isinstance(row[name], bool):
                row[name] = float(row[name])
    return rows
