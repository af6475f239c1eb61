"""Seeded inputs of the three workloads.

The precision cliff (see checker.py) depends only on the float delta_phi.
Inputs that can land on it never depend on the seed in a way that moves
delta_phi: the seed scales all four masses and frequencies of a system by
one power of two, which leaves every rounding step of the phase rate
G*m1*m2/d^3 * (1/(m1*w1) + 1/(m2*w2) + 2/sqrt(m1*m2*w1*w2)) unchanged, so
delta_phi keeps its bits and the failed count repeats exactly across seeds.
Only sweep6-json moves delta_phi with the seed, and it keeps delta_phi in
[2e-3, 2.2] rad, where the matrix route is accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: The paper's reference bodies: m = 1e-14 kg, omega = 1e5 rad/s, and at
#: d = 1e-6 m, tau = 1 s the reference phase delta_phi = 2.6697e-11 rad.
REFERENCE_MASS = 1e-14
REFERENCE_OMEGA = 1e5
REGIME_THRESHOLD = 0.1

#: sweep-csv grid: delta_phi runs from the reference 2.67e-11 rad at
#: (tau = 1 s, d = 1e-6 m) to 10.7 rad (~3.4 pi) at (4e5 s, 1e-8 m).
CSV_TAU_AXIS = (1.0, 4e5, 60)
CSV_D_AXIS = (1e-8, 1e-6, 50)

#: report-calls scenario pool: delta_phi targets stratified log-uniformly
#: over [1e-12, 4*pi], one per stratum, drawn once from a fixed stream.
CALLS_POOL_SIZE = 256
CALLS_POOL_STREAM = 2401_14342
CALLS_PHASE_RANGE = (1e-12, 4 * math.pi)


@dataclass(frozen=True)
class SweepCase:
    """One CLI sweep: the config document and what the checker needs."""

    axes: dict[str, tuple[float, float, int]]
    fixed: dict[str, float]
    r1: float
    r2: float
    fmt: str
    workers: int
    threshold: float = REGIME_THRESHOLD

    def config_text(self) -> str:
        system = {**self.fixed, "r1": self.r1, "r2": self.r2}
        lines = ["[run]", "mode = sweep", f"format = {self.fmt}",
                 f"regime_threshold = {self.threshold!r}", "", "[system]"]
        lines += [f"{name} = {value!r}" for name, value in system.items()]
        lines += ["", "[sweep]"]
        lines += [f"{name} = {a!r}:{b!r}:{n}:log" for name, (a, b, n) in self.axes.items()]
        lines.append(f"workers = {self.workers}")
        return "\n".join(lines) + "\n"


def _radii(rng: np.random.Generator) -> tuple[float, float]:
    # Geometric radii are bookkeeping only; they are echoed in every row.
    r1, r2 = 10.0 ** rng.uniform(-7.0, -6.0, size=2)
    return float(r1), float(r2)


def sweep_csv(seed: int) -> SweepCase:
    """tau x d at the reference bodies, scaled by 2**k with k drawn from the seed."""
    rng = np.random.default_rng([seed, 1])
    scale = 2.0 ** int(rng.integers(-2, 3))
    mass, omega = REFERENCE_MASS * scale, REFERENCE_OMEGA * scale
    r1, r2 = _radii(rng)
    return SweepCase(
        axes={"d": CSV_D_AXIS, "tau": CSV_TAU_AXIS},
        fixed={"m1": mass, "m2": mass, "omega1": omega, "omega2": omega},
        r1=r1, r2=r2, fmt="csv", workers=1,
    )


def _phase_rate(m1, m2, w1, w2, d):
    return 6.67430e-11 * m1 * m2 / d**3 * (1 / (m1 * w1) + 1 / (m2 * w2) + 2 / np.sqrt(m1 * m2 * w1 * w2))


def sweep6_json(seed: int) -> SweepCase:
    """All six parameters on log axes near x = 1, delta_phi in [2e-3, 2.2] rad.

    Masses and frequencies each span a factor 3 around seeded centres; the
    separation axis is placed so that the largest x is 1.3, which puts a
    few percent of the points past x = 1 (ConvergenceDomainError rows).
    """
    rng = np.random.default_rng([seed, 2])
    m_lo = 1e-20 * 10.0 ** rng.uniform(-0.5, 0.5)
    w_lo = 10.0 ** rng.uniform(-0.5, 0.5)
    dr_max = math.sqrt(1.054571817e-34 / (m_lo * w_lo))
    d_lo = 2.0 * dr_max / 1.3
    axes = {
        "m1": (m_lo, 3.0 * m_lo, 3),
        "m2": (m_lo, 3.0 * m_lo, 3),
        "omega1": (w_lo, 3.0 * w_lo, 3),
        "omega2": (w_lo, 3.0 * w_lo, 3),
        "d": (d_lo, 1.5 * d_lo, 4),
    }
    # The rate grows with the masses and falls with the frequencies and d.
    rate_min = _phase_rate(m_lo, m_lo, 3.0 * w_lo, 3.0 * w_lo, 1.5 * d_lo)
    rate_max = _phase_rate(3.0 * m_lo, 3.0 * m_lo, w_lo, w_lo, d_lo)
    tau_lo = float(2e-3 * 10.0 ** rng.uniform(0.0, 0.2) / rate_min)
    tau_hi = float(min(20.0 * tau_lo, 2.2 / rate_max))
    axes["tau"] = (tau_lo, tau_hi, 4)
    r1, r2 = _radii(rng)
    # At threshold 0.5 the in_regime column takes both values.
    return SweepCase(axes=axes, fixed={}, r1=r1, r2=r2, fmt="json", workers=2, threshold=0.5)


def calls_pool() -> list[dict[str, float]]:
    """Base scenarios of report-calls; the same on every seed."""
    rng = np.random.default_rng(CALLS_POOL_STREAM)
    lo, hi = (math.log10(v) for v in CALLS_PHASE_RANGE)
    pool = []
    for i in range(CALLS_POOL_SIZE):
        target = 10.0 ** (lo + (i + rng.uniform()) * (hi - lo) / CALLS_POOL_SIZE)
        m1, m2 = 10.0 ** rng.uniform(-15.0, -13.0, size=2)
        w1, w2 = 10.0 ** rng.uniform(4.0, 6.0, size=2)
        d = 10.0 ** rng.uniform(-6.0, -5.0)
        tau = target / _phase_rate(m1, m2, w1, w2, d)
        pool.append({"m1": float(m1), "m2": float(m2), "omega1": float(w1),
                     "omega2": float(w2), "d": float(d), "tau": float(tau)})
    return pool


def calls_round(rng: np.random.Generator) -> list[tuple[int, float, float, float]]:
    """One round of report-calls: every pool scenario once, in seeded order.

    Each entry is (pool index, power-of-two scale, r1, r2).
    """
    order = rng.permutation(CALLS_POOL_SIZE)
    scales = 2.0 ** rng.integers(-4, 5, size=CALLS_POOL_SIZE)
    radii = 10.0 ** rng.uniform(-7.0, -6.0, size=(CALLS_POOL_SIZE, 2))
    return [(int(i), float(s), float(r[0]), float(r[1])) for i, s, r in zip(order, scales, radii)]
