"""Release-gate checks.

One test per acceptance criterion, each at its stated tolerance, printing
one PASS/FAIL line (visible with ``pytest -s`` or in captured output).
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (
    evolve_numeric, exact_size_corrected_potential, is_product_state, operator_from_phases,
)
from gravent.cli import rows_to_csv
from gravent.dynamics import (
    PhaseSet,
    accumulated_phase,
    delta_phi_to_tau,
    density_from_state,
    evolve_closed_form,
    initial_product_state,
    linear_entropy,
    partial_trace,
    purity,
    report_from_phases,
    von_neumann_entropy,
)
from gravent.model import MassiveBody, PairSystem, PhysicalConstants, zero_point_width
from gravent.potential import (
    entanglement_force,
    expand_potential,
    quantum_correction,
)
from gravent.sweep import AxisSpec, SweepSpec, run_sweep, time_to_max_entanglement

C = PhysicalConstants()
LN2 = math.log(2.0)

# frozen 50-digit oracle values, computed before the build
DPHI_REFERENCE = 2.6697e-11        # stated regression target, +-1e-15
TAU_STAR_REFERENCE = 5.8837493324951553692e10


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except AssertionError:
        print(f"ACCEPTANCE {number:02d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {description}")


def make_system(m1=1e-14, m2=1e-14, w1=1e5, w2=1e5, d=1e-6, constants=C):
    return PairSystem(MassiveBody(m1, 0.0, w1), MassiveBody(m2, 0.0, w2), d, constants)


def relative_phase_set(delta_phi: float) -> PhaseSet:
    return PhaseSet(phi=0.0, phi_prime=-delta_phi, delta_phi=delta_phi)


def canonical_reduced(delta_phi: float):
    psi = evolve_closed_form(initial_product_state(), relative_phase_set(delta_phi))
    return partial_trace(density_from_state(psi), 1)


def random_systems(n, seed, x_low=0.02, x_high=0.095):
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(n):
        m1 = 10.0 ** rng.uniform(-16, -12)
        m2 = 10.0 ** rng.uniform(-16, -12)
        w1 = 10.0 ** rng.uniform(4, 6)
        w2 = 10.0 ** rng.uniform(4, 6)
        dr = math.sqrt(C.hbar / (m1 * w1)) + math.sqrt(C.hbar / (m2 * w2))
        x = rng.uniform(x_low, x_high)
        systems.append(make_system(m1, m2, w1, w2, d=dr / x))
    return systems


def test_c01_maximal_entropy_at_quarter_turn():
    with criterion(1, "S(rho1) = ln 2 within 1e-12 at delta_phi = pi/2"):
        nats, _ = von_neumann_entropy(canonical_reduced(math.pi / 2))
        assert abs(nats - LN2) < 1e-12


def test_c02_reduced_purity_closed_form():
    with criterion(2, "matrix purity equals (1 + cos^2)/2 within 1e-12, 1000 samples"):
        for delta in np.linspace(0.0, 4 * math.pi, 1000):
            value = purity(canonical_reduced(float(delta)))
            expected = (1.0 + math.cos(delta) ** 2) / 2.0
            assert abs(value - expected) < 1e-12


def test_c03_reduced_states_equal():
    with criterion(3, "rho1 = rho2 elementwise within 1e-12 for the canonical family"):
        for delta in np.linspace(0.0, 4 * math.pi, 101):
            psi = evolve_closed_form(initial_product_state(), relative_phase_set(float(delta)))
            rho = density_from_state(psi)
            difference = np.abs(
                partial_trace(rho, 1).entries - partial_trace(rho, 2).entries
            )
            assert float(np.max(difference)) < 1e-12


def test_c04_correction_identity_over_random_systems():
    with criterion(4, "bracket form equals -(G m1 m2/d^3)(dr1+dr2)^2, rel 1e-12, 100 systems"):
        for sys in random_systems(100, seed=404, x_low=1e-4):
            dr1 = zero_point_width(sys.body1.mass, sys.body1.omega, C)
            dr2 = zero_point_width(sys.body2.mass, sys.body2.omega, C)
            width_route = -(
                C.G * sys.body1.mass * sys.body2.mass / sys.separation_d**3
            ) * (dr1 + dr2) ** 2
            bracket_route = quantum_correction(sys)
            assert abs(bracket_route - width_route) <= 1e-12 * abs(width_route)


def test_c05_series_residual_cubic_scaling():
    with criterion(5, "order-2 truncation residual scales as x^3, slope 3.0 +- 0.1"):
        sys = make_system()
        xs = np.array([1e-2, 5e-3, 2.5e-3])
        residuals = []
        for x in xs:
            dr_sum = float(x) * sys.separation_d
            exact = exact_size_corrected_potential(sys, dr_sum, 0.0)
            partial = sum(t.value for t in expand_potential(sys, dr_sum, 2))
            residuals.append(abs(partial - exact))
        slope = float(np.polyfit(np.log(xs), np.log(residuals), 1)[0])
        assert abs(slope - 3.0) <= 0.1


def test_c06_propagator_equivalence():
    with criterion(6, "numeric propagation matches closed form to 1e-9, 100 systems"):
        psi0 = initial_product_state()
        # delta_phi = 0: the integrator must return the initial state
        zero = evolve_numeric(
            psi0, operator_from_phases(relative_phase_set(1.0), 1.0, C), 0.0, C
        )
        assert np.max(np.abs(zero.amplitudes - psi0.amplitudes)) == 0.0

        systems = random_systems(100, seed=606)
        targets = np.linspace(4 * math.pi / 100, 4 * math.pi, 100)
        for sys, target in zip(systems, targets):
            tau = delta_phi_to_tau(sys, float(target))
            delta = accumulated_phase(sys, tau).delta_phi
            phases = relative_phase_set(delta)
            op = operator_from_phases(phases, tau, C)
            closed = evolve_closed_form(psi0, phases)
            numeric = evolve_numeric(psi0, op, tau, C, steps=2048)
            assert np.max(np.abs(numeric.amplitudes - closed.amplitudes)) <= 1e-9
            assert abs(numeric.norm - 1.0) <= 1e-9

        # full branch phases, moderate magnitude: global factor included
        for sys in random_systems(10, seed=607):
            breakdown_phi = accumulated_phase(sys, 1.0).phi
            tau = 10.0 / abs(breakdown_phi)
            phases = accumulated_phase(sys, tau)
            op = operator_from_phases(phases, tau, C)
            closed = evolve_closed_form(psi0, phases)
            numeric = evolve_numeric(psi0, op, tau, C, steps=8192)
            assert np.max(np.abs(numeric.amplitudes - closed.amplitudes)) <= 1e-9
            assert abs(numeric.norm - 1.0) <= 1e-9


def test_c07_delta_phi_independent_of_hbar():
    with criterion(7, "rescaling hbar by 10 changes delta_phi by < 1e-12 relative"):
        base = accumulated_phase(make_system(), 1.0).delta_phi
        rescaled = accumulated_phase(
            make_system(constants=PhysicalConstants(hbar=10 * C.hbar)), 1.0
        ).delta_phi
        assert abs(rescaled - base) <= 1e-12 * base


def test_c08_separability_boundary():
    with criterion(8, "separable exactly at multiples of pi; flagged against the 2*pi-only condition"):
        for k in range(9):
            delta = k * math.pi
            psi = evolve_closed_form(initial_product_state(), relative_phase_set(delta))
            assert linear_entropy(partial_trace(density_from_state(psi), 1)) < 1e-12
            assert is_product_state(psi, tol=1e-12)
        rng = np.random.default_rng(808)
        count = 0
        while count < 50:
            delta = float(rng.uniform(0.0, 4 * math.pi))
            if min(delta % math.pi, math.pi - delta % math.pi) < 0.05:
                continue
            count += 1
            psi = evolve_closed_form(initial_product_state(), relative_phase_set(delta))
            assert linear_entropy(partial_trace(density_from_state(psi), 1)) > 1e-6
            assert not is_product_state(psi, tol=1e-12)
        # odd multiple of pi: the measures say separable, the weaker
        # 2*pi-only criterion says entangled; both flags must show it
        half_turn = report_from_phases(relative_phase_set(math.pi))
        assert half_turn.separable_by_measures
        assert not half_turn.separable_by_two_pi_criterion
        assert half_turn.verdicts_disagree


def test_c09_force_consistency():
    with criterion(9, "gradient force matches central difference to 1e-6; bracket check"):
        for sys in random_systems(25, seed=909):
            d = sys.separation_d
            h = 1e-6 * d
            up = quantum_correction(make_system(
                sys.body1.mass, sys.body2.mass, sys.body1.omega, sys.body2.omega, d + h))
            down = quantum_correction(make_system(
                sys.body1.mass, sys.body2.mass, sys.body1.omega, sys.body2.omega, d - h))
            finite_difference = abs(-(up - down) / (2 * h))
            gradient = entanglement_force(sys).gradient_based
            assert abs(gradient - finite_difference) <= 1e-6 * finite_difference
        m, w, d = 1e-14, 1e5, 1e-6
        closed = entanglement_force(make_system(m1=m, m2=m, w1=w, w2=w, d=d)).closed_form
        bracket_expected = (C.hbar * C.G * m * m / d**3) * (4.0 / (m * w * w))
        assert abs(closed - bracket_expected) <= 1e-12 * bracket_expected


def test_c10_reference_scenario_regression():
    with criterion(10, "delta_phi = 2.6697e-11 +- 1e-15 and analytic tau* inversion"):
        sys = make_system()
        delta = accumulated_phase(sys, 1.0).delta_phi
        assert abs(delta - DPHI_REFERENCE) <= 1e-15
        tau_star = time_to_max_entanglement(sys)
        assert abs(tau_star - TAU_STAR_REFERENCE) <= 1e-12 * TAU_STAR_REFERENCE
        inverted = delta_phi_to_tau(sys, math.pi / 2)
        assert abs(tau_star - inverted) <= 1e-12 * inverted
        assert accumulated_phase(sys, tau_star).delta_phi == pytest.approx(
            math.pi / 2, rel=1e-12
        )


def test_c11_sweep_determinism():
    with criterion(11, "identical sweeps byte-identical regardless of worker count"):
        spec = SweepSpec(
            axes={"tau": AxisSpec(0.5, 8.0, 10), "d": AxisSpec(1e-6, 4e-6, 3, "log")},
            fixed=dict(m1=1e-14, m2=1e-14, omega1=1e5, omega2=1e5),
        )
        baseline = rows_to_csv(run_sweep(spec, workers=1)).encode()
        for workers in (1, 2, 4):
            again = rows_to_csv(run_sweep(spec, workers=workers)).encode()
            assert again == baseline
