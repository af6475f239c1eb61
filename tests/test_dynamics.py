import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import evolve_numeric, is_product_state, operator_from_phases
from test_views import HBAR, POSITIVE, outcome
from gravent import kernel
from gravent.dynamics import (
    PhaseSet,
    PotentialOperator,
    TwoQubitState,
    accumulated_phase,
    build_operator,
    delta_phi_to_tau,
    evolve_closed_form,
    initial_product_state,
)
from gravent.errors import FloatRangeError, InputDomainError, NoEntanglementError
from gravent.model import MassiveBody, PairSystem, PhysicalConstants
from gravent.potential import corrected_potential, quantum_correction
from gravent.sweep import time_to_max_entanglement

C = PhysicalConstants()

# delta_phi for m1 = m2 = 1e-14 kg, omega = 1e5 rad/s, d = 1e-6 m, tau = 1 s,
# evaluated as 4*G*m*tau/(d^3*omega) in 50-digit arithmetic
DPHI_REF = 2.66972e-11


def make_system(m1=1e-14, m2=1e-14, w1=1e5, w2=1e5, d=1e-6, constants=C):
    return PairSystem(MassiveBody(m1, 0.0, w1), MassiveBody(m2, 0.0, w2), d, constants)


def relative_phase_set(delta_phi: float) -> PhaseSet:
    """Same-direction gauge: the physical relative phase alone.

    The signed branch difference for an attracting correction is negative,
    so phi_prime = -delta_phi.
    """
    return PhaseSet(phi=0.0, phi_prime=-delta_phi, delta_phi=delta_phi)


def random_regime_systems(n, seed=42):
    """Draws with displacement ratio in [0.02, 0.095].

    That keeps the full branch phases within ~1e4 rad of zero for
    entangling phases up to 4*pi, so float64 still resolves their
    difference.
    """
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(n):
        m1 = 10.0 ** rng.uniform(-16, -12)
        m2 = 10.0 ** rng.uniform(-16, -12)
        w1 = 10.0 ** rng.uniform(4, 6)
        w2 = 10.0 ** rng.uniform(4, 6)
        dr = math.sqrt(C.hbar / (m1 * w1)) + math.sqrt(C.hbar / (m2 * w2))
        x = rng.uniform(0.02, 0.095)
        systems.append(make_system(m1, m2, w1, w2, d=dr / x))
    return systems


class TestInitialState:
    def test_amplitudes_and_norm(self):
        psi = initial_product_state()
        np.testing.assert_array_equal(psi.amplitudes, np.full(4, 0.5 + 0j))
        assert abs(psi.norm - 1.0) < 1e-15

    def test_tensor_product_structure(self):
        single = np.array([1.0, 1.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(
            initial_product_state().amplitudes, np.kron(single, single), atol=1e-15
        )
        assert is_product_state(initial_product_state())

    def test_projector_reduction_is_maximally_coherent(self):
        psi = initial_product_state()
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        reduced = np.trace(rho.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        np.testing.assert_allclose(reduced, np.full((2, 2), 0.5), atol=1e-15)


class TestStateValidation:
    def test_norm_enforced(self):
        with pytest.raises(InputDomainError):
            TwoQubitState(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_shape_enforced(self):
        with pytest.raises(InputDomainError):
            TwoQubitState(np.array([1.0, 0.0]))

    def test_finite_enforced(self):
        with pytest.raises(InputDomainError):
            TwoQubitState(np.array([math.nan, 0.0, 0.0, 0.0]))

    def test_amplitudes_read_only(self):
        psi = initial_product_state()
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 1.0


class TestOperator:
    def test_branch_energy_structure(self):
        sys = make_system()
        op = build_operator(sys)
        breakdown = corrected_potential(sys)
        assert op.diag[0] == breakdown.v_g_total - breakdown.delta_v_g
        assert op.diag[1] == breakdown.delta_v_g
        assert op.diag[2] == op.diag[1]
        assert op.diag[3] == op.diag[0]

    def test_classical_limit_diagonal(self):
        sys = make_system(constants=PhysicalConstants(hbar=0.0))
        op = build_operator(sys)
        breakdown = corrected_potential(sys)
        np.testing.assert_array_equal(
            op.diag, [breakdown.v_g_total, 0.0, 0.0, breakdown.v_g_total]
        )

    def test_pairing_validated(self):
        with pytest.raises(InputDomainError):
            PotentialOperator(np.array([1.0, 2.0, 3.0, 1.0]))

    @pytest.mark.parametrize("diag, message", [
        ([1.0, 2.0, 2.0], r"operator needs 4 diagonal energies, got \(3,\)"),
        ([[1.0, 2.0], [2.0, 1.0]], r"operator needs 4 diagonal energies, got \(2, 2\)"),
        ([1.0, np.nan, np.nan, 1.0], "operator energies must be finite"),
        ([np.inf, 2.0, 2.0, np.inf], "operator energies must be finite"),
    ])
    def test_shape_and_finiteness_validated(self, diag, message):
        with pytest.raises(InputDomainError, match=f"^{message}$"):
            PotentialOperator(np.array(diag))

    def test_shift_by_offset(self):
        op = PotentialOperator(np.array([5.0, 2.0, 2.0, 5.0]))
        np.testing.assert_array_equal(op.shifted(5.0).diag, [0.0, -3.0, -3.0, 0.0])

    def test_phase_generator_round_trip(self):
        phases = PhaseSet(phi=1.25, phi_prime=0.75, delta_phi=0.5)
        op = operator_from_phases(phases, tau=2.0, c=C)
        assert op.diag[0] == pytest.approx(C.hbar * 1.25 / 2.0, rel=1e-15)
        assert op.diag[1] == pytest.approx(C.hbar * 0.75 / 2.0, rel=1e-15)

    def test_built_operator_differs_from_phase_generator(self):
        # build_operator puts the bare correction on the inner branches;
        # the phase set puts the full corrected potential there. Only the
        # latter generates the closed-form evolution.
        sys = make_system()
        tau = 1.0
        built = build_operator(sys)
        generator = operator_from_phases(accumulated_phase(sys, tau), tau, C)
        assert np.isclose(built.diag[0], generator.diag[0], rtol=1e-12, atol=0.0)
        # inner entries: bare correction (~1e-45 J) vs corrected total (~1e-32 J)
        assert abs(built.diag[1] / generator.diag[1]) < 1e-10


class TestAccumulatedPhase:
    def test_zero_time(self):
        phases = accumulated_phase(make_system(), 0.0)
        assert (phases.phi, phases.phi_prime, phases.delta_phi) == (0.0, 0.0, 0.0)

    def test_reference_delta_phi(self):
        phases = accumulated_phase(make_system(), 1.0)
        assert phases.delta_phi == pytest.approx(DPHI_REF, rel=1e-12)

    def test_linear_in_tau(self):
        sys = make_system()
        rate = accumulated_phase(sys, 1.0).delta_phi
        assert accumulated_phase(sys, 8.0).delta_phi == 8.0 * rate

    def test_hbar_rescaling_leaves_delta_phi_unchanged(self):
        base = accumulated_phase(make_system(), 1.0).delta_phi
        rescaled = accumulated_phase(
            make_system(constants=PhysicalConstants(hbar=10 * C.hbar)), 1.0
        ).delta_phi
        assert rescaled == base

    def test_negative_time_rejected(self):
        with pytest.raises(InputDomainError):
            accumulated_phase(make_system(), -1.0)

    def test_zero_hbar_rejected(self):
        sys = make_system(constants=PhysicalConstants(hbar=0.0))
        with pytest.raises(InputDomainError):
            accumulated_phase(sys, 1.0)

    def test_branch_phases_track_potentials(self):
        sys = make_system()
        tau = 3.0
        phases = accumulated_phase(sys, tau)
        breakdown = corrected_potential(sys)
        v0 = breakdown.v_g_total - breakdown.delta_v_g
        assert phases.phi == pytest.approx(v0 * tau / C.hbar, rel=1e-12)
        assert phases.phi_prime == pytest.approx(breakdown.v_g_total * tau / C.hbar, rel=1e-12)

    def test_difference_identity_where_resolvable(self):
        # |phi' - phi| equals delta_phi; the subtraction resolves it only
        # when delta_phi/|phi| stays well above float64 epsilon, hence the
        # x >= 0.02 system draws.
        for sys in random_regime_systems(20, seed=3):
            phases = accumulated_phase(sys, 1.0)
            assert abs(phases.phi_prime - phases.phi) == pytest.approx(
                phases.delta_phi, rel=1e-12
            )

    def test_delta_phi_sign_convention(self):
        phases = accumulated_phase(make_system(), 1.0)
        assert phases.delta_phi > 0
        assert phases.phi_prime < phases.phi  # attracting correction

    def test_delta_phi_to_tau_inverts(self):
        sys = make_system()
        tau = delta_phi_to_tau(sys, math.pi / 2)
        assert accumulated_phase(sys, tau).delta_phi == pytest.approx(
            math.pi / 2, rel=1e-12
        )

    @pytest.mark.parametrize("delta_phi, error, message", [
        (math.nan, InputDomainError, "delta_phi must be finite, got nan"),
        (math.inf, InputDomainError, "delta_phi must be finite, got inf"),
        ("1", InputDomainError, "delta_phi must be a real number, got '1'"),
        (-1.0, InputDomainError, "delta_phi must be non-negative, got -1.0"),
        (1e300, FloatRangeError, "tau = 1e+300/2.669"),
    ], ids=["nan", "inf", "str", "negative", "tau-overflows"])
    def test_delta_phi_to_tau_rejects_phases_without_a_finite_tau(self, delta_phi, error, message):
        with pytest.raises(error, match="^" + re.escape(message)):
            delta_phi_to_tau(make_system(), delta_phi)

    @settings(max_examples=300, deadline=None)
    @given(m1=POSITIVE, m2=POSITIVE, w1=POSITIVE, w2=POSITIVE, d=POSITIVE, hbar=HBAR)
    # The phase passes 2**33 rad (PrecisionError) within 1 s; the inversion
    # takes the kernel's rate without evaluating the phase there.
    @example(m1=1e3, m2=1e3, w1=1.0, w2=1.0, d=1e-6, hbar=C.hbar)
    @example(m1=1e100, m2=1e100, w1=1e100, w2=1e100, d=1e40, hbar=C.hbar)  # fails at tau*
    @example(m1=1e-100, m2=1e-100, w1=1e150, w2=1e150, d=1e21, hbar=C.hbar)  # tau overflows
    def test_delta_phi_to_tau_shares_tau_stars_rate(self, m1, m2, w1, w2, d, hbar):
        # Both invert the rate through kernel.time_at_phase: they differ only
        # in tau*'s check at tau* and in the overflow's label.
        sys = make_system(m1, m2, w1, w2, d, PhysicalConstants(hbar=hbar))
        inverted, _ = outcome(delta_phi_to_tau, sys, math.pi / 2)
        tau_star, _ = outcome(time_to_max_entanglement, sys)
        if isinstance(inverted, str):  # a float, by its bits
            at_tau, _ = outcome(kernel.evaluate_system, sys, float.fromhex(inverted))
            assert tau_star in (inverted, at_tau)
        else:
            overflow = re.fullmatch(r"tau = 1\.5707963267948966/(.+) overflows", inverted[1])
            if overflow:
                assert inverted[0] is FloatRangeError
                inverted = (FloatRangeError, f"tau* = (pi/2)/{overflow[1]} overflows")
            assert tau_star == inverted

    def test_delta_phi_to_tau_no_entanglement(self):
        # separation so large the phase rate underflows to zero
        sys = make_system(d=1e100)
        with pytest.raises(NoEntanglementError):
            delta_phi_to_tau(sys, 1.0)


class TestClosedForm:
    def test_zero_delta_phi_is_global_phase(self):
        psi = evolve_closed_form(initial_product_state(), PhaseSet(0.7, 0.7, 0.0))
        np.testing.assert_allclose(
            psi.amplitudes, np.exp(-0.7j) * initial_product_state().amplitudes, atol=1e-15
        )
        assert is_product_state(psi)

    def test_canonical_form(self):
        phases = PhaseSet(phi=0.4, phi_prime=0.4 - 1.3, delta_phi=1.3)
        psi = evolve_closed_form(initial_product_state(), phases)
        relative = np.exp(-1j * (phases.phi_prime - phases.phi))
        expected = 0.5 * np.exp(-1j * 0.4) * np.array([1, relative, relative, 1])
        np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-15)

    def test_pi_factorizes_into_antisymmetric_product(self):
        psi = evolve_closed_form(initial_product_state(), relative_phase_set(math.pi))
        target = 0.5 * np.array([1.0, -1.0, -1.0, 1.0])
        overlap = abs(np.vdot(target, psi.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)
        assert is_product_state(psi, tol=1e-12)

    @given(delta=st.floats(min_value=0.0, max_value=4 * math.pi))
    @settings(max_examples=100)
    def test_norm_preserved(self, delta):
        psi = evolve_closed_form(initial_product_state(), relative_phase_set(delta))
        assert abs(psi.norm - 1.0) < 1e-12

    def test_general_state_diagonal_action(self):
        amps = np.array([0.5, 0.5j, -0.5, 0.5j])
        phases = PhaseSet(phi=0.2, phi_prime=1.1, delta_phi=0.9)
        out = evolve_closed_form(TwoQubitState(amps), phases)
        factors = np.exp(-1j * np.array([0.2, 1.1, 1.1, 0.2]))
        np.testing.assert_allclose(out.amplitudes, factors * amps, atol=1e-15)


class TestNumericPropagator:
    def test_zero_time_identity(self):
        psi0 = initial_product_state()
        op = PotentialOperator(np.array([1.0, 2.0, 2.0, 1.0]))
        assert evolve_numeric(psi0, op, 0.0, C) is psi0

    def test_exact_mode_matches_closed_form_full_phases(self):
        # moderate branch phases: |phi| ~ 13 rad at tau = 0.2 s
        sys = make_system()
        tau = 0.2
        phases = accumulated_phase(sys, tau)
        op = operator_from_phases(phases, tau, C)
        closed = evolve_closed_form(initial_product_state(), phases)
        numeric = evolve_numeric(initial_product_state(), op, tau, C, method="exact")
        np.testing.assert_allclose(numeric.amplitudes, closed.amplitudes, atol=1e-12)

    def test_rk4_matches_closed_form_full_phases(self):
        sys = make_system()
        tau = 0.2
        phases = accumulated_phase(sys, tau)
        op = operator_from_phases(phases, tau, C)
        closed = evolve_closed_form(initial_product_state(), phases)
        numeric = evolve_numeric(initial_product_state(), op, tau, C, steps=8192)
        assert np.max(np.abs(numeric.amplitudes - closed.amplitudes)) < 1e-9

    def test_rk4_matches_closed_form_relative_gauge(self):
        for delta in np.linspace(0.0, 4 * math.pi, 9):
            phases = relative_phase_set(float(delta))
            op = operator_from_phases(phases, 1.0, C) if delta else PotentialOperator(np.zeros(4))
            closed = evolve_closed_form(initial_product_state(), phases)
            numeric = evolve_numeric(initial_product_state(), op, 1.0, C, steps=2048)
            assert np.max(np.abs(numeric.amplitudes - closed.amplitudes)) < 1e-9

    def test_oracle_equivalence_random_systems(self):
        # closed form against the independent integrator, 25 draws here;
        # the acceptance suite runs the full 100
        rng = np.random.default_rng(11)
        for sys in random_regime_systems(25, seed=5):
            target = rng.uniform(0.0, 4 * math.pi)
            tau = delta_phi_to_tau(sys, target)
            delta = accumulated_phase(sys, tau).delta_phi
            phases = relative_phase_set(delta)
            op = operator_from_phases(phases, tau, C)
            closed = evolve_closed_form(initial_product_state(), phases)
            numeric = evolve_numeric(initial_product_state(), op, tau, C, steps=2048)
            assert np.max(np.abs(numeric.amplitudes - closed.amplitudes)) < 1e-9
            assert abs(numeric.norm - 1.0) < 1e-9

    def test_norm_drift_ten_thousand_steps(self):
        phases = relative_phase_set(4 * math.pi)
        op = operator_from_phases(phases, 1.0, C)
        numeric = evolve_numeric(initial_product_state(), op, 1.0, C, steps=10_000)
        assert abs(numeric.norm - 1.0) < 1e-9

    def test_step_underflow_warns(self):
        op = PotentialOperator(np.array([1.0, 2.0, 2.0, 1.0]))
        with pytest.warns(UserWarning, match="underflowed"):
            evolve_numeric(initial_product_state(), op, 5e-324, C, steps=4)

    def test_bad_method_and_steps(self):
        op = PotentialOperator(np.zeros(4))
        with pytest.raises(InputDomainError):
            evolve_numeric(initial_product_state(), op, 1.0, C, method="euler")
        with pytest.raises(InputDomainError):
            evolve_numeric(initial_product_state(), op, 1.0, C, steps=0)


class TestSeparabilityWitness:
    @pytest.mark.parametrize("k", range(9))
    def test_rank_one_exactly_at_pi_multiples(self, k):
        psi = evolve_closed_form(initial_product_state(), relative_phase_set(k * math.pi))
        assert is_product_state(psi, tol=1e-12)

    @pytest.mark.parametrize("delta", [0.1, 1.0, math.pi / 2, 2.0, math.pi - 0.05, 5.0])
    def test_rank_two_elsewhere(self, delta):
        psi = evolve_closed_form(initial_product_state(), relative_phase_set(delta))
        assert not is_product_state(psi, tol=1e-12)

    def test_witness_tracks_half_angle(self):
        # singular values of the 2x2 amplitude matrix are |cos(d/2)|, |sin(d/2)|
        for delta in np.linspace(0.0, 4 * math.pi, 41):
            psi = evolve_closed_form(initial_product_state(), relative_phase_set(float(delta)))
            singular = np.linalg.svd(psi.amplitude_matrix(), compute_uv=False)
            expected = min(abs(math.cos(delta / 2)), abs(math.sin(delta / 2)))
            assert singular[1] == pytest.approx(expected, abs=1e-12)
