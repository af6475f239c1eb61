import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravent import kernel, model
from gravent.dynamics import (
    DensityMatrix,
    PhaseSet,
    TwoQubitState,
    density_from_state,
    evolve_closed_form,
    initial_product_state,
    linear_entropy,
    nearest_multiple_distance,
    partial_trace,
    purity,
    report_from_phases,
    von_neumann_entropy,
)
from gravent.errors import InputDomainError, PositivityError
from gravent.measures import EntanglementReport, report
from gravent.model import MassiveBody, PairSystem, PhysicalConstants

LN2 = math.log(2.0)
# -(0.25*ln(0.25) + 0.75*ln(0.75)) at 50 digits
VN_PI_THIRD_NATS = 0.56233514461880835029
VN_PI_THIRD_BITS = 0.81127812445913286391


def canonical_state(delta_phi: float) -> TwoQubitState:
    phases = PhaseSet(phi=0.0, phi_prime=-delta_phi, delta_phi=abs(delta_phi))
    return evolve_closed_form(initial_product_state(), phases)


def canonical_rho(delta_phi: float) -> DensityMatrix:
    return density_from_state(canonical_state(delta_phi))


def reference_system():
    body = MassiveBody(1e-14, 0.0, 1e5)
    return PairSystem(body, body, 1e-6, PhysicalConstants())


class TestDensityMatrix:
    def test_uniform_at_zero_phase(self):
        rho = canonical_rho(0.0)
        np.testing.assert_allclose(rho.entries, np.full((4, 4), 0.25), atol=1e-15)

    def test_first_row_carries_relative_phase(self):
        delta = 1.3
        rho = canonical_rho(delta)
        # coherence entry (0,1) = e^{i*signed}/4 with the signed branch
        # difference phi' - phi = -delta for an attracting correction
        signed = -delta
        assert rho.entries[0, 1] == pytest.approx(np.exp(1j * signed) / 4, abs=1e-15)
        assert rho.entries[0, 3] == pytest.approx(0.25, abs=1e-15)
        assert rho.entries[1, 0] == pytest.approx(np.exp(-1j * signed) / 4, abs=1e-15)
        assert rho.entries[0, 1].real == pytest.approx(math.cos(delta) / 4, abs=1e-15)
        np.testing.assert_allclose(np.abs(rho.entries), 0.25, atol=1e-15)

    def test_global_phase_dropped_by_projector(self):
        psi = canonical_state(0.9)
        for theta in (0.1, 1.7, 5.0):
            rotated = TwoQubitState(np.exp(1j * theta) * psi.amplitudes)
            np.testing.assert_allclose(
                density_from_state(rotated).entries,
                density_from_state(psi).entries,
                atol=1e-15,
            )

    def test_hermiticity_enforced(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.3
        with pytest.raises(InputDomainError):
            DensityMatrix(bad)

    def test_trace_enforced(self):
        with pytest.raises(InputDomainError):
            DensityMatrix(np.eye(4, dtype=complex))

    @pytest.mark.parametrize("entries, message", [
        (np.eye(3) / 3, r"density matrix must be 2x2 or 4x4, got \(3, 3\)"),
        (np.full((2, 4), 0.25), r"density matrix must be 2x2 or 4x4, got \(2, 4\)"),
        (np.full(4, 0.25), r"density matrix must be 2x2 or 4x4, got \(4,\)"),
        (np.array([[0.5, np.nan], [np.nan, 0.5]]), "density matrix entries must be finite"),
        (np.array([[0.5, 1j * np.inf], [-1j * np.inf, 0.5]]),
         "density matrix entries must be finite"),
    ])
    def test_shape_and_finiteness_enforced(self, entries, message):
        with pytest.raises(InputDomainError, match=f"^{message}$"):
            DensityMatrix(entries)

    def test_unnormalized_state_rejected(self):
        psi = initial_product_state()
        object.__setattr__(psi, "amplitudes", psi.amplitudes * 1.001)
        with pytest.raises(InputDomainError):
            density_from_state(psi)


class TestPartialTrace:
    def test_quarter_turn_gives_maximally_mixed(self):
        rho1 = partial_trace(canonical_rho(math.pi / 2), 1)
        np.testing.assert_allclose(rho1.entries, np.eye(2) / 2, atol=1e-15)

    def test_zero_phase_gives_pure_reduction(self):
        rho1 = partial_trace(canonical_rho(0.0), 1)
        np.testing.assert_allclose(rho1.entries, np.full((2, 2), 0.5), atol=1e-15)
        assert purity(rho1) == pytest.approx(1.0, abs=1e-15)

    def test_both_subsystems_equal_for_canonical_family(self):
        for delta in np.linspace(0.0, 4 * math.pi, 17):
            rho = canonical_rho(float(delta))
            np.testing.assert_allclose(
                partial_trace(rho, 1).entries, partial_trace(rho, 2).entries, atol=1e-15
            )

    def test_closed_form_oracle(self):
        # (1/2) [[1, cos d], [cos d, 1]]
        for delta in (0.3, 1.0, 2.5, 4.0):
            rho1 = partial_trace(canonical_rho(delta), 1)
            expected = 0.5 * np.array([[1.0, math.cos(delta)], [math.cos(delta), 1.0]])
            np.testing.assert_allclose(rho1.entries, expected, atol=1e-14)

    def test_subsystem_argument_validated(self):
        with pytest.raises(InputDomainError):
            partial_trace(canonical_rho(1.0), 3)

    def test_needs_full_matrix(self):
        rho1 = partial_trace(canonical_rho(1.0), 1)
        with pytest.raises(InputDomainError):
            partial_trace(rho1, 1)


class TestPurityAndLinearEntropy:
    def test_full_state_is_pure(self):
        for delta in (0.0, 0.7, math.pi, 5.5):
            assert purity(canonical_rho(delta)) == pytest.approx(1.0, abs=1e-14)

    def test_reduced_quarter_turn(self):
        rho1 = partial_trace(canonical_rho(math.pi / 2), 1)
        assert purity(rho1) == pytest.approx(0.5, abs=1e-14)

    def test_reduced_third_turn(self):
        rho1 = partial_trace(canonical_rho(math.pi / 3), 1)
        assert purity(rho1) == pytest.approx(0.625, rel=1e-12)
        # complement of the purity: 1 - 0.625, also (1 - cos^2(pi/3))/2
        assert linear_entropy(rho1) == pytest.approx(0.375, rel=1e-12)

    def test_linear_entropy_bounds_and_complement(self):
        for delta in np.linspace(0.0, 4 * math.pi, 101):
            rho1 = partial_trace(canonical_rho(float(delta)), 1)
            eps = linear_entropy(rho1)
            assert 0.0 <= eps <= 0.5 + 1e-15
            assert eps == 1.0 - purity(rho1)  # complement identity, exact

    def test_closed_form_purity_oracle(self):
        for delta in np.linspace(0.0, 4 * math.pi, 201):
            rho1 = partial_trace(canonical_rho(float(delta)), 1)
            expected = (1.0 + math.cos(delta) ** 2) / 2.0
            assert purity(rho1) == pytest.approx(expected, abs=1e-12)


class TestVonNeumannEntropy:
    def test_maximal_at_odd_quarter_turns(self):
        for n in range(4):
            delta = (2 * n + 1) * math.pi / 2
            nats, bits = von_neumann_entropy(partial_trace(canonical_rho(delta), 1))
            assert nats == pytest.approx(LN2, abs=1e-12)
            assert bits == pytest.approx(1.0, abs=1e-12)

    def test_zero_for_product_state(self):
        nats, bits = von_neumann_entropy(partial_trace(canonical_rho(0.0), 1))
        assert nats == pytest.approx(0.0, abs=1e-12)
        assert bits == pytest.approx(0.0, abs=1e-12)
        assert not math.copysign(1.0, nats) < 0  # never -0.0

    def test_third_turn_oracle(self):
        nats, bits = von_neumann_entropy(partial_trace(canonical_rho(math.pi / 3), 1))
        assert nats == pytest.approx(VN_PI_THIRD_NATS, rel=1e-12)
        assert bits == pytest.approx(VN_PI_THIRD_BITS, rel=1e-12)

    def test_eigenvalue_oracle_across_phases(self):
        # spectral route lam_pm = (1 pm cos d)/2 computed independently
        for delta in np.linspace(0.0, 2 * math.pi, 40):
            lam = np.array([(1 - math.cos(delta)) / 2, (1 + math.cos(delta)) / 2])
            lam = lam[lam > 0]
            expected = float(-np.sum(lam * np.log(lam)))
            nats, _ = von_neumann_entropy(partial_trace(canonical_rho(float(delta)), 1))
            assert nats == pytest.approx(expected, abs=1e-12)

    def test_positivity_violation_raises(self):
        rho = DensityMatrix(np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex))
        bad = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)
        object.__setattr__(rho, "entries", bad)
        with pytest.raises(PositivityError):
            von_neumann_entropy(rho)

    def test_extrema_locations(self):
        # maximal exactly at pi/2 mod pi, zero exactly at 0 mod pi
        for k in range(8):
            at_node = partial_trace(canonical_rho(k * math.pi), 1)
            assert von_neumann_entropy(at_node)[0] == pytest.approx(0.0, abs=1e-12)
            at_peak = partial_trace(canonical_rho(k * math.pi + math.pi / 2), 1)
            assert von_neumann_entropy(at_peak)[0] == pytest.approx(LN2, abs=1e-12)
            off_peak = partial_trace(canonical_rho(k * math.pi + 0.3), 1)
            assert von_neumann_entropy(off_peak)[0] < LN2 - 1e-3


class TestNearestMultipleDistance:
    @pytest.mark.parametrize(
        "value,period,expected",
        [
            (0.0, 2 * math.pi, 0.0),
            (2 * math.pi, 2 * math.pi, 0.0),
            (math.pi, 2 * math.pi, math.pi),
            (6 * math.pi + 0.1, 2 * math.pi, 0.1),
            (2 * math.pi - 1e-12, 2 * math.pi, 1e-12),
        ],
    )
    def test_examples(self, value, period, expected):
        assert nearest_multiple_distance(value, period) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("value, period, message", [
        (0.5, -2.0, "period must be positive, got -2.0"),
        (1.0, 0.0, "period must be positive, got 0.0"),
        (1.0, math.nan, "period must be finite, got nan"),
        (math.inf, 1.0, "value must be finite, got inf"),
        ("1", 1.0, "value must be a real number, got '1'"),
    ])
    def test_a_value_or_period_outside_its_domain_raises(self, value, period, message):
        """A negative period gave a negative distance, a zero period or an
        infinite value a bare ValueError from math.fmod."""
        with pytest.raises(InputDomainError, match=f"^{re.escape(message)}$"):
            nearest_multiple_distance(value, period)


class TestReport:
    def test_zero_time(self):
        rep = report(reference_system(), 0.0)
        assert rep.delta_phi == 0.0
        assert rep.epsilon == 0.0
        assert rep.entropy_nats == 0.0
        assert rep.separable_by_measures
        assert rep.separable_by_two_pi_criterion
        assert not rep.verdicts_disagree

    def test_a_passing_report_calls_no_adder(self, monkeypatch):
        """On floats a check that passes makes no call; one that fails calls
        the adder, which raises."""
        calls = []

        def add(*args):
            calls.append(args)
            model._raise(*args)

        monkeypatch.setattr(kernel._Floats, "add", add)
        report(reference_system(), 1.0)
        assert calls == []
        with pytest.raises(InputDomainError, match="tau must be non-negative"):
            report(reference_system(), -1.0)
        assert len(calls) == 1

    def test_report_is_a_frozen_value(self):
        """report() builds its return without the frozen __init__; it is the
        same value the constructor builds, field for field the kernel's."""
        sys, tau = reference_system(), 1e10  # delta_phi = 0.267 rad
        rep = report(sys, tau)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.epsilon = 0.0
        built = EntanglementReport(*dataclasses.astuple(rep))
        assert rep == built and hash(rep) == hash(built)
        assert pickle.loads(pickle.dumps(rep)) == rep
        outputs = kernel.evaluate_system(sys, tau)
        values = dict(zip(kernel._OUTPUTS, outputs))
        for field in dataclasses.fields(EntanglementReport):
            got, expected = getattr(rep, field.name), values[field.name]
            assert (type(got), got) == (type(expected), expected), field.name

    def test_half_turn_flags_disagree(self):
        rep = report_from_phases(PhaseSet(0.0, -math.pi, math.pi))
        assert rep.separable_by_measures
        assert not rep.separable_by_two_pi_criterion
        assert rep.verdicts_disagree

    def test_quarter_turn_maximal_entropy(self):
        rep = report_from_phases(PhaseSet(0.0, -math.pi / 2, math.pi / 2))
        assert rep.entropy_nats == pytest.approx(LN2, abs=1e-12)
        assert not rep.separable_by_measures
        assert not rep.separable_by_two_pi_criterion

    def test_full_pipeline_at_quarter_turn_time(self):
        from gravent.dynamics import delta_phi_to_tau

        sys = reference_system()
        tau = delta_phi_to_tau(sys, math.pi / 2)
        assert tau == pytest.approx(5.8837493324951554e10, rel=1e-9)
        rep = report(sys, tau)
        assert rep.entropy_nats == pytest.approx(LN2, abs=1e-9)

    def test_purity_fields_consistent(self):
        rep = report_from_phases(PhaseSet(0.0, -1.1, 1.1))
        assert rep.purity_full == pytest.approx(1.0, abs=1e-12)
        assert rep.purity_reduced == pytest.approx((1 + math.cos(1.1) ** 2) / 2, abs=1e-12)
        assert rep.epsilon == 1.0 - rep.purity_reduced
        assert rep.entropy_bits == pytest.approx(rep.entropy_nats / LN2, rel=1e-15)

    def test_global_phase_invariance_of_all_fields(self):
        base = report_from_phases(PhaseSet(0.0, -2.2, 2.2))
        for theta in (0.4, 2.0, 4.4):
            rotated = report_from_phases(PhaseSet(theta, theta - 2.2, 2.2))
            assert rotated.purity_full == pytest.approx(base.purity_full, abs=1e-14)
            assert rotated.purity_reduced == pytest.approx(base.purity_reduced, abs=1e-14)
            assert rotated.epsilon == pytest.approx(base.epsilon, abs=1e-14)
            assert rotated.entropy_nats == pytest.approx(base.entropy_nats, abs=1e-13)
            assert rotated.separable_by_measures == base.separable_by_measures
            assert rotated.separable_by_two_pi_criterion == base.separable_by_two_pi_criterion

    def test_two_pi_periodicity_of_measures(self):
        for delta in (0.3, 1.4, math.pi / 2):
            a = report_from_phases(PhaseSet(0.0, -delta, delta))
            b = report_from_phases(PhaseSet(0.0, -(delta + 2 * math.pi), delta + 2 * math.pi))
            assert b.purity_reduced == pytest.approx(a.purity_reduced, abs=1e-12)
            assert b.epsilon == pytest.approx(a.epsilon, abs=1e-12)
            assert b.entropy_nats == pytest.approx(a.entropy_nats, abs=1e-12)

    @given(delta=st.floats(min_value=0.0, max_value=4 * math.pi))
    @settings(max_examples=100)
    def test_state_positivity_and_traces(self, delta):
        rho = canonical_rho(delta)
        assert complex(np.trace(rho.entries)).real == pytest.approx(1.0, abs=1e-12)
        assert np.all(rho.eigenvalues() > -1e-12)
        for subsystem in (1, 2):
            reduced = partial_trace(rho, subsystem)
            assert complex(np.trace(reduced.entries)).real == pytest.approx(1.0, abs=1e-12)
            assert np.all(reduced.eigenvalues() > -1e-12)
            assert 0.5 - 1e-12 <= purity(reduced) <= 1.0 + 1e-12
