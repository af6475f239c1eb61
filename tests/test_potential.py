import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gravent.errors import (
    ConvergenceDomainError,
    InputDomainError,
    RegimeWarning,
)
from gravent.model import MassiveBody, PairSystem, PhysicalConstants, zero_point_width
from gravent.potential import (
    FORCE_CLOSED_FORM_UNIT,
    corrected_potential,
    entanglement_force,
    expand_potential,
    quantum_correction,
)
from oracles import SingularityError, exact_size_corrected_potential, newtonian_potential

C = PhysicalConstants()

# 50-digit oracle values for the reference scenario
# m1 = m2 = 1e-14 kg, omega1 = omega2 = 1e5 rad/s, d = 1e-6 m
DVG_REF = -2.81541147128124e-45          # J
FORCE_GRADIENT_REF = 8.44623441384372e-39  # N, = 3*|DVG_REF|/d
FORCE_CLOSED_FORM_REF = 2.81541147128124e-50   # J*s, fixed bracket expression
# -G*m_sun*m_earth-style pair: 5.972e24 kg, 1.989e30 kg at 1.496e11 m
SUN_EARTH_REF = -5.2994245377272727273e33  # J
# -G*(1e-14)^2/(1e-6 + 6.5e-13)
EXACT_SIZE_REF = -6.6742956617078198899e-33  # J


def make_system(m1=1e-14, m2=1e-14, w1=1e5, w2=1e5, d=1e-6, constants=C):
    return PairSystem(
        MassiveBody(m1, 0.0, w1), MassiveBody(m2, 0.0, w2), d, constants
    )


def random_valid_systems(n, seed=20260808):
    """Systems with the displacement ratio safely inside the regime."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        m1 = 10.0 ** rng.uniform(-18, -10)
        m2 = 10.0 ** rng.uniform(-18, -10)
        w1 = 10.0 ** rng.uniform(3, 8)
        w2 = 10.0 ** rng.uniform(3, 8)
        dr = math.sqrt(C.hbar / (m1 * w1)) + math.sqrt(C.hbar / (m2 * w2))
        x = 10.0 ** rng.uniform(-6, -1.05)
        out.append(make_system(m1, m2, w1, w2, d=dr / x))
    return out


class TestNewtonian:
    def test_unit_masses_at_unit_distance(self):
        assert newtonian_potential(1.0, 1.0, 1.0, C) == -C.G

    def test_zero_mass_gives_zero(self):
        assert newtonian_potential(0.0, 1.0, 1.0, C) == 0.0

    def test_planetary_scale(self):
        value = newtonian_potential(5.972e24, 1.989e30, 1.496e11, C)
        assert value == pytest.approx(SUN_EARTH_REF, rel=1e-12)

    @pytest.mark.parametrize("d", [0.0, -1.0])
    def test_nonpositive_distance_rejected(self, d):
        with pytest.raises(InputDomainError):
            newtonian_potential(1.0, 1.0, d, C)

    def test_negative_mass_rejected(self):
        with pytest.raises(InputDomainError):
            newtonian_potential(-1.0, 1.0, 1.0, C)


class TestExactSizeCorrected:
    def test_zero_displacement_reduces_to_newtonian(self):
        sys = make_system()
        assert exact_size_corrected_potential(sys, 0.0, 0.0) == newtonian_potential(
            1e-14, 1e-14, 1e-6, C
        )

    def test_displacement_equal_to_separation_halves(self):
        sys = make_system(d=1e-6)
        v = exact_size_corrected_potential(sys, 5e-7, 5e-7)
        assert v == pytest.approx(newtonian_potential(1e-14, 1e-14, 1e-6, C) / 2, rel=1e-15)

    def test_reference_oracle(self):
        sys = make_system()
        v = exact_size_corrected_potential(sys, 3.25e-13, 3.25e-13)
        assert v == pytest.approx(EXACT_SIZE_REF, rel=1e-12)

    def test_singularity(self):
        sys = make_system(d=1e-6)
        with pytest.raises(SingularityError):
            exact_size_corrected_potential(sys, -5e-7, -5e-7)


class TestExpansion:
    def test_zero_displacement(self):
        sys = make_system()
        terms = expand_potential(sys, 0.0, 4)
        v0 = newtonian_potential(1e-14, 1e-14, 1e-6, C)
        assert terms[0].value == v0
        assert all(t.value == 0.0 for t in terms[1:])

    @given(
        masses=st.tuples(*[st.floats(min_value=1e-40, max_value=1e40)] * 4),
        d=st.floats(min_value=1e-20, max_value=1e20),
        hbar=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
        fraction=st.floats(min_value=-0.99, max_value=0.99),
        order=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_zeroth_term_is_the_newtonian_oracle_bit_for_bit(self, masses, d, hbar, fraction, order):
        m1, m2, w1, w2 = masses
        c = PhysicalConstants(hbar=hbar)
        sys = make_system(m1, m2, w1, w2, d, c)
        v0 = expand_potential(sys, fraction * d, order)[0].value
        assert v0.hex() == newtonian_potential(m1, m2, d, c).hex()

    def test_sign_pattern(self):
        sys = make_system(d=1e-6)
        x = 0.01
        terms = expand_potential(sys, x * 1e-6, 3)
        assert terms[1].value / terms[0].value == pytest.approx(-x, rel=1e-12)
        assert terms[2].value / terms[0].value == pytest.approx(x * x, rel=1e-12)
        assert terms[3].value / terms[0].value == pytest.approx(-(x**3), rel=1e-12)

    def test_linear_term_flagged_absorbable(self):
        terms = expand_potential(make_system(), 1e-9, 5)
        assert [t.absorbable for t in terms] == [False, True, False, False, False, False]
        assert [t.order for t in terms] == list(range(6))

    def test_partial_sums_converge_to_exact(self):
        sys = make_system(d=1e-6)
        dr_sum = 0.01 * 1e-6
        exact = exact_size_corrected_potential(sys, dr_sum / 2, dr_sum / 2)
        residuals = []
        for order in range(0, 4):
            partial = sum(t.value for t in expand_potential(sys, dr_sum, order))
            residuals.append(abs(partial - exact))
        # each added order shrinks the residual by ~x = 1e-2
        for a, b in zip(residuals, residuals[1:]):
            assert b < 0.02 * a

    def test_convergence_domain(self):
        sys = make_system(d=1e-6)
        message = "|dr_sum/d| = 1.0 >= 1: geometric expansion diverges"
        with pytest.raises(ConvergenceDomainError, match=f"^{re.escape(message)}$"):
            expand_potential(sys, 1e-6, 2)

    def test_residual_order_three_scaling(self):
        # log-log slope of |exact - 2nd order partial sum| vs x
        sys = make_system(d=1e-6)
        xs = np.array([1e-2, 5e-3, 2.5e-3])
        residuals = []
        for x in xs:
            dr_sum = x * 1e-6
            exact = exact_size_corrected_potential(sys, dr_sum, 0.0)
            partial = sum(t.value for t in expand_potential(sys, dr_sum, 2))
            residuals.append(abs(partial - exact))
        slope = np.polyfit(np.log(xs), np.log(residuals), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.1)

    @given(x=st.floats(min_value=2.0**-20, max_value=1.0 - 2.0**-20))
    @example(x=0.1)
    @settings(max_examples=200)
    def test_truncation_error_is_exactly_x(self, x):
        """Past order 2, the terms of V0/(1 + x) sum to -x/(1 + x) of the
        quadratic term V0*x**2, so that term is off by exactly x relative to
        the all-orders sum V0*x**2/(1 + x). At 50 digits (2**-168 relative),
        taking the tail out of the un-expanded potential cancels |V0|/|tail|
        = 1/x**3 <= 2**60, which leaves about 2**-106 of the tail: 1e-30
        bounds it."""
        with mpmath.workdps(50):
            v0, x = mpmath.mpf(-1), mpmath.mpf(x)  # V0 scales out
            exact = v0 / (1 + x)
            quadratic = v0 * x**2
            tail = exact - (v0 - v0 * x + quadratic)
            assert abs(tail / quadratic + x / (1 + x)) <= 1e-30 * x
            all_orders = exact - (v0 - v0 * x)
            assert abs((quadratic - all_orders) / all_orders - x) <= 1e-30 * x

    @given(
        x=st.floats(min_value=1e-80, max_value=1.0 - 2.0**-20),
        d=st.floats(min_value=1e-10, max_value=1e10),
    )
    @settings(max_examples=300)
    def test_terms_plus_closed_form_tail_give_the_exact_potential(self, x, d):
        """With x = dr/d, V0 = -K/d and K = G*m1*m2 (both sides form K with
        the same roundings), sum(terms to order 2) - t2*x/(1 + x) equals
        -K/(d + dr) within 16u*T, where u = 2**-53 and T = |V0|/(1 + x) is
        the potential's magnitude.

        Each rounding is at most u of its result (pow at most one ulp, 2u),
        and with the rounded v0 and x the sum is exactly v0/(1 + x). In units
        of u*T, |V0| being (1 + x)*T:
        - v0 = K/d and x = dr/d: 1 + x/(1 + x) <= 1.5;
        - t1 = v0*(-x): x*(1 + x) <= 2;
        - t2 = v0*(-x)**2, 3u (pow, product), which enters the tail too:
          net 3*x**2 <= 3;
        - sum's two additions, t0 + t1 and then + t2: (1 - x**2) + (1 + x**3)
          <= 1 + 2 (compensated summation, Python 3.12+, is no worse);
        - the tail's own 3 roundings (t2*x, 1 + x, the division): 3*x**3 <= 3;
        - adding the tail: 1; the oracle's d + dr and its division: 2.
        The first-order sum is 15.5; second-order terms are O(u).
        d in [1e-10, 1e10] and x >= 1e-80 keep every value normal.
        """
        sys = make_system(d=d)
        dr = x * d
        terms = expand_potential(sys, dr, 2)
        x = dr / sys.separation_d  # the ratio expand_potential forms
        tail = -terms[2].value * x / (1.0 + x)
        total = sum(t.value for t in terms) + tail
        exact = exact_size_corrected_potential(sys, dr, 0.0)
        assert abs(total - exact) <= 16 * 2.0**-53 * abs(exact)


class TestQuantumCorrection:
    def test_reference_oracle(self):
        assert quantum_correction(make_system()) == pytest.approx(DVG_REF, rel=1e-12)

    def test_always_nonpositive(self):
        for sys in random_valid_systems(20):
            assert quantum_correction(sys) < 0.0

    def test_stiff_oscillators_suppress_correction(self):
        soft = abs(quantum_correction(make_system(w1=1e5, w2=1e5)))
        stiff = abs(quantum_correction(make_system(w1=1e30, w2=1e30)))
        assert stiff < soft * 1e-24
        assert abs(quantum_correction(make_system(w1=1e80, w2=1e80))) < 1e-115

    def test_width_identity(self):
        # same number through the independent route -(G m1 m2/d^3)(dr1+dr2)^2
        for sys in random_valid_systems(50):
            dr1 = zero_point_width(sys.body1.mass, sys.body1.omega, C)
            dr2 = zero_point_width(sys.body2.mass, sys.body2.omega, C)
            oracle = -(C.G * sys.body1.mass * sys.body2.mass / sys.separation_d**3) * (
                dr1 + dr2
            ) ** 2
            assert quantum_correction(sys) == pytest.approx(oracle, rel=1e-12)

    def test_swapping_bodies_is_exact_symmetry(self):
        sys = make_system(m1=2e-14, m2=7e-13, w1=3e5, w2=9e4)
        assert quantum_correction(sys) == quantum_correction(sys.swapped())

    @given(scale=st.floats(min_value=1.1, max_value=100.0))
    @settings(max_examples=40)
    def test_magnitude_decreases_with_d_and_omega(self, scale):
        base = abs(quantum_correction(make_system()))
        assert abs(quantum_correction(make_system(d=1e-6 * scale))) < base
        assert abs(quantum_correction(make_system(w1=1e5 * scale))) < base
        assert abs(quantum_correction(make_system(w2=1e5 * scale))) < base


class TestCorrectedPotential:
    def test_classical_limit_is_exact(self):
        sys = make_system(constants=PhysicalConstants(hbar=0.0))
        breakdown = corrected_potential(sys)
        assert breakdown.delta_v_g == 0.0
        assert breakdown.v_g_total == breakdown.v0

    def test_recomposition(self):
        sys = make_system()
        breakdown = corrected_potential(sys)
        v0 = newtonian_potential(1e-14, 1e-14, 1e-6, C)
        assert breakdown.v0 == v0
        assert breakdown.series_terms[0].value == v0
        assert breakdown.delta_v_g == quantum_correction(sys)
        assert breakdown.v_g_total == v0 + quantum_correction(sys)
        assert [t.order for t in breakdown.series_terms] == [0, 1, 2]
        third_order = expand_potential(sys, 2 * zero_point_width(1e-14, 1e5, C), 3)
        assert third_order[:3] == breakdown.series_terms
        assert len(third_order) == 4

    def test_truncated_form_matches_total(self):
        breakdown = corrected_potential(make_system())
        assert breakdown.v_truncated == pytest.approx(breakdown.v_g_total, rel=1e-12)

    def test_ratio_to_classical_is_x_squared(self):
        from gravent.model import assess_validity

        sys = make_system()
        breakdown = corrected_potential(sys)
        x = assess_validity(sys).ratio_x
        assert abs(breakdown.delta_v_g / breakdown.v0) == pytest.approx(x * x, rel=1e-12)

    def test_out_of_regime_warns_not_raises(self):
        sys = make_system(d=4 * 3.2474171536776731e-13)  # x = 0.5
        with pytest.warns(RegimeWarning):
            breakdown = corrected_potential(sys)
        assert math.isfinite(breakdown.v_g_total)


class TestEntanglementForce:
    def test_reference_values(self):
        force = entanglement_force(make_system())
        assert force.gradient_based == pytest.approx(FORCE_GRADIENT_REF, rel=1e-12)
        assert force.closed_form == pytest.approx(FORCE_CLOSED_FORM_REF, rel=1e-12)
        assert force.closed_form_unit == FORCE_CLOSED_FORM_UNIT

    def test_symmetric_bracket_reduces_to_four_over_m_omega_squared(self):
        m, w, d = 1e-14, 1e5, 1e-6
        force = entanglement_force(make_system(m1=m, m2=m, w1=w, w2=w, d=d))
        expected = (C.hbar * C.G * m * m / d**3) * 4.0 / (m * w * w)
        assert force.closed_form == pytest.approx(expected, rel=1e-12)

    def test_stiff_oscillators_suppress_both_routes(self):
        force = entanglement_force(make_system(w1=1e80, w2=1e80))
        assert abs(force.closed_form) < 1e-195
        assert abs(force.gradient_based) < 1e-110

    def test_gradient_matches_central_finite_difference(self):
        for sys in random_valid_systems(20, seed=7):
            d = sys.separation_d
            h = 1e-6 * d
            up = quantum_correction(make_system(
                sys.body1.mass, sys.body2.mass, sys.body1.omega, sys.body2.omega, d + h))
            down = quantum_correction(make_system(
                sys.body1.mass, sys.body2.mass, sys.body1.omega, sys.body2.omega, d - h))
            fd = -(up - down) / (2 * h)
            force = entanglement_force(sys)
            assert force.gradient_based == pytest.approx(abs(fd), rel=1e-6)
            # the analytic gradient is attractive-restoring: -d(dVg)/dd < 0
            assert fd < 0

    def test_symmetrize_switch(self):
        asym = make_system(m1=1e-14, m2=9e-13, w1=2e5, w2=7e4)
        unaltered = entanglement_force(asym, symmetrize=False)
        fixed = entanglement_force(asym, symmetrize=True)
        assert unaltered.closed_form != fixed.closed_form
        assert unaltered.gradient_based == fixed.gradient_based
        assert entanglement_force(asym, symmetrize=np.bool_(True)) == fixed
        for flag in ("false", 0, None):
            with pytest.raises(InputDomainError, match="^symmetrize must be a bool"):
                entanglement_force(asym, symmetrize=flag)
        m1, m2 = asym.body1.mass, asym.body2.mass
        w1, w2 = asym.body1.omega, asym.body2.omega
        d = asym.separation_d
        bracket = (
            1 / (m1 * w1**2) + 1 / (m2 * w2**2)
            + (1 / math.sqrt(m1 * m2)) * (1 / math.sqrt(w1**3 * w2) + 1 / math.sqrt(w1 * w2**3))
        )
        assert fixed.closed_form == pytest.approx(
            C.hbar * C.G * m1 * m2 / d**3 * bracket, rel=1e-12
        )

    def test_symmetric_system_immune_to_switch(self):
        sys = make_system()
        assert entanglement_force(sys, False).closed_form == entanglement_force(sys, True).closed_form

    def test_swap_symmetry_of_gradient_route(self):
        sys = make_system(m1=2e-14, m2=7e-13, w1=3e5, w2=9e4)
        assert entanglement_force(sys).gradient_based == entanglement_force(sys.swapped()).gradient_based


SYSTEM = make_system()


@pytest.mark.parametrize("call, message", [
    (lambda: expand_potential(SYSTEM, 0.0, "2"), "max_order must be an integer, got '2'"),
    (lambda: expand_potential(SYSTEM, 0.0, 2.5), "max_order must be an integer, got 2.5"),
    (lambda: expand_potential(SYSTEM, 0.0, -1), "max_order must be >= 0, got -1"),
    (lambda: expand_potential(SYSTEM, math.nan, 2), "dr_sum must be finite"),
    (lambda: exact_size_corrected_potential(SYSTEM, "1", 0.0), "dr1 must be a real number"),
    (lambda: exact_size_corrected_potential(SYSTEM, 10**400, 0.0),
     "dr1 is outside the float64 range"),
    (lambda: exact_size_corrected_potential(SYSTEM, 0.0, math.nan), "dr2 must be finite, got nan"),
    (lambda: exact_size_corrected_potential(SYSTEM, math.inf, 0.0), "dr1 must be finite, got inf"),
])
def test_bad_order_or_displacement_is_an_input_domain_error(call, message):
    with pytest.raises(InputDomainError, match=f"^{re.escape(message)}"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: expand_potential(SYSTEM, 0.0, True), "max_order must be an integer, got True"),
    (lambda: expand_potential(SYSTEM, 0.0, False), "max_order must be an integer, got False"),
])
def test_a_bool_is_not_an_order(call, message):
    with pytest.raises(InputDomainError, match=f"^{re.escape(message)}"):
        call()
