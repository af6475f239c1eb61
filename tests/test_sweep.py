import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from test_views import HBAR, POSITIVE
from gravent import kernel
from gravent.cli import rows_to_csv
from gravent.dynamics import delta_phi_to_tau
from gravent.errors import GraventError, InputDomainError, NoEntanglementError
from gravent.model import MassiveBody, PairSystem, PhysicalConstants, assess_validity
from gravent.measures import report
from gravent.sweep import (
    ROW_FIELD_NAMES,
    AxisSpec,
    SweepSpec,
    evaluate_point,
    run_sweep,
    time_to_max_entanglement,
)

C = PhysicalConstants()

FIXED = dict(m1=1e-14, m2=1e-14, omega1=1e5, omega2=1e5, d=1e-6, tau=1.0)

# (pi/2) / 2.66972e-11, 50-digit arithmetic
TAU_STAR_REF = 5.8837493324951553692e10


def reference_system(d=1e-6, constants=C):
    body = MassiveBody(1e-14, 0.0, 1e5)
    return PairSystem(body, body, d, constants)


class TestAxisSpec:
    def test_linear_values(self):
        np.testing.assert_allclose(
            AxisSpec(1.0, 3.0, 3).values(), [1.0, 2.0, 3.0], atol=0
        )

    def test_log_values(self):
        np.testing.assert_allclose(
            AxisSpec(1.0, 100.0, 3, "log").values(), [1.0, 10.0, 100.0], rtol=1e-12
        )

    def test_single_point(self):
        assert AxisSpec(5.0, 9.0, 1).values().tolist() == [5.0]

    def test_count_is_kept_as_its_int(self):
        assert type(AxisSpec(0.0, 1.0, np.int64(3)).count) is int

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(start=1.0, stop=2.0, count=0),
            dict(start=1.0, stop=2.0, count=2, spacing="cubic"),
            dict(start=-1.0, stop=2.0, count=2, spacing="log"),
            dict(start=math.inf, stop=2.0, count=2),
            dict(start=1.0, stop=2.0, count=2.5),
            dict(start="1", stop=2.0, count=3),
            dict(start=1.0, stop=10**400, count=3),
            dict(start=-1e308, stop=1e308, count=3),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InputDomainError):
            AxisSpec(**kwargs)


class TestSweepSpec:
    def test_unknown_parameter_rejected(self):
        with pytest.raises(InputDomainError):
            SweepSpec(axes={"mass3": AxisSpec(1, 2, 2)}, fixed=FIXED)

    def test_unknown_fixed_parameter_rejected(self):
        with pytest.raises(InputDomainError, match="^unknown fixed parameter 'mass3'$"):
            SweepSpec(axes={}, fixed={**FIXED, "mass3": 1.0})

    def test_missing_parameter_rejected(self):
        incomplete = {k: v for k, v in FIXED.items() if k != "d"}
        with pytest.raises(InputDomainError):
            SweepSpec(axes={}, fixed=incomplete)

    # numpy integer counts must not wrap in the product: at 2**32 each, an
    # int64 product is 0, which would pass the cap and build both axes
    @pytest.mark.parametrize("counts, total", [
        ((1001, 1000), 1001000),
        ((np.int64(2**32), np.int64(2**32)), 2**64),
    ])
    def test_grid_cap(self, counts, total):
        message = f"grid has {total} points, above the cap of 1000000"
        with pytest.raises(InputDomainError, match=f"^{message}$"):
            SweepSpec(
                axes={"tau": AxisSpec(1.0, 2.0, counts[0]), "d": AxisSpec(1e-6, 1e-5, counts[1])},
                fixed={k: v for k, v in FIXED.items() if k not in ("tau", "d")},
            )

    @pytest.mark.parametrize("kwargs, name", [
        (dict(axes={"tau": (1, 2, 3)}, fixed={k: v for k, v in FIXED.items() if k != "tau"}),
         "axis 'tau'"),
        (dict(axes={}, fixed=FIXED, constants=None), "constants"),
        (dict(axes=None, fixed=FIXED), "axes"),
        (dict(axes={}, fixed=None), "fixed"),
    ])
    def test_part_of_the_wrong_type_rejected(self, kwargs, name):
        with pytest.raises(InputDomainError, match=f"^{name} "):
            SweepSpec(**kwargs)

    def test_grid_indexing_row_major(self):
        spec = SweepSpec(
            axes={"m1": AxisSpec(1e-14, 2e-14, 2), "tau": AxisSpec(1.0, 3.0, 3)},
            fixed={k: v for k, v in FIXED.items() if k not in ("m1", "tau")},
        )
        assert spec.grid_size() == 6
        points = [spec.point(i) for i in range(6)]
        assert [p["tau"] for p in points] == [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
        assert [p["m1"] for p in points] == [1e-14] * 3 + [2e-14] * 3


class TestRunSweep:
    def test_single_point_matches_direct_report(self):
        spec = SweepSpec(axes={}, fixed=FIXED)
        rows = run_sweep(spec)
        assert len(rows) == 1
        row = rows[0]
        direct = report(reference_system(), 1.0)
        assert row.delta_phi == direct.delta_phi
        assert row.entropy_nats == direct.entropy_nats
        assert row.epsilon == direct.epsilon
        assert row.status == "ok"

    def test_tau_sweep_exactly_linear(self):
        spec = SweepSpec(
            axes={"tau": AxisSpec(1.0, 10.0, 10)},
            fixed={k: v for k, v in FIXED.items() if k != "tau"},
        )
        rows = run_sweep(spec)
        rate = report(reference_system(), 1.0).delta_phi
        for row in rows:
            assert row.delta_phi == rate * row.tau

    def test_d_sweep_inverse_cube_slope(self):
        spec = SweepSpec(
            axes={"d": AxisSpec(1e-6, 1e-5, 12, "log")},
            fixed={k: v for k, v in FIXED.items() if k != "d"},
        )
        rows = run_sweep(spec)
        ds = np.array([r.d for r in rows])
        phis = np.array([r.delta_phi for r in rows])
        slope = np.polyfit(np.log(ds), np.log(phis), 1)[0]
        assert slope == pytest.approx(-3.0, abs=0.01)

    def test_rows_deterministic_and_worker_independent(self):
        spec = SweepSpec(
            axes={"tau": AxisSpec(0.5, 4.0, 8), "d": AxisSpec(1e-6, 2e-6, 3)},
            fixed={k: v for k, v in FIXED.items() if k not in ("tau", "d")},
        )
        serial_a = run_sweep(spec, workers=1)
        serial_b = run_sweep(spec, workers=1)
        threaded = run_sweep(spec, workers=4)
        assert serial_a == serial_b
        assert serial_a == threaded
        assert [r.index for r in serial_a] == list(range(24))

    def test_out_of_regime_rows_flagged_not_dropped(self):
        # crosses the 0.1 threshold while staying inside the x < 1
        # convergence domain
        spec = SweepSpec(
            axes={"d": AxisSpec(1e-12, 1e-6, 8, "log")},
            fixed={k: v for k, v in FIXED.items() if k != "d"},
        )
        rows = run_sweep(spec)
        assert len(rows) == 8
        regimes = [r.in_regime for r in rows]
        assert not all(regimes) and any(regimes)
        assert all(r.status == "ok" for r in rows)

    def test_divergent_expansion_points_become_error_rows(self):
        spec = SweepSpec(
            axes={"d": AxisSpec(1e-13, 1e-6, 4, "log")},
            fixed={k: v for k, v in FIXED.items() if k != "d"},
        )
        rows = run_sweep(spec)
        assert rows[0].status.startswith("error: ConvergenceDomainError")
        assert rows[-1].status == "ok"

    def test_failed_points_recorded_not_raised(self):
        spec = SweepSpec(
            axes={"tau": AxisSpec(-1.0, 1.0, 3)},
            fixed={k: v for k, v in FIXED.items() if k != "tau"},
        )
        rows = run_sweep(spec)
        assert len(rows) == 3
        assert rows[0].status.startswith("error: InputDomainError")
        assert math.isnan(rows[0].delta_phi)
        assert rows[2].status == "ok"

    def test_result_compares_only_with_rows(self):
        result = run_sweep(SweepSpec(axes={}, fixed=FIXED))
        assert result.__eq__("rows") is NotImplemented
        assert result != "rows"
        assert result == list(result)

    def test_bad_worker_count(self):
        for workers in (0, "2", 1.5):
            with pytest.raises(InputDomainError, match="^workers "):
                run_sweep(SweepSpec(axes={}, fixed=FIXED), workers=workers)

    def test_row_field_order_stable(self):
        assert ROW_FIELD_NAMES[:9] == (
            "index", "m1", "m2", "r1", "r2", "omega1", "omega2", "d", "tau",
        )
        assert ROW_FIELD_NAMES[-1] == "status"


class TestValuesKeptAsTheirFloats:
    """A fixed value, radius or regime threshold of any real number type is
    checked, evaluated and written as its float."""

    @pytest.mark.parametrize("kwargs, status, column, value", [
        (dict(regime_threshold=Fraction(1, 3)), "ok", "regime_threshold", 1 / 3),
        (dict(regime_threshold=np.longdouble("1e-400")),
         "error: InputDomainError: threshold must be positive, got 0.0", "regime_threshold",
         math.nan),
        (dict(r1=Fraction(-1, 10**400)), "ok", "r1", -0.0),
        (dict(fixed={**FIXED, "tau": Fraction(1, 3)}), "ok", "tau", 1 / 3),
    ], ids=["fraction-threshold", "underflowing-threshold", "underflowing-radius", "fraction-tau"])
    def test_row_carries_the_float(self, kwargs, status, column, value):
        spec = SweepSpec(**{"axes": {}, "fixed": FIXED, **kwargs})
        result = run_sweep(spec)
        (row,) = result
        assert row.status == status
        assert all(type(v) is float for v in (*spec.fixed.values(), spec.r1, spec.regime_threshold))
        assert np.float64(getattr(row, column)).tobytes() == np.float64(value).tobytes()
        float_spec = SweepSpec(
            axes={}, fixed={name: float(v) for name, v in spec.fixed.items()},
            r1=float(spec.r1), r2=float(spec.r2),
            regime_threshold=float(spec.regime_threshold),
        )
        assert rows_to_csv(result) == rows_to_csv(run_sweep(float_spec))

    def test_assess_validity_takes_the_float_threshold(self):
        check = assess_validity(reference_system(), np.longdouble("0.5"))
        assert type(check.threshold) is float and type(check.in_regime) is bool
        assert check.in_regime
        with pytest.raises(InputDomainError, match="^threshold must be positive, got 0.0$"):
            assess_validity(reference_system(), np.longdouble("1e-400"))


class TestEvaluatePoint:
    def test_radii_carried_through(self):
        row = evaluate_point(3, FIXED, r1=1e-9, r2=2e-9, constants=C)
        assert (row.index, row.r1, row.r2) == (3, 1e-9, 2e-9)
        assert row.status == "ok"

    def test_constants_respected(self):
        row = evaluate_point(
            0, FIXED, 0.0, 0.0, PhysicalConstants(hbar=10 * C.hbar)
        )
        base = evaluate_point(0, FIXED, 0.0, 0.0, C)
        assert row.delta_phi == base.delta_phi  # hbar-free observable
        assert row.ratio_x != base.ratio_x

    @pytest.mark.parametrize("index, message", [
        ("x", "must be an integer, got 'x'"),
        (1.5, "must be an integer, got 1.5"),
        (True, "must be an integer, got True"),
        (None, "must be an integer, got None"),
        (-1, "must be >= 0, got -1"),
    ], ids=["str", "float", "bool", "none", "negative"])
    def test_index_must_be_a_grid_index(self, index, message):
        with pytest.raises(InputDomainError, match=f"^index {message}$"):
            evaluate_point(index, FIXED, 0.0, 0.0, C)

    def test_numpy_integer_index(self):
        assert evaluate_point(np.int64(4), FIXED, 0.0, 0.0, C).index == 4


class TestTimeToMaxEntanglement:
    def test_reference_value(self):
        assert time_to_max_entanglement(reference_system()) == pytest.approx(
            TAU_STAR_REF, rel=1e-12
        )

    def test_doubling_distance_scales_by_eight(self):
        base = time_to_max_entanglement(reference_system(d=1e-6))
        doubled = time_to_max_entanglement(reference_system(d=2e-6))
        assert doubled == 8.0 * base

    def test_closure_through_full_pipeline(self):
        sys = reference_system()
        rep = report(sys, time_to_max_entanglement(sys))
        assert rep.entropy_nats == pytest.approx(math.log(2.0), abs=1e-9)

    def test_fails_at_tau_star_only(self):
        # A rate of 1.33e-130 rad/s: the branch phase overflows at tau*, not at 1 s.
        body = MassiveBody(1e100, 0.0, 1e100)
        sys = PairSystem(body, body, 1e40)
        assert report(sys, 1.0).delta_phi == pytest.approx(1.3349e-130, rel=1e-4)
        with pytest.raises(InputDomainError, match=r"^phi must be finite, got -inf$"):
            time_to_max_entanglement(sys)

    def test_rate_overflow_raises_report_modes_error_at_tau_star_zero(self):
        # The potential and the rate overflow to inf: tau* = (pi/2)/inf = 0,
        # where phi is -inf*0 = nan, and the error raised is report mode's
        # at tau = 0.
        body = MassiveBody(1e160, 0.0, 1.0)
        sys = PairSystem(body, body, 1.0)
        with pytest.raises(InputDomainError, match=r"^phi must be finite, got nan$"):
            report(sys, 0.0)
        for call in (time_to_max_entanglement, lambda s: delta_phi_to_tau(s, math.pi / 2)):
            with pytest.raises(InputDomainError, match=r"^phi must be finite, got nan$") as info:
                call(sys)
            assert info.value.__context__ is None and info.value.__cause__ is None

    def test_nan_rate_raises_report_modes_error_at_tau_nan(self):
        # m*omega and m1*m2 overflow to inf: the bracket is 0 and the rate
        # inf*0 = nan, so the solved time is nan, and the error raised is
        # report mode's at tau = nan.
        body = MassiveBody(1e200, 0.0, 1e200)
        sys = PairSystem(body, body, 1e100)
        with pytest.raises(InputDomainError, match=r"^tau must be finite, got nan$"):
            report(sys, math.nan)
        for call in (time_to_max_entanglement, lambda s: delta_phi_to_tau(s, 1.0)):
            with pytest.raises(InputDomainError, match=r"^tau must be finite, got nan$"):
                call(sys)

    def test_no_entanglement_error(self):
        sys = reference_system(constants=PhysicalConstants(hbar=0.0))
        with pytest.raises(NoEntanglementError):
            time_to_max_entanglement(sys)

    @settings(max_examples=300, deadline=None)
    @given(m1=POSITIVE, m2=POSITIVE, w1=POSITIVE, w2=POSITIVE, d=POSITIVE, hbar=HBAR)
    def test_a_system_failing_at_tau_zero_fails_at_one_second(self, m1, m2, w1, w2, d, hbar):
        # Where a system fails report mode's checks at tau = 0, it fails
        # them at 1 s too: a check that depends on tau fails at 0 only where
        # the potential or the rate is not finite, and then at every tau.
        sys = PairSystem(MassiveBody(m1, 0.0, w1), MassiveBody(m2, 0.0, w2), d,
                         PhysicalConstants(hbar=hbar))
        try:
            kernel.evaluate_system(sys, 0.0)
        except GraventError:
            with pytest.raises(GraventError):
                kernel.evaluate_system(sys, 1.0)


def _bits(row):
    """Each field of ``row`` with its type, a float by its bits."""
    return [
        (type(value), np.float64(value).tobytes() if isinstance(value, float) else value)
        for value in (getattr(row, name) for name in ROW_FIELD_NAMES)
    ]


class TestAxisFromItsEndpoints:
    """Every axis is float64, built from its endpoints as floats, whatever
    their number type and whatever the count."""

    # d*d*d of an int64 3e6 wraps; -0.0 keeps its sign
    @pytest.mark.parametrize("d", [3_000_000, -0.0])
    def test_one_point_axis_is_the_fixed_value(self, d):
        fixed = {k: v for k, v in FIXED.items() if k != "d"}
        (row,) = run_sweep(SweepSpec(axes={"d": AxisSpec(d, d, 1)}, fixed=fixed))
        (float_row,) = run_sweep(SweepSpec(axes={"d": AxisSpec(float(d), 1.0, 1)}, fixed=fixed))
        single = evaluate_point(0, {**fixed, "d": float(d)}, 0.0, 0.0, C)
        assert _bits(row) == _bits(float_row) == _bits(single)

    def test_uint64_range_separation_is_a_float(self):
        fixed = {k: v for k, v in FIXED.items() if k != "d"}
        (row,) = run_sweep(SweepSpec(axes={"d": AxisSpec(2**63, 2**63, 1)}, fixed=fixed))
        assert "FloatRangeError" not in row.status
        assert type(row.d) is float and row.d == 2.0**63

    def test_endpoints_past_uint64_sweep(self):
        fixed = {k: v for k, v in FIXED.items() if k != "tau"}
        rows = list(run_sweep(SweepSpec(axes={"tau": AxisSpec(2**64, 2**65, 3)}, fixed=fixed)))
        assert [row.tau for row in rows] == [2.0**64, 1.5 * 2.0**64, 2.0**65]
        assert all(type(row.tau) is float for row in rows)

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_endpoints_are_exact(self, spacing):
        start = 0.1 if spacing == "log" else -0.0
        values = AxisSpec(start, 7.3, 4, spacing).values()
        assert values.dtype == np.float64
        assert values[0].tobytes() == np.float64(start).tobytes()
        assert values[-1] == 7.3


class TestIndexOutsideTheGrid:
    SPEC = SweepSpec(axes={"tau": AxisSpec(1.0, 3.0, 3)},
                     fixed={k: v for k, v in FIXED.items() if k != "tau"})

    @pytest.mark.parametrize("index", [3, 5, -4])
    def test_point_raises_as_the_result_does(self, index):
        with pytest.raises(IndexError):
            run_sweep(self.SPEC)[index]
        with pytest.raises(IndexError):
            self.SPEC.point(index)

    def test_negative_index_counts_from_the_end(self):
        assert self.SPEC.point(-1) == self.SPEC.point(2) == {**FIXED, "tau": 3.0}


class TestBoolIsNotACount:
    def test_axis_count(self):
        with pytest.raises(InputDomainError, match="^count must be an integer, got True"):
            AxisSpec(1.0, 2.0, True)

    def test_workers(self):
        with pytest.raises(InputDomainError, match="^workers must be an integer, got True"):
            run_sweep(SweepSpec(axes={}, fixed=FIXED), workers=True)
