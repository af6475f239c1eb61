"""Tests of the benchmark's independent checker.

    python3 -m pytest benchmarks/tests -q
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import checker  # noqa: E402
import workloads  # noqa: E402

REFERENCE = {"m1": 1e-14, "m2": 1e-14, "omega1": 1e5, "omega2": 1e5, "d": 1e-6, "tau": 1.0}
THRESHOLD = 0.1


def inputs(point, r1=0.0, r2=0.0):
    return {**point, "r1": r1, "r2": r2}


def reference(point, threshold=THRESHOLD):
    return checker.point_reference(
        point["m1"], point["m2"], point["omega1"], point["omega2"], point["d"], point["tau"],
        threshold=threshold,
    )


def reference_row(index, point, ref, threshold=THRESHOLD):
    """A row carrying exactly the reference values, as gravent would write it."""
    m = ref.measures
    values = {
        "index": index, **inputs(point),
        "ratio_x": ref.ratio_x, "in_regime": ref.in_regime, "regime_threshold": threshold,
        "delta_phi": m.delta_phi, "purity_full": 1.0, "purity_reduced": m.purity_reduced,
        "epsilon": m.epsilon, "entropy_nats": m.entropy_nats,
        "entropy_bits": m.entropy_nats / math.log(2.0),
        "separable_by_measures": m.separable_by_measures,
        "separable_by_two_pi_criterion": m.separable_by_two_pi_criterion,
        "force_closed_form": ref.force_closed_form, "force_closed_form_unit": "J*s",
        "force_gradient": ref.force_gradient, "status": "ok",
    }
    return {name: values[name] for name in checker.ROW_FIELDS}


def check(row, point, ref, index=0):
    return checker.check_row(row, index, inputs(point), ref, threshold=THRESHOLD)


def test_reference_scenario_values():
    m = reference(REFERENCE).measures
    assert m.delta_phi == pytest.approx(2.6697e-11, rel=1e-4)
    assert m.epsilon == pytest.approx(3.56e-22, rel=1e-2)
    assert m.entropy_nats == pytest.approx(9.10e-21, rel=1e-2)


def test_accepts_mpmath_values():
    ref = reference(REFERENCE)
    assert check(reference_row(0, REFERENCE, ref), REFERENCE, ref) == (checker.OK, [])


def test_flags_zero_epsilon_at_reference_scenario():
    ref = reference(REFERENCE)
    row = reference_row(0, REFERENCE, ref)
    row.update(epsilon=0.0, entropy_nats=0.0, entropy_bits=0.0, purity_reduced=1.0)
    assert check(row, REFERENCE, ref) == (checker.CLIFF, ["epsilon", "entropy_nats"])


def test_the_programs_own_reference_row_is_not_wrong():
    # Today the row is on the precision cliff; once the cliff is fixed it is OK.
    from gravent.cli import rows_to_csv
    from gravent.model import PhysicalConstants
    from gravent.sweep import evaluate_point

    produced = evaluate_point(0, REFERENCE, 0.0, 0.0, PhysicalConstants())
    (row,) = checker.parse_csv(rows_to_csv([produced]))
    assert check(row, REFERENCE, reference(REFERENCE))[0] in (checker.CLIFF, checker.OK)


def test_rejects_delta_phi_perturbed_by_one_part_in_1e9():
    ref = reference(REFERENCE)
    row = reference_row(0, REFERENCE, ref)
    row["delta_phi"] *= 1 + 1e-9
    assert check(row, REFERENCE, ref) == (checker.WRONG, ["delta_phi"])


def _divergence_row(point):
    row = {name: None for name in checker.ROW_FIELDS}
    row.update(index=0, **inputs(point), in_regime=False, separable_by_measures=False,
               separable_by_two_pi_criterion=False, force_closed_form_unit="J*s",
               status="error: ConvergenceDomainError: |dr_sum/d| = 1.2 >= 1: geometric expansion diverges")
    return row


def test_accepts_convergence_error_row_where_x_reaches_1():
    point = {**REFERENCE, "m1": 1e-20, "m2": 1e-20, "omega1": 1.0, "omega2": 1.0, "d": 1e-7}
    ref = reference(point)
    assert ref.ratio_x > 1 and ref.diverges
    assert check(_divergence_row(point), point, ref) == (checker.OK, [])


def test_rejects_convergence_error_row_where_x_is_below_1():
    assert check(_divergence_row(REFERENCE), REFERENCE, reference(REFERENCE))[0] == checker.WRONG


def test_rejects_rows_out_of_order():
    ref = reference(REFERENCE)
    assert check(reference_row(1, REFERENCE, ref), REFERENCE, ref, index=0) == (checker.WRONG, ["index"])


def test_rejects_entropy_bits_off_nats_over_ln2():
    point = {**REFERENCE, "tau": 1e10}
    ref = reference(point)
    row = reference_row(0, point, ref)
    row["entropy_bits"] = row["entropy_nats"]
    assert check(row, point, ref) == (checker.WRONG, ["entropy_bits"])


def test_log_axis_endpoints_exact():
    axis = checker.log_axis(1e-8, 1e-6, 5)
    assert axis[0] == 1e-8 and axis[-1] == 1e-6
    assert axis[2] == pytest.approx(1e-7, rel=1e-15)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_programs_sweep_rows_pass_or_hit_the_cliff(fmt):
    from gravent.cli import rows_to_csv, rows_to_json
    from gravent.config import parse_config
    from gravent.sweep import run_sweep

    case = workloads.sweep6_json(3)
    case = workloads.SweepCase(
        axes={name: (a, b, 2) for name, (a, b, _) in case.axes.items()},
        fixed={}, r1=case.r1, r2=case.r2, fmt=fmt, workers=1, threshold=case.threshold,
    )
    rows = run_sweep(parse_config(case.config_text()).sweep_spec())
    parsed = checker.parse_json(rows_to_json(rows)) if fmt == "json" else checker.parse_csv(rows_to_csv(rows))
    points = [inputs(p, case.r1, case.r2) for p in checker.grid_points(case.axes, case.fixed)]
    assert len(parsed) == len(points) == 64
    verdicts = [
        checker.check_row(row, i, p, reference(p, case.threshold), threshold=case.threshold)[0]
        for i, (row, p) in enumerate(zip(parsed, points))
    ]
    assert verdicts == [checker.OK] * 64
    assert any(row["status"] != "ok" for row in parsed)


def test_power_of_two_scaling_keeps_delta_phi_bits():
    from gravent.dynamics import accumulated_phase
    from gravent.model import MassiveBody, PairSystem

    def phase(p, s):
        bodies = [MassiveBody(p[m] * s, 0.0, p[w] * s) for m, w in (("m1", "omega1"), ("m2", "omega2"))]
        return accumulated_phase(PairSystem(*bodies, p["d"]), p["tau"]).delta_phi

    for p in workloads.calls_pool()[::16] + [REFERENCE]:
        assert {phase(p, 2.0**k) for k in range(-4, 5)} == {phase(p, 1.0)}
