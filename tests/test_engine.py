"""The columnar sweep engine: pinned CLI bytes, grid inputs, float64 range
failures as error rows, the names the benchmark harness relies on, and the
writers' vectorised ``%e`` kernel against the ``%`` operator."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gravent
from gravent import cli, float_text, kernel, sweep
from gravent.cli import main, rows_to_json
from gravent.config import parse_config
from gravent.dynamics import (
    PhaseSet,
    accumulated_phase,
    build_operator,
    delta_phi_to_tau,
    report_from_phases,
)
from gravent.errors import (
    ConvergenceDomainError,
    FloatRangeError,
    GraventError,
    InputDomainError,
    PrecisionError,
    RegimeWarning,
)
from gravent.measures import report
from gravent.model import MassiveBody, PairSystem, PhysicalConstants
from gravent.potential import (
    assess_validity,
    corrected_potential,
    expand_potential,
    quantum_correction,
)
from gravent.sweep import (
    CHUNK_POINTS,
    AxisSpec,
    SweepRow,
    SweepSpec,
    evaluate_point,
    run_sweep,
    time_to_max_entanglement,
)
from oracles import entanglement_force, exact_size_corrected_potential, newtonian_potential

# 37 x 31 = 1147 points, not a multiple of CHUNK_POINTS: ok rows, rows past
# the 0.2 threshold, ConvergenceDomainError rows (d below the summed widths),
# InputDomainError rows (tau < 0) and a linear tau axis through 0.
MIXED_DOC = """\
[run]
mode = sweep
regime_threshold = 0.2

[system]
m1 = 1e-14
m2 = 2e-14
omega1 = 1e5
omega2 = 3e5
r1 = 1e-7
r2 = 2e-9

[sweep]
d = 1e-13:1e-6:37:log
tau = -1.0:2.0:31
"""

ONE_POINT_DOC = """\
[run]
mode = sweep
precision = 15
symmetrize_force = true

[system]
m1 = 1e-14
m2 = 2e-14
omega1 = 1e5
omega2 = 3e5
d = 1e-6

[sweep]
tau = 1.0:1.0:1
"""

# sha256 of the CLI output. Every cell but the measures is as the per-point
# object pipeline that preceded the columnar engine wrote it; the measures
# come from the amplitude matrix's determinant and were checked cell by cell
# against the closed forms at 60 digits (within each format's rounding, and
# 7e-16 relative in JSON) before these hashes were recorded. The CSV status
# cells that hold a comma are quoted (RFC 4180); the rows read back are the
# same as before they were. Since the kernel forms d**3, omega**2 and
# omega**3 as products (d*d*d, w*w, (w*w)*w), 168 of the 1,147 MIXED_DOC JSON
# rows differ from that pipeline in the last bits. Their JSON hash was
# re-pinned after every changed delta_phi and force cell was found within
# 7e-16 relative of a 60-digit mpmath value (3.8e-16 at most), and every
# changed measure within 7e-16 of the closed forms at the row's float
# delta_phi; the other three outputs did not change.
PINNED = {
    (MIXED_DOC, "csv"): "ea0df14b974136a74811672872230a48c16581340711238c142c0c2832294d45",
    (MIXED_DOC, "json"): "4a4a1e1b80b5284d8f8251ed82c969f4696d63f6d6cac3ced7517319fbb1942b",
    (ONE_POINT_DOC, "csv"): "520562299d111b2fdd861b397bff993aaeecc5e7f8f95139f5cc9487bf4d345d",
    (ONE_POINT_DOC, "json"): "783e9066bd8495e82da4c18a0d38ef6738890785025d3750fef1e335b27615f0",
}


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("doc, fmt", list(PINNED), ids=["mixed-csv", "mixed-json", "one-csv", "one-json"])
def test_cli_output_bytes_pinned(tmp_path, doc, fmt):
    target = tmp_path / f"out.{fmt}"
    argv = ["--config", write_config(tmp_path, doc), "--format", fmt, "--output", str(target)]
    assert main(argv) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == PINNED[(doc, fmt)]


def test_every_csv_line_reads_as_one_cell_per_field(tmp_path):
    target = tmp_path / "out.csv"
    assert main(["--config", write_config(tmp_path, MIXED_DOC), "--output", str(target)]) == 0
    lines = list(csv.reader(io.StringIO(target.read_text(encoding="utf-8"))))
    assert len(lines) == 37 * 31 + 1
    assert {len(cells) for cells in lines} == {len(sweep.ROW_FIELD_NAMES)}
    assert any("," in cells[-1] for cells in lines)


def test_mixed_grid_spans_chunks():
    assert 37 * 31 > CHUNK_POINTS
    assert (37 * 31) % CHUNK_POINTS != 0


def test_point_matches_engine_inputs_on_six_axes():
    spec = SweepSpec(
        axes={
            "m1": AxisSpec(1e-15, 3e-15, 3, "log"),
            "m2": AxisSpec(1e-15, 2e-15, 2),
            "omega1": AxisSpec(1e4, 1e5, 3, "log"),
            "omega2": AxisSpec(2e4, 3e4, 2),
            "d": AxisSpec(1e-6, 2e-6, 4),
            "tau": AxisSpec(-1.0, 1.0, 5),
        },
        fixed={},
    )
    indices = np.arange(spec.grid_size())
    columns = spec.inputs(indices)
    for i in indices.tolist():
        assert spec.point(i) == {name: float(column[i]) for name, column in columns.items()}


def test_rows_read_back_match_batches_of_one():
    spec = SweepSpec(
        axes={"d": AxisSpec(1e-13, 1e-6, 9, "log"), "tau": AxisSpec(-1.0, 2.0, 4)},
        fixed=dict(m1=1e-14, m2=2e-14, omega1=1e5, omega2=3e5),
    )
    rows = run_sweep(spec)
    singles = [
        evaluate_point(i, spec.point(i), spec.r1, spec.r2, spec.constants) for i in range(len(rows))
    ]
    assert list(rows) == singles
    assert rows[-1] == singles[-1] and rows[3:5] == singles[3:5]


# Inputs whose float64 arithmetic leaves the range: a subnormal product
# m*omega underflows to 0 in the zero-point width, and omega1**3 overflows
# in the closed-form force.
UNDERFLOW = dict(m1=1e-200, omega1=1e-200, m2=1e-14, omega2=1e5, d=1e-6)
OVERFLOW = dict(m1=1e-14, omega1=1e120, m2=1e-14, omega2=1e5, d=1e-6)
RANGE_CASES = [
    (UNDERFLOW, "FloatRangeError: mass*omega underflows to 0 at 1e-200 and 1e-200"),
    (OVERFLOW, "FloatRangeError: omega1**3 overflows"),
]


def system_doc(mode, values, extra=""):
    lines = ["[run]", f"mode = {mode}", "", "[system]"]
    lines += [f"{name} = {value!r}" for name, value in values.items()]
    return "\n".join(lines) + "\n" + extra


@pytest.mark.parametrize("values, error", RANGE_CASES, ids=["underflow", "overflow"])
def test_float_range_failures_are_error_rows(tmp_path, capsys, values, error):
    doc = system_doc("sweep", values, "\n[sweep]\ntau = 1:2:2\n")
    assert main(["--config", write_config(tmp_path, doc)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(line.endswith(f"error: {error}") for line in lines[1:])


@pytest.mark.parametrize("values, error", RANGE_CASES, ids=["underflow", "overflow"])
def test_float_range_failures_exit_2_in_report_mode(tmp_path, capsys, values, error):
    doc = system_doc("report", {**values, "tau": 1.0})
    assert main(["--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"gravent: error: {error}\n"


@pytest.mark.parametrize("values, error", RANGE_CASES, ids=["underflow", "overflow"])
def test_scalar_force_raises_what_the_kernel_reports(values, error):
    system = PairSystem(MassiveBody(values["m1"], 0.0, values["omega1"]),
                        MassiveBody(values["m2"], 0.0, values["omega2"]), values["d"])
    with pytest.raises(FloatRangeError) as info:
        entanglement_force(system)
    assert f"FloatRangeError: {info.value}" == error


PAPER_BODIES = dict(m1=1e-14, m2=1e-14, omega1=1e5, omega2=1e5, d=1e-6)
# Tau-star evaluates report mode's row at tau*, so it meets the checks report
# mode makes, the forces' included, in report mode's order, and exits 2 where
# report mode at tau* would. At d = 1e-120 the paper's bodies
# fail the expansion's convergence before d**3 is taken; bodies of 1e100 kg
# at 1e100 rad/s have widths small enough to reach it.
HEAVY_BODIES = dict(m1=1e100, m2=1e100, omega1=1e100, omega2=1e100)
TAU_STAR_RANGE_CASES = [
    (dict(d=1e120), "FloatRangeError: d**3 overflows"),
    (dict(**HEAVY_BODIES, d=1e-110), "FloatRangeError: d**3 underflows to 0"),
    (dict(m1=1e-200, omega1=1e-200),
     "FloatRangeError: mass*omega underflows to 0 at 1e-200 and 1e-200"),
    (OVERFLOW, "FloatRangeError: omega1**3 overflows"),
]
# (system, tau-star's error, whether report mode at tau = 0 fails with it)
TAU_STAR_FAILURES = [
    (dict(d=1e-120),
     "ConvergenceDomainError: |dr_sum/d| = 6.494834307355346e+107 >= 1: "
     "geometric expansion diverges", True),
    # The scalar correction was 0*inf = nan here, and tau-star printed nan.
    (dict(m1=1e-160, omega1=1e-150, m2=1e100, omega2=1e100, d=1e100),
     "ConvergenceDomainError: |dr_sum/d| = 1.0269234718322505e+38 >= 1: "
     "geometric expansion diverges", True),
    # The rate overflows, so tau* = (pi/2)/inf = 0, where the potential's
    # -inf times tau* is a nan branch phase: report mode's error at tau = 0.
    (dict(m1=1e160, m2=1e160, omega1=1.0, omega2=1.0, d=1.0),
     "InputDomainError: phi must be finite, got nan", True),
    # The rate after 1 s is subnormal; tau* is past the float64 range.
    (dict(m1=1e-100, m2=1e-100, omega1=1e150, omega2=1e150, d=1e21),
     "FloatRangeError: tau* = (pi/2)/2.5e-323 overflows", False),
    # The rate is 1.33e-130 rad/s: the branch phase is finite at 1 s and
    # overflows at tau* = 1.18e130 s.
    (dict(**HEAVY_BODIES, d=1e40), "InputDomainError: phi must be finite, got -inf", False),
    # G*m1*m2/d**3 underflows: the rate is 0.
    (dict(m1=1e-100, m2=1e-100, omega1=1e150, omega2=1e150, d=1e22),
     "NoEntanglementError: quantum correction is zero; entanglement never accumulates", False),
]


@pytest.mark.parametrize("values, error", TAU_STAR_RANGE_CASES,
                         ids=["d-overflow", "d-underflow", "mass-omega-underflow",
                              "omega-overflow"])
def test_float_range_failures_exit_2_in_tau_star_mode(tmp_path, capsys, values, error):
    doc = system_doc("tau-star", {**PAPER_BODIES, **values})
    assert main(["--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"gravent: error: {error}\n"


@pytest.mark.filterwarnings("ignore::gravent.errors.RegimeWarning")
@pytest.mark.parametrize("values, error, in_report", TAU_STAR_FAILURES,
                         ids=["diverges", "nan-correction", "rate-overflow", "tau-star-overflow",
                              "phase-overflow-at-tau-star", "zero-rate"])
def test_tau_star_fails_where_the_kernel_does(tmp_path, capsys, values, error, in_report):
    doc = system_doc("tau-star", {**PAPER_BODIES, **values})
    assert main(["--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"gravent: error: {error}\n"
    if in_report:
        report_doc = system_doc("report", {**PAPER_BODIES, **values, "tau": 0.0})
        assert main(["--config", write_config(tmp_path, report_doc)]) == 2
        assert capsys.readouterr().err.endswith(f"{error}\n")


def test_report_raises_float_range_error():
    body = MassiveBody(1e-200, 0.0, 1e-200)
    system = PairSystem(body, MassiveBody(1e-14, 0.0, 1e5), 1e-6, PhysicalConstants())
    with pytest.raises(FloatRangeError, match="underflows"):
        report(system, 1.0)


def test_phase_past_float_resolution_is_a_precision_error():
    """delta_phi >= 2**33 rad, whose ulp exceeds 1e-6 rad, is an error on
    every route; the float below the first such tau is not."""
    body = MassiveBody(1e-14, 0.0, 1e5)
    system = PairSystem(body, body, 1e-6)
    assert report(system, 3e20).delta_phi == pytest.approx(8.00916e9, rel=1e-6)
    with pytest.raises(PrecisionError, match=r"delta_phi = 2\.66972e\+29 rad >= 2\*\*33"):
        report(system, 1e40)
    rate = report(system, 1.0).delta_phi
    tau = 2.0**33 / rate
    while rate * tau < 2.0**33:
        tau = math.nextafter(tau, math.inf)
    while rate * math.nextafter(tau, 0.0) >= 2.0**33:
        tau = math.nextafter(tau, 0.0)
    below = math.nextafter(tau, 0.0)
    assert report(system, below).delta_phi < 2.0**33
    assert accumulated_phase(system, below).delta_phi < 2.0**33
    params = dict(m1=1e-14, m2=1e-14, omega1=1e5, omega2=1e5, d=1e-6)
    assert evaluate_point(0, {**params, "tau": below}, 0.0, 0.0, PhysicalConstants()).status == "ok"
    for evaluate in (lambda: report(system, tau), lambda: accumulated_phase(system, tau)):
        with pytest.raises(PrecisionError):
            evaluate()
    row = evaluate_point(0, {**params, "tau": tau}, 0.0, 0.0, PhysicalConstants())
    assert row.status.startswith("error: PrecisionError: delta_phi = ")
    # tau-star evaluates the system at tau*, where delta_phi is pi/2, so a
    # rate past 2**33 rad/s (here 2.67e11) is no error.
    heavy = MassiveBody(1e3, 0.0, 1.0)
    with mpmath.workdps(50):
        G, m, w, d = (mpmath.mpf(v) for v in (PhysicalConstants().G, 1e3, 1.0, 1e-6))
        rate = G * m * m / d**3 * (2 / (m * w) + 2 / mpmath.sqrt(m * m * w * w))
        expected = float(mpmath.pi / 2 / rate)
    tau_star = time_to_max_entanglement(PairSystem(heavy, heavy, 1e-6))
    assert tau_star == pytest.approx(expected, rel=1e-15)
    assert tau_star == pytest.approx(5.8837e-12, rel=1e-4)


def test_json_writes_null_for_every_non_finite_float():
    row = SweepRow(index=0, m1=1e-14, m2=1e-14, r1=0.0, r2=0.0, omega1=1e5, omega2=1e5,
                   d=1e-6, tau=1.0, ratio_x=math.inf, force_closed_form=-math.inf)
    text = rows_to_json([row])
    for token in ("Infinity", "NaN"):
        assert token not in text
    payload = json.loads(text)[0]
    assert payload["ratio_x"] is None and payload["force_closed_form"] is None
    assert payload["delta_phi"] is None
    assert payload["m1"] == 1e-14


def test_json_writer_matches_json_module_on_hand_built_rows():
    rows = [
        SweepRow(index=i, m1=1e-14 * (i + 1), m2=2e-14, r1=0.0, r2=1e-9, omega1=1e5, omega2=3e5,
                 d=1e-6, tau=float(i), delta_phi=phase, in_regime=bool(i % 2), status=f"s{i % 2}")
        for i, phase in enumerate([0.0, -0.0, 0.1, 0.0, math.inf, 0.1])
    ]
    assert rows_to_json(rows) == json_rows(rows)
    assert rows_to_json([]) == "[]\n"
    assert cli.rows_to_csv([], precision=3) == ",".join(sweep.ROW_FIELD_NAMES) + "\n"


class TestBenchmarkContract:
    """What benchmarks/child.py and benchmarks/tracer.py rely on."""

    def test_cli_calls_module_run_sweep_once(self, tmp_path, monkeypatch):
        calls = []

        def recording(spec, workers=1):
            result = run_sweep(spec, workers=workers)
            calls.append((spec, workers, len(result)))
            return result

        monkeypatch.setattr(cli, "run_sweep", recording)
        target = tmp_path / "out.csv"
        assert main(["--config", write_config(tmp_path, MIXED_DOC), "--output", str(target)]) == 0
        assert len(calls) == 1
        spec, workers, size = calls[0]
        assert workers == 1
        assert size == spec.grid_size() == 37 * 31
        assert len(target.read_text(encoding="utf-8").splitlines()) == size + 1

    def test_tracer_patch_targets_resolve(self):
        # Tracer.install looks up every (owner, attribute) pair it wraps and
        # fails on the first that is gone. It patches gravent in place, so
        # it runs in a child process.
        root = Path(__file__).resolve().parent.parent
        benchmarks = root / "benchmarks"
        if not (benchmarks / "tracer.py").is_file():
            pytest.skip("benchmarks/tracer.py is not present")
        code = "from tracer import Tracer; Tracer().install(cli=True)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(benchmarks)])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


def scalar_row(index, params, r1, r2, constants, threshold, symmetrize):
    """The per-point pipeline the kernel replaced, built from the scalar
    functions: the reference the kernel must match bit for bit."""
    from gravent.dynamics import PhaseSet, report_from_phases
    from gravent.errors import GraventError
    from gravent.potential import assess_validity
    from oracles import accumulated_phase, entanglement_force

    inputs = dict(index=index, r1=r1, r2=r2, **params)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            system = PairSystem(MassiveBody(params["m1"], r1, params["omega1"]),
                                MassiveBody(params["m2"], r2, params["omega2"]),
                                params["d"], constants)
            validity = assess_validity(system, threshold)
            phases = accumulated_phase(system, params["tau"])
            gauge = PhaseSet(phi=0.0, phi_prime=-phases.delta_phi, delta_phi=phases.delta_phi)
            measures = report_from_phases(gauge)
            force = entanglement_force(system, symmetrize=symmetrize)
    except GraventError as exc:
        return SweepRow(**inputs, status=f"error: {type(exc).__name__}: {exc}")
    return SweepRow(
        **inputs, ratio_x=validity.ratio_x, in_regime=validity.in_regime,
        regime_threshold=validity.threshold, delta_phi=measures.delta_phi,
        purity_full=measures.purity_full, purity_reduced=measures.purity_reduced,
        epsilon=measures.epsilon, entropy_nats=measures.entropy_nats,
        entropy_bits=measures.entropy_bits, separable_by_measures=measures.separable_by_measures,
        separable_by_two_pi_criterion=measures.separable_by_two_pi_criterion,
        force_closed_form=force.closed_form, force_gradient=force.gradient_based,
    )


#: The row fields that come from the state's measures; the rest are the
#: inputs, the validity ratio, the phase, the forces and the status.
MEASURE_VALUES = ("purity_full", "purity_reduced", "epsilon", "entropy_nats", "entropy_bits")
MEASURE_FIELDS = (*MEASURE_VALUES, "separable_by_measures")
#: Relative bound on every measure wherever the true epsilon is a normal
#: float; below that, an absolute bound of about 2000 subnormal steps.
MEASURE_RTOL = 1e-13
SUBNORMAL_ATOL = 1e-318


def reference_measures(delta_phi):
    """The canonical state's measures at ``delta_phi`` from the closed forms,
    at 60 digits: epsilon = sin^2(delta_phi)/2 and the reduced spectrum
    {sin^2(delta_phi/2), cos^2(delta_phi/2)}. The entropy takes log1p of the
    smaller weight: log(1 - lam) or log(cos^2) would drop the lam term once
    lam is below 1e-60."""
    with mpmath.workdps(60):
        x = mpmath.mpf(delta_phi)
        epsilon = mpmath.sin(x) ** 2 / 2
        lam = min(mpmath.sin(x / 2) ** 2, mpmath.cos(x / 2) ** 2)
        nats = -lam * mpmath.log(lam) - (1 - lam) * mpmath.log1p(-lam) if lam else mpmath.mpf(0)
        return {
            "purity_full": 1.0,
            "purity_reduced": float(1 - epsilon),
            "epsilon": float(epsilon),
            "entropy_nats": float(nats),
            "entropy_bits": float(nats / mpmath.log(2)),
            "separable_by_measures": epsilon < kernel.SEPARABLE_EPSILON_TOL,
            "near_threshold": abs(epsilon / kernel.SEPARABLE_EPSILON_TOL - 1) <= MEASURE_RTOL,
        }


def measure_misses(values, delta_phi):
    """The names of the measures in ``values`` that miss the reference at ``delta_phi``."""
    ref = reference_measures(delta_phi)
    atol = 0.0 if ref["epsilon"] >= sys.float_info.min else SUBNORMAL_ATOL
    missed = [
        name for name in MEASURE_VALUES
        if not abs(values[name] - ref[name]) <= MEASURE_RTOL * abs(ref[name]) + atol
    ]
    if values["separable_by_measures"] != ref["separable_by_measures"] and not ref["near_threshold"]:
        missed.append("separable_by_measures")
    return missed


def same_bits(a, b, names=sweep.ROW_FIELD_NAMES):
    return all(
        (x == y and math.copysign(1, x) == math.copysign(1, y)) or (x != x and y != y)
        if isinstance(x, float) else x == y
        for x, y in zip((getattr(a, n) for n in names), (getattr(b, n) for n in names))
    )


VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=1e-320, max_value=1e300),
    st.sampled_from([0.0, -0.0, -1.0, 1e-200, 1e120, 1e-14, 1e5, 1e-6, 1.0]),
)


@settings(max_examples=300, deadline=None)
@given(
    params=st.fixed_dictionaries({name: VALUE for name in sweep.SWEEP_PARAMETERS}),
    r1=st.sampled_from([0.0, 1e-7, -1.0, math.nan]),
    hbar=st.sampled_from([1.054571817e-34, 0.0, 1e-300, 1e300]),
    threshold=st.sampled_from([0.1, 2.0, 0.0, math.inf]),
    symmetrize=st.booleans(),
)
def test_kernel_matches_scalar_pipeline(params, r1, hbar, threshold, symmetrize):
    constants = PhysicalConstants(hbar=hbar)
    row = evaluate_point(7, params, r1, 0.0, constants, threshold, symmetrize)
    reference = scalar_row(7, params, r1, 0.0, constants, threshold, symmetrize)
    if reference.status.startswith("error: FloatRangeError"):
        # The scalar pipeline checks the widths before tau and hbar; the
        # kernel after them, as report() does, so a point with both faults
        # may name either.
        assert row.status.startswith("error: "), row
    elif row.status != "ok":
        assert same_bits(row, reference), (row, reference)
    else:
        # The scalar measures take 1 - Tr(rho1^2) and eigenvalues, which
        # cancel where epsilon is small; the kernel's are checked against
        # the closed forms instead.
        others = [name for name in sweep.ROW_FIELD_NAMES if name not in MEASURE_FIELDS]
        assert same_bits(row, reference, others), (row, reference)
        assert measure_misses(dataclasses.asdict(row), row.delta_phi) == [], row


@settings(max_examples=300, deadline=None)
@given(
    params=st.fixed_dictionaries({name: VALUE for name in sweep.SWEEP_PARAMETERS}),
    r1=st.sampled_from([0.0, 1e-7, -1.0, math.nan]),
    hbar=st.sampled_from([1.054571817e-34, 0.0, 1e-300, 1e300, np.float64(1e-34)]),
    threshold=st.sampled_from([0.1, 2.0, 0.0, math.inf, np.float64(0.2), 0]),
    symmetrize=st.booleans(),
)
def test_batch_of_one_matches_the_array_path(params, r1, hbar, threshold, symmetrize):
    """evaluate_point is the one-point sweep: the same row, bit for bit,
    status text included, and Python-typed for numpy-typed constants and
    thresholds. report() runs the kernel on floats and stops at the first
    failed check; the array path records every check. report() raises the
    class and message, or returns the measures, of the array path without
    the forces at the default threshold; a system its value objects reject
    fails with that same error."""
    constants = PhysicalConstants(hbar=hbar)
    spec = SweepSpec(axes={}, fixed=params, r1=r1, constants=constants,
                     regime_threshold=threshold, symmetrize_force=symmetrize)
    (row,) = run_sweep(spec)
    single = evaluate_point(0, params, r1, 0.0, constants, threshold, symmetrize)
    assert same_bits(single, row), (single, row)
    assert [type(getattr(single, n)) for n in sweep.ROW_FIELD_NAMES] == \
        [type(getattr(row, n)) for n in sweep.ROW_FIELD_NAMES]

    batch = kernel.evaluate(spec.inputs(np.arange(1)), r1, 0.0, constants, force=False)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            system = PairSystem(MassiveBody(params["m1"], r1, params["omega1"]),
                                MassiveBody(params["m2"], 0.0, params["omega2"]),
                                params["d"], constants)
            got = report(system, params["tau"])
    except GraventError as exc:
        assert batch.failed[0]
        expected = batch.error(0)
        assert (type(exc), str(exc)) == (type(expected), str(expected))
    else:
        assert not batch.failed[0]
        expected = SimpleNamespace(**{name: column.tolist()[0] for name, column in batch.values.items()})
        names = [f.name for f in dataclasses.fields(got)]
        assert same_bits(got, expected, names), (got, expected)


def test_passing_checks_on_numpy_scalars_are_dropped(monkeypatch):
    """A check on r1, r2 or the threshold that every point shares passes
    Batch.add a numpy bool when they are numpy scalars; a passing one is
    dropped, so the batch is the one plain floats give, bit for bit."""
    spec = parse_config(MIXED_DOC).sweep_spec()
    inputs = spec.inputs(np.arange(spec.grid_size()))
    plain = kernel.evaluate(inputs, spec.r1, spec.r2, spec.constants, spec.regime_threshold)
    scalars = []
    add = kernel.Batch.add

    def recording(self, fails, *rest):
        if not isinstance(fails, np.ndarray):
            scalars.append(fails)
        add(self, fails, *rest)

    monkeypatch.setattr(kernel.Batch, "add", recording)
    typed = kernel.evaluate(inputs, np.float64(spec.r1), np.float64(spec.r2), spec.constants,
                            np.float64(spec.regime_threshold))
    assert len(scalars) == 6 and not any(scalars)
    assert {type(fails) for fails in scalars} == {np.bool_}
    assert typed.failed.tobytes() == plain.failed.tobytes() and typed.failed.any()
    assert typed.first.tobytes() == plain.first.tobytes()
    assert typed.values.keys() == plain.values.keys()
    for name, column in plain.values.items():
        got = typed.values[name]
        assert (got.dtype, got.tobytes()) == (column.dtype, column.tobytes()), name


@pytest.mark.parametrize("d, tau, error", [(1e-13, 1.0, ConvergenceDomainError),
                                           (6e-12, 1e30, PrecisionError),
                                           (1e-13, -1.0, InputDomainError)],
                         ids=["diverges", "past-resolution", "negative-tau"])
def test_report_warns_out_of_regime_before_it_raises(d, tau, error):
    """The RegimeWarning comes once the ratio is computed, ahead of any later
    check's error; a check made before the ratio raises with no warning."""
    body = MassiveBody(1e-14, 0.0, 1e5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error):
            report(PairSystem(body, body, d), tau)
    expected = [] if error is InputDomainError else [RegimeWarning]
    assert [type(w.message) for w in caught] == expected


def test_regime_warning_names_the_callers_line():
    """report() and accumulated_phase() warn at their caller's file and line,
    where a later check raises (d = 1e-13 m diverges) and where the point
    passes out of the regime (d = 2e-12 m, x = 0.3247);
    time_to_max_entanglement and evaluate_point warn nothing."""
    body = MassiveBody(1e-14, 0.0, 1e5)
    for d, error in ((1e-13, ConvergenceDomainError), (2e-12, None)):
        system = PairSystem(body, body, d)
        for entry in (report, accumulated_phase):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                line = sys._getframe().f_lineno + 2
                try:
                    entry(system, 1.0)
                except GraventError as exc:
                    assert type(exc) is error
                else:
                    assert error is None
            assert [(w.category, w.filename, w.lineno) for w in caught] == \
                [(RegimeWarning, __file__, line)], (entry.__name__, d)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            row = evaluate_point(0, dict(m1=1e-14, m2=1e-14, omega1=1e5, omega2=1e5, d=d, tau=1.0),
                                 0.0, 0.0, PhysicalConstants())
            if error is None:
                time_to_max_entanglement(system)
        assert (row.status == "ok") is (error is None)
        assert caught == []


#: One system per float-path check of report(), failing at that check first:
#: (m1, m2, omega1, omega2, d, tau, hbar), the error class and message.
_HBAR = PhysicalConstants().hbar
FIRST_FAILURES = {
    "tau-not-finite": ((1e-14, 1e-14, 1e5, 1e5, 1e-6, math.inf, _HBAR),
                       InputDomainError, "tau must be finite, got inf"),
    "tau-negative": ((1e-14, 1e-14, 1e5, 1e5, 1e-6, -1.0, _HBAR),
                     InputDomainError, "tau must be non-negative, got -1.0"),
    "hbar-zero": ((1e-14, 1e-14, 1e5, 1e5, 1e-6, 1.0, 0.0),
                  InputDomainError, "hbar must be positive to accumulate phases"),
    "mass-omega-1": ((1e-200, 1e-14, 1e-200, 1e5, 1e-6, 1.0, _HBAR),
                     FloatRangeError, "mass*omega underflows to 0 at 1e-200 and 1e-200"),
    "mass-omega-2": ((1e-14, 1e-190, 1e5, 1e-190, 1e-6, 1.0, _HBAR),
                     FloatRangeError, "mass*omega underflows to 0 at 1e-190 and 1e-190"),
    # hbar/(m*omega) overflows, and the widths with it.
    "dr-sum": ((1e-5, 1e-14, 1e-6, 1e5, 1e-6, 1.0, 1e300),
               InputDomainError, "dr_sum must be finite"),
    "diverges": ((1e-14, 1e-14, 1e5, 1e5, 1e-13, 1.0, _HBAR), ConvergenceDomainError,
                 "|dr_sum/d| = 6.494834307355346 >= 1: geometric expansion diverges"),
    "product": ((1e-170, 1e-170, 1.0, 1.0, 1e70, 1.0, _HBAR),
                FloatRangeError, "m1*m2*omega1*omega2 underflows to 0"),
    "d3-overflows": ((1e-14, 1e-14, 1e5, 1e5, 1e110, 1.0, _HBAR),
                     FloatRangeError, "d**3 overflows"),
    "d3-underflows": ((1.0, 1.0, 1e10, 1e10, 1e-110, 1.0, 1e-300),
                      FloatRangeError, "d**3 underflows to 0"),
    "phi": ((1e-14, 1e-14, 1e5, 1e5, 1e-6, 1e307, _HBAR),
            InputDomainError, "phi must be finite, got -inf"),
    # x = 0.9, so |v_total| = (1 + x**2)|v0|: phi is finite at 1.3e308 and
    # phi' = 1.81 phi is not. The correction is not checked finite, so
    # nothing before phi' fails.
    "phi-prime": ((1e-14, 1e-14, 1e5, 1e5, 7.2e-13, 1.5e300, _HBAR),
                  InputDomainError, "phi_prime must be finite, got -inf"),
    # G*m1*m2/d**3 overflows in the rate, not in hbar*G*m1*m2/d**3.
    "delta-phi": ((1e100, 1e100, 1.0, 1.0, 1e-50, 1e-300, _HBAR),
                  InputDomainError, "delta_phi must be finite, got inf"),
    "resolution": ((1e-14, 1e-14, 1e5, 1e5, 1e-6, 1e25, _HBAR), PrecisionError,
                   "delta_phi = 266972000000000.03 rad >= 2**33: its ulp exceeds 1e-6 rad"),
}


@pytest.mark.parametrize("case", FIRST_FAILURES.values(), ids=FIRST_FAILURES)
def test_each_float_check_fails_as_the_array_path_does(case):
    """report(), accumulated_phase() and the array path without the forces
    raise the same class and message at each check the float path makes."""
    (m1, m2, w1, w2, d, tau, hbar), error, message = case
    constants = PhysicalConstants(hbar=hbar)
    system = PairSystem(MassiveBody(m1, 0.0, w1), MassiveBody(m2, 0.0, w2), d, constants)
    inputs = {name: np.array([value]) for name, value in zip(kernel.PARAMETERS,
                                                               (m1, m2, w1, w2, d, tau))}
    batch = kernel.evaluate(inputs, 0.0, 0.0, constants, force=False)
    assert batch.failed[0]
    raised = [batch.error(0)]
    for entry in (report, accumulated_phase):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            with pytest.raises(GraventError) as info:
                entry(system, tau)
        raised.append(info.value)
    assert [(type(exc), str(exc)) for exc in raised] == [(error, message)] * 3


@pytest.mark.parametrize("tau", ["1", None, 1 + 0j, b"1", 10**400],
                         ids=["str", "none", "complex", "bytes", "int-past-float64"])
def test_non_real_tau_is_an_input_domain_error(tau):
    """The same holds for the radii and the regime threshold of a sweep, and
    for an int that float64 cannot hold; none of these is a bool for the
    force's symmetrize switch either."""
    def message(name):
        if isinstance(tau, int):
            return f"{name} is outside the float64 range"
        return f"{name} must be a real number, got {tau!r}"

    body = MassiveBody(1e-14, 0.0, 1e5)
    with pytest.raises(InputDomainError) as info:
        report(PairSystem(body, body, 1e-6), tau)
    assert str(info.value) == message("tau")
    with pytest.raises(InputDomainError) as info:
        accumulated_phase(PairSystem(body, body, 1e-6), tau)
    assert str(info.value) == message("tau")
    with pytest.raises(InputDomainError) as info:
        evaluate_point(0, {**PAPER_BODIES, "tau": tau}, 0.0, 0.0, PhysicalConstants())
    assert str(info.value) == message("tau")
    with pytest.raises(InputDomainError) as info:
        run_sweep(SweepSpec(axes={}, fixed={**PAPER_BODIES, "tau": tau}))
    assert str(info.value) == message("tau")
    point = {**PAPER_BODIES, "tau": 1.0}
    for name in ("r1", "r2", "regime_threshold"):
        with pytest.raises(InputDomainError) as info:
            SweepSpec(axes={}, fixed=point, **{name: tau})
        assert str(info.value) == message(name)
    with pytest.raises(InputDomainError) as info:
        evaluate_point(0, point, tau, 0.0, PhysicalConstants())
    assert str(info.value) == message("r1")
    with pytest.raises(InputDomainError) as info:
        evaluate_point(0, point, 0.0, 0.0, PhysicalConstants(), regime_threshold=tau)
    assert str(info.value) == message("regime_threshold")
    with pytest.raises(InputDomainError) as info:
        SweepSpec(axes={}, fixed=point, symmetrize_force=tau)
    assert str(info.value) == f"symmetrize_force must be a bool, got {tau!r}"


SYSTEM_CALLS = {
    "report": lambda system: report(system, 1.0),
    "accumulated_phase": lambda system: accumulated_phase(system, 1.0),
    "quantum_correction": quantum_correction,
    "entanglement_force": gravent.entanglement_force,
    "time_to_max_entanglement": time_to_max_entanglement,
    "delta_phi_to_tau": lambda system: delta_phi_to_tau(system, 1.0),
    "assess_validity": assess_validity,
    "expand_potential": lambda system: expand_potential(system, 0.0, 2),
    "exact_size_corrected_potential": lambda system: exact_size_corrected_potential(system, 0.0, 0.0),
    "corrected_potential": corrected_potential,
    "build_operator": build_operator,
}


@pytest.mark.parametrize("system", [None, "x"], ids=["none", "str"])
@pytest.mark.parametrize("call", SYSTEM_CALLS.values(), ids=SYSTEM_CALLS.keys())
def test_a_system_that_is_not_a_pair_system_is_an_input_domain_error(call, system):
    with pytest.raises(InputDomainError) as info:
        call(system)
    assert str(info.value) == f"sys must be of type PairSystem, got {system!r}"


@pytest.mark.parametrize("call, name", [
    (lambda: PhaseSet("1", 0.0, 0.0), "phi"),
    (lambda: PhaseSet(0.0, 0.0, 10**400), "delta_phi"),
    (lambda: newtonian_potential(1j, 1.0, 1.0, PhysicalConstants()), "m1"),
    (lambda: expand_potential(PairSystem(*[MassiveBody(1e-14, 0.0, 1e5)] * 2, 1e-6), None, 2),
     "dr_sum"),
], ids=["phase-str", "phase-int-past-float64", "newtonian-complex", "expansion-none"])
def test_a_scalar_input_that_is_not_real_is_an_input_domain_error(call, name):
    with pytest.raises(InputDomainError,
                       match=f"^{name} (must be a real number|is outside the float64 range)"):
        call()


@pytest.mark.parametrize("tau", [1, np.float32(0.5), np.float64(2.0), np.int64(3)],
                         ids=["int", "float32", "float64", "int64"])
def test_real_tau_of_any_type_is_taken_as_its_float(tau):
    body = MassiveBody(1e-14, 0.0, 1e5)
    system = PairSystem(body, body, 1e-6)
    assert report(system, tau) == report(system, float(tau))
    assert type(evaluate_point(0, {**PAPER_BODIES, "tau": tau}, 0.0, 0.0, PhysicalConstants()).tau) is float
    dr = tau * 1e-8
    terms = expand_potential(system, dr, 2)
    assert all(type(term.value) is float for term in terms)
    assert terms == expand_potential(system, float(dr), 2)


BOOL_CALLS = {
    "body-mass": (lambda: MassiveBody(True, 0.0, 1e5), "mass"),
    "system-d": (lambda: PairSystem(*[MassiveBody(1e-14, 0.0, 1e5)] * 2, True), "separation_d"),
    "constants-G": (lambda: PhysicalConstants(G=True), "G"),
    "report-tau": (lambda: report(PairSystem(*[MassiveBody(1e-14, 0.0, 1e5)] * 2, 1e-6), True),
                   "tau"),
    "fixed-tau": (lambda: SweepSpec(axes={}, fixed={**PAPER_BODIES, "tau": True}), "tau"),
    "axis-start": (lambda: AxisSpec(True, 2.0, 2), "start"),
}


@pytest.mark.parametrize("call, name", BOOL_CALLS.values(), ids=BOOL_CALLS.keys())
def test_a_bool_is_not_a_real_number(call, name):
    with pytest.raises(InputDomainError) as info:
        call()
    assert str(info.value) == f"{name} must be a real number, got True"


def test_numpy_typed_inputs_give_python_typed_results():
    params = {name: np.float64(value) for name, value in {**PAPER_BODIES, "tau": 1.0}.items()}
    constants = PhysicalConstants(hbar=np.float64(1.054571817e-34))
    row = evaluate_point(0, params, 0.0, 0.0, constants, np.float64(0.2))
    assert row.status == "ok"
    builtin = {"int": int, "float": float, "bool": bool, "str": str}
    types = {n: type(getattr(row, n)) for n in sweep.ROW_FIELD_NAMES}
    assert types == {n: builtin[t] for n, t in zip(sweep.ROW_FIELD_NAMES, sweep.ROW_FIELD_TYPES)}
    body = MassiveBody(np.float64(1e-14), 0.0, np.float64(1e5))
    rep = report(PairSystem(body, body, np.float64(1e-6), constants), np.float64(1.0))
    assert {type(v) for v in dataclasses.astuple(rep)} == {float, bool}


def test_tau_star_with_a_rate_past_float_resolution(tmp_path, capsys):
    """Bodies of 1e3 kg at 1 rad/s, 1 um apart: the phase grows 2.67e11 rad/s,
    and tau* = 5.9e-12 s, where delta_phi is pi/2."""
    doc = system_doc("tau-star", dict(m1=1e3, m2=1e3, omega1=1.0, omega2=1.0, d=1e-6))
    assert main(["--config", write_config(tmp_path, doc)]) == 0
    assert capsys.readouterr().out == "5.88374933250e-12\n"


@settings(max_examples=500, deadline=None)
@given(x=st.one_of(
    st.floats(min_value=0.0, max_value=sys.float_info.max),
    st.floats(min_value=0.0, max_value=4.0 * math.pi),
    st.sampled_from([-0.0, 5e-324, 3.4e-31, 2.66972e-11, math.pi / 2, math.pi, 2.0 * math.pi,
                     sys.float_info.max]),
))
def test_kernel_states_pass_every_value_object_check(x):
    """The kernel does not check the states it builds from a finite phase.
    The scalar route checks every state, density matrix and spectrum and
    raises nothing at any finite phase. The kernel's measures match the
    closed forms, the scalar ones to the scalar route's absolute resolution
    (its 1 - Tr(rho1^2) cancels), and its phase verdict the scalar one bit
    for bit."""
    expected = report_from_phases(PhaseSet(phi=0.0, phi_prime=-x, delta_phi=x))
    measured = dict(zip(kernel._MEASURES, kernel._measures(np.array([x]))))
    got = {name: column.tolist()[0] for name, column in measured.items()}
    assert measure_misses(got, x) == [], got
    for name in MEASURE_VALUES:
        assert abs(got[name] - getattr(expected, name)) <= 1e-14, (name, got, expected)
    assert got["separable_by_two_pi_criterion"] is expected.separable_by_two_pi_criterion


def test_report_at_the_paper_scenario_is_entangled_to_float_precision():
    """Equal bodies of 1e-14 kg at 1e5 rad/s, 1 um apart, for 1 s: delta_phi
    is 2.67e-11 rad, where 1 - Tr(rho1^2) cancels to 0."""
    body = MassiveBody(1e-14, 0.0, 1e5)
    rep = report(PairSystem(body, body, 1e-6), 1.0)
    ref = reference_measures(rep.delta_phi)
    assert rep.epsilon == pytest.approx(3.5637e-22, rel=1e-4)
    assert rep.entropy_nats == pytest.approx(9.1016e-21, rel=1e-4)
    for name in ("epsilon", "entropy_nats"):
        assert abs(getattr(rep, name) - ref[name]) <= 1e-12 * ref[name]
    # epsilon < 1e-12 is the separability verdict, unchanged.
    assert rep.separable_by_measures


def test_phase_and_forces_hold_to_16_ulp_of_mpmath():
    """report().delta_phi and both routes of the public entanglement_force,
    on 1,000 systems log-uniform over the ranges of the report-calls
    benchmark (masses 1e-15..1e-13 kg, omegas 1e4..1e6 rad/s, d 1e-6..1e-5 m,
    delta_phi 1e-12..4*pi rad), lie within 16*2**-53 relative of 50-digit
    values of the closed forms at the same float inputs."""
    bound = 16 * 2.0**-53
    constants = PhysicalConstants()
    G, hbar = mpmath.mpf(constants.G), mpmath.mpf(constants.hbar)
    lo, hi = [-15, -15, 4, 4, -6, -12], [-13, -13, 6, 6, -5, math.log10(4 * math.pi)]
    draws = 10.0 ** np.random.default_rng(2024).uniform(lo, hi, size=(1000, 6))
    worst = {}
    with mpmath.workdps(50):
        for i, (m1, m2, w1, w2, d, target) in enumerate(draws.tolist()):
            system = PairSystem(MassiveBody(m1, 0.0, w1), MassiveBody(m2, 0.0, w2), d, constants)
            symmetrize = i % 2 == 1
            force = gravent.entanglement_force(system, symmetrize=symmetrize)
            x1, x2, y1, y2, dd = (mpmath.mpf(v) for v in (m1, m2, w1, w2, d))
            rate = G * x1 * x2 / dd**3 * (1 / (x1 * y1) + 1 / (x2 * y2) + 2 / mpmath.sqrt(x1 * x2 * y1 * y2))
            tau = target / float(rate)
            second = x2 if symmetrize else x1
            closed_form = hbar * G * x1 * x2 / dd**3 * (
                1 / (x1 * y1**2) + 1 / (second * y2**2)
                + (1 / mpmath.sqrt(x1 * x2)) * (1 / mpmath.sqrt(y1**3 * y2) + 1 / mpmath.sqrt(y1 * y2**3)))
            for name, got, ref in (("delta_phi", report(system, tau).delta_phi, rate * mpmath.mpf(tau)),
                                   ("closed_form", force.closed_form, closed_form),
                                   ("gradient_based", force.gradient_based, 3 * hbar * rate / dd)):
                worst[name] = max(worst.get(name, 0.0), float(abs((got - ref) / ref)))
    assert all(error <= bound for error in worst.values()), worst


PRECISIONS = range(1, 18)


def percent(values, precision):
    return [f"%.{precision - 1}e" % v for v in np.asarray(values, dtype=np.float64).tolist()]


def powers_of_ten_and_neighbours():
    # 10**k and the floats on either side, across the kernel's range
    # [1e-280, 1e280] and past both ends of it.
    powers = np.array([float(f"1e{k}") for k in range(-330, 309)])
    return np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])


def ties():
    # Values whose decimal expansion ends in a 5 that some precision cuts:
    # %e rounds those exact halves to even.
    halves = np.arange(2000) + 0.5
    eighths = np.arange(1, 4000) * 0.125
    return np.concatenate([halves, eighths, eighths * 2.0**-20, halves * 1024.0])


def carries():
    # 9.99...95 and its neighbours: rounding up adds a digit to the exponent.
    nines = np.array([float(f"9.{'9' * j}5e{x}")
                      for j in range(16) for x in (-250, -20, -1, 0, 3, 17, 200)])
    return np.concatenate([nines, np.nextafter(nines, 0.0), np.nextafter(nines, np.inf)])


FIXED = {
    "powers-of-ten": powers_of_ten_and_neighbours(),
    "ties": ties(),
    "13-digit-integers": np.random.default_rng(13).integers(10**12, 10**13, 2000).astype(float),
    "carries": carries(),
    "specials": np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                          2.2250738585072014e-308, 2.225073858507201e-308, sys.float_info.max,
                          -sys.float_info.max, 0.1, 0.3, -0.7, 1.0, 2.5, 1e-280, 1e280]),
}


@pytest.mark.parametrize("values", list(FIXED.values()), ids=list(FIXED))
def test_format_e_matches_percent_on_fixed_values(values):
    for precision in PRECISIONS:
        assert float_text._format_e(values, precision) == percent(values, precision)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_format_e_matches_percent_on_any_floats(values):
    values = np.array(values, dtype=np.float64)
    for precision in PRECISIONS:
        assert float_text._format_e(values, precision) == percent(values, precision)


def test_format_e_formats_log_uniform_values_without_the_fallback(monkeypatch):
    passed = []
    fallback = float_text._percent_e

    def counting(values, precision):
        passed.extend(values.tolist())
        return fallback(values, precision)

    monkeypatch.setattr(float_text, "_percent_e", counting)
    values = 10.0 ** np.random.default_rng(2401).uniform(-30.0, 30.0, 1024)
    assert float_text._format_e(values, 12) == percent(values, 12)
    assert passed == []
    # The counter sees what the fallback formats: zero and nan.
    assert float_text._format_e(np.array([1.5, 0.0, np.nan]), 12) == percent([1.5, 0.0, np.nan], 12)
    assert len(passed) == 2


def reprs(values):
    return [repr(v) if math.isfinite(v) else "null" for v in np.asarray(values, dtype=np.float64).tolist()]


def powers_of_two_and_neighbours():
    # 2**k for every binary exponent, the subnormal ones included, and the
    # floats on either side: the gap below a power of two is half the gap
    # above it.
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    return np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])


def exact_ties_and_boundaries():
    # 15 integer digits and an odd number of eighths: the 18th digit is a 5,
    # so the two 17-digit candidates are equally near (repr takes the even
    # one). Integers past 2**53: a multiple of a power of ten often lies
    # exactly half a gap away, inside only if the significand is even.
    rng = np.random.default_rng(17)
    eighths = rng.integers(10**14, 10**15, 2000) + rng.choice([0.125, 0.375, 0.625, 0.875], 2000)
    return np.concatenate([eighths, rng.integers(2**53, 2**63, 2000).astype(float)])


REPR_FIXED = {
    **FIXED,
    "powers-of-two": powers_of_two_and_neighbours(),
    "subnormals": np.random.default_rng(52).integers(1, 2**52, 2000).view(np.float64),
    "every-binary-exponent": np.ldexp(np.random.default_rng(53).uniform(1.0, 2.0, 2098),
                                      np.arange(-1074, 1024)),
    "exact-ties-and-boundaries": exact_ties_and_boundaries(),
    # Scaled distances within 1e-6 of the half-gap, or of the other
    # multiple's, but not on it (found by a search of log-uniform values):
    # float arithmetic cannot tell the side, so repr formats them.
    "near-half-gap": np.array([407087.2191584057, 8.156391442832576e-06, 2.6058962497410224e-27,
                               8.291729316352978e-25, 4.0525395010632636e-17,
                               0.0037763475938293882, 0.00035778362572688825]),
}


@pytest.mark.parametrize("values", list(REPR_FIXED.values()), ids=list(REPR_FIXED))
def test_json_floats_match_repr_on_fixed_values(values):
    assert cli._json_floats(values) == reprs(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_json_floats_match_repr_on_any_floats(values):
    values = np.array(values, dtype=np.float64)
    assert cli._json_floats(values) == reprs(values)


def test_json_floats_match_repr_on_log_uniform_values_and_exact_ties(monkeypatch):
    passed = []
    fallback = float_text._reprs

    def counting(values):
        passed.extend(values.tolist())
        return fallback(values)

    monkeypatch.setattr(float_text, "_reprs", counting)
    values = 10.0 ** np.random.default_rng(2401).uniform(-30.0, 30.0, 1024)
    assert cli._json_floats(values) == reprs(values)
    # Exact ties and half-gap boundaries: repr formats those float
    # arithmetic cannot decide.
    values = exact_ties_and_boundaries()
    assert cli._json_floats(values) == reprs(values)
    # The counter sees what the fallback formats: zero and nan.
    passed.clear()
    assert cli._json_floats(np.array([1.5, 0.0, np.nan])) == ["1.5", "0.0", "null"]
    assert len(passed) == 2


@pytest.mark.parametrize("name, bound", [("e", 100), ("repr", 106)])
def test_formatters_hold_little_more_than_their_texts(name, bound):
    """A formatter's peak memory per value, as tracemalloc counts it, on
    5,000 log-uniform floats: the texts, the one string they are split from
    and little more (94 and 100 bytes a value for %e at 12 digits and repr).
    Temporaries are computed in place and the byte matrix is freed before
    the split; one kept to the split, or a step's own chunk-wide arrays
    (177 and 247 bytes a value), crosses the bound."""
    formats = {"e": lambda values: float_text._format_e(values, 12),
               "repr": float_text._format_repr}
    values = 10.0 ** np.random.default_rng(5000).uniform(-30.0, 30.0, 5000)
    formats[name](values)
    tracemalloc.start()
    try:
        texts = formats[name](values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(texts) == len(values)
    assert peak / len(values) < bound


def test_formatters_match_percent_and_repr_on_numpys_other_simd_path(tmp_path):
    """_scaled takes its exponent from np.log, whose last bit depends on the
    SIMD code numpy dispatches to, and so does the set of values the
    formatters certify; the bytes must not. A child process formats the
    fixed sets (REPR_FIXED holds FIXED) with AVX-512 dispatch off
    (NPY_DISABLE_CPU_FEATURES acts on that process only, and changes nothing
    on a CPU without AVX-512)."""
    values = np.concatenate(list(REPR_FIXED.values()))
    np.save(tmp_path / "values.npy", values)
    code = ("import json, sys\n"
            "import numpy as np\n"
            "from gravent import cli, float_text\n"
            "values = np.load(sys.argv[1])\n"
            "texts = {p: float_text._format_e(values, p) for p in (1, 12, 15, 17)}\n"
            "texts['json'] = cli._json_floats(values)\n"
            "json.dump(texts, sys.stdout)\n")
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "values.npy")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    texts = json.loads(proc.stdout)
    for precision in (1, 12, 15, 17):
        assert texts[str(precision)] == percent(values, precision)
    assert texts["json"] == reprs(values)


def percent_csv(rows, precision):
    """The CSV writer as a loop over cells."""
    def cell(kind, value):
        if kind == "float":
            return f"%.{precision - 1}e" % value
        if kind == "bool":
            return "true" if value else "false"
        if kind == "str" and any(c in value for c in ',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return str(value)

    lines = [",".join(sweep.ROW_FIELD_NAMES)]
    for row in rows:
        lines.append(",".join(cell(kind, getattr(row, name))
                              for name, kind in zip(sweep.ROW_FIELD_NAMES, sweep.ROW_FIELD_TYPES)))
    return "\n".join(lines) + "\n"


def test_csv_writer_matches_a_per_cell_writer_at_every_precision():
    # MIXED_DOC's grid has failed rows (nan cells, error statuses) and a tau
    # axis through 0, over more than one chunk.
    rows = run_sweep(parse_config(MIXED_DOC).sweep_spec())
    listed = list(rows)
    assert {row.status == "ok" for row in listed} == {True, False}
    for precision in PRECISIONS:
        text = cli.rows_to_csv(rows, precision)
        assert text == percent_csv(listed, precision)
        assert cli.rows_to_csv(listed, precision) == text


def json_rows(rows):
    """The JSON writer as json.dumps of one dict per row."""
    return json.dumps([
        {name: None if isinstance(v := getattr(row, name), float) and not math.isfinite(v) else v
         for name in sweep.ROW_FIELD_NAMES}
        for row in rows
    ], indent=2) + "\n"


@pytest.mark.parametrize("doc", [MIXED_DOC, MIXED_DOC.replace("tau = -1.0:2.0:31", "tau = -0.0:2.0:31")],
                         ids=["negative-tau", "minus-zero-tau"])
def test_json_writer_matches_json_module_on_a_whole_sweep(doc):
    # Over more than one chunk: failed rows (error statuses, nan written as
    # null) and, on the second grid, -0.0 for tau and delta_phi.
    rows = run_sweep(parse_config(doc).sweep_spec())
    listed = list(rows)
    assert {row.status == "ok" for row in listed} == {True, False}
    text = rows_to_json(rows)
    assert text == json_rows(listed)
    assert rows_to_json(listed) == text
    assert "null" in text
    assert ('"delta_phi": -0.0' in text) == ("-0.0" in doc)


def test_a_float_field_is_written_as_a_float_whatever_number_a_row_holds():
    inputs = dict(index=0, m1=1e-14, m2=2e-14, r1=0.0, r2=0.0, omega1=1e5, omega2=3e5, d=1e-6)
    floats = SweepRow(**inputs, tau=2.0, delta_phi=0.0)
    others = SweepRow(**inputs, tau=2, delta_phi=np.float64(0.0))
    assert cli.rows_to_csv([others]) == cli.rows_to_csv([floats])
    assert cli.rows_to_json([others]) == cli.rows_to_json([floats])


def tau_sweep(n):
    """A one-axis sweep of n points over tau in [-1, 2]: its negative taus
    give error rows."""
    fixed = dict(m1=1e-14, m2=2e-14, omega1=1e5, omega2=3e5, d=1e-6)
    return run_sweep(SweepSpec(axes={"tau": AxisSpec(-1.0, 2.0, n)}, fixed=fixed))


#: The writers' inputs: the result, its rows as a list, and as a generator.
ROW_INPUTS = {
    "result": lambda result: result,
    "list": list,
    "generator": lambda result: (row for row in list(result)),
}


#: Each writer, given an ``out`` or None, and the number of rows in a text it writes.
WRITERS = [
    (lambda rows, out: cli.rows_to_csv(rows, 12, out), lambda text: text.count("\n")),
    (lambda rows, out: rows_to_json(rows, out), lambda text: text.count("  {\n")),
]


@pytest.mark.parametrize("kind", list(ROW_INPUTS))
def test_writers_write_a_block_of_rows_at_a_time(kind):
    result = tau_sweep(2500)
    assert [len(chunk[0]) for chunk in sweep.row_chunks(ROW_INPUTS[kind](result))] == [1024, 1024, 452]
    for write, count in WRITERS:
        texts = []
        assert write(ROW_INPUTS[kind](result), SimpleNamespace(write=texts.append)) is None
        assert "".join(texts) == write(ROW_INPUTS[kind](result), None)
        # The first text is CSV's header or JSON's "[\n".
        rows = [count(text) for text in texts[1:]]
        assert sum(rows) == 2500
        assert max(rows) == cli._BLOCK_ROWS


def test_writers_take_a_generator_a_chunk_at_a_time():
    listed = list(tau_sweep(2500))
    taken = 0

    def rows():
        nonlocal taken
        for row in listed:
            taken += 1
            yield row

    for write, _ in WRITERS:
        taken, seen = 0, []
        assert write(rows(), SimpleNamespace(write=lambda text: seen.append(taken))) is None
        # The first text is CSV's header or JSON's "[\n"; the second holds the first rows.
        assert seen[1] <= CHUNK_POINTS
        assert seen[-1] == 2500


@pytest.mark.parametrize("n", [1, 127, 128, 129, 1023, 1024, 1025, 2049])
def test_writers_match_per_row_writers_at_every_block_and_chunk_edge(n):
    result = tau_sweep(n)
    listed = list(result)
    for precision in (1, 12, 17):
        expected = percent_csv(listed, precision)
        for make in ROW_INPUTS.values():
            assert cli.rows_to_csv(make(result), precision) == expected
    expected = json_rows(listed)
    for make in ROW_INPUTS.values():
        assert rows_to_json(make(result)) == expected


def test_writers_keep_a_nul_in_a_status():
    inputs = dict(m1=1e-14, m2=2e-14, r1=0.0, r2=0.0, omega1=1e5, omega2=3e5, d=1e-6, tau=2.0)
    rows = [SweepRow(index=i, **inputs, status=status)
            for i, status in enumerate(["error: X: a\0b", "ok", "error: X: \0"] * 50)]
    assert cli.rows_to_csv(rows) == percent_csv(rows, 12)
    assert rows_to_json(rows) == json_rows(rows)


#: Float cells of every sort: signed zeros, nan, infinities, subnormal and
#: extreme values, and an int given for a float field.
VARIED_NUMBERS = [0.0, -0.0, 1.5, 1e-14, -2.5e-300, 5e-324, 1.7976931348623157e308,
                  math.nan, math.inf, -math.inf, 3]
#: Texts that CSV quotes (a comma, a double quote, CR, LF) or keeps as they
#: are (a NUL, non-ASCII text, the empty text).
VARIED_TEXTS = ["ok", "error: X: a,b", 'error: X: say "hi"', "cr\r", "lf\n", "crlf\r\n",
                "nul\0end", "ñ é 中文 🙂", ""]
FIELD_KINDS = dict(zip(sweep.ROW_FIELD_NAMES, sweep.ROW_FIELD_TYPES))


def varied_rows(count):
    """Hand-built rows whose fields are drawn apart, so every field kind
    varies inside each block of rows: repeated, unsorted indices, both
    values of each bool, numbers and texts from the lists above."""
    rng = np.random.default_rng(39)
    choices = {"int": range(40), "float": VARIED_NUMBERS, "bool": [False, True], "str": VARIED_TEXTS}
    return [SweepRow(**{name: choices[kind][rng.integers(len(choices[kind]))]
                        for name, kind in FIELD_KINDS.items()})
            for _ in range(count)]


def test_writers_match_per_cell_writers_where_every_field_kind_varies_in_a_block():
    # Two chunks, the second of 200 rows: a full block, then a short one.
    rows = varied_rows(CHUNK_POINTS + 200)
    for start in range(0, len(rows), cli._BLOCK_ROWS):
        block = rows[start:start + cli._BLOCK_ROWS]
        for name in sweep.ROW_FIELD_NAMES:
            assert len({repr(getattr(row, name)) for row in block}) > 1, name
        assert [row.index for row in block] != sorted(row.index for row in block)
        assert any(type(getattr(row, name)) is int
                   for row in block for name, kind in FIELD_KINDS.items() if kind == "float")
    # The writers write a float field's int as a float.
    floats = [dataclasses.replace(row, **{name: float(getattr(row, name))
                                          for name, kind in FIELD_KINDS.items() if kind == "float"})
              for row in rows]
    for precision in (1, 12, 17):
        assert cli.rows_to_csv(rows, precision) == percent_csv(floats, precision)
    assert rows_to_json(rows) == json_rows(floats)
