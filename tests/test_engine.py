"""The columnar sweep engine: pinned CLI bytes, grid inputs, float64 range
failures as error rows, and the names the benchmark harness relies on."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravent import cli, kernel, sweep
from gravent.cli import main, rows_to_json
from gravent.dynamics import PhaseSet
from gravent.errors import FloatRangeError
from gravent.measures import report, report_from_phases
from gravent.model import MassiveBody, PairSystem, PhysicalConstants
from gravent.potential import entanglement_force
from gravent.sweep import CHUNK_POINTS, AxisSpec, SweepRow, SweepSpec, evaluate_point, run_sweep

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

# sha256 of the CLI output, recorded with the per-point object pipeline
# that preceded the columnar engine.
PINNED = {
    (MIXED_DOC, "csv"): "f11cc564bd1294e6d141c0b2f205f36bdd921549fa238654e6ce54dd5c3edc47",
    (MIXED_DOC, "json"): "290fb5e0e535ba5fcda8384e46ea4b3b00cd5fcd120777446f8b0fbaac0fb08e",
    (ONE_POINT_DOC, "csv"): "40d7f93ae8d669c6330b66555fec34be326dba534f24efb1152c9ee44e828726",
    (ONE_POINT_DOC, "json"): "26f65280b7d3b7b35fdac01aaae0d7f2f93f067585b5f1ae28bfb37283201bbe",
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
    inputs = spec.inputs(indices)
    columns = {name: values[pos] for name, (values, pos) in inputs.items()}
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
TAU_STAR_RANGE_CASES = [
    (dict(d=1e120), "d**3 overflows"),
    (dict(d=1e-120), "d**3 underflows to 0"),
    (dict(m1=1e-200, omega1=1e-200), "mass*omega underflows to 0 at 1e-200 and 1e-200"),
]


@pytest.mark.parametrize("values, error", TAU_STAR_RANGE_CASES,
                         ids=["d-overflow", "d-underflow", "mass-omega-underflow"])
def test_float_range_failures_exit_2_in_tau_star_mode(tmp_path, capsys, values, error):
    doc = system_doc("tau-star", {**PAPER_BODIES, **values})
    assert main(["--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"gravent: error: {error}\n"


def test_report_raises_float_range_error():
    body = MassiveBody(1e-200, 0.0, 1e-200)
    system = PairSystem(body, MassiveBody(1e-14, 0.0, 1e5), 1e-6, PhysicalConstants())
    with pytest.raises(FloatRangeError, match="underflows"):
        report(system, 1.0)


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
    expected = [
        {name: (None if isinstance(v, float) and not math.isfinite(v) else v)
         for name, v in zip(sweep.ROW_FIELD_NAMES, (getattr(r, n) for n in sweep.ROW_FIELD_NAMES))}
        for r in rows
    ]
    assert rows_to_json(rows) == json.dumps(expected, indent=2) + "\n"
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
    from gravent.dynamics import PhaseSet, accumulated_phase
    from gravent.errors import GraventError
    from gravent.measures import report_from_phases
    from gravent.model import assess_validity
    from gravent.potential import entanglement_force

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


def same_bits(a, b):
    return all(
        (x == y and math.copysign(1, x) == math.copysign(1, y)) or (x != x and y != y)
        if isinstance(x, float) else x == y
        for x, y in zip((getattr(a, n) for n in sweep.ROW_FIELD_NAMES),
                        (getattr(b, n) for n in sweep.ROW_FIELD_NAMES))
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
    else:
        assert same_bits(row, reference), (row, reference)


@settings(max_examples=500, deadline=None)
@given(x=st.one_of(
    st.floats(min_value=0.0, max_value=sys.float_info.max),
    st.sampled_from([-0.0, 5e-324, sys.float_info.max]),
))
def test_kernel_states_pass_every_value_object_check(x):
    """The kernel does not check the states it builds from a finite phase.
    The scalar route checks every state, density matrix and spectrum: it
    raises nothing at any finite phase and agrees with the kernel bit for bit."""
    expected = report_from_phases(PhaseSet(phi=0.0, phi_prime=-x, delta_phi=x))
    measures = kernel._measures(np.array([x]))
    got = {name: repr(column.tolist()[0]) for name, column in measures.items()}
    assert got == {name: repr(getattr(expected, name)) for name in got}
