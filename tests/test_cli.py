import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gravent
from gravent.cli import CONSTANTS_ENV_VAR, main, rows_to_csv, rows_to_json
from gravent.config import MODES
from gravent.errors import InputDomainError, RegimeWarning, WidthWarning
from gravent.measures import report
from gravent.model import MassiveBody, PairSystem, PhysicalConstants
from gravent.sweep import ROW_FIELD_NAMES

REPORT_DOC = """\
[run]
mode = report

[system]
m1 = 1e-14
m2 = 1e-14
omega1 = 1e5
omega2 = 1e5
d = 1e-6
tau = 1.0
"""

SWEEP_DOC = """\
[run]
mode = sweep

[system]
m1 = 1e-14
m2 = 1e-14
omega1 = 1e5
omega2 = 1e5
d = 1e-6

[sweep]
tau = 1.0:10.0:10
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestReportMode:
    def test_stdout_csv(self, tmp_path, capsys):
        assert main(["--config", write_config(tmp_path, REPORT_DOC)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == ",".join(ROW_FIELD_NAMES)
        assert len(lines) == 2
        assert "2.66972000000e-11" in lines[1]

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "row.csv"
        code = main(
            ["--config", write_config(tmp_path, REPORT_DOC), "--output", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        text = target.read_text(encoding="utf-8")
        assert text.count("\n") == 2
        assert "2.66972000000e-11" in text

    def test_json_format(self, tmp_path, capsys):
        code = main(["--config", write_config(tmp_path, REPORT_DOC), "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["delta_phi"] == pytest.approx(2.66972e-11, rel=1e-12)
        assert rows[0]["status"] == "ok"

    def test_json_round_trip_reproduces_report(self, tmp_path, capsys):
        main(["--config", write_config(tmp_path, REPORT_DOC), "--format", "json"])
        row = json.loads(capsys.readouterr().out)[0]
        body1 = MassiveBody(row["m1"], row["r1"], row["omega1"])
        body2 = MassiveBody(row["m2"], row["r2"], row["omega2"])
        system = PairSystem(body1, body2, row["d"], PhysicalConstants())
        rebuilt = report(system, row["tau"])
        assert rebuilt.delta_phi == row["delta_phi"]
        assert rebuilt.purity_reduced == row["purity_reduced"]
        assert rebuilt.epsilon == row["epsilon"]
        assert rebuilt.entropy_nats == row["entropy_nats"]

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path, REPORT_DOC)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["--config", config, "--output", str(out_a)]) == 0
        assert main(["--config", config, "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestSweepMode:
    def test_ten_rows_plus_header(self, tmp_path, capsys):
        assert main(["--config", write_config(tmp_path, SWEEP_DOC)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 11
        assert lines[0].split(",")[0] == "index"

    def test_csv_shape_is_rfc4180(self, tmp_path):
        target = tmp_path / "sweep.csv"
        main(["--config", write_config(tmp_path, SWEEP_DOC), "--output", str(target)])
        raw = target.read_bytes()
        assert b"\r" not in raw  # LF endings on write
        assert raw.endswith(b"\n")
        assert b'"' not in raw  # numerics never quoted
        header = raw.decode().splitlines()[0].split(",")
        assert tuple(header) == ROW_FIELD_NAMES

    def test_mode_override_flag(self, tmp_path, capsys):
        config = write_config(tmp_path, SWEEP_DOC)
        assert main(["--config", config, "--mode", "tau-star"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(5.8837493324951554e10, rel=1e-11)

    def test_error_rows_do_not_fail_the_run(self, tmp_path, capsys):
        doc = SWEEP_DOC.replace("tau = 1.0:10.0:10", "tau = -2.0:2.0:3")
        assert main(["--config", write_config(tmp_path, doc)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert "error: InputDomainError" in lines[1]
        assert lines[3].endswith("ok")


class TestModeRequirements:
    @pytest.mark.parametrize("mode", ["report", "tau-star"])
    def test_swept_only_parameter_is_missing_outside_sweep_mode(self, tmp_path, capsys, mode):
        # Outside sweep mode [sweep] is not read, so m1 is not given at all.
        doc = REPORT_DOC.replace("mode = report", f"mode = {mode}").replace("m1 = 1e-14\n", "")
        doc += "\n[sweep]\nm1 = 1e-14:2e-14:3\n"
        assert main(["--config", write_config(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gravent: error: missing required key 'm1' in section [system]\n"

    def test_report_mode_flag_on_a_swept_tau(self, tmp_path, capsys):
        assert main(["--config", write_config(tmp_path, SWEEP_DOC), "--mode", "report"]) == 1
        assert capsys.readouterr().err == (
            "gravent: error: missing required key 'tau' in section [system]\n"
        )

    def test_mode_flag_stands_in_for_a_missing_mode_key(self, tmp_path, capsys):
        doc = REPORT_DOC.replace("mode = report\n", "")
        assert main(["--config", write_config(tmp_path, doc), "--mode", "report"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and "2.66972000000e-11" in lines[1]

    def test_mode_flag_is_checked_like_the_mode_key(self, tmp_path, capsys):
        assert main(["--config", write_config(tmp_path, REPORT_DOC), "--mode", "dance"]) == 1
        assert "[run] mode: must be one of" in capsys.readouterr().err


class TestTauStarMode:
    def test_value_on_stdout(self, tmp_path, capsys):
        doc = REPORT_DOC.replace("mode = report", "mode = tau-star")
        assert main(["--config", write_config(tmp_path, doc)]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(5.8837493324951554e10, rel=1e-11)

    def test_copy_to_output_file(self, tmp_path, capsys):
        doc = REPORT_DOC.replace("mode = report", "mode = tau-star")
        target = tmp_path / "tau.txt"
        assert main(["--config", write_config(tmp_path, doc), "--output", str(target)]) == 0
        assert capsys.readouterr().out == target.read_text(encoding="utf-8")

    def test_given_tau_is_replaced(self, tmp_path, capsys):
        doc = REPORT_DOC.replace("mode = report", "mode = tau-star")
        outputs = []
        for tau in ("", "tau = 7.0\n"):
            assert main(["--config", write_config(tmp_path, doc.replace("tau = 1.0\n", tau))]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out == "5.88374933250e+10\n"

    @pytest.mark.parametrize("precision", range(1, 18))
    def test_precision_writes_percent_e(self, tmp_path, capsys, precision):
        # 16 and 17 go through the formatter's "%" fallback.
        doc = REPORT_DOC.replace("mode = report", f"mode = tau-star\nprecision = {precision}")
        assert main(["--config", write_config(tmp_path, doc)]) == 0
        body = MassiveBody(mass=1e-14, radius=0.0, omega=1e5)
        tau_star = gravent.time_to_max_entanglement(PairSystem(body, body, 1e-6))
        assert capsys.readouterr().out == f"%.{precision - 1}e\n" % tau_star

    def test_no_entanglement_is_domain_failure(self, tmp_path, capsys):
        doc = REPORT_DOC.replace("mode = report", "mode = tau-star")
        doc += "\n[constants]\nhbar = 0.0\n"
        assert main(["--config", write_config(tmp_path, doc)]) == 2
        assert "error" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_config_file(self, capsys):
        assert main(["--config", "/nonexistent/run.ini"]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_validation_failure(self, tmp_path, capsys):
        doc = REPORT_DOC.replace("m1 = 1e-14", "m1 = -1e-14")
        assert main(["--config", write_config(tmp_path, doc)]) == 1
        assert "m1" in capsys.readouterr().err

    def test_non_finite_value_is_validation_failure(self, tmp_path, capsys):
        doc = REPORT_DOC.replace("m1 = 1e-14", "m1 = nan")
        assert main(["--config", write_config(tmp_path, doc)]) == 1
        assert capsys.readouterr().err == "gravent: error: [system] m1: must be finite, got nan\n"

    def test_non_finite_constants_override_is_validation_failure(self, tmp_path, capsys, monkeypatch):
        constants = tmp_path / "constants.ini"
        constants.write_text("[constants]\nhbar = nan\n", encoding="utf-8")
        monkeypatch.setenv(CONSTANTS_ENV_VAR, str(constants))
        assert main(["--config", write_config(tmp_path, REPORT_DOC)]) == 1
        assert "hbar must be finite" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert main([]) == 1
        assert "config" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::gravent.errors.RegimeWarning")
    def test_numerical_domain_failure(self, tmp_path, capsys):
        # separation small enough that the expansion diverges
        doc = REPORT_DOC.replace("d = 1e-6", "d = 1e-13")
        assert main(["--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gravent: error: ConvergenceDomainError: |dr_sum/d| = ")
        assert err.count("error:") == 1

    def test_phase_past_float_resolution_is_domain_failure(self, tmp_path, capsys):
        doc = REPORT_DOC.replace("tau = 1.0", "tau = 1e40")
        assert main(["--config", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.startswith(
            "gravent: error: PrecisionError: delta_phi = 2.66972e+29 rad >= 2**33"
        )

    def test_unwritable_output_is_validation_failure(self, tmp_path, capsys):
        target = tmp_path / "no_such_dir" / "row.csv"
        code = main(
            ["--config", write_config(tmp_path, REPORT_DOC), "--output", str(target)]
        )
        assert code == 1
        assert "cannot write output" in capsys.readouterr().err

    GRID_PAST_THE_CAP = SWEEP_DOC.replace("tau = 1.0:10.0:10", "d = 1e-6:1e-5:1001:log\ntau = 1:2:1000")

    def test_grid_past_the_cap_is_validation_failure(self, tmp_path, capsys):
        assert main(["--config", write_config(tmp_path, self.GRID_PAST_THE_CAP)]) == 1
        assert capsys.readouterr() == (
            "", "gravent: error: [sweep]: grid has 1001000 points, above the cap of 1000000\n"
        )

    def test_grid_past_the_cap_is_reported_before_the_constants_file(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(CONSTANTS_ENV_VAR, str(tmp_path / "missing.ini"))
        assert main(["--config", write_config(tmp_path, self.GRID_PAST_THE_CAP)]) == 1
        assert capsys.readouterr().err.startswith("gravent: error: [sweep]: grid has 1001000")

    def test_closed_stdout_is_one_line_on_stderr(self, tmp_path):
        # More rows than a pipe buffer holds: the writes after the reader
        # closes the pipe fail with EPIPE.
        doc = SWEEP_DOC.replace("tau = 1.0:10.0:10", "tau = 1.0:10.0:2000")
        stderr = tmp_path / "stderr.txt"
        env = {**os.environ, "PYTHONPATH": str(Path(gravent.__file__).resolve().parent.parent)}
        with open(stderr, "wb") as err, subprocess.Popen(
            [sys.executable, "-m", "gravent.cli", "--config", write_config(tmp_path, doc)],
            stdout=subprocess.PIPE, stderr=err, env=env,
        ) as proc:
            assert proc.stdout.readline().startswith(b"index,")
            proc.stdout.close()
            assert proc.wait(timeout=120) == 1
        assert stderr.read_text(encoding="utf-8") == (
            "gravent: error: cannot write output: [Errno 32] Broken pipe\n"
        )


FULL_RANGE = st.floats(min_value=5e-324, max_value=sys.float_info.max)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    mode=st.sampled_from(MODES),
    system=st.fixed_dictionaries(
        {name: FULL_RANGE for name in ("m1", "m2", "omega1", "omega2", "d", "tau")}
    ),
    r1=st.none() | FULL_RANGE,
    tau_stop=FULL_RANGE,
)
def test_exit_code_over_the_float_range(tmp_path, capsys, mode, system, r1, tau_stop):
    """Any valid config ends in exit code 0, 1 or 2; no exception escapes.
    Tau-star either prints a finite positive time or exits 2."""
    lines = ["[run]", f"mode = {mode}", "", "[system]"]
    lines += [f"{name} = {value!r}" for name, value in system.items()]
    if r1 is not None:
        lines.append(f"r1 = {r1!r}")
    if mode == "sweep":
        lines += ["", "[sweep]", f"tau = {system['tau']!r}:{tau_stop!r}:2"]
    config = write_config(tmp_path, "\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["--config", config])
    out = capsys.readouterr().out
    assert code in (0, 1, 2)
    if mode == "tau-star":
        assert code in (0, 2)
        if code == 0:
            tau_star = float(out)
            assert math.isfinite(tau_star) and tau_star > 0, out


class TestDiagnostics:
    def test_out_of_regime_warning_on_stderr(self, tmp_path, capsys):
        doc = REPORT_DOC.replace("d = 1e-6", "d = 2e-12")
        config = write_config(tmp_path, doc)
        with pytest.warns(UserWarning):
            assert main(["--config", config]) == 0

    @pytest.mark.parametrize("threshold, d, warns", [
        ("0.5", "3.25e-12", False),  # x = 0.1998 is in the regime at 0.5
        ("0.01", "1.3e-11", True),  # x = 0.04996 is out of it at 0.01
    ])
    def test_regime_warning_follows_regime_threshold(self, tmp_path, capsys, threshold, d, warns):
        doc = REPORT_DOC.replace("mode = report", f"mode = report\nregime_threshold = {threshold}")
        doc = doc.replace("d = 1e-6", f"d = {d}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", write_config(tmp_path, doc), "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["in_regime"] is not warns
        messages = [str(w.message) for w in caught if issubclass(w.category, RegimeWarning)]
        if warns:
            assert len(messages) == 1 and f">= {float(threshold):.3e}" in messages[0]
        else:
            assert messages == []

    def test_no_regime_warning_ahead_of_a_report_error(self, tmp_path, capsys):
        # d below the summed widths: the expansion diverges, x = 6.5
        doc = REPORT_DOC.replace("d = 1e-6", "d = 1e-13")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", write_config(tmp_path, doc)]) == 2
        assert "ConvergenceDomainError" in capsys.readouterr().err
        assert [w for w in caught if issubclass(w.category, RegimeWarning)] == []

    def test_quiet_suppresses_warnings(self, tmp_path, recwarn):
        doc = REPORT_DOC.replace("d = 1e-6", "d = 2e-12")
        config = write_config(tmp_path, doc)
        assert main(["--config", config, "--quiet"]) == 0
        assert len(recwarn) == 0

    def test_width_vs_radius_warning(self, tmp_path):
        # zero-point width ~3.2e-13 m exceeds a 1e-14 m geometric radius
        doc = REPORT_DOC + "r1 = 1e-14\n"
        config = write_config(tmp_path, doc)
        with pytest.warns(UserWarning, match="width"):
            assert main(["--config", config]) == 0


class TestEnvConstantsOverride:
    def test_override_applies(self, tmp_path, capsys, monkeypatch):
        constants = tmp_path / "constants.ini"
        constants.write_text("[constants]\nhbar = 1.054571817e-33\n", encoding="utf-8")
        monkeypatch.setenv(CONSTANTS_ENV_VAR, str(constants))
        assert main(["--config", write_config(tmp_path, REPORT_DOC), "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)[0]
        # delta_phi is hbar-free; the validity ratio scales with sqrt(hbar)
        assert row["delta_phi"] == pytest.approx(2.66972e-11, rel=1e-12)
        assert row["ratio_x"] == pytest.approx(
            6.4948343073553462285e-7 * math.sqrt(10), rel=1e-9
        )

    def test_unreadable_override_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(CONSTANTS_ENV_VAR, str(tmp_path / "missing.ini"))
        assert main(["--config", write_config(tmp_path, REPORT_DOC)]) == 1
        assert CONSTANTS_ENV_VAR in capsys.readouterr().err


class TestInputFaults:
    """Faults of the config and GRAVENT_CONSTANTS files exit 1 with one line
    that names the file; nothing reaches stdout."""

    def run(self, capsys, argv, code=1):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(REPORT_DOC.encode() + b"r1 = 0.0 ; \xff\n")
        err = self.run(capsys, ["--config", str(path)])
        assert err.startswith("gravent: error: cannot read config: 'utf-8' codec can't decode")

    def test_constants_file_that_is_not_utf8(self, tmp_path, capsys, monkeypatch):
        constants = tmp_path / "constants.ini"
        constants.write_bytes(b"[constants]\nhbar = 1e-34 ; \xff\n")
        monkeypatch.setenv(CONSTANTS_ENV_VAR, str(constants))
        err = self.run(capsys, ["--config", write_config(tmp_path, REPORT_DOC)])
        assert err.startswith(
            f"gravent: error: {CONSTANTS_ENV_VAR} points to an unreadable file: 'utf-8' codec"
        )

    @pytest.mark.parametrize("text, message", [
        ("hbar = 1e-34\n", "malformed config document: File contains no section headers."),
        ("[constants]\nG = x\n", "[constants] G: expected a number, got 'x'\n"),
        ("[constants]\nhbar =\n", "[constants] hbar: expected a number, got ''\n"),
        ("[system]\nm1 = 1.0\n", "unknown section [system]\n"),
        ("[constants]\nG = -1.0\n", "G must be positive, got -1.0\n"),
    ])
    def test_constants_file_errors_name_it(self, tmp_path, capsys, monkeypatch, text, message):
        constants = tmp_path / "constants.ini"
        constants.write_text(text, encoding="utf-8")
        monkeypatch.setenv(CONSTANTS_ENV_VAR, str(constants))
        err = self.run(capsys, ["--config", write_config(tmp_path, REPORT_DOC)])
        assert err.startswith(f"gravent: error: {CONSTANTS_ENV_VAR}: {message}")

    @pytest.mark.parametrize("mode", MODES)
    def test_config_with_a_byte_order_mark(self, tmp_path, capsys, mode):
        doc = REPORT_DOC.replace("mode = report", f"mode = {mode}") + "\n[sweep]\ntau = 1:2:3\n"
        assert main(["--config", write_config(tmp_path, doc)]) == 0
        plain = capsys.readouterr()
        path = tmp_path / "bom.ini"
        path.write_bytes(b"\xef\xbb\xbf" + doc.encode())
        assert main(["--config", str(path)]) == 0
        assert capsys.readouterr() == plain

    def test_constants_file_with_a_byte_order_mark(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path, REPORT_DOC)
        outputs = []
        for encoding in ("utf-8", "utf-8-sig"):
            constants = tmp_path / f"{encoding}.ini"
            constants.write_text("[constants]\nhbar = 1.054571817e-33\n", encoding=encoding)
            monkeypatch.setenv(CONSTANTS_ENV_VAR, str(constants))
            assert main(["--config", config]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    def test_empty_output_fails_before_tau_star_prints(self, tmp_path, capsys):
        doc = REPORT_DOC.replace("mode = report", "mode = tau-star\noutput =")
        err = self.run(capsys, ["--config", write_config(tmp_path, doc)])
        assert err == "gravent: error: [run] output: expected a path, got ''\n"

    def test_empty_output_flag_fails_before_tau_star_prints(self, tmp_path, capsys):
        doc = REPORT_DOC.replace("mode = report", "mode = tau-star")
        err = self.run(capsys, ["--config", write_config(tmp_path, doc), "--output", ""])
        assert err == "gravent: error: argument --output: expected a path, got ''\n"


class TestSerializers:
    def test_csv_precision_applies_to_floats(self, tmp_path, capsys):
        doc = REPORT_DOC.replace("mode = report", "mode = report\nprecision = 4")
        assert main(["--config", write_config(tmp_path, doc)]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert "2.670e-11" in line

    def test_json_keeps_full_precision(self, tmp_path, capsys):
        doc = REPORT_DOC.replace("mode = report", "mode = report\nprecision = 4")
        assert main(["--config", write_config(tmp_path, doc), "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert row["delta_phi"] == 2.66972e-11

    def test_nan_becomes_null_in_json(self, tmp_path, capsys):
        doc = SWEEP_DOC.replace("tau = 1.0:10.0:10", "tau = -1.0:1.0:2")
        assert main(["--config", write_config(tmp_path, doc), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["delta_phi"] is None
        assert rows[0]["status"].startswith("error")

    def test_helpers_round_trip_row_fields(self):
        from gravent.sweep import SweepRow

        row = SweepRow(index=0, m1=1e-14, m2=1e-14, r1=0.0, r2=0.0,
                       omega1=1e5, omega2=1e5, d=1e-6, tau=1.0)
        csv_text = rows_to_csv([row], precision=12)
        assert csv_text.splitlines()[0] == ",".join(ROW_FIELD_NAMES)
        for precision in (0, 18):
            with pytest.raises(InputDomainError, match="^precision "):
                rows_to_csv([row], precision=precision)
        payload = json.loads(rows_to_json([row]))
        assert payload[0]["index"] == 0
        assert payload[0]["in_regime"] is False


class TestTauStarDiagnostics:
    """tau-star warns as report mode does: the width against the radius, and
    the regime at the config's threshold where tau* is found."""

    # x = 0.6495 at m = 1e-26 kg, omega = 1e5 rad/s, d = 1e-6 m
    DOC = REPORT_DOC.replace("mode = report", "mode = tau-star").replace("1e-14", "1e-26")

    def run(self, tmp_path, doc, *flags):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--config", write_config(tmp_path, doc), *flags])
        return code, [(w.category, str(w.message)) for w in caught]

    def test_regime_warning(self, tmp_path, capsys):
        code, caught = self.run(tmp_path, self.DOC)
        assert code == 0
        assert capsys.readouterr().out == "5.88374933250e+22\n"
        assert caught == [(RegimeWarning, "displacement ratio x = 6.495e-01 >= 1.000e-01: "
                                          "the quadratic truncation is unreliable here")]

    @pytest.mark.parametrize("threshold, warns", [("0.7", False), ("0.5", True)])
    def test_regime_warning_follows_regime_threshold(self, tmp_path, capsys, threshold, warns):
        doc = self.DOC.replace("mode = tau-star", f"mode = tau-star\nregime_threshold = {threshold}")
        code, caught = self.run(tmp_path, doc)
        assert code == 0
        assert capsys.readouterr().out == "5.88374933250e+22\n"
        assert [category for category, _ in caught] == [RegimeWarning] * warns

    def test_width_warning(self, tmp_path, capsys):
        code, caught = self.run(tmp_path, REPORT_DOC.replace("mode = report", "mode = tau-star")
                                + "r1 = 1e-14\n")
        assert code == 0
        assert [category for category, _ in caught] == [WidthWarning]
        assert "body 1: zero-point width" in caught[0][1]

    def test_no_regime_warning_ahead_of_an_error(self, tmp_path, capsys):
        # d below the summed widths: the expansion diverges, x = 6.5
        code, caught = self.run(tmp_path, self.DOC.replace("d = 1e-6", "d = 1e-7"))
        assert code == 2
        assert "geometric expansion diverges" in capsys.readouterr().err
        assert caught == []

    def test_quiet_silences_both(self, tmp_path, capsys):
        code, caught = self.run(tmp_path, self.DOC + "r1 = 1e-20\n", "--quiet")
        assert code == 0
        assert capsys.readouterr().out == "5.88374933250e+22\n"
        assert caught == []


def test_a_bool_is_not_a_precision():
    from gravent.sweep import SweepRow

    row = SweepRow(index=0, m1=1e-14, m2=1e-14, r1=0.0, r2=0.0,
                   omega1=1e5, omega2=1e5, d=1e-6, tau=1.0)
    with pytest.raises(InputDomainError, match="^precision .*got True$"):
        rows_to_csv([row], precision=True)
