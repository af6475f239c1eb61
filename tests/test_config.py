import math
from dataclasses import fields

import pytest

from gravent.config import RunConfig, parse_config, parse_constants_overrides
from gravent.errors import ConfigError
from gravent.model import G_DEFAULT, HBAR_DEFAULT
from gravent.sweep import run_sweep

MINIMAL_REPORT = """\
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


class TestParseConfig:
    def test_minimal_document_gets_defaults(self):
        config = parse_config(MINIMAL_REPORT)
        assert config.mode == "report"
        assert config.format == "csv"
        assert config.precision == 12
        assert config.output is None
        assert config.spec.r1 == 0.0 and config.spec.r2 == 0.0
        assert config.spec.constants.G == G_DEFAULT
        assert config.spec.constants.hbar == HBAR_DEFAULT
        assert config.spec.regime_threshold == 0.1
        assert config.spec.symmetrize_force is False
        assert config.spec.axes == {}

    def test_system_numbers_parsed(self):
        config = parse_config(MINIMAL_REPORT)
        assert (config.spec.fixed["m1"], config.spec.fixed["m2"]) == (1e-14, 1e-14)
        assert (config.spec.fixed["omega1"], config.spec.fixed["omega2"]) == (1e5, 1e5)
        assert (config.spec.fixed["d"], config.spec.fixed["tau"]) == (1e-6, 1.0)

    def test_unknown_key_named(self):
        doc = MINIMAL_REPORT + "mass3 = 1.0\n"
        with pytest.raises(ConfigError, match="mass3"):
            parse_config(doc)

    def test_unknown_section_named(self):
        doc = MINIMAL_REPORT + "\n[plotting]\nstyle = dark\n"
        with pytest.raises(ConfigError, match="plotting"):
            parse_config(doc)

    def test_negative_mass_names_key(self):
        doc = MINIMAL_REPORT.replace("m1 = 1e-14", "m1 = -1e-14")
        with pytest.raises(ConfigError, match="m1"):
            parse_config(doc)

    @pytest.mark.parametrize("key", ["m1", "m2", "omega1", "omega2", "d", "tau", "r1", "r2"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_system_value_names_key(self, key, value):
        doc = MINIMAL_REPORT + f"r1 = 0.0\nr2 = 0.0\n"
        doc = doc.replace(f"\n{key} = ", f"\n{key} = {value} ; was ", 1)
        with pytest.raises(ConfigError, match=f"{key}: must be finite"):
            parse_config(doc)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_regime_threshold_rejected(self, value):
        doc = MINIMAL_REPORT.replace("mode = report", f"mode = report\nregime_threshold = {value}")
        with pytest.raises(ConfigError, match="regime_threshold: must be finite"):
            parse_config(doc)

    def test_missing_mode_rejected(self):
        doc = MINIMAL_REPORT.replace("mode = report\n", "")
        with pytest.raises(ConfigError, match="mode"):
            parse_config(doc)

    def test_bad_mode_rejected(self):
        doc = MINIMAL_REPORT.replace("mode = report", "mode = dance")
        with pytest.raises(ConfigError, match="dance"):
            parse_config(doc)

    def test_bad_number_has_context(self):
        doc = MINIMAL_REPORT.replace("d = 1e-6", "d = tiny")
        with pytest.raises(ConfigError, match=r"\[system\] d"):
            parse_config(doc)

    def test_missing_required_system_key(self):
        doc = MINIMAL_REPORT.replace("d = 1e-6\n", "")
        with pytest.raises(ConfigError, match="'d'"):
            parse_config(doc)

    def test_malformed_document(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("mode = report\n")  # key before any section header

    def test_constants_override(self):
        doc = MINIMAL_REPORT + "\n[constants]\nG = 1.0\nhbar = 2.0\n"
        config = parse_config(doc)
        assert (config.spec.constants.G, config.spec.constants.hbar) == (1.0, 2.0)

    def test_run_options(self):
        doc = MINIMAL_REPORT.replace(
            "mode = report",
            "mode = report\noutput = out.csv\nformat = json\nprecision = 6\n"
            "regime_threshold = 0.2\nsymmetrize_force = true",
        )
        config = parse_config(doc)
        assert config.output == "out.csv"
        assert config.format == "json"
        assert config.precision == 6
        assert config.spec.regime_threshold == 0.2
        assert config.spec.symmetrize_force is True

    def test_bad_precision(self):
        doc = MINIMAL_REPORT.replace("mode = report", "mode = report\nprecision = 0")
        with pytest.raises(ConfigError, match="precision"):
            parse_config(doc)

    def test_bad_boolean(self):
        doc = MINIMAL_REPORT.replace(
            "mode = report", "mode = report\nsymmetrize_force = maybe"
        )
        with pytest.raises(ConfigError, match="symmetrize_force"):
            parse_config(doc)

    def test_inline_comments_stripped(self):
        doc = MINIMAL_REPORT.replace("tau = 1.0", "tau = 1.0  ; one second")
        assert parse_config(doc).spec.fixed["tau"] == 1.0

    def test_crlf_line_endings_tolerated(self):
        assert parse_config(MINIMAL_REPORT.replace("\n", "\r\n")).spec.fixed["tau"] == 1.0


class TestSweepConfig:
    def test_ranges_parsed(self):
        doc = MINIMAL_REPORT.replace("mode = report", "mode = sweep")
        doc += "\n[sweep]\ntau = 1.0:10.0:10\nd = 1e-6:1e-5:5:log\nworkers = 3\n"
        config = parse_config(doc)
        assert set(config.spec.axes) == {"tau", "d"}
        assert config.spec.axes["tau"].count == 10
        assert config.spec.axes["tau"].spacing == "linear"
        assert config.spec.axes["d"].spacing == "log"
        spec = config.sweep_spec()
        assert spec.grid_size() == 50
        assert spec.fixed["m1"] == 1e-14
        assert spec.fixed["tau"] == 1.0 and spec.point(1)["tau"] == 2.0  # the axis overrides it

    def test_swept_parameter_needs_no_fixed_value(self):
        doc = MINIMAL_REPORT.replace("mode = report", "mode = sweep").replace(
            "tau = 1.0\n", ""
        )
        doc += "\n[sweep]\ntau = 1.0:2.0:4\n"
        spec = parse_config(doc).sweep_spec()
        assert spec.axes["tau"].count == 4

    def test_sweep_mode_requires_ranges(self):
        doc = MINIMAL_REPORT.replace("mode = report", "mode = sweep")
        with pytest.raises(ConfigError, match="sweep"):
            parse_config(doc)

    def test_malformed_range(self):
        doc = MINIMAL_REPORT.replace("mode = report", "mode = sweep")
        doc += "\n[sweep]\ntau = 1.0:10.0\n"
        with pytest.raises(ConfigError, match="start:stop:count"):
            parse_config(doc)

    def test_bad_range_spacing(self):
        doc = MINIMAL_REPORT.replace("mode = report", "mode = sweep")
        doc += "\n[sweep]\ntau = 1.0:10.0:5:cubic\n"
        with pytest.raises(ConfigError, match="tau"):
            parse_config(doc)

    def test_unknown_sweep_key(self):
        doc = MINIMAL_REPORT.replace("mode = report", "mode = sweep")
        doc += "\n[sweep]\nmass3 = 1.0:2.0:2\n"
        with pytest.raises(ConfigError, match="mass3"):
            parse_config(doc)


class TestModeRequirements:
    SWEPT_M1 = MINIMAL_REPORT.replace("m1 = 1e-14\n", "") + "\n[sweep]\nm1 = 1e-14:2e-14:3\n"

    def test_swept_only_parameter_is_none(self):
        config = parse_config(self.SWEPT_M1, mode="sweep")
        assert "m1" not in config.spec.fixed
        assert config.sweep_spec().axes["m1"].count == 3

    @pytest.mark.parametrize("mode", ["report", "tau-star"])
    def test_sweep_section_is_read_in_sweep_mode_only(self, mode):
        with pytest.raises(ConfigError, match="missing required key 'm1' in section"):
            parse_config(self.SWEPT_M1, mode=mode)
        config = parse_config(MINIMAL_REPORT + "\n[sweep]\nd = 1e-6:1e-5:5\n", mode=mode)
        assert config.spec.axes == {} and config.spec.fixed["d"] == 1e-6

    def test_report_mode_is_a_one_point_grid(self):
        spec = parse_config(MINIMAL_REPORT).sweep_spec()
        assert spec.axes == {} and spec.grid_size() == 1
        assert spec.point(0) == dict(m1=1e-14, m2=1e-14, omega1=1e5, omega2=1e5, d=1e-6, tau=1.0)

    def test_mode_argument_replaces_the_mode_key(self):
        assert parse_config(MINIMAL_REPORT, mode="tau-star").mode == "tau-star"
        doc = MINIMAL_REPORT.replace("mode = report\n", "")
        assert parse_config(doc, mode="report").mode == "report"
        with pytest.raises(ConfigError, match="dance"):
            parse_config(MINIMAL_REPORT, mode="dance")


class TestTauStarConfig:
    def test_tau_optional(self):
        doc = MINIMAL_REPORT.replace("mode = report", "mode = tau-star").replace(
            "tau = 1.0\n", ""
        )
        config = parse_config(doc)
        assert config.mode == "tau-star"
        assert math.isnan(config.spec.fixed["tau"])

    def test_spec_without_tau_evaluates_to_an_error_row(self):
        # Tau-star replaces the nan tau with tau*; evaluated as it stands,
        # the spec gives an error row, never an "ok" one.
        doc = MINIMAL_REPORT.replace("mode = report", "mode = tau-star").replace(
            "tau = 1.0\n", ""
        )
        (row,) = run_sweep(parse_config(doc).sweep_spec())
        assert row.status == "error: InputDomainError: tau must be finite, got nan"


class TestRunConfig:
    def test_fields(self):
        assert [f.name for f in fields(RunConfig)] == [
            "mode", "spec", "output", "format", "precision"
        ]

    def test_sweep_spec_is_the_spec(self):
        config = parse_config(MINIMAL_REPORT)
        assert config.sweep_spec() is config.spec

    def test_swept_parameter_keeps_its_system_value(self):
        doc = MINIMAL_REPORT.replace("mode = report", "mode = sweep") + "\n[sweep]\nd = 2e-6:4e-6:3\n"
        spec = parse_config(doc).sweep_spec()
        assert spec.fixed["d"] == 1e-6
        assert [row.d for row in run_sweep(spec)] == [2e-6, 3e-6, 4e-6]

    def test_grid_past_the_cap_is_a_config_error(self):
        doc = MINIMAL_REPORT.replace("mode = report", "mode = sweep")
        doc += "\n[sweep]\nd = 1e-6:1e-5:1001:log\ntau = 1:2:1000\n"
        with pytest.raises(
            ConfigError, match=r"^\[sweep\]: grid has 1001000 points, above the cap of 1000000$"
        ):
            parse_config(doc)


class TestConstantsOverrides:
    def test_parse_subset(self):
        assert parse_constants_overrides("[constants]\nhbar = 3e-34\n") == {
            "hbar": 3e-34
        }

    def test_empty_document(self):
        assert parse_constants_overrides("") == {}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="c_light"):
            parse_constants_overrides("[constants]\nc_light = 3e8\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="system"):
            parse_constants_overrides("[system]\nm1 = 1.0\n")
