"""The README's library section: its snippet runs on the top-level imports and
gives the values its comments state, and the surface it lists is the one
the package exports."""

import re
from pathlib import Path

import pytest

import gravent

README = Path(__file__).resolve().parent.parent / "README.md"

SURFACE = [
    "AxisSpec", "ConfigError", "ConvergenceDomainError", "FloatRangeError", "GraventError",
    "InputDomainError", "MassiveBody", "NoEntanglementError", "PairSystem", "PhysicalConstants",
    "PrecisionError", "RegimeWarning", "SingularityError", "SweepSpec", "WidthWarning",
    "accumulated_phase", "entanglement_force", "parse_config", "quantum_correction", "report",
    "run_sweep", "time_to_max_entanglement",
]


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index("## Library"):]


def test_exports_are_the_documented_surface():
    assert sorted(gravent.__all__) == SURFACE
    listed = library_section().split("```")[0]
    assert sorted(set(re.findall(r"`(\w+)`", listed)) & set(dir(gravent))) == SURFACE


def test_readme_snippet_gives_the_values_in_its_comments():
    snippet = library_section().split("```python\n")[1].split("```")[0]
    namespace = {}
    exec(snippet, namespace)
    pair = namespace["pair"]
    assert namespace["quantum_correction"](pair) == pytest.approx(-2.815e-45, rel=1e-3)
    assert namespace["accumulated_phase"](pair, 1.0).delta_phi == pytest.approx(2.66972e-11, rel=1e-6)
    assert namespace["report"](pair, 1.0).delta_phi == pytest.approx(2.66972e-11, rel=1e-6)
    assert namespace["time_to_max_entanglement"](pair) == pytest.approx(5.884e10, rel=1e-3)
