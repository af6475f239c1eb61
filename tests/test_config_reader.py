"""The config reader as a whole: the README's document, the first of several
faults, empty values, and the constants override file read like the
document."""

import configparser
import re
from pathlib import Path

import pytest

from gravent.config import _KEYS, MODES, parse_config, parse_constants_overrides
from gravent.errors import ConfigError

README = Path(__file__).resolve().parent.parent / "README.md"

SYSTEM = """\
[system]
m1 = 1e-14
m2 = 1e-14
omega1 = 1e5
omega2 = 1e5
d = 1e-6
tau = 1.0
"""


def document(run="", system=SYSTEM, extra=""):
    return f"[run]\nmode = report\n{run}\n{system}{extra}"


def readme_config() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## CLI"):text.index("## Library")]
    return section.split("```ini\n")[1].split("```")[0]


@pytest.mark.parametrize("mode", MODES)
def test_readme_config_parses_in_each_mode(mode):
    config = parse_config(readme_config(), mode=mode)
    assert config.mode == mode
    fixed = config.spec.fixed
    assert (fixed["m1"], fixed["omega1"], fixed["d"], fixed["tau"]) == (1e-14, 1e5, 1e-6, 1.0)
    assert (config.output, config.format, config.precision) == ("results.csv", "csv", 12)
    assert config.spec.constants.G == 6.67430e-11
    if mode == "sweep":
        assert {name: axis.count for name, axis in config.spec.axes.items()} == {"tau": 10, "d": 5}
        assert config.sweep_spec().grid_size() == 50
    else:
        assert config.spec.axes == {}


def test_readme_config_names_every_key_the_reader_accepts():
    """Every [run], [system] and [constants] key is in the README's document,
    and every key there, [sweep] included, is one the reader accepts."""
    parser = configparser.RawConfigParser(
        delimiters=("=",), inline_comment_prefixes=(";",), default_section=""
    )
    parser.optionxform = str
    parser.read_string(readme_config())
    named = {section: set(parser.options(section)) for section in parser.sections()}
    assert set(named) == set(_KEYS)
    for section, keys in _KEYS.items():
        assert named[section] <= set(keys), section
        if section != "sweep":
            assert named[section] == set(keys), section


SWEEP_SYSTEM = SYSTEM.replace("tau = 1.0\n", "")


# Each document holds two or more faults; the first check that fails names its
# fault, whatever the order the faults appear in.
FIRST_FAULTS = [
    (document(run="precision = x", system=SYSTEM.replace("m1 = 1e-14", "m1 = -1")),
     None, r"^\[run\] precision: expected an integer, got 'x'$"),
    (document(system=SYSTEM.replace("m1 = 1e-14", "m1 = -1").replace("m2 = 1e-14", "m2 = x")),
     None, r"^\[system\] m1: mass must be positive, got -1\.0$"),
    (document(system=SWEEP_SYSTEM, extra="\n[constants]\nG = x\n\n[sweep]\n"),
     "sweep", r"\[constants\] G: expected a number, got 'x'$"),
    (document(run="format = xml\nprecision = 0"),
     None, r"^\[run\] format: must be one of \('csv', 'json'\), got 'xml'$"),
    (document(run="precision = 0\nregime_threshold = nan"),
     None, r"^\[run\] precision: must be in \[1, 17\], got 0$"),
    (document(run="regime_threshold = -1\nsymmetrize_force = maybe"),
     None, r"^\[run\] regime_threshold: must be positive, got -1\.0$"),
    (document(run="symmetrize_force = maybe", extra="\n[constants]\nG = x\n"),
     None, r"^\[run\] symmetrize_force: expected a boolean, got 'maybe'$"),
    (document(extra="\n[constants]\nhbar = x\nG = y\n"),
     None, r"\[constants\] G: expected a number, got 'y'$"),
    (document(extra="\n[constants]\nG = -1\n\n[sweep]\ntau = x\n"),
     "sweep", r"^\[constants\]: G must be positive, got -1\.0$"),
    (document(system=SWEEP_SYSTEM, extra="\n[sweep]\nworkers = 0\ntau = x\n"),
     "sweep", r"^\[sweep\] workers: must be >= 1, got 0$"),
    (document(system=SWEEP_SYSTEM, extra="\n[sweep]\ntau = x\nworkers = 0\n"),
     "sweep", r"^\[sweep\] tau: expected start:stop:count\[:linear\|log\], got 'x'$"),
    (document(system=SYSTEM.replace("m1 = 1e-14", "m1 = nan"), extra="\n[sweep]\nworkers = 2\n"),
     "sweep", r"^sweep mode requires at least one range in \[sweep\]$"),
    (document(system=SYSTEM.replace("m1 = 1e-14", "m1 = nan").replace("d = 1e-6\n", "")),
     None, r"^\[system\] m1: must be finite, got nan$"),
    (document(system=SYSTEM.replace("tau = 1.0", "tau = -1\nr1 = -1")),
     None, r"^\[system\] tau: time must be non-negative, got -1\.0$"),
    (document(system=SWEEP_SYSTEM + "r1 = -1\n"),
     "tau-star", r"^\[system\] r1: radius must be non-negative, got -1\.0$"),
    (document(system=SWEEP_SYSTEM + "r1 = -1\n"),
     None, r"^\[system\] r1: radius must be non-negative, got -1\.0$"),
    (document(system=SWEEP_SYSTEM.replace("m1 = 1e-14\n", "")),
     None, r"^missing required key 'm1' in section \[system\]$"),
    # [run] output is read after every other key.
    (document(run="output =", system=SYSTEM.replace("m1 = 1e-14", "m1 = -1")),
     None, r"^\[system\] m1: mass must be positive, got -1\.0$"),
    (document(run="output =", system=SWEEP_SYSTEM),
     None, r"^missing required key 'tau' in section \[system\]$"),
    (document(run="mode = dance").replace("mode = report\n", "") + "\n[plot]\n",
     None, r"^unknown section \[plot\]$"),
    (document(run="colour = red\nprecision = 0").replace("mode = report", "mode = dance"),
     None, r"^unknown key 'colour' in section \[run\]$"),
    (document().replace("mode = report\n", "") + "\n[constants]\nG = x\n",
     None, r"^missing required key 'mode' in section \[run\]$"),
]


@pytest.mark.parametrize("doc, mode, first", FIRST_FAULTS)
def test_first_of_several_faults(doc, mode, first):
    with pytest.raises(ConfigError) as caught:
        parse_config(doc, mode)
    assert re.search(first, str(caught.value)), str(caught.value)


#: A valid sweep-mode document, section by section.
SWEEP_DOCUMENT = {
    "run": {"mode": "sweep"},
    "system": {"m1": "1e-14", "m2": "1e-14", "omega1": "1e5", "omega2": "1e5", "d": "1e-6"},
    "constants": {},
    "sweep": {"tau": "1:2:2"},
}
KEYS = {
    "run": ["mode", "output", "format", "precision", "regime_threshold", "symmetrize_force"],
    "system": ["m1", "m2", "omega1", "omega2", "d", "tau", "r1", "r2"],
    "constants": ["G", "hbar"],
    "sweep": ["m1", "m2", "omega1", "omega2", "d", "tau", "workers"],
}


@pytest.mark.parametrize(
    "section, key", [(section, key) for section, keys in KEYS.items() for key in keys]
)
def test_a_key_given_empty_is_an_error_that_names_it(section, key):
    sections = {name: dict(keys) for name, keys in SWEEP_DOCUMENT.items()}
    sections[section][key] = ""
    doc = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    )
    with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: .*, got ''$"):
        parse_config(doc)


@pytest.mark.parametrize("key", ["G", "hbar"])
def test_an_override_key_given_empty_is_an_error_that_names_it(key):
    with pytest.raises(ConfigError, match=rf"^\[constants\] {key}: expected a number, got ''$"):
        parse_constants_overrides(f"[constants]\n{key} =\n")


def test_override_file_names_are_checked_like_the_document():
    assert parse_constants_overrides("[constants]\nhbar = 1e-34\nG = 2.0\n") == {
        "hbar": 1e-34, "G": 2.0,
    }
    with pytest.raises(ConfigError, match=r"^unknown key 'c' in section \[constants\]$"):
        parse_constants_overrides("[constants]\nc = 3e8\n")
    with pytest.raises(ConfigError, match=r"^unknown section \[run\]$"):
        parse_constants_overrides("[run]\nmode = report\n")
    with pytest.raises(ConfigError, match="^malformed config document: "):
        parse_constants_overrides("hbar = 1e-34\n")


def test_default_section_is_an_unknown_section():
    """configparser's [DEFAULT] would share its keys with every section and
    escape the name check."""
    with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
        parse_constants_overrides("[DEFAULT]\nG = 1\n")
    with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
        parse_config("[DEFAULT]\nmode = report\n")
    with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
        parse_config(document(extra="\n[DEFAULT]\nr1 = 0.0\n"))


def test_constants_value_error_is_prefixed_once():
    with pytest.raises(ConfigError, match=r"^\[constants\] G: expected a number, got 'x'$"):
        parse_config(document(extra="\n[constants]\nG = x\n"))
