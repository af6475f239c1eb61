"""Run-configuration document parsing and validation.

The accepted format is flat sectioned key-value text (INI surface). The
README's "CLI" section shows a full document; ``_KEYS`` holds each section's
keys, each with its reader and default, in the order they are read. Unknown
sections or keys are rejected by name, [DEFAULT] among them. [sweep] is read
in sweep mode only, where swept parameters override any fixed value given
for them in [system].

The document and the constants override file (``parse_constants_overrides``)
go through one reader: it rejects unknown names, and its getter gives a
key's default where the key is absent and the key's value, read and checked,
where it is present. So a key given with an empty value is an error that
names it, never its default. The [system] values and ``regime_threshold``
are checked by gravent.model's ``_finite`` and ``_bound``.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

from .errors import ConfigError, GraventError
from .model import (
    HBAR_DEFAULT, G_DEFAULT, REGIME_THRESHOLD_DEFAULT, PhysicalConstants, _bound, _finite, _raise,
)
from .sweep import SWEEP_PARAMETERS, AxisSpec, SweepSpec

__all__ = ["RunConfig", "parse_config", "parse_constants_overrides"]

MODES = ("report", "sweep", "tau-star")
FORMATS = ("csv", "json")
#: The significant digits a CSV float may be written with.
PRECISIONS = range(1, 18)

_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Validated batch-run description; ``parse_config`` gives every field.

    ``spec`` is the grid the run evaluates, one point outside sweep mode.
    Its ``fixed`` holds every [system] parameter the document gives, a
    swept one's too, which its axis overrides. In tau-star mode a document
    without tau gives it as nan, which tau-star replaces with tau*.
    """

    mode: str
    spec: SweepSpec
    output: str | None
    format: str
    precision: int

    def sweep_spec(self) -> SweepSpec:
        """The grid a table mode evaluates: one point in report mode."""
        return self.spec


# A reader, read(section, key, raw), is the value given as raw or a ConfigError naming the key.


def _float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from None


def _int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


def _bool(section: str, key: str, raw: str) -> bool:
    try:
        return _BOOL_VALUES[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}") from None


def _path(section: str, key: str, raw: str) -> str:
    if not raw:
        raise ConfigError(f"[{section}] {key}: expected a path, got {raw!r}")
    return raw


def _one_of(choices: tuple[str, ...]):
    def read(section: str, key: str, raw: str) -> str:
        if raw not in choices:
            raise ConfigError(f"[{section}] {key}: must be one of {choices}, got {raw!r}")
        return raw

    return read


def _precision(section: str, key: str, raw: str) -> int:
    precision = _int(section, key, raw)
    if precision not in PRECISIONS:
        raise ConfigError(
            f"[{section}] {key}: must be in [{PRECISIONS[0]}, {PRECISIONS[-1]}], got {precision}"
        )
    return precision


def _workers(section: str, key: str, raw: str) -> int:
    workers = _int(section, key, raw)
    if workers < 1:
        raise ConfigError(f"[{section}] {key}: must be >= 1, got {workers}")
    return workers


def _within(bound: str, quantity: str = ""):
    """A reader of a number that gravent.model's ``_finite`` and then
    ``_bound`` pass, through an adder whose failures are ConfigErrors
    prefixed "[section] "."""

    def read(section: str, key: str, raw: str) -> float:
        def add(fails, exc, message: str, *args) -> None:
            _raise(fails, ConfigError, f"[{section}] {message}", *args)

        value = _finite(add, f"{key}:", _float(section, key, raw))
        _bound(add, f"{key}: {quantity}" if quantity else f"{key}:", value, bound)
        return value

    return read


def _axis(section: str, key: str, raw: str) -> AxisSpec:
    parts = [p.strip() for p in raw.split(":")]
    if len(parts) not in (3, 4):
        raise ConfigError(f"[{section}] {key}: expected start:stop:count[:linear|log], got {raw!r}")
    start = _float(section, key, parts[0])
    stop = _float(section, key, parts[1])
    count = _int(section, key, parts[2])
    spacing = parts[3] if len(parts) == 4 else "linear"
    try:
        return AxisSpec(start=start, stop=stop, count=count, spacing=spacing)
    except GraventError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


#: Each section's keys in read order, but [run] output is read last: the key's
#: reader and its value when absent, None where a mode needs it.
_KEYS = {
    "run": {
        "mode": (_one_of(MODES), None),
        "format": (_one_of(FORMATS), "csv"),
        "precision": (_precision, 12),
        "regime_threshold": (_within("positive"), REGIME_THRESHOLD_DEFAULT),
        "symmetrize_force": (_bool, False),
        "output": (_path, None),
    },
    "constants": {"G": (_float, G_DEFAULT), "hbar": (_float, HBAR_DEFAULT)},
    "sweep": {**{key: (_axis, None) for key in SWEEP_PARAMETERS}, "workers": (_workers, None)},
    "system": {
        "m1": (_within("positive", "mass"), None),
        "m2": (_within("positive", "mass"), None),
        "omega1": (_within("positive", "frequency"), None),
        "omega2": (_within("positive", "frequency"), None),
        "d": (_within("positive", "separation"), None),
        "tau": (_within("non-negative", "time"), None),
        "r1": (_within("non-negative", "radius"), 0.0),
        "r2": (_within("non-negative", "radius"), 0.0),
    },
}


def _check_names(parser: configparser.RawConfigParser, keys: dict) -> None:
    """Reject the first section, or key of a section, that ``keys`` lacks."""
    for section in parser.sections():
        if section not in keys:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in keys[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")


def _keys(parser: configparser.RawConfigParser, section: str) -> list[str]:
    """The keys of ``section`` in document order; none if it is absent."""
    return parser.options(section) if parser.has_section(section) else []


def _read_document(text: str, keys: dict):
    """The parsed document, its names checked against ``keys`` (a table like
    ``_KEYS``), and its getter: ``get(section, key)`` is the key's default
    where it is absent and its reader's value where it is present."""
    # No header names the empty section, so [DEFAULT] is a section like any
    # other, checked by name, and no key is shared between sections.
    parser = configparser.RawConfigParser(
        delimiters=("=",), inline_comment_prefixes=(";", "#"), strict=True, default_section=""
    )
    parser.optionxform = str  # keys are case-sensitive; G and hbar stay as written
    try:
        parser.read_file(io.StringIO(text), source="<config>")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config document: {exc}") from None
    _check_names(parser, keys)

    def get(section: str, key: str):
        read, default = keys[section][key]
        if parser.has_option(section, key):
            return read(section, key, parser.get(section, key).strip())
        return default

    return parser, get


def parse_config(text: str, mode: str | None = None) -> RunConfig:
    """Parse and validate a config document, applying defaults.

    ``mode``, when given, replaces ``[run] mode`` and is checked like it.
    Report mode needs every [system] parameter, tau-star mode all but tau,
    and sweep mode each one either fixed in [system] or swept; [sweep] is
    read in sweep mode only. Unknown sections/keys are rejected by name;
    invalid values, empty ones included, are reported with their section
    and key. The spec is built once every key is read; a grid past
    ``MAX_GRID_POINTS`` is a ConfigError that begins "[sweep]: ".
    """
    parser, get = _read_document(text, _KEYS)

    read_mode, _ = _KEYS["run"]["mode"]
    mode = get("run", "mode") if mode is None else read_mode("run", "mode", mode)
    if mode is None:
        raise ConfigError("missing required key 'mode' in section [run]")
    run = {key: get("run", key) for key in _KEYS["run"] if key not in ("mode", "output")}

    values = {key: get("constants", key) for key in _KEYS["constants"]}
    try:
        constants = PhysicalConstants(**values)
    except GraventError as exc:
        raise ConfigError(f"[constants]: {exc}") from None

    axes = {key: get("sweep", key) for key in _keys(parser, "sweep")} if mode == "sweep" else {}
    axes.pop("workers", None)
    if mode == "sweep" and not axes:
        raise ConfigError("sweep mode requires at least one range in [sweep]")

    system = {key: get("system", key) for key in _KEYS["system"]}
    if mode == "tau-star" and system["tau"] is None:
        system["tau"] = math.nan  # replaced with tau*; evaluated as is, an error row
    for key in SWEEP_PARAMETERS:
        if system[key] is None and key not in axes:
            raise ConfigError(f"missing required key {key!r} in section [system]")

    output = get("run", "output")
    fixed = {key: system[key] for key in SWEEP_PARAMETERS if system[key] is not None}
    try:
        spec = SweepSpec(
            axes=axes, fixed=fixed, r1=system["r1"], r2=system["r2"], constants=constants,
            regime_threshold=run["regime_threshold"], symmetrize_force=run["symmetrize_force"],
        )
    except GraventError as exc:
        raise ConfigError(f"[sweep]: {exc}") from None
    return RunConfig(mode, spec, output, run["format"], run["precision"])


def parse_constants_overrides(text: str) -> dict[str, float]:
    """Parse a standalone constants document ([constants] section), read
    like the config document's [constants].

    Used for the environment-variable override path; returns the subset of
    {G, hbar} present.
    """
    parser, get = _read_document(text, {"constants": _KEYS["constants"]})
    return {key: get("constants", key) for key in _keys(parser, "constants")}
