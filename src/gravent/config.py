"""Run-configuration document parsing and validation.

The accepted format is flat sectioned key-value text (INI surface):

    [run]
    mode = report            ; report | sweep | tau-star
    output = results.csv     ; optional, stdout when omitted
    format = csv             ; csv | json
    precision = 12           ; significant digits in csv output

    [system]
    m1 = 1e-14
    m2 = 1e-14
    omega1 = 1e5
    omega2 = 1e5
    d = 1e-6
    tau = 1.0
    r1 = 0.0                 ; optional geometric radii, bookkeeping only
    r2 = 0.0

    [constants]
    G = 6.67430e-11
    hbar = 1.054571817e-34

    [sweep]
    tau = 1.0:10.0:10        ; start:stop:count[:linear|log]
    workers = 1

Unknown sections or keys are rejected by name. [sweep] is read in sweep
mode only, where swept parameters override any fixed value given for them
in [system].
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field

from .errors import ConfigError, GraventError
from .model import (
    HBAR_DEFAULT,
    G_DEFAULT,
    REGIME_THRESHOLD_DEFAULT,
    PhysicalConstants,
)
from .sweep import SWEEP_PARAMETERS, AxisSpec, SweepSpec

__all__ = ["RunConfig", "parse_config", "parse_constants_overrides"]

MODES = ("report", "sweep", "tau-star")
FORMATS = ("csv", "json")

_RUN_KEYS = {
    "mode",
    "output",
    "format",
    "precision",
    "regime_threshold",
    "symmetrize_force",
}
#: Each [system] key, in the order its checks run: the quantity it gives
#: and the bound its value must meet.
_SYSTEM_DOMAINS = {
    "m1": ("mass", "positive"),
    "m2": ("mass", "positive"),
    "omega1": ("frequency", "positive"),
    "omega2": ("frequency", "positive"),
    "d": ("separation", "positive"),
    "tau": ("time", "non-negative"),
    "r1": ("radius", "non-negative"),
    "r2": ("radius", "non-negative"),
}
_CONSTANTS_KEYS = {"G", "hbar"}
_SWEEP_KEYS = set(SWEEP_PARAMETERS) | {"workers"}
_SECTIONS = {
    "run": _RUN_KEYS,
    "system": _SYSTEM_DOMAINS,
    "constants": _CONSTANTS_KEYS,
    "sweep": _SWEEP_KEYS,
}

_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Validated batch-run description.

    A parameter that is only swept is None, and so is tau in tau-star mode
    when the document leaves it out.
    """

    mode: str
    m1: float | None
    m2: float | None
    omega1: float | None
    omega2: float | None
    d: float | None
    tau: float | None
    r1: float = 0.0
    r2: float = 0.0
    constants: PhysicalConstants = PhysicalConstants()
    output: str | None = None
    format: str = "csv"
    precision: int = 12
    regime_threshold: float = REGIME_THRESHOLD_DEFAULT
    symmetrize_force: bool = False
    sweep_axes: dict[str, AxisSpec] = field(default_factory=dict)
    workers: int = 1

    def sweep_spec(self) -> SweepSpec:
        """The grid a table mode evaluates: one point in report mode."""
        fixed = {
            name: getattr(self, name)
            for name in SWEEP_PARAMETERS
            if name not in self.sweep_axes and getattr(self, name) is not None
        }
        return SweepSpec(
            axes=dict(self.sweep_axes),
            fixed=fixed,
            r1=self.r1,
            r2=self.r2,
            constants=self.constants,
            regime_threshold=self.regime_threshold,
            symmetrize_force=self.symmetrize_force,
        )


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


def _axis(key: str, raw: str) -> AxisSpec:
    parts = [p.strip() for p in raw.split(":")]
    if len(parts) not in (3, 4):
        raise ConfigError(
            f"[sweep] {key}: expected start:stop:count[:linear|log], got {raw!r}"
        )
    start = _float("sweep", key, parts[0])
    stop = _float("sweep", key, parts[1])
    count = _int("sweep", key, parts[2])
    spacing = parts[3] if len(parts) == 4 else "linear"
    try:
        return AxisSpec(start=start, stop=stop, count=count, spacing=spacing)
    except GraventError as exc:
        raise ConfigError(f"[sweep] {key}: {exc}") from None


def _read_document(text: str) -> configparser.RawConfigParser:
    parser = configparser.RawConfigParser(
        delimiters=("=",), inline_comment_prefixes=(";", "#"), strict=True
    )
    parser.optionxform = str  # keys are case-sensitive; G and hbar stay as written
    try:
        parser.read_file(io.StringIO(text), source="<config>")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config document: {exc}") from None
    return parser


def parse_config(text: str, mode: str | None = None) -> RunConfig:
    """Parse and validate a config document, applying defaults.

    ``mode``, when given, replaces ``[run] mode`` and is checked like it.
    Report mode needs every [system] parameter, tau-star mode all but tau,
    and sweep mode each one either fixed in [system] or swept; [sweep] is
    read in sweep mode only. Unknown sections/keys are rejected by name;
    invalid values are reported with their section and key.
    """
    parser = _read_document(text)

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def get(section: str, key: str) -> str | None:
        if parser.has_section(section) and parser.has_option(section, key):
            return parser.get(section, key).strip()
        return None

    if mode is None:
        mode = get("run", "mode")
    if mode is None:
        raise ConfigError("missing required key 'mode' in section [run]")
    if mode not in MODES:
        raise ConfigError(f"[run] mode: must be one of {MODES}, got {mode!r}")

    fmt = get("run", "format") or "csv"
    if fmt not in FORMATS:
        raise ConfigError(f"[run] format: must be one of {FORMATS}, got {fmt!r}")

    precision_raw = get("run", "precision")
    precision = _int("run", "precision", precision_raw) if precision_raw else 12
    if not 1 <= precision <= 17:
        raise ConfigError(f"[run] precision: must be in [1, 17], got {precision}")

    threshold_raw = get("run", "regime_threshold")
    threshold = (
        _float("run", "regime_threshold", threshold_raw)
        if threshold_raw
        else REGIME_THRESHOLD_DEFAULT
    )
    if not math.isfinite(threshold):
        raise ConfigError(f"[run] regime_threshold: must be finite, got {threshold}")
    if threshold <= 0:
        raise ConfigError(f"[run] regime_threshold: must be positive, got {threshold}")

    symmetrize_raw = get("run", "symmetrize_force")
    symmetrize = _bool("run", "symmetrize_force", symmetrize_raw) if symmetrize_raw else False

    g_raw = get("constants", "G")
    hbar_raw = get("constants", "hbar")
    try:
        constants = PhysicalConstants(
            G=_float("constants", "G", g_raw) if g_raw else G_DEFAULT,
            hbar=_float("constants", "hbar", hbar_raw) if hbar_raw else HBAR_DEFAULT,
        )
    except GraventError as exc:
        raise ConfigError(f"[constants]: {exc}") from None

    axes: dict[str, AxisSpec] = {}
    workers = 1
    if mode == "sweep" and parser.has_section("sweep"):
        for key in parser.options("sweep"):
            if key == "workers":
                workers = _int("sweep", "workers", parser.get("sweep", key))
                if workers < 1:
                    raise ConfigError(f"[sweep] workers: must be >= 1, got {workers}")
            else:
                axes[key] = _axis(key, parser.get("sweep", key))
    if mode == "sweep" and not axes:
        raise ConfigError("sweep mode requires at least one range in [sweep]")

    system: dict[str, float] = {}
    for key, (quantity, bound) in _SYSTEM_DOMAINS.items():
        raw = get("system", key)
        if raw is None:
            continue
        value = system[key] = _float("system", key, raw)
        if not math.isfinite(value):
            raise ConfigError(f"[system] {key}: must be finite, got {value}")
        if value < 0 or (value == 0 and bound == "positive"):
            raise ConfigError(f"[system] {key}: {quantity} must be {bound}, got {value}")

    for key in SWEEP_PARAMETERS:
        if key not in system and key not in axes and (mode, key) != ("tau-star", "tau"):
            raise ConfigError(f"missing required key {key!r} in section [system]")

    return RunConfig(
        mode=mode,
        **{key: system.get(key) for key in SWEEP_PARAMETERS},
        r1=system.get("r1", 0.0),
        r2=system.get("r2", 0.0),
        constants=constants,
        output=get("run", "output"),
        format=fmt,
        precision=precision,
        regime_threshold=threshold,
        symmetrize_force=symmetrize,
        sweep_axes=axes,
        workers=workers,
    )


def parse_constants_overrides(text: str) -> dict[str, float]:
    """Parse a standalone constants document ([constants] section).

    Used for the environment-variable override path; returns the subset of
    {G, hbar} present.
    """
    parser = _read_document(text)
    for section in parser.sections():
        if section != "constants":
            raise ConfigError(f"constants override file: unknown section [{section}]")
    out: dict[str, float] = {}
    if parser.has_section("constants"):
        for key in parser.options("constants"):
            if key not in _CONSTANTS_KEYS:
                raise ConfigError(f"constants override file: unknown key {key!r}")
            out[key] = _float("constants", key, parser.get("constants", key))
    return out
