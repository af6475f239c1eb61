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

Unknown sections or keys are rejected by name. Swept parameters override
any fixed value given for them in [system].
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
_SYSTEM_KEYS = {"m1", "m2", "r1", "r2", "omega1", "omega2", "d", "tau"}
_CONSTANTS_KEYS = {"G", "hbar"}
_SWEEP_KEYS = set(SWEEP_PARAMETERS) | {"workers"}
_SECTIONS = {
    "run": _RUN_KEYS,
    "system": _SYSTEM_KEYS,
    "constants": _CONSTANTS_KEYS,
    "sweep": _SWEEP_KEYS,
}

_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Validated batch-run description."""

    mode: str
    m1: float
    m2: float
    omega1: float
    omega2: float
    d: float
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
        """The grid this config describes (sweep mode only)."""
        if not self.sweep_axes:
            raise ConfigError("sweep mode requires at least one [sweep] range")
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


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document, applying defaults.

    Unknown sections/keys are rejected by name; invalid values are
    reported with their section and key.
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
    if parser.has_section("sweep"):
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
    for key in ("m1", "m2", "omega1", "omega2", "d", "tau", "r1", "r2"):
        raw = get("system", key)
        if raw is not None:
            system[key] = _float("system", key, raw)
            if not math.isfinite(system[key]):
                raise ConfigError(f"[system] {key}: must be finite, got {system[key]}")

    def require(key: str) -> float:
        if key in system:
            return system[key]
        raise ConfigError(f"missing required key {key!r} in section [system]")

    # Swept parameters need no fixed value; everything else does. tau is
    # unused in tau-star mode and may be omitted there.
    values: dict[str, float | None] = {}
    for key in ("m1", "m2", "omega1", "omega2", "d"):
        values[key] = system.get(key) if key in axes else require(key)
    if "tau" in axes or mode == "tau-star":
        values["tau"] = system.get("tau")
    else:
        values["tau"] = require("tau")

    for key in ("m1", "m2"):
        v = values[key]
        if v is not None and v <= 0:
            raise ConfigError(f"[system] {key}: mass must be positive, got {v}")
    for key in ("omega1", "omega2"):
        v = values[key]
        if v is not None and v <= 0:
            raise ConfigError(f"[system] {key}: frequency must be positive, got {v}")
    if values["d"] is not None and values["d"] <= 0:
        raise ConfigError(f"[system] d: separation must be positive, got {values['d']}")
    if values["tau"] is not None and values["tau"] < 0:
        raise ConfigError(f"[system] tau: time must be non-negative, got {values['tau']}")
    for key in ("r1", "r2"):
        if system.get(key, 0.0) < 0:
            raise ConfigError(f"[system] {key}: radius must be non-negative, got {system[key]}")

    # Swept parameters without an explicit [system] value carry their axis
    # start as a placeholder; sweep_spec() excludes them from the fixed set.
    def resolved(key: str) -> float:
        v = values[key]
        return float(v) if v is not None else axes[key].start

    return RunConfig(
        mode=mode,
        m1=resolved("m1"),
        m2=resolved("m2"),
        omega1=resolved("omega1"),
        omega2=resolved("omega2"),
        d=resolved("d"),
        tau=values["tau"],
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
