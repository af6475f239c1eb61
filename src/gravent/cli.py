"""Batch command-line front-end.

Reads a config document, runs a single report, a parameter sweep, or the
time-to-maximal-entanglement inversion, and writes CSV or JSON. Diagnostics
go to stderr; data goes to the output file or stdout.

Exit codes: 0 success, 1 configuration/validation failure, 2 numerical
domain failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import itertools
import json
import math
import os
import sys
import warnings
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import TextIO

from .config import MODES, FORMATS, RunConfig, parse_config, parse_constants_overrides
from .errors import ConfigError, GraventError, WidthWarning
from .model import MassiveBody, PairSystem, PhysicalConstants, zero_point_width
from .potential import warn_out_of_regime
from .sweep import (
    ROW_FIELD_NAMES,
    ROW_FIELD_TYPES,
    SweepRow,
    row_chunks,
    run_sweep,
    time_to_max_entanglement,
)

__all__ = ["main", "rows_to_csv", "rows_to_json"]

CONSTANTS_ENV_VAR = "GRAVENT_CONSTANTS"


def _format_float(value: float, precision: int) -> str:
    return f"{value:.{precision - 1}e}"


def _bool_text(column: list) -> list[str]:
    return ["true" if value else "false" for value in column]


def _texts(column: list, encode: Callable[[object], str]) -> list[str]:
    """``encode`` of each value, computed once per distinct value: the swept
    inputs, the radii and the status repeat across a chunk. A zero is keyed
    by its repr, as 0.0 and -0.0 are one dict key."""
    texts: dict = {}
    out = []
    for value in column:
        key = value if value else repr(value)
        text = texts.get(key)
        if text is None:
            text = texts[key] = encode(value)
        out.append(text)
    return out


def _json_float(value: float) -> str:
    # Non-finite floats are not valid JSON; they are written as null.
    return repr(value) if math.isfinite(value) else "null"


def _write_rows(
    out: TextIO, line: str, chunks: Iterable[list[list]], cells: dict, separator: str = ""
) -> None:
    """Write each row of ``chunks`` as ``line % values``, rows joined by ``separator``.

    ``cells`` maps a row field's type name to what turns its column into
    the texts ``line`` formats; other columns are formatted as they are.
    """
    lead = ""
    for columns in chunks:
        values = [cells.get(kind, list)(column) for kind, column in zip(ROW_FIELD_TYPES, columns)]
        out.write(lead + separator.join([line % row for row in zip(*values)]))
        lead = separator


def rows_to_csv(
    rows: Iterable[SweepRow], precision: int = 12, out: TextIO | None = None
) -> str | None:
    """RFC-4180 table: header of row field names, LF line endings.

    Floats are written in scientific notation at ``precision`` significant
    digits; numeric cells are never quoted. Writes to ``out`` when given,
    one chunk of rows at a time, and otherwise returns the text.
    """
    buffer = io.StringIO() if out is None else out
    buffer.write(",".join(ROW_FIELD_NAMES) + "\n")
    line = ",".join(["%s"] * len(ROW_FIELD_NAMES)) + "\n"
    float_text = f"%.{precision - 1}e".__mod__
    cells = {"float": lambda column: _texts(column, float_text), "bool": _bool_text}
    _write_rows(buffer, line, row_chunks(rows), cells)
    return buffer.getvalue() if out is None else None


def rows_to_json(rows: Iterable[SweepRow], out: TextIO | None = None) -> str | None:
    """JSON array of row objects, floats at full round-trip precision, as
    ``json.dumps(..., indent=2)`` lays it out; non-finite floats are null.

    Writes to ``out`` when given, one chunk of rows at a time, and
    otherwise returns the text.
    """
    buffer = io.StringIO() if out is None else out
    members = ",\n".join(f"    {json.dumps(name)}: %s" for name in ROW_FIELD_NAMES)
    cells = {
        "float": lambda column: _texts(column, _json_float),
        "bool": _bool_text,
        "str": lambda column: _texts(column, json.dumps),
    }
    chunks = row_chunks(rows)
    first = next(chunks, None)
    if first is None:
        buffer.write("[]\n")
    else:
        buffer.write("[\n")
        line = "  {\n" + members + "\n  }"
        _write_rows(buffer, line, itertools.chain([first], chunks), cells, ",\n")
        buffer.write("\n]\n")
    return buffer.getvalue() if out is None else None


def _emit(write: Callable[[TextIO], object], output: str | None) -> None:
    """Run ``write`` on stdout, or on the output file, which it replaces."""
    if output is None:
        write(sys.stdout)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


def _build_system(config: RunConfig) -> PairSystem:
    body1 = MassiveBody(config.m1, config.r1, config.omega1)
    body2 = MassiveBody(config.m2, config.r2, config.omega2)
    return PairSystem(body1, body2, config.d, config.constants)


def _warn_width_vs_radius(config: RunConfig) -> None:
    # The geometric radii never enter the math; they only sanity-check the
    # narrow-wave-packet picture, so a zero (unset) radius is not compared.
    for label, mass, radius, omega in (
        ("body 1", config.m1, config.r1, config.omega1),
        ("body 2", config.m2, config.r2, config.omega2),
    ):
        if radius > 0:
            width = zero_point_width(mass, omega, config.constants)
            if width > radius:
                warnings.warn(
                    f"{label}: zero-point width {width:.3e} m exceeds the geometric "
                    f"radius {radius:.3e} m",
                    WidthWarning,
                    stacklevel=2,
                )


def _apply_env_constants(config: RunConfig) -> RunConfig:
    path = os.environ.get(CONSTANTS_ENV_VAR)
    if not path:
        return config
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{CONSTANTS_ENV_VAR} points to an unreadable file: {exc}") from None
    overrides = parse_constants_overrides(text)
    if not overrides:
        return config
    try:
        constants = PhysicalConstants(
            G=overrides.get("G", config.constants.G),
            hbar=overrides.get("hbar", config.constants.hbar),
        )
    except GraventError as exc:
        raise ConfigError(f"{CONSTANTS_ENV_VAR}: {exc}") from None
    return dataclasses.replace(config, constants=constants)


def _run_report(config: RunConfig) -> list[SweepRow]:
    _warn_width_vs_radius(config)
    (row,) = run_sweep(config.sweep_spec())
    if row.status != "ok":
        raise GraventError(row.status.removeprefix("error: "))
    if not row.in_regime:
        warn_out_of_regime(row.ratio_x, row.regime_threshold, stacklevel=1)
    return [row]


def _serialize(rows: Iterable[SweepRow], config: RunConfig, out: TextIO) -> None:
    if config.format == "json":
        rows_to_json(rows, out)
    else:
        rows_to_csv(rows, config.precision, out)


def _run_tau_star(config: RunConfig) -> str:
    system = _build_system(config)
    tau_star = time_to_max_entanglement(system)
    return _format_float(tau_star, config.precision) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise ConfigError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="gravent", description=__doc__, add_help=True)
    parser.add_argument("--config", required=True, help="path to the config document")
    parser.add_argument("--mode", help=f"replaces [run] mode: one of {', '.join(MODES)}")
    parser.add_argument("--output", help="override the configured output path")
    parser.add_argument("--format", choices=FORMATS, help="override the output format")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress warnings and diagnostics"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"gravent: error: {exc}", file=sys.stderr)
        return 1

    try:
        with warnings.catch_warnings():
            if args.quiet:
                warnings.simplefilter("ignore")
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from None
            config = parse_config(text, args.mode)
            if args.output:
                config = dataclasses.replace(config, output=args.output)
            if args.format:
                config = dataclasses.replace(config, format=args.format)
            config = _apply_env_constants(config)

            if config.mode == "tau-star":
                # The inverted time always lands on stdout; a configured
                # output path receives a copy.
                payload = _run_tau_star(config)
                sys.stdout.write(payload)
                if config.output is not None:
                    _emit(lambda out: out.write(payload), config.output)
            else:
                if config.mode == "report":
                    rows = _run_report(config)
                else:
                    rows = run_sweep(config.sweep_spec(), workers=config.workers)
                _emit(lambda out: _serialize(rows, config, out), config.output)
    except ConfigError as exc:
        print(f"gravent: error: {exc}", file=sys.stderr)
        return 1
    except GraventError as exc:
        print(f"gravent: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
