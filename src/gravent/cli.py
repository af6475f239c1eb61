"""Batch command-line front-end.

Reads a config document, runs a single report, a parameter sweep, or the
time-to-maximal-entanglement inversion (report mode's row at tau*), and
writes CSV or JSON. Diagnostics go to stderr; data goes to the output file or
stdout.

Exit codes: 0 success, 1 configuration/validation failure, 2 numerical
domain failure, printed with its class: ``gravent: error: ClassName: message``.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import itertools
import json
import numbers
import operator
import os
import sys
import warnings
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import TextIO

import numpy as np

from .config import MODES, FORMATS, PRECISIONS, RunConfig, parse_config, parse_constants_overrides
from . import errors
from .errors import ConfigError, GraventError, InputDomainError, WidthWarning
from .model import MassiveBody, PairSystem, zero_point_width
from .float_text import _format_e, _format_repr
from .kernel import warn_out_of_regime
from .sweep import (
    ROW_FIELD_NAMES,
    ROW_FIELD_TYPES,
    SweepRow,
    SweepSpec,
    row_chunks,
    run_sweep,
    time_to_max_entanglement,
)

__all__ = ["main", "rows_to_csv", "rows_to_json"]

CONSTANTS_ENV_VAR = "GRAVENT_CONSTANTS"


def _json_floats(values: np.ndarray) -> list[str]:
    # Non-finite floats are not valid JSON; they are written as null.
    texts = _format_repr(values)
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[i] = "null"
    return texts


_BOOL_TEXTS = np.array(["false", "true"], dtype=object)
#: The positions of the float row fields.
_FLOAT_FIELDS = [j for j, kind in enumerate(ROW_FIELD_TYPES) if kind == "float"]


def _distinct(column: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The distinct values of ``column`` and each row's position in them;
    the position is None when there is one value."""
    if (column == column[0]).all():
        return column[:1], None
    return np.unique(column, return_inverse=True)


def _field_texts(columns: list, encoders: dict[str, Callable]) -> list:
    """Per row field of a chunk: its text, where the column has one value,
    or else each row's text, in an object array.

    ``encoders`` turns the distinct float values and the distinct str
    values into their texts, so each is formatted once; float columns are
    taken apart by bit pattern, which keeps -0.0 and nan apart from 0.0, and
    all their distinct values are encoded in one call.
    """
    distinct = {j: _distinct(columns[j].view(np.uint64)) for j in _FLOAT_FIELDS}
    keys = np.concatenate([keys for keys, _ in distinct.values()]).view(np.float64)
    texts = np.array(encoders["float"](keys), dtype=object)
    floats = {}
    end = 0
    for j, (keys, inverse) in distinct.items():
        start, end = end, end + len(keys)
        floats[j] = texts[start] if inverse is None else texts[start:end][inverse]
    fields = []
    for j, (kind, column) in enumerate(zip(ROW_FIELD_TYPES, columns)):
        if kind == "float":
            fields.append(floats[j])
        elif kind == "bool":
            if column.all() or not column.any():
                fields.append("true" if column[0] else "false")
            else:
                fields.append(_BOOL_TEXTS[column.view(np.uint8)])
        elif kind == "str":
            values = list(dict.fromkeys(column))
            lookup = dict(zip(values, encoders["str"](values)))
            if len(lookup) == 1:
                fields.append(lookup[values[0]])
            else:
                fields.append(list(map(lookup.__getitem__, column)))
        else:
            fields.append(list(map(str, column.tolist())))
    return fields


def _chunk_cells(columns: list, encoders: dict[str, Callable], layout: list[str]) -> np.ndarray:
    """The cells of one chunk, a (rows, cells) object array whose rows
    concatenate to the rows' texts: ``layout[0]``, the text of field 0,
    ``layout[1]``, ..., the text of the last field, ``layout[-1]``, with
    the texts of ``_field_texts``.

    A field with one value in the chunk joins the layout texts around it
    into one cell that every row shares, so it costs nothing per row.
    """
    shared = [layout[0]]
    varying = []
    for texts, after in zip(_field_texts(columns, encoders), layout[1:]):
        if isinstance(texts, str):
            shared[-1] += texts + after
        else:
            varying.append(texts)
            shared.append(after)
    cells = np.empty((len(columns[0]), 2 * len(varying) + 1), dtype=object)
    cells[:, 0::2] = shared
    for j, texts in enumerate(varying):
        cells[:, 2 * j + 1] = texts
    return cells


def _write_rows(
    out: TextIO,
    chunks: Iterable[list],
    encoders: dict[str, Callable],
    layout: list[str],
    separator: str = "",
) -> None:
    """Write each row of ``chunks`` as ``_chunk_cells`` lays it out, rows
    joined by ``separator``."""
    layout = [separator + layout[0], *layout[1:]]
    lead = len(separator)
    for columns in chunks:
        cells = _chunk_cells(columns, encoders, layout)
        cells[0, 0] = cells[0, 0][lead:]  # the first row has no separator before it
        lead = 0
        out.write("".join(cells.ravel().tolist()))


_CSV_SPECIAL = frozenset(',"\r\n')


def _csv_texts(values: list[str]) -> list[str]:
    """Each text as an RFC 4180 cell."""
    return [v if _CSV_SPECIAL.isdisjoint(v) else '"' + v.replace('"', '""') + '"' for v in values]


def rows_to_csv(
    rows: Iterable[SweepRow], precision: int = 12, out: TextIO | None = None
) -> str | None:
    """RFC-4180 table: header of row field names, LF line endings.

    Floats are written in scientific notation at ``precision`` significant
    digits, as ``'%.{precision - 1}e' % v`` writes them (``_format_e``, with
    the ``%`` fallback for what it cannot certify); numeric cells are never
    quoted. A text cell that holds a comma, a double quote, CR or LF is
    quoted, each double quote doubled. Each distinct value of a column in a
    chunk is formatted once. Writes to ``out`` when given, one chunk of rows
    at a time, and otherwise returns the text. A ``precision`` that is not
    an integer in [1, 17], or is a bool, raises ``InputDomainError``.
    """
    if (isinstance(precision, bool) or not isinstance(precision, numbers.Integral)
            or precision not in PRECISIONS):
        raise InputDomainError(
            f"precision must be an integer in [{PRECISIONS[0]}, {PRECISIONS[-1]}], "
            f"got {precision!r}"
        )
    precision = operator.index(precision)
    buffer = io.StringIO() if out is None else out
    buffer.write(",".join(ROW_FIELD_NAMES) + "\n")
    encoders = {"float": lambda values: _format_e(values, precision), "str": _csv_texts}
    layout = ["", *[","] * (len(ROW_FIELD_NAMES) - 1), "\n"]
    _write_rows(buffer, row_chunks(rows), encoders, layout)
    return buffer.getvalue() if out is None else None


def rows_to_json(rows: Iterable[SweepRow], out: TextIO | None = None) -> str | None:
    """JSON array of row objects, floats at full round-trip precision, as
    ``json.dumps(..., indent=2)`` lays it out; non-finite floats are null.

    Floats are written as ``repr`` writes them (``_format_repr``, with the
    ``repr`` fallback for what it cannot certify), and strings as
    ``json.dumps`` does; each distinct value of a column in a chunk is
    formatted once. Writes to ``out`` when given, one chunk of rows at a
    time, and otherwise returns the text.
    """
    buffer = io.StringIO() if out is None else out
    chunks = row_chunks(rows)
    first = next(chunks, None)
    if first is None:
        buffer.write("[]\n")
    else:
        buffer.write("[\n")
        encoders = {"float": _json_floats, "str": lambda values: list(map(json.dumps, values))}
        keys = [f'    {json.dumps(name)}: ' for name in ROW_FIELD_NAMES]
        layout = ["  {\n" + keys[0], *[",\n" + key for key in keys[1:]], "\n  }"]
        _write_rows(buffer, itertools.chain([first], chunks), encoders, layout, ",\n")
        buffer.write("\n]\n")
    return buffer.getvalue() if out is None else None


def _emit(write: Callable[[TextIO], object], output: str | None) -> None:
    """Run ``write`` on stdout, then flush it, or on the output file, which
    it replaces; a failed write or flush is a ConfigError."""
    try:
        if output is None:
            write(sys.stdout)
            sys.stdout.flush()
        else:
            with open(output, "w", encoding="utf-8", newline="\n") as fh:
                write(fh)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


def _warn_width_vs_radius(spec: SweepSpec) -> None:
    # The geometric radii never enter the math; they only sanity-check the
    # narrow-wave-packet picture, so a zero (unset) radius is not compared.
    for label, mass, radius, omega in (
        ("body 1", spec.fixed["m1"], spec.r1, spec.fixed["omega1"]),
        ("body 2", spec.fixed["m2"], spec.r2, spec.fixed["omega2"]),
    ):
        if radius > 0:
            width = zero_point_width(mass, omega, spec.constants)
            if width > radius:
                warnings.warn(
                    f"{label}: zero-point width {width:.3e} m exceeds the geometric "
                    f"radius {radius:.3e} m",
                    WidthWarning,
                    stacklevel=2,
                )


def _read_text(path: str, failure: str) -> str:
    """The UTF-8 text of the file at ``path``, past any byte-order mark; a
    ConfigError that begins with ``failure`` if it cannot be read or decoded."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{failure}: {exc}") from None


def _apply_env_constants(config: RunConfig) -> RunConfig:
    """``config`` with the GRAVENT_CONSTANTS file's constants, if set, merged
    over its own; each error from that file is prefixed with the name."""
    path = os.environ.get(CONSTANTS_ENV_VAR)
    if not path:
        return config
    text = _read_text(path, f"{CONSTANTS_ENV_VAR} points to an unreadable file")
    try:
        constants = dataclasses.replace(config.spec.constants, **parse_constants_overrides(text))
    except GraventError as exc:
        raise ConfigError(f"{CONSTANTS_ENV_VAR}: {exc}") from None
    return dataclasses.replace(config, spec=dataclasses.replace(config.spec, constants=constants))


def _run_point(config: RunConfig) -> SweepRow:
    """The one-point row of report mode, at tau* in tau-star mode. The width
    against each radius is warned first; a failed row raises its error, and
    an ok row warns of the regime at the config's threshold."""
    spec = config.sweep_spec()
    _warn_width_vs_radius(spec)
    if config.mode == "tau-star":
        fixed = spec.fixed
        body1 = MassiveBody(fixed["m1"], spec.r1, fixed["omega1"])
        body2 = MassiveBody(fixed["m2"], spec.r2, fixed["omega2"])
        system = PairSystem(body1, body2, fixed["d"], spec.constants)
        spec = dataclasses.replace(spec, fixed={**fixed, "tau": time_to_max_entanglement(system)})
    (row,) = run_sweep(spec)
    if row.status != "ok":
        name, message = row.status.removeprefix("error: ").split(": ", 1)
        raise getattr(errors, name)(message)
    if not row.in_regime:
        warn_out_of_regime(row.ratio_x, row.regime_threshold, stacklevel=1)
    return row


def _serialize(rows: Iterable[SweepRow], config: RunConfig, out: TextIO) -> None:
    if config.format == "json":
        rows_to_json(rows, out)
    else:
        rows_to_csv(rows, config.precision, out)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise ConfigError(message)


def _output_path(raw: str) -> str:
    """An ``--output`` value: a path, checked like the document's ``output``."""
    if not raw:
        raise argparse.ArgumentTypeError(f"expected a path, got {raw!r}")
    return raw


def build_parser() -> _Parser:
    parser = _Parser(prog="gravent", description=__doc__, add_help=True)
    parser.add_argument("--config", required=True, help="path to the config document")
    parser.add_argument("--mode", help=f"replaces [run] mode: one of {', '.join(MODES)}")
    parser.add_argument("--output", type=_output_path, help="override the configured output path")
    parser.add_argument("--format", choices=FORMATS, help="override the output format")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress warnings and diagnostics"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with warnings.catch_warnings():
            if args.quiet:
                warnings.simplefilter("ignore")
            config = parse_config(_read_text(args.config, "cannot read config"), args.mode)
            config = dataclasses.replace(
                config, output=args.output or config.output, format=args.format or config.format
            )
            config = _apply_env_constants(config)

            if config.mode == "tau-star":
                # The inverted time always lands on stdout; a configured
                # output path receives a copy.
                (text,) = _format_e(np.array([_run_point(config).tau]), config.precision)
                payload = text + "\n"
                _emit(lambda out: out.write(payload), None)
                if config.output is not None:
                    _emit(lambda out: out.write(payload), config.output)
            else:
                if config.mode == "report":
                    rows = [_run_point(config)]
                else:
                    rows = run_sweep(config.sweep_spec())
                _emit(lambda out: _serialize(rows, config, out), config.output)
    except ConfigError as exc:
        print(f"gravent: error: {exc}", file=sys.stderr)
        return 1
    except GraventError as exc:
        print(f"gravent: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
