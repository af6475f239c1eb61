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
import math
import numbers
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
from .kernel import warn_out_of_regime
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


# _format_e certifies |v| in [1e-280, 1e280] at up to 15 significant digits:
# in that range no product in _rounded_digits overflows or goes subnormal,
# and a 15-digit integer is exact in float64 (10**15 < 2**53).
_E_RANGE = 1e-280, 1e280
_E_DIGITS = 15
#: Scales 10**k that _format_e applies, k = precision - 1 - floor(log10|v|),
#: with one to spare at each end.
_K_MIN, _K_MAX = -281, 296
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split into two 26-bit halves
# log10|v| is estimated as ln|v| * log10(e): the kernel uses np.log already,
# and np.log10 would page in machine code of its own.
_LOG10_E = 1 / math.log(10)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * x
    high = c - (c - x)
    return high, x - high


def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """hi and lo for k in _K_MIN.._K_MAX: hi is 10**k rounded to float64 and
    lo the rest, rounded, so hi + lo is 10**k to about 2**-106 relative.
    Built with int arithmetic only, each rounding correct."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            hi.append(float(10**k))
            lo.append(float(10**k - int(hi[-1])))
        else:
            scale = 10**-k
            hi.append(1 / scale)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * scale) / (den * scale))  # 10**k - hi, then rounded
    return np.array(hi), np.array(lo)


_TEN_HI, _TEN_LO = _powers_of_ten()
_TEN_HI_HIGH, _TEN_HI_LOW = _split(_TEN_HI)


def _digit_codes(count: int) -> np.ndarray:
    """0..999 in ``count`` digits, zero-padded, each as the little-endian
    uint32 of its ASCII bytes."""
    i = np.arange(1000, dtype=np.uint32)
    codes = sum((ord("0") + i // 10 ** (count - 1 - j) % 10) << (8 * j) for j in range(count))
    return codes.astype("<u4")


#: The digits of each group of up to three.
_DIGITS = {count: _digit_codes(count) for count in (1, 2, 3)}
#: The sign and first digit, without and with a point after it, as the
#: little-endian uint32 of their ASCII bytes; index 10 * negative + digit.
_LEADS = tuple(
    np.array([int.from_bytes(f"{sign}{d}{point}".encode(), "little")
              for sign in ("", "-") for d in range(10)], dtype="<u4")
    for point in ("", ".")
)


def _exponent_codes() -> np.ndarray:
    """The exponents e+00 to e-999, each with a newline after it, as the
    little-endian uint64 of their ASCII bytes; index 1000 * (exponent < 0) +
    |exponent|. An exponent has at least two digits, as "%e" writes it."""
    short = np.arange(1000) < 100
    digits = np.where(short, _DIGITS[2], _DIGITS[3]).astype(np.uint64)
    end = np.uint64(ord("\n")) << np.where(short, 32, 40).astype(np.uint64)
    return np.concatenate(
        [ord("e") | np.uint64(ord(sign) << 8) | digits << np.uint64(16) | end for sign in "+-"]
    ).astype("<u8")


_EXPONENTS = _exponent_codes()


def _rounded_digits(
    values: np.ndarray, precision: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each |v| rounded to ``precision`` significant digits: the digits as
    an integer, the decimal exponent, and whether the rounding is certain.

    |v| is scaled by 10**(precision - 1 - e), e = floor(log10|v|), in
    double-double arithmetic: Dekker's exact two-product against hi, plus
    |v| * lo, leaves the scaled value within ~1e-16 of exact. It is not
    certain for zero, inf and nan, |v| outside [1e-280, 1e280], a scaled
    value whose fraction is within 1e-6 of 1/2 (a possible tie, which "%"
    rounds to even), or an exponent the logarithm mis-estimates (|v| next to
    a power of ten).
    """
    low, high = 10.0 ** (precision - 1), 10.0**precision
    with np.errstate(all="ignore"):
        a = np.abs(values)
        certified = (a >= _E_RANGE[0]) & (a <= _E_RANGE[1])  # false for 0, inf, nan
        a[~certified] = 1.0
        exponent = np.floor(np.log(a) * _LOG10_E).astype(np.int64)
        k = precision - 1 - _K_MIN - exponent
        hi, hi_high, hi_low = _TEN_HI[k], _TEN_HI_HIGH[k], _TEN_HI_LOW[k]
        a_high, a_low = _split(a)
        p = a * hi
        err = a_low * hi_low - (((p - a_high * hi_high) - a_low * hi_high) - a_high * hi_low)
        q = err + a * _TEN_LO[k]
        s = p + q
        whole = np.floor(s)
        fraction = (s - whole) + (q - (s - p))
    certified &= (np.abs(fraction - 0.5) >= 1e-6) & (whole < high)
    certified &= (whole > low) | ((whole == low) & (fraction >= 0.0))
    digits = whole + (fraction >= 0.5)
    carry = digits == high  # 9.99...95 rounds up to 10.0...0: one digit more
    exponent += carry
    digits[carry | ~certified] = low
    return digits.astype(np.int64), exponent, certified


def _e_texts(
    negative: np.ndarray, digits: np.ndarray, exponent: np.ndarray, precision: int
) -> list[str]:
    """The "%e" texts of sign, ``precision`` digits and exponent.

    Each text is a row of bytes: sign, first digit and point; the other
    digits in groups of up to three; exponent and a newline. Each field is
    written, in that order, as the little-endian code of its text, so the
    NUL padding of a field is overwritten by the next field or stays; the
    rows are decoded at once and their NULs deleted.
    """
    widths = ((precision - 2) % 3 + 1,) + (3,) * ((precision - 2) // 3) if precision > 1 else ()
    groups = []
    for width in reversed(widths):
        digits, group = np.divmod(digits, 10**width)
        groups.append(_DIGITS[width][group])
    fields = [_LEADS[precision > 1][10 * negative + digits], *reversed(groups)]
    fields.append(_EXPONENTS[1000 * (exponent < 0) + np.abs(exponent)])
    offsets = np.cumsum([0, 3, *widths])
    row = offsets[-1] + 8
    text = np.zeros((len(digits), row), dtype=np.uint8)
    for offset, codes in zip(offsets, fields):
        np.ndarray(len(digits), codes.dtype, text, offset, (row,))[...] = codes
    texts = text.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    texts.pop()
    return texts


def _percent_e(values: np.ndarray, precision: int) -> list[str]:
    """``'%.{precision - 1}e' % v`` for each of ``values``."""
    pattern = f"%.{precision - 1}e"
    return [pattern % v for v in values.tolist()]


def _format_e(values: np.ndarray, precision: int) -> list[str]:
    """``_percent_e(values, precision)``, byte for byte, vectorised: the
    digits come from ``_rounded_digits`` and the texts from lookup tables
    (``_e_texts``). ``_percent_e`` formats each value whose rounding is not
    certain, and every value at a precision above 15.
    """
    if precision > _E_DIGITS:
        return _percent_e(values, precision)
    digits, exponent, certified = _rounded_digits(values, precision)
    texts = _e_texts(np.signbit(values), digits, exponent, precision)
    uncertain = np.flatnonzero(~certified)
    if len(uncertain):
        for i, text in zip(uncertain.tolist(), _percent_e(values[uncertain], precision)):
            texts[i] = text
    return texts


def _json_floats(values: np.ndarray) -> list[str]:
    # Non-finite floats are not valid JSON; they are written as null.
    return [repr(v) if math.isfinite(v) else "null" for v in values.tolist()]


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
    buffer = io.StringIO() if out is None else out
    buffer.write(",".join(ROW_FIELD_NAMES) + "\n")
    encoders = {"float": lambda values: _format_e(values, precision), "str": _csv_texts}
    layout = ["", *[","] * (len(ROW_FIELD_NAMES) - 1), "\n"]
    _write_rows(buffer, row_chunks(rows), encoders, layout)
    return buffer.getvalue() if out is None else None


def rows_to_json(rows: Iterable[SweepRow], out: TextIO | None = None) -> str | None:
    """JSON array of row objects, floats at full round-trip precision, as
    ``json.dumps(..., indent=2)`` lays it out; non-finite floats are null.

    ``repr`` and ``json.dumps`` are applied to each distinct value of a
    column in a chunk once. Writes to ``out`` when given, one chunk of rows
    at a time, and otherwise returns the text.
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
    """Run ``write`` on stdout, or on the output file, which it replaces."""
    if output is None:
        write(sys.stdout)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


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


def _read_text(path: str, failure: str) -> str:
    """The UTF-8 text of the file at ``path``; a ConfigError that begins with
    ``failure`` if it cannot be read or decoded."""
    try:
        return Path(path).read_text(encoding="utf-8")
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
        constants = dataclasses.replace(config.constants, **parse_constants_overrides(text))
    except GraventError as exc:
        raise ConfigError(f"{CONSTANTS_ENV_VAR}: {exc}") from None
    return dataclasses.replace(config, constants=constants)


def _run_point(config: RunConfig) -> SweepRow:
    """The one-point row of report mode, at tau* in tau-star mode. The width
    against each radius is warned first; a failed row raises its error, and
    an ok row warns of the regime at the config's threshold."""
    _warn_width_vs_radius(config)
    if config.mode == "tau-star":
        body1 = MassiveBody(config.m1, config.r1, config.omega1)
        body2 = MassiveBody(config.m2, config.r2, config.omega2)
        system = PairSystem(body1, body2, config.d, config.constants)
        config = dataclasses.replace(config, tau=time_to_max_entanglement(system))
    (row,) = run_sweep(config.sweep_spec())
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
    except ConfigError as exc:
        print(f"gravent: error: {exc}", file=sys.stderr)
        return 1

    try:
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
                (text,) = _percent_e(np.array([_run_point(config).tau]), config.precision)
                payload = text + "\n"
                sys.stdout.write(payload)
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
