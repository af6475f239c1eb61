"""Exact decimal texts of float64 columns, vectorised.

``_format_e`` writes each value as ``'%.{p - 1}e' % v`` does, and
``_format_repr`` as ``repr`` does, byte for byte: each scales |v| to its
significant digits in double-double arithmetic (``_scaled``), finds the
digits with integer and float array arithmetic, and assembles the texts from
lookup tables as one byte buffer. Each table is written as the texts it
holds, NUL-padded and read as little-endian codes (``_codes``).

A formatter certifies a value only where float arithmetic settles its
digits with a margin; every other value it passes to the Python formatting
it stands in for (``_percent_e``, ``_reprs``), which writes the reference
bytes: zero, inf, nan, |v| outside [1e-280, 1e280], an exponent the
logarithm puts a decade off, a scaled value within a millionth of a
rounding decision, and also each ``%e`` at a precision above 15 and each
``repr`` of a power of two.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import product

import numpy as np


# _format_e certifies |v| in [1e-280, 1e280] at up to 15 significant digits,
# and _format_repr at 17: in that range no product in _scaled overflows or
# goes subnormal, a 15-digit integer is exact in float64 (10**15 < 2**53) and
# a 17-digit one in int64 (10**17 < 2**63).
_E_RANGE = 1e-280, 1e280
_E_DIGITS = 15
#: The significant digits _format_repr scales to: enough for every float64.
_R_DIGITS = 17
#: Scales 10**k that _scaled applies, k = precision - 1 - floor(log10|v|),
#: with one to spare at each end.
_K_MIN, _K_MAX = -281, _R_DIGITS + 281
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


def _codes(texts: list[str], width: int) -> np.ndarray:
    """``texts``, each NUL-padded to ``width`` bytes, as the little-endian
    codes of their bytes: uint32 at width 4, uint64 words from 8. A text is
    encoded as Latin-1, so "\\xff" is the byte 0xFF."""
    encoded = np.array([text.encode("latin-1") for text in texts], f"S{width}")
    return encoded.view("<u4" if width == 4 else "<u8")


def _groups(count: int, between: str = "") -> list[str]:
    """The last ``count`` digits of 0..999, zero-padded, ``between`` each two."""
    return [between.join(d) for d in product("0123456789", repeat=count)] * 10 ** (3 - count)


#: The digits of each group of up to three.
_DIGITS = {count: _codes(_groups(count), 4) for count in (1, 2, 3)}
#: The sign and first digit, without and with a point after it; index
#: 10 * negative + digit.
_LEADS = tuple(
    _codes([f"{sign}{d}{point}" for sign in ("", "-") for d in range(10)], 4) for point in ("", ".")
)
#: The exponents e+00 to e-999, each with a newline after it; index
#: 1000 * (exponent < 0) + |exponent|. An exponent has at least two digits,
#: as "%e" writes it.
_EXPONENTS = _codes(
    [f"e{sign}{digits}\n" for sign in "+-" for digits in _groups(2)[:100] + _groups(3)[100:]], 8
)


def _scale(a: np.ndarray, exponent: np.ndarray, precision: int) -> tuple[np.ndarray, np.ndarray]:
    """``a`` times 10**(precision - 1 - exponent), as its float floor
    ``whole`` plus ``fraction``.

    The product is in double-double arithmetic: Dekker's exact two-product
    against hi, the float nearest the power of ten, plus a times lo, its
    rest, leaves ``whole + fraction`` within about 2**-104 relative of
    exact, plus the rounding of ``fraction``: under 1e-14 at 17 digits, far
    inside the callers' margins (5e-7 or more).
    ``fraction`` is in [0, 1) to that error while the scaled value is below
    2**53, and within 8 of 0 above it.
    """
    k = precision - 1 - _K_MIN - exponent
    hi, hi_high, hi_low = _TEN_HI[k], _TEN_HI_HIGH[k], _TEN_HI_LOW[k]
    a_high, a_low = _split(a)
    p = a * hi
    err = a_low * hi_low - (((p - a_high * hi_high) - a_low * hi_high) - a_high * hi_low)
    q = err + a * _TEN_LO[k]
    s = p + q
    whole = np.floor(s)
    return whole, (s - whole) + (q - (s - p))


def _scaled(values: np.ndarray, precision: int) -> tuple[np.ndarray, ...]:
    """Each |v| scaled by 10**(precision - 1 - e): |v|, e, the scaled value
    as its float floor ``whole`` plus ``fraction``, and whether |v| is in
    [1e-280, 1e280] (false for zero, inf and nan, whose |v| is taken as 1).

    e is floor(log10|v|) as the logarithm estimates it, which for a |v|
    next to a power of ten may be a decade off. Such a value's ``whole``
    has a digit too few or too many, and the callers do not certify it.
    """
    with np.errstate(all="ignore"):
        a = np.abs(values)
        in_range = (a >= _E_RANGE[0]) & (a <= _E_RANGE[1])  # false for 0, inf, nan
        a[~in_range] = 1.0
        exponent = np.floor(np.log(a) * _LOG10_E).astype(np.int64)
        whole, fraction = _scale(a, exponent, precision)
    return a, exponent, whole, fraction, in_range


def _rounded_digits(
    values: np.ndarray, precision: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each |v| rounded to ``precision`` significant digits: the digits as
    an integer, the decimal exponent, and whether the rounding is certain.

    It is certain where |v| is in range, the scaled value has ``precision``
    digits (its exponent is right) and its fraction is at least 1e-6 from
    1/2, so rounding half up to the nearest integer is what "%" does. A
    fraction that close to 1/2 may be a tie, which "%" rounds to even.
    """
    low, high = 10.0 ** (precision - 1), 10.0**precision
    _, exponent, whole, fraction, certified = _scaled(values, precision)
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
    NUL padding of a field is overwritten by the next field or stays; then
    the rows are decoded (``_decoded``).
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
    return _decoded(text)


def _decoded(text: np.ndarray) -> list[str]:
    """The texts of rows of ASCII bytes, NUL-padded, each ending in a
    newline: the rows are decoded at once and their NULs deleted."""
    texts = text.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    texts.pop()
    return texts


def _percent_e(values: np.ndarray, precision: int) -> list[str]:
    """``'%.{precision - 1}e' % v`` for each of ``values``."""
    pattern = f"%.{precision - 1}e"
    return [pattern % v for v in values.tolist()]


def _fall_back(
    texts: list[str], values: np.ndarray, certified: np.ndarray,
    fallback: Callable[[np.ndarray], list[str]],
) -> list[str]:
    """``texts`` with the text of each value that is not ``certified``
    replaced by ``fallback``'s."""
    uncertain = np.flatnonzero(~certified)
    for i, text in zip(uncertain.tolist(), fallback(values[uncertain])):
        texts[i] = text
    return texts


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
    return _fall_back(texts, values, certified, lambda uncertain: _percent_e(uncertain, precision))


#: 10**j for j in 0..17, exact in int64.
_POWERS = np.array([10**j for j in range(_R_DIGITS + 1)], dtype=np.int64)
#: 10**k for k = 0, 1, 2, one row each: the k _shortest_digits tries first.
_LEVELS = _POWERS[:3, None]
_SIGNIFICAND = np.uint64(2**52 - 1)  # the stored bits of a float64's significand


def _shortest_digits(
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The digits ``repr`` writes for each |v|: the digits as an integer,
    their count, the decimal exponent of the first, and whether they are
    certain.

    |v| is scaled to 17 digits (``_scaled``), and so is its half-gap h,
    half the distance to the next float: a number within h of |v| reads
    back as v. The digits are those of the multiple of 10**k nearest the
    scaled value, for the largest k that puts that multiple inside h. This
    is Gay's shortest round-trip rule, which ``repr`` follows. k = 0 is
    always inside, as h > 0.55 at 17 digits, and a value inside at k + 1 is
    inside at k, so k rises from 0 while the multiple stays inside. From
    k = 2 on, 10**k > 2h, so at most one multiple of 10**k is inside: the
    one found at k = 2 is also the one at each higher k, and its trailing
    zeros give the largest k.

    They are certain where |v| is in range, the scaled value has 17 digits
    (its exponent is right), |v| is not a power of two (whose gap below is
    half its gap above), and at each k = 0, 1, 2 the nearer multiple's
    distance is at least 1e-6 h from h and from the other multiple's. A
    distance at h reads back as v only if v's significand is even, and of
    two equally near multiples ``repr`` takes the one whose last digit is
    even; float arithmetic cannot tell those cases from their neighbours.
    """
    a, exponent, whole, fraction, certified = _scaled(values, _R_DIGITS)
    bits = a.view(np.uint64)
    twos = (bits >> np.uint64(52)).astype(np.int32) - 1075  # the binary exponent of |v|'s ulp
    half_gap = np.ldexp(_TEN_HI[_R_DIGITS - 1 - _K_MIN - exponent], twos - 1)
    floor = np.floor(fraction)
    whole = whole.astype(np.int64) + floor.astype(np.int64)
    fraction -= floor
    certified &= (whole >= _POWERS[-2]) & (whole < _POWERS[-1]) & ((bits & _SIGNIFICAND) != 0)
    # Per k = 0, 1, 2 (rows) and value (columns): the multiples of 10**k
    # either side of the scaled value, and the distances to them.
    quotient = whole // _LEVELS
    below = (whole - quotient * _LEVELS) + fraction
    above = _LEVELS - below
    up = above < below
    distance = np.minimum(above, below) - half_gap
    inside = distance < 0.0
    margin = 1e-6 * half_gap
    certified &= ~((np.abs(distance) < margin) | (np.abs(above - below) < margin)).any(axis=0)
    places = inside[1].astype(np.int64) + (inside[1] & inside[2])
    digits = (quotient + up)[places, np.arange(len(a))]
    rows = np.flatnonzero(places == 2)
    multiple = digits[rows]
    for step in (8, 4, 2, 1):  # the trailing zeros, up to 15
        quotient = multiple // _POWERS[step]
        divides = quotient * _POWERS[step] == multiple
        multiple[divides] = quotient[divides]
        places[rows] += step * divides
    digits[rows] = multiple
    # At k = 17 the multiple is 10**17: the digit 1, one place up.
    exponent += places == _R_DIGITS
    count = np.maximum(_R_DIGITS - places, 1)
    digits[~certified] = 1
    count[~certified] = 1
    return digits, count, exponent, certified


# A repr text is built in a row of six little-endian uint64 words: byte 0
# the sign; bytes 1-5 "0." and zeros, for a positional text below 1; then
# 17 digit slots, each followed by a slot for the point; then the exponent
# and a newline. Bytes a text does not use stay NUL.
_R_SLOTS = 6  # the byte of the first digit slot
_R_WORDS = 6


#: _DIGITS[count] with a NUL after each digit, as the digit slots take them.
_SPREAD = {count: _codes(_groups(count, "\0"), 8) for count in (2, 3)}
#: Per count of digits shown, 0 to 17: all bits set in those digit slots.
_SHOWN = _codes(["\0" * _R_SLOTS + "\xff\0" * shown for shown in range(_R_DIGITS + 1)],
                8 * _R_WORDS).reshape(-1, _R_WORDS)


#: The bytes after the sign, per form: the point after digit slot 0-15;
#: "0." and 0-3 zeros before the digits (16-19); nothing (20).
_FORM_TEXTS = (["\0" * (_R_SLOTS + 2 * slot) + "." for slot in range(16)]
               + ["0." + "0" * zeros for zeros in range(4)] + [""])
#: Per sign and form, 21 * negative + form: the sign, lead and point bytes.
_FORMS = _codes([sign + text for sign in "\0-" for text in _FORM_TEXTS],
                8 * _R_WORDS).reshape(-1, _R_WORDS)


def _repr_texts(
    negative: np.ndarray, digits: np.ndarray, count: np.ndarray, exponent: np.ndarray
) -> list[str]:
    """The ``repr`` texts of sign, ``count`` significant digits and decimal
    exponent: "1e-05" and "1.5e+16" where the exponent is below -4 or at
    least 16, else "0.000123", "123.456" or "100.0".

    The digits, zero-padded to 17, are written into the digit slots in
    groups of two and then three, each group's code with a NUL after each
    digit (``_SPREAD``). Those past the last digit the text shows
    (``count``, or the units digit and one after the point) are cleared
    with a mask, and the sign, lead and point are set from one row of
    ``_FORMS``; then the rows are decoded (``_decoded``).
    """
    n = len(digits)
    positional = (exponent >= -4) & (exponent < 16)
    units = positional & (exponent >= 0)
    padded = digits * _POWERS[_R_DIGITS - count]
    groups = []
    for _ in range(5):
        quotient = padded // 1000
        groups.append(_SPREAD[3][padded - 1000 * quotient])
        padded = quotient
    text = np.zeros((n, 8 * _R_WORDS), dtype=np.uint8)
    for slot, codes in zip((0, 2, 5, 8, 11, 14), [_SPREAD[2][padded], *reversed(groups)]):
        np.ndarray(n, "<u8", text, _R_SLOTS + 2 * slot, (8 * _R_WORDS,))[...] = codes
    words = text.view("<u8")
    shown = np.where(units, np.maximum(count, exponent + 2), count)
    # The form (see _FORM_TEXTS): the point after the units digit, the
    # leading zeros of a text below 1, or an exponent text's point if any.
    form = np.where(positional, np.where(units, exponent, 15 - exponent),
                    np.where(count > 1, 0, 20))
    words &= np.take(_SHOWN, shown, axis=0)
    words |= np.take(_FORMS, 21 * negative + form, axis=0)
    ends = _EXPONENTS[1000 * (exponent < 0) + np.abs(exponent)]
    ends[positional] = ord("\n")
    words[:, -1] = ends
    return _decoded(text)


def _reprs(values: np.ndarray) -> list[str]:
    """``repr(v)`` for each of ``values``."""
    return [repr(v) for v in values.tolist()]


def _format_repr(values: np.ndarray) -> list[str]:
    """``_reprs(values)``, byte for byte, vectorised: the digits come from
    ``_shortest_digits`` and the texts from lookup tables
    (``_repr_texts``). ``_reprs`` formats each value whose digits are not
    certain.
    """
    digits, count, exponent, certified = _shortest_digits(values)
    texts = _repr_texts(np.signbit(values), digits, count, exponent)
    return _fall_back(texts, values, certified, _reprs)
