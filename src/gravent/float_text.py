"""Exact decimal texts of float64 columns, vectorised.

``_format_e`` writes each value as ``'%.{p - 1}e' % v`` does, and
``_format_repr`` as ``repr`` does, byte for byte: each scales |v| to its
significant digits in double-double arithmetic (``_scaled``), finds the
digits with integer and float array arithmetic, and assembles the texts from
lookup tables as one byte buffer. Each table is written as the texts it
holds, NUL-padded and read as little-endian codes (``_codes``). The
temporaries are computed in place, a few at a time, and released before the
texts are split, so a call's peak memory is little more than its texts'.

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
    2**53, and within 8 of 0 above it. Six arrays hold every step: each
    product and sum is written over an operand that is not needed again.
    """
    k = precision - 1 - _K_MIN - exponent
    p = _TEN_HI[k]
    p *= a
    # Dekker's split of a, as _split makes it (high = c - (c - a) with
    # c = _SPLIT * a; low = a - high) but in two arrays, not four.
    high = np.multiply(a, _SPLIT)
    low = np.subtract(high, a)
    high -= low
    np.subtract(a, high, out=low)
    # err = a_low * hi_low - (((p - a_high * hi_high) - a_low * hi_high) - a_high * hi_low)
    ten = _TEN_HI_HIGH[k]
    err = np.multiply(high, ten)
    np.subtract(p, err, out=err)
    ten *= low
    err -= ten
    # k is in range; "clip" lets take write into ``out`` with no buffer.
    np.take(_TEN_HI_LOW, k, out=ten, mode="clip")
    high *= ten
    err -= high
    low *= ten
    np.subtract(low, err, out=err)
    # q = err + a * lo, s = p + q
    np.take(_TEN_LO, k, out=ten, mode="clip")
    ten *= a
    q = np.add(err, ten, out=err)
    s = np.add(p, q, out=high)
    whole = np.floor(s, out=low)
    # fraction = (s - whole) + (q - (s - p))
    np.subtract(s, p, out=p)
    np.subtract(q, p, out=q)
    s -= whole
    s += q
    return whole, s


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
        in_range = a >= _E_RANGE[0]
        in_range &= a <= _E_RANGE[1]  # false for 0, inf, nan
        np.copyto(a, 1.0, where=~in_range)
        exponent = np.log(a)
        exponent *= _LOG10_E
        exponent = np.floor(exponent, out=exponent).astype(np.int64)
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
    exponent, digits, fraction, certified = _scaled(values, precision)[1:]
    certified &= (digits > low) | ((digits == low) & (fraction >= 0.0))
    certified &= digits < high
    digits += fraction >= 0.5
    fraction -= 0.5
    certified &= np.abs(fraction, out=fraction) >= 1e-6
    carry = digits == high  # 9.99...95 rounds up to 10.0...0: one digit more
    exponent += carry
    carry |= ~certified
    digits[carry] = low
    return digits.astype(np.int64), exponent, certified


def _e_texts(values: np.ndarray, precision: int) -> tuple[list[str], np.ndarray]:
    """The "%e" texts of ``values`` at ``precision`` digits, as
    ``_rounded_digits`` rounds them, and whether that rounding is certain.

    Each text is a row of bytes: sign, first digit and point; the other
    digits in groups of up to three; exponent and a newline. Each field is
    written, in that order and as soon as it is known, as the little-endian
    code of its text, so the NUL padding of a field is overwritten by the
    next field or stays. Then the rows are decoded at once, their NULs
    deleted and the texts split at the newlines.
    """
    digits, exponent, certified = _rounded_digits(values, precision)
    widths = ((precision - 2) % 3 + 1,) + (3,) * ((precision - 2) // 3) if precision > 1 else ()
    row = 3 + sum(widths) + 8
    text = np.empty((len(values), row), dtype=np.uint8)
    # The sign as a digit above the others: the first "digit" is then
    # 10 * negative + the first digit, the index of _LEADS.
    np.add(digits, 10**precision, out=digits, where=np.signbit(values))
    scale = 10 ** (precision - 1)
    field = digits // scale
    _put(text, 0, _LEADS[precision > 1], field)
    offset = 3
    for width in widths:
        field *= scale
        digits -= field
        scale //= 10**width
        np.floor_divide(digits, scale, out=field)
        _put(text, offset, _DIGITS[width], field)
        offset += width
    np.subtract(1000, exponent, out=exponent, where=exponent < 0)
    _put(text, offset, _EXPONENTS, exponent)
    del digits, exponent, field
    # Decoded one step at a time, each freeing the last: the matrix is gone
    # before the split, which builds the texts.
    text = text.tobytes()
    text = text.translate(None, b"\0")
    text = text.decode("ascii")
    texts = text.split("\n")
    texts.pop()
    return texts, certified


def _put(text: np.ndarray, offset: int, codes: np.ndarray, index: np.ndarray) -> None:
    """Writes ``codes[index]`` into each row of ``text`` from byte ``offset`` on."""
    np.ndarray(len(text), codes.dtype, text, offset, text.strides[:1])[...] = codes[index]


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
    texts, certified = _e_texts(values, precision)
    return _fall_back(texts, values, certified, lambda uncertain: _percent_e(uncertain, precision))


#: 10**j for j in 0..17, exact in int64.
_POWERS = np.array([10**j for j in range(_R_DIGITS + 1)], dtype=np.int64)
#: 10**k for k = 0, 1, 2: the k _shortest_digits tries first.
_LEVELS = (1, 10, 100)
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
    certified &= (bits & _SIGNIFICAND) != 0
    twos = (bits >> np.uint64(52)).astype(np.int32)
    twos -= 1076  # one below the binary exponent of |v|'s ulp
    del a, bits
    half_gap = _TEN_HI[_R_DIGITS - 1 - _K_MIN - exponent]
    np.ldexp(half_gap, twos, out=half_gap)
    del twos
    margin = 1e-6 * half_gap
    floor = np.floor(fraction)
    fraction -= floor
    whole = whole.astype(np.int64)
    whole += floor.astype(np.int64)
    del floor
    certified &= whole >= _POWERS[-2]
    certified &= whole < _POWERS[-1]
    # Per k = 0, 1, 2: the multiples of 10**k either side of the scaled
    # value, and the distances to them.
    places = np.zeros(len(whole), dtype=np.int64)
    for k, level in enumerate(_LEVELS):
        quotient = whole // level
        below = np.multiply(quotient, level)
        np.subtract(whole, below, out=below)
        below = below + fraction
        above = np.subtract(level, below)
        up = above < below
        quotient += up
        distance = np.minimum(above, below)
        distance -= half_gap
        inside = distance < 0.0
        near = np.abs(distance, out=distance) < margin
        above -= below
        near |= np.abs(above, out=above) < margin
        certified &= ~near
        del below, above, distance
        if k == 0:
            digits = quotient
        else:
            inside &= places == k - 1
            places += inside
            np.copyto(digits, quotient, where=inside)
    del whole, fraction, half_gap, margin, quotient, inside
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
    count = np.subtract(_R_DIGITS, places, out=places)
    np.maximum(count, 1, out=count)
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


def _repr_texts(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The ``repr`` texts of ``values`` with the digits ``_shortest_digits``
    finds, and whether those are certain: "1e-05" and "1.5e+16" where the
    exponent is below -4 or at least 16, else "0.000123", "123.456" or
    "100.0".

    The digits, zero-padded to 17, are written into the digit slots from
    the first, in groups of two and then three, each group's code with a
    NUL after each digit (``_SPREAD``). Those past the last digit the text
    shows (``count``, or the units digit and one after the point) are
    cleared with a mask, and the sign, lead and point are set from one row
    of ``_FORMS``; so every byte but the last word's is set by the mask,
    and the last word is the exponent's. Then the rows are decoded.
    """
    digits, count, exponent, certified = _shortest_digits(values)
    text = np.empty((len(values), 8 * _R_WORDS), dtype=np.uint8)
    digits *= _POWERS[_R_DIGITS - count]
    scale = _POWERS[_R_DIGITS - 2]
    group = digits // scale
    _put(text, _R_SLOTS, _SPREAD[2], group)
    for slot in (2, 5, 8, 11, 14):
        group *= scale
        digits -= group
        scale //= 1000
        np.floor_divide(digits, scale, out=group)
        _put(text, _R_SLOTS + 2 * slot, _SPREAD[3], group)
    del digits, group
    words = text.view("<u8")
    positional = (exponent >= -4) & (exponent < 16)
    units = positional & (exponent >= 0)
    shown = np.where(units, np.maximum(count, exponent + 2), count)
    # The form (see _FORM_TEXTS): the point after the units digit, the
    # leading zeros of a text below 1, or an exponent text's point if any.
    form = np.where(positional, np.where(units, exponent, 15 - exponent),
                    np.where(count > 1, 0, 20))
    np.add(form, 21, out=form, where=np.signbit(values))
    del count, units
    for j in range(_R_WORDS - 1):  # a word at a time; the last is the exponent's
        words[:, j] &= _SHOWN[shown, j]
        words[:, j] |= _FORMS[form, j]
    del shown, form
    np.subtract(1000, exponent, out=exponent, where=exponent < 0)
    ends = _EXPONENTS[exponent]
    ends[positional] = ord("\n")
    words[:, -1] = ends
    del exponent, positional, ends, words
    # Decoded one step at a time, as in _e_texts.
    text = text.tobytes()
    text = text.translate(None, b"\0")
    text = text.decode("ascii")
    texts = text.split("\n")
    texts.pop()
    return texts, certified


def _reprs(values: np.ndarray) -> list[str]:
    """``repr(v)`` for each of ``values``."""
    return [repr(v) for v in values.tolist()]


def _format_repr(values: np.ndarray) -> list[str]:
    """``_reprs(values)``, byte for byte, vectorised: the digits come from
    ``_shortest_digits`` and the texts from lookup tables
    (``_repr_texts``). ``_reprs`` formats each value whose digits are not
    certain.
    """
    texts, certified = _repr_texts(values)
    return _fall_back(texts, values, certified, _reprs)
