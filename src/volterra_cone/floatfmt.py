"""The exact ``%.17g`` text of float64 arrays, computed in numpy.

:func:`format_g17` gives, for every value of an array, exactly the bytes of
``cli._fmt(value)``, that is ``'%.17g' % value``, as one row of a padded
``uint8`` matrix, so a CSV writer makes no Python string per value.

The fast path proves its own rounding and hands every value it cannot
decide to ``cli._fmt``, as Grisu3 does (Loitsch 2010, PLDI).  For |x| in
[1e-280, 1e290] it takes e = floor(log10 |x|) and multiplies |x| by the
double-double (hi, lo) of 10^(16 - e).  Dekker's split two-product (Dekker
1971, Numer. Math. 18) stands in for the fused multiply-add that numpy
lacks: x hi is exactly p + err, and p is an integer because x 10^(16 - e)
is at least 10^16 > 2^53.  The 17-digit integer D = floor(x 10^(16 - e))
and the fraction left over are so known to within 2^-47.  A value goes to
``cli._fmt`` when that fraction lies within 2^-40 of one half (exact ties
among them), when D is not a 17-digit number (log10 put e one off next to
a power of ten), and when x is 0, NaN, infinite or outside that range.
Every value the fast path keeps therefore rounds as ``%`` rounds it.  The
digits of D come from a 4-digit table, trailing zeros are stripped, and
the ``%g`` layout is fixed notation for -4 <= e < 17 and d.ddde+XX
otherwise; a table of the layouts turns each value's text into one byte
gather from its digits.

The tables are built when this module is imported, in about 4 ms on 2 vCPUs,
and take about 110 KB; the CLI imports it on its first export only.
"""

from __future__ import annotations

import numpy as np

from .cli import _fmt

#: longest text of ``%.17g``, as in "-4.9406564584124654e-324"
WIDTH = 24
#: the fast path's range of |x|: 10^(16 - e), its split and every partial product stay normal
FAST_MIN, FAST_MAX = 1e-280, 1e290
#: decimal exponents e in the table of 10^(16 - e): those of FAST_MIN and FAST_MAX, one to spare
E_MIN, E_MAX = -281, 291
#: Dekker's splitter 2^27 + 1
SPLIT = 134217729.0
#: a fraction this close to one half may round the other way at the fast path's 2^-47 error
TIE_BAND = 2.0**-40

# Byte offsets in a value's source row of seven uint32 words: "000d" for the leading
# digit d, four words of 4 digits, ".-0e", then the exponent's sign and 2 or 3 digits.
_DIGITS, _DOT, _MINUS, _ZERO, _SUFFIX, _ROW = 3, 20, 21, 22, 23, 28


def _pow10(k: int) -> tuple[float, float]:
    """10^k as the double-double (hi, lo): hi the nearest double, lo that of 10^k - hi.

    int / int true division rounds correctly, so both are exact roundings.
    """
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


def _split(a):
    """Dekker's split of ``a`` into a high part of 26 bits and the exact rest."""
    c = SPLIT * a
    high = c - (c - a)
    return high, a - high


def _words(texts: list[str]) -> np.ndarray:
    """The ASCII bytes of 4-character ``texts`` as one uint32 word each."""
    return np.frombuffer("".join(texts).encode("ascii"), np.uint32)


def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """The source-row byte of each character of every ``%g`` layout, and the layout's length.

    A layout is (c, n, sign): class c = e + 4 is fixed notation for
    -4 <= e <= 16, and c = 21 (22) is d.ddde+XX with a 2-digit (3-digit)
    exponent; n = 1..17 counts the significant digits and sign is 0 or 1.
    It is row 34 c + 2 (n - 1) + sign.  Characters past the length read byte 0.
    """
    c, n, sign = (a.ravel() for a in np.indices((23, 17, 2), dtype=np.int8))
    n += 1
    e = c - 4
    fixed = c <= 20
    lead_zeros = np.where(fixed & (e < 0), -e, 0)  # the zeros of 0.000ddd
    int_digits = np.where(fixed & (e >= 0), e + 1, 1)
    all_digits = lead_zeros + n
    suffix_at = sign + np.where(all_digits > int_digits, all_digits + 1, int_digits)
    lengths = suffix_at + np.where(fixed, 0, c - 17)  # "e", the sign and 2 or 3 digits
    col = np.arange(WIDTH, dtype=np.int8)
    sign, dot_at = sign[:, None], (sign + int_digits)[:, None]
    lead_zeros, suffix_at = lead_zeros[:, None], suffix_at[:, None]
    digit = col - sign - (col > dot_at)  # counts the leading zeros too
    idx = np.where(digit < lead_zeros, _ZERO, _DIGITS + digit - lead_zeros)
    idx = np.where(col == dot_at, _DOT, idx)
    idx = np.where(col >= suffix_at, _SUFFIX + col - suffix_at, idx)
    idx = np.where(col < sign, _MINUS, idx)
    idx = np.where(col < lengths[:, None], idx, 0)
    return idx, lengths.astype(np.intp)


_EXPONENTS = range(E_MIN, E_MAX + 1)
_SCALE_HI, _SCALE_LO = np.array([_pow10(16 - e) for e in _EXPONENTS]).T
_SCALE_HI_HIGH, _SCALE_HI_LOW = _split(_SCALE_HI)
_GROUP_VALUES = np.arange(10_000, dtype=np.uint16)[:, None]  # 16 bits keep the temporaries small
#: the 4 digits of 0..9999, and their trailing zeros (4 for 0)
_GROUPS = (_GROUP_VALUES // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48).astype(
    np.uint8).view(np.uint32).ravel()
_GROUP_ZEROS = (_GROUP_VALUES % np.array([10, 100, 1000, 10_000], np.uint16) == 0).sum(
    axis=1, dtype=np.int16)
del _GROUP_VALUES
_CONSTANTS = _words([".-0e"])[0]
#: the exponent's sign and digits, and the layout row of 17 digits without a sign, per e
_EXPONENT_WORDS = _words([f"{e:+03d}".ljust(4) for e in _EXPONENTS])
_LAYOUT_BASE = np.array([34 * (e + 4 if -4 <= e <= 16 else 21 + (abs(e) >= 100)) + 32
                         for e in _EXPONENTS], np.int16)
_LAYOUTS, _LENGTHS = _layouts()


def pad(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """ASCII ``texts`` as rows of a zero-padded uint8 matrix, left-aligned, and their lengths."""
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    chars = np.zeros((len(texts), lengths.max(initial=0)), np.uint8)
    chars[np.arange(chars.shape[1]) < lengths[:, None]] = np.frombuffer(
        "".join(texts).encode("ascii"), np.uint8)
    return chars, lengths


def _decimal(x):
    """(D, e - E_MIN, decided) of each value of ``x``: D its 17 digits, rounded to nearest.

    ``decided`` is False where the fast path cannot vouch for D and e; there
    D is 10^16, so that the digit tables can take it, and e is unspecified.
    """
    ax = np.abs(x)
    decided = (ax >= FAST_MIN) & (ax <= FAST_MAX)  # False for 0, NaN and inf
    ax[~decided] = 1.0
    row = np.floor(np.log10(ax)).astype(np.intp) - E_MIN
    # x 10^(16 - e) = p + rest to within 2^-47, where p + (the first five terms of rest)
    # is x hi exactly (Dekker); rest is summed in place, in Dekker's order
    high, low = _split(ax)
    p = ax * _SCALE_HI[row]
    rest = high * _SCALE_HI_HIGH[row]
    rest -= p
    rest += high * _SCALE_HI_LOW[row]
    rest += low * _SCALE_HI_HIGH[row]
    rest += low * _SCALE_HI_LOW[row]
    rest += ax * _SCALE_LO[row]
    whole = np.floor(rest)
    rest -= whole
    digits = p.astype(np.int64) + whole.astype(np.int64)
    decided &= (digits >= 10**16) & (np.abs(rest - 0.5) > TIE_BAND)
    digits += rest > 0.5
    decided &= digits < 10**17
    digits[~decided] = 10**16
    return digits, row, decided


def _source_rows(digits, row):
    """Each value's source row of seven uint32 words, and the trailing zeros of its digits."""
    upper = digits // 10**8
    lower = (digits - upper * 10**8).astype(np.int32)
    upper = upper.astype(np.int32)
    lead = upper // 10**8
    upper -= lead * 10**8
    high, low = upper // 10**4, lower // 10**4
    groups = (high, upper - high * 10**4, low, lower - low * 10**4)
    src = np.empty((digits.size, _ROW // 4), np.uint32)
    src[:, 0] = _GROUPS[lead]
    for word, group in enumerate(groups, 1):
        src[:, word] = _GROUPS[group]
    src[:, 5] = _CONSTANTS
    src[:, 6] = _EXPONENT_WORDS[row]
    zeros = _GROUP_ZEROS[groups[3]]
    for seen, group in zip((4, 8, 12), groups[2::-1]):
        zeros += (zeros == seen) * _GROUP_ZEROS[group]
    return src, zeros


def format_g17(values) -> tuple[np.ndarray, np.ndarray]:
    """``%.17g`` of every value of a float64 array: a (size, WIDTH) uint8 matrix and the lengths.

    Row i holds the ASCII bytes of ``cli._fmt`` of the i-th value in C
    order, left-aligned; the bytes past its length are unspecified.
    """
    x = np.asarray(values, np.float64).ravel()
    digits, row, decided = _decimal(x)
    src, zeros = _source_rows(digits, row)
    layout = _LAYOUT_BASE[row] - 2 * zeros + np.signbit(x)
    chars = np.take(src.view(np.uint8).ravel(),
                    np.arange(0, _ROW * x.size, _ROW)[:, None] + _LAYOUTS[layout])
    lengths = _LENGTHS[layout]

    slow = np.flatnonzero(~decided)
    if slow.size:
        texts, lengths[slow] = pad([_fmt(value) for value in x[slow].tolist()])
        chars[slow, :texts.shape[1]] = texts
    return chars, lengths
