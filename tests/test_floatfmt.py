"""``floatfmt.format_g17`` against its oracle, the ``%.17g`` of ``cli._fmt``, class by class."""

import math

import numpy as np
import pytest

from volterra_cone.cli import FLOAT_FORMAT, _csv_rows, _fmt
from volterra_cone.floatfmt import FAST_MAX, FAST_MIN, TIE_BAND, WIDTH, _decimal, format_g17

BATCH = 1 << 18


def _random_bits(rng, n):
    """Uniform 64-bit patterns: every exponent, both signs, subnormals, NaN payloads."""
    return np.frombuffer(rng.bytes(8 * n), np.float64)


def _ties(rng, per_exponent):
    """+-m 2^-k whose decimal expansion has 18 significant digits ending in 5.

    m 5^k is odd times 5, so it has exactly as many digits as the expansion;
    with 18 of them, x 10^(16 - e) is a half-integer and ``%`` rounds it half
    to even.  m < 2^53 makes each value exact.
    """
    values = []
    for k in range(2, 26):
        lo = -(-10**17 // 5**k)
        hi = min(2**53, (10**18 - 1) // 5**k)
        m = rng.integers(lo, hi, per_exponent, endpoint=True) | 1
        m = m[m <= hi]
        assert all(len(str(v * 5**k)) == 18 for v in m.tolist())
        values.append(np.ldexp(m.astype(np.float64), -k))
    values = np.concatenate(values + [np.array([2.0**-25, 2.98023223876953125e-08])])
    return np.concatenate((values, -values))


def _near_ties():
    """Values closer than 2^-44 to a tie without being one, where x 10^(16 - e) is inexact.

    Below 1e-6 (10^(16 - e) = 10^j, j >= 23): x = m 2^-(s + j) makes
    x 10^j = m 5^j / 2^s a 17-digit number plus 1/2 + r 2^-s when
    m 5^j = 2^(s - 1) + r (mod 2^s).  Above 1e17 (j = -k): x = m 2^(p + k)
    makes x 10^j = m 2^p / 5^k that number plus 1/2 + (2r + 1) / (2 5^k)
    when m 2^p = (5^k + 1) / 2 + r (mod 5^k).  m is lifted into [2^52, 2^53).
    """
    def lifted(m, modulus):
        return m + max(0, -(-(2**52 - m) // modulus)) * modulus

    values = []
    for r in range(-64, 65):
        for j in range(23, 31):
            for s in range(48, 72):
                m = lifted((2**(s - 1) + r) * pow(5**j, -1, 2**s) % 2**s, 2**s)
                if (m < 2**53 and 10**16 * 2**s <= m * 5**j < 10**17 * 2**s
                        and r != 0 and abs(r) * 2**44 < 2**s):
                    values.append(math.ldexp(m, -(s + j)))
        for k in range(19, 23):
            for p in range(0, 60):
                m = lifted(((5**k + 1) // 2 + r) * pow(2**p, -1, 5**k) % 5**k, 5**k)
                if (m < 2**53 and 10**16 * 5**k <= m * 2**p < 10**17 * 5**k
                        and abs(2 * r + 1) * 2**43 < 5**k):
                    values.append(math.ldexp(m, p + k))
    values = np.array(values)
    return np.concatenate((values, -values))


def _near(points, ulps):
    """Every point and its neighbours up to ``ulps`` doubles away on each side."""
    out = [points]
    up = down = points
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def _powers_of_ten():
    points = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return _near(np.concatenate((points, -points)), 2)


def _boundaries():
    """Where the layout changes: 17 digits against 18 (1e16, 1e17), fixed against d.dde-05."""
    points = np.array([1e16, 1e17, 1e-4, 1e-5, 9999999999999998.0, 99999999999999984.0,
                       9.9999999999999991e-05, 1e15, 1e-3, 1e100, 1e-100,
                       FAST_MIN, FAST_MAX, 10.0**-281, 10.0**291])
    return _near(np.concatenate((points, -points)), 8)


def _specials(rng):
    tiny = np.frombuffer(rng.integers(1, 2**52, 100_000, dtype=np.uint64).tobytes(), np.float64)
    edges = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                      2.2250738585072009e-308, 2.2250738585072014e-308,
                      1.7976931348623157e308, -1.7976931348623157e308])
    return np.concatenate((tiny, -tiny, edges))


def _scaled(rng, n):
    """Uniforms, and normals times 10^k for k in [-8, 20], as a simulation writes them."""
    normals = n - n // 3
    return np.concatenate((rng.random(n // 3),
                           rng.standard_normal(normals) * 10.0**rng.integers(-8, 21, normals)))


def _integers(rng, n):
    return np.concatenate((rng.integers(-2**53, 2**53, n // 2).astype(np.float64),
                           np.arange(-(n // 4), n - n // 2 - n // 4, dtype=np.float64)))


CLASSES = {
    "random-bits": lambda rng: _random_bits(rng, 4_000_000),
    "scaled": lambda rng: _scaled(rng, 5_600_000),
    "integers": lambda rng: _integers(rng, 200_000),
    "ties": lambda rng: _ties(rng, 4_000),
    "near-ties": lambda rng: _near_ties(),
    "powers-of-ten": lambda rng: _powers_of_ten(),
    "boundaries": lambda rng: _boundaries(),
    "subnormals-and-specials": _specials,
}


def _values(name):
    return CLASSES[name](np.random.default_rng(sorted(CLASSES).index(name) + 101))


def _text(values) -> bytes:
    """The texts of ``format_g17``, one per line."""
    chars, lengths = format_g17(values)
    table = np.empty((values.size, 1, WIDTH + 1), np.uint8)
    table[:, 0, :WIDTH] = chars
    return _csv_rows(table, lengths[:, None])


def test_the_classes_hold_ten_million_values():
    assert sum(_values(name).size for name in CLASSES) >= 10_000_000


@pytest.mark.parametrize("name", list(CLASSES))
def test_format_g17_gives_the_bytes_of_fmt(name):
    values = _values(name)
    for start in range(0, values.size, BATCH):
        batch = values[start:start + BATCH]
        expected = ((FLOAT_FORMAT + "\n") * batch.size % tuple(batch.tolist())).encode()
        got = _text(batch)
        if got != expected:
            wrong = [(value, text) for value, text in zip(batch.tolist(), got.decode().split("\n"))
                     if text != _fmt(value)]
            pytest.fail(f"{len(wrong)} of {batch.size} values differ, first {wrong[:5]}")



def test_the_fast_path_leaves_every_near_tie_to_fmt():
    # its error is below 2^-47, so a value this close to a tie may round either way there
    near = _near_ties()
    assert near.size > 1000 and TIE_BAND >= 2.0**-44
    assert not _decimal(near)[2].any()
    assert not _decimal(_values("ties"))[2].any()
