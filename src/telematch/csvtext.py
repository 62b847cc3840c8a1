"""CSV text of float64 columns, every number as C's `%.15g`, byte for byte.

`rows_text` builds the text of a whole block with numpy and hands to
Python's formatter only the few values numpy cannot decide:

- Digits. With e = floor(log10 |x|) where log10 does not miss it,
  s = |x| 10^(14-e) lies in [1e14, 1e15). It is found in float64 by
  error-free transformations (Ogita, Rump & Oishi, SIAM J. Sci. Comput.
  26, 1955, 2005): 10^(14-e) is a double-double hi + lo from a correctly
  rounded table, hi the double nearest 10^(14-e) and lo the double nearest
  the rest, so hi + lo is exact to 2^-105; |x| hi is its rounded product
  plus the exact error of that product (Dekker's product of two Veltkamp
  splits). With w the floor of the rounded product, the rest s - w lies
  in (-0.5, 1.5) and is known to within 2e-16. The 15 significant digits
  are w plus s - w rounded to an integer, carried to the next exponent at
  10^15.
- Fallback. Where s - w lies within 2^-50 of 0.5, which takes in the
  exact ties that round half to even, the rounding is not decided, and
  the value goes to `%.15g`. So do zeros, nan, +-inf, |x| outside
  [1e-290, 1e290), and values a few ulps from a power of ten whose
  rounded log10 misses their exponent, where w misses [1e14, 1e15); if w
  lands on 1e14 instead, the 15 digits are the power's. No long double
  is used, so the vector path runs on every platform.
- Layout. C's `%g` with precision 15: fixed notation for exponents from
  -4 to 14, else d.ddde+XX with at least two exponent digits, trailing
  zeros and a trailing point stripped. Each number's text is built in a
  row of three little-endian 64-bit words (24 bytes), where NUL stands
  for no character: the sign at byte 0, the mantissa from byte 1, the
  exponent at bytes 17 to 21 and the separator at byte 23. The digits
  come from a table of 4-digit groups whose trailing zeros are NUL, so
  a number's trailing zeros need no count; the point, and the digits
  before and after it, are placed by per-exponent masks and shifts.
  The NULs are dropped at the end.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64

# Blocks with fewer values are formatted by Python at once: there the
# fixed cost of the vector path's numpy calls is more than it saves
# (x86-64, fig1's values, scalar against vector: 75 values 48 against
# 89 us, 300 values 133 against 104 us, 750 values 335 against 139 us;
# the two cross near 225 values). It stays 300: a block of 225 to 299
# values, a sweep of 75 to 99 steps or a fig1 of 57 to 74, would save at
# most 29 us, and no perfbench workload writes one (its sweeps write 75
# or 750 values, its fig1 blocks 2176 or more).
VECTOR_MIN = 300
# Magnitudes the vector path takes; every power of ten in the table, and
# every product |x| 10^(14-e) and its splits, stays a normal double.
_LO, _HI = 1e-290, 1e290
_BELOW_HI = np.nextafter(_HI, 0.0)
# |frac(s) - 0.5| below this leaves the rounding of s to the fallback; the
# error of frac(s) is below 2e-16.
_BAND = 2.0**-50

# The exponents e the vector path may meet: floor(log10 |x|) for |x| in
# [_LO, _HI), with one row of margin for log10's own miss and for the carry
# to the next exponent. Row e - _E_LO of a per-exponent table belongs to e.
_E_LO, _E_HI = -291, 290


def _split(a):
    """Veltkamp's split a = hi + lo, each half with at most 26 significant
    bits, so that the product of two halves is exact (|a| < 1e300)."""
    c = a * 134217729.0  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _powers_of_ten() -> np.ndarray:
    """Per exponent e, 10^(14-e) as hi + lo, hi the double nearest it and lo
    the double nearest the rest, in the columns hi, lo and the two halves of
    hi. Both are quotients of Python ints, which Python rounds correctly."""
    hi, lo = [], []
    tens = [10**p for p in range(15 - _E_LO)]
    for e in range(_E_LO, _E_HI + 1):
        num, den = (tens[14 - e], 1) if e <= 14 else (1, tens[e - 14])
        hi.append(num / den)
        m, d = hi[-1].as_integer_ratio()
        lo.append((num * d - m * den) / (den * d))
    # split the mantissa: 10^305 times 2^27 would overflow
    frac, exp = np.frexp(hi)
    return np.column_stack([hi, lo, *(np.ldexp(half, exp) for half in _split(frac))])


_P10 = _powers_of_ten()


def _four_digits():
    """The four ASCII digits of 0..9999, the most significant in the lowest
    byte, followed by the same with trailing zeros as NUL (all NUL for 0)."""
    place = np.array([[1000], [100], [10], [1]], np.uint32)
    digits = np.arange(10000, dtype=np.uint32) // place % 10
    kept = digits != 0
    for i in (2, 1, 0):  # a digit is kept where it or a later one is nonzero
        kept[i] |= kept[i + 1]
    text = (digits + ord("0")) << 8 * np.arange(4, dtype=np.uint32)[:, None]
    return np.concatenate([np.bitwise_or.reduce(text), np.bitwise_or.reduce(text * kept)]).astype(_U)


_DIG4 = _four_digits()
_DIG4_STRIPPED = _DIG4[10000:]


def _layouts() -> np.ndarray:
    """Per exponent e, the words that place a number's digits, in columns:
    two of the mask of the digits before the point, two of its complement,
    the bit shift of the digits after the point, two of what goes before
    those digits (the point, or the "0.00" that precedes the digits of an
    exponent below 0), and the word of the exponent at bytes 17 to 21."""

    def row(before, shift, fill):
        return ((b"\xff" * before).ljust(16, b"\0") + (b"\0" * before).ljust(16, b"\xff")
                + bytes([shift]).ljust(8, b"\0") + fill.ljust(16, b"\0"))

    scientific = row(1, 16, b"\0\0.")  # d.ddd
    rows = []
    for e in range(_E_LO, _E_HI + 1):
        if not -4 <= e <= 14:  # then the exponent as C's %g writes it
            rows.append(scientific + (b"\0e%+03d" % e).ljust(8, b"\0"))
        elif e < 0:  # "0.", the zeros, the digits
            rows.append(row(0, 8 * (2 - e), b"\0" + b"0.".ljust(1 - e, b"0")) + bytes(8))
        else:  # e + 1 digits before the point, and the point unless e is 14
            rows.append(row(e + 1, 16, b"\0" * (e + 2) + b"." * (e < 14)) + bytes(8))
    return np.frombuffer(b"".join(rows), _U).reshape(-1, 8)


_LAYOUT = _layouts()
_ZEROS = _U(0x3030303030303030)
_MINUS = ord("-")


def rows_text(columns) -> str:
    """One CSV line per index of equal-length float columns."""
    table = np.column_stack(columns).astype(float, copy=False)
    return (_scalar_rows if table.size < VECTOR_MIN else _vector_rows)(table)


def _scalar_rows(table: np.ndarray) -> str:
    row = ",".join(["%.15g"] * table.shape[1]) + "\n"
    return (row * table.shape[0]) % tuple(table.ravel().tolist())


def _vector_rows(table: np.ndarray) -> str:
    """The CSV text of a (rows, columns) float64 table."""
    x = table.ravel()
    m, row, fallback = _digits(x)
    words = _layout(m, row, x)
    if fallback.any():
        r = fallback.nonzero()[0]
        parts = _scalar_rows(x[r, None]).encode("ascii").split(b"\n")[:-1]
        words[r] = np.array(parts, dtype="S24").view(_U).reshape(-1, 3)
    sep = np.full(table.shape[1], ord(","), _U)
    sep[-1] = ord("\n")
    words.reshape(*table.shape, 3)[..., 2] |= sep << _U(56)
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _scaled(a: np.ndarray, row: np.ndarray):
    """For s = a 10^(14-e): w, the floor of the rounded product, and s - w
    to within 2e-16."""
    hi, lo, hi1, hi2 = _P10.take(row, axis=0).T
    a1, a2 = _split(a)
    s = a * hi
    err = ((a1 * hi1 - s) + a1 * hi2 + a2 * hi1) + a2 * hi2  # a hi - s, exactly
    w = np.floor(s)
    return w, (s - w) + (err + a * lo)


def _digits(x: np.ndarray):
    """The 15 significant digits m and the table row of the exponent e of
    |x| = m 10^(e-14), and where they may be wrong, so that x takes the
    fallback."""
    a = np.abs(x)
    # values out of range (nan too) become a placeholder and fall back
    b = np.fmin(np.fmax(a, _LO), _BELOW_HI)
    ok = b == a
    row = (np.floor(np.log10(b)) - _E_LO).astype(np.intp)
    w, rest = _scaled(b, row)
    # a log10 rounded across a power of ten puts w outside [1e14, 1e15), or on 1e14: the power's digits
    ok &= (w >= 1e14) & (w < 1e15) & (np.abs(rest - 0.5) >= _BAND)
    # rest lies in (-0.5, 1.5): it rounds to the carry into the last digit
    m = (w + np.rint(rest)).astype(np.int64)
    if m.max() >= 10**15:  # above 10^15 only where log10 missed, which falls back
        carry = m == 10**15
        m[carry] = 10**14
        row += carry
    return m, row, ~ok


def _digit_words(m: np.ndarray):
    """The 15 ASCII digits of m in two words, the first digit in the lowest
    byte and trailing zeros as NUL."""
    hi = m // 10**8
    lo = m - hi * 10**8
    g0 = hi // 10**4  # three digits
    g1 = hi - g0 * 10**4
    g2 = lo // 10**4
    g3 = lo - g2 * 10**4
    d3 = _DIG4_STRIPPED.take(g3)
    if not g3.all():
        # a group strips its zeros too where every group after it is 0
        strip = g3 == 0
        for g in (g2, g1, g0):
            zero = g == 0
            g[strip] += 10000
            strip &= zero
    d2 = _DIG4.take(g2)
    d0 = (_DIG4.take(g0) >> _U(8)) | (_DIG4.take(g1) << _U(24)) | (d2 << _U(56))
    d1 = (d2 >> _U(8)) | (d3 << _U(24))
    return d0, d1


def _layout(m: np.ndarray, row: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each number's text, NUL-padded, in a row of three words, byte 23
    left NUL for the separator."""
    d0, d1 = _digit_words(m)
    head0, head1, tail0, tail1, shift, fill0, fill1, exp = _LAYOUT.take(row, axis=0).T
    # the digits before the point, their zeros kept, one byte past the sign
    h0 = (d0 | _ZEROS) & head0
    h1 = (d1 | _ZEROS) & head1
    # the digits after the point, and the point only where one of them is left
    t0 = d0 & tail0
    t1 = d1 & tail1
    point = np.minimum(t0 | t1, _U(1))
    back = _U(64) - shift
    words = np.empty((m.size, 3), _U)
    words[:, 0] = (h0 << _U(8)) | (t0 << shift) | (fill0 * point) | ((x.view(_U) >> _U(63)) * _U(_MINUS))
    words[:, 1] = (h1 << _U(8)) | (h0 >> _U(56)) | (t1 << shift) | (t0 >> back) | (fill1 * point)
    words[:, 2] = (t1 >> back) | exp
    return words
