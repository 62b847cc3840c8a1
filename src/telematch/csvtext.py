"""CSV text of float64 columns, every number as C's `%.15g`, byte for byte.

`rows_text` builds the text of a whole block with numpy and hands to
Python's formatter only the few values numpy cannot decide:

- Digits. With e = floor(log10 |x|), corrected by one where it misses,
  s = |x| 10^(14-e) lies in [1e14, 1e15) and is computed in long double
  (64-bit mantissa on x86-64). The 15 significant digits are s rounded
  to an integer, carried to the next exponent at 10^15.
- Fallback. s carries a relative error of about one long double eps (the
  power of ten and one product). Where frac(s) lies within 8 eps * 1e15
  of 0.5, which takes in the exact ties that round half to even, the
  rounding is not decided, and the value goes to `%.15g`. So do zeros,
  nan, +-inf and |x| outside [1e-290, 1e290). Where long double is
  plain double (MSVC, macOS on arm64) that band exceeds 0.5, and every
  block takes the scalar path: the bytes are the same on every
  platform, only the speed differs.
- Layout. C's `%g` with precision 15: fixed notation for exponents from
  -4 to 14, else d.ddde+XX with at least two exponent digits, trailing
  zeros and a trailing point stripped. Each number's text is built in
  three little-endian 64-bit words (24 bytes, NUL-padded), where the
  digits are placed by per-row shifts and masks from small tables, and
  the NULs are dropped at the end.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_LD = np.longdouble

# |frac(s) - 0.5| below this leaves the rounding of s to the fallback.
_BAND = 8 * float(np.finfo(_LD).eps) * 1e15
# Blocks with fewer values are formatted by Python at once: there the
# fixed cost of the vector path's numpy calls is more than it saves
# (x86-64, random values: 75 values 131 against 66 us, 300 values 249
# against 244 us, 750 values 332 against 499 us).
VECTOR_MIN = 300 if _BAND < 0.5 else np.inf
# Magnitudes the vector path takes; 10^(14-e) stays finite even in double.
_LO, _HI = 1e-290, 1e290

# 10^p for p from _P10_LO: every 14 - e with e in [-291, 290].
_P10_LO = 14 - 290
_P10 = np.power(_LD(10), np.arange(_P10_LO, 14 + 292).astype(_LD))

_D = np.arange(48, 58, dtype=np.uint8)
# The four ASCII digits of 0..9999, the most significant in the lowest byte.
_DIG4 = np.stack(np.meshgrid(_D, _D, _D, _D, indexing="ij"), axis=-1).view(np.uint32).ravel().astype(_U)


def _trailing_zeros() -> np.ndarray:
    """The trailing decimal zeros of 0..9999, with 4 for 0."""
    q = np.arange(10000)
    return np.select([q == 0, q % 1000 == 0, q % 100 == 0, q % 10 == 0], [4, 3, 2, 1], 0).astype(np.int8)


_TZ4 = _trailing_zeros()

_DOT, _ZERO, _MINUS, _E, _PLUS = (ord(c) for c in ".0-e+")


def _words(byte_rows) -> np.ndarray:
    """(K, 8w) bytes -> (w, K) words, word j holding bytes 8j to 8j + 7."""
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view(_U).T.copy()


# _LOW[:, c]: the three words with bytes 0 to c - 1 set.
_LOW = _words(np.where(np.arange(24) < np.arange(25)[:, None], 255, 0))


def _layouts():
    """Per layout key kind * 15 + nd - 1, nd the number of significant
    digits (1-15) and kind e + 4 for fixed notation (e from -4 to 14) or
    19 for scientific: the two-word masks of the digits before the point
    and the bytes that go with them ("." after them, or the "0.00" that
    precedes the digits of an exponent below 0), the byte shift of the
    digits after the point, and the text length before the exponent."""
    kind, nd = (g.reshape(-1, 1) for g in np.meshgrid(np.arange(20), np.arange(1, 16), indexing="ij"))
    col = np.arange(16)
    sci = kind == 19
    e = kind - 4
    small = (e < 0) & ~sci  # 0.000ddd
    lead = 1 - e  # length of "0.000" before the digits
    k = np.where(sci, 1, np.where(small, 0, e + 1))  # digits before the point
    head_mask = np.where(col < k, 255, 0)
    head = np.where(small, np.where(col == 1, _DOT, np.where(col < lead, _ZERO, 0)),
                    np.where(col == k, _DOT, 0))
    shift = np.where(small, lead, 1)
    length = np.where(small, lead + nd, np.where(nd > k, nd + 1, k))
    return (_words(head_mask), _words(head),
            (shift.ravel() * 8).astype(_U), length.ravel().astype(_U))


(_HEAD_MASK0, _HEAD_MASK1), (_HEAD0, _HEAD1), _TAIL_SHIFT, _LENGTH = _layouts()


def _shl(x0, x1, bits):
    """Two words shifted left by bits (0 to 63) per row, as three words."""
    back = _U(64) - bits  # numpy gives 0 for a shift by 64
    return x0 << bits, (x1 << bits) | (x0 >> back), x1 >> back


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
    m, e, fallback = _digits(x)
    words, end = _layout(m, e, np.signbit(x))
    if fallback.any():
        r = fallback.nonzero()[0]
        parts = _scalar_rows(x[r, None]).encode("ascii").split(b"\n")[:-1]
        words[r] = np.array(parts, dtype="S24").view(_U).reshape(-1, 3)
        end[r] = np.fromiter(map(len, parts), np.intp, len(parts))
    sep = np.full(table.shape, ord(","), np.uint8)
    sep[:, -1] = ord("\n")
    words.view(np.uint8)[np.arange(x.size), end] = sep.ravel()
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _digits(x: np.ndarray):
    """The 15 significant digits m and the exponent e of |x| = m 10^(e-14),
    and where they may be wrong, so that x takes the fallback."""
    a = np.abs(x)
    ok = (a >= _LO) & (a < _HI)
    a[~ok] = 1.0  # a placeholder: these values fall back
    e = np.floor(np.log10(a)).astype(np.intp)
    al = a.astype(_LD)
    s = al * _P10[14 - _P10_LO - e]
    m = s.astype(np.int64)
    off = (m < 10**14) | (m >= 10**15)  # log10 rounded across a power of ten
    if off.any():
        i = off.nonzero()[0]
        e[i] += np.where(m[i] < 10**14, -1, 1)
        s[i] = al[i] * _P10[14 - _P10_LO - e[i]]
        m[i] = s[i].astype(np.int64)
    frac = np.subtract(s, m, out=s)
    fallback = ~ok | ((frac > 0.5 - _BAND) & (frac < 0.5 + _BAND))
    m += frac > 0.5
    carry = m == 10**15
    if carry.any():
        m[carry] = 10**14
        e += carry
    return m, e, fallback


def _digit_words(m: np.ndarray):
    """The 15 ASCII digits of m in two words, the first digit in the
    lowest byte, and the number of trailing zeros."""
    hi, lo = np.divmod(m, 10**8)
    g0, g1 = np.divmod(hi, 10**4)  # g0 has three digits
    g2, g3 = np.divmod(lo, 10**4)
    d2 = _DIG4[g2]
    d0 = (_DIG4[g0] >> _U(8)) | (_DIG4[g1] << _U(24)) | (d2 << _U(56))
    d1 = (d2 >> _U(8)) | (_DIG4[g3] << _U(24))
    zeros = _TZ4[g3]
    more = g3 == 0
    for g in (g2, g1, g0):
        if not more.any():
            break
        zeros[more] += _TZ4[g[more]]
        more &= g == 0
    return d0, d1, zeros


def _layout(m: np.ndarray, e: np.ndarray, negative: np.ndarray):
    """Each number's text without its separator, NUL-padded in a row of
    three words, and the length of that text."""
    d0, d1, zeros = _digit_words(m)
    # mantissa: a sign, the digits before the point with what goes with
    # them, the rest of the digits shifted past the point
    sci = (e < -4) | (e >= 15)
    key = np.where(sci, 19, e + 4) * 15 + 14 - zeros
    neg = negative.astype(_U)
    sign_bits = neg << _U(3)
    h0 = d0 & _HEAD_MASK0[key]
    h1 = d1 & _HEAD_MASK1[key]
    head = _shl(h0 | _HEAD0[key], h1 | _HEAD1[key], sign_bits)
    tail = _shl(d0 ^ h0, d1 ^ h1, _TAIL_SHIFT[key] + sign_bits)
    end = _LENGTH[key] + neg
    words = np.empty((m.size, 3), _U)
    for w in range(3):
        np.bitwise_and(head[w] | tail[w], _LOW[w][end], out=words[:, w])
    words[:, 0] |= neg * _U(_MINUS)
    end = end.astype(np.intp)

    if sci.any():
        # "e+dd" or "e-ddd"
        r = sci.nonzero()[0]
        exp = e[r]
        wide = np.abs(exp) >= 100
        suffix = np.empty((r.size, 5), np.uint8)
        suffix[:, 0] = _E
        suffix[:, 1] = np.where(exp < 0, _MINUS, _PLUS)
        suffix[:, 2:] = _DIG4[np.abs(exp)].astype(np.uint32).view(np.uint8).reshape(-1, 4)[:, 1:]
        suffix[~wide, 2:4] = suffix[~wide, 3:5]  # the fifth byte goes under the separator
        words.view(np.uint8)[r[:, None], end[r, None] + np.arange(5)] = suffix
        end[r] += np.where(wide, 5, 4)
    return words, end
