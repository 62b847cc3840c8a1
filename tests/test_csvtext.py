import contextlib
import io
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import telematch.csvtext
from telematch.cli import main
from telematch.csvtext import (_DIG4, _DIG4_STRIPPED, _E_LO, _LAYOUT, _P10, VECTOR_MIN, _digits, _vector_rows,
                               rows_text)
from telematch.protocol import fig1_columns, fig1_grid


def _reference_rows(columns) -> str:
    """The CSV writer before the vector path: one `%` pass over the values."""
    row = ",".join(["%.15g"] * len(columns)) + "\n"
    return (row * len(columns[0])) % tuple(np.column_stack(columns).ravel().tolist())


def _assert_same_text(values, ncols=1):
    table = np.asarray(values, dtype=float).reshape(-1, ncols)
    columns = list(table.T)
    expected = _reference_rows(columns)
    assert _vector_rows(table) == expected
    assert rows_text(columns) == expected


tables = st.integers(1, 3).flatmap(
    lambda ncols: arrays(np.float64, st.tuples(st.integers(1, 300), st.just(ncols)),
                         elements=st.floats(width=64))
)


@given(tables)
@settings(max_examples=300)
def test_vector_text_equals_the_reference_on_any_doubles(table):
    _assert_same_text(table, table.shape[1])


def _neighbours(x, ulps=3):
    out = [x]
    lo = hi = x
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


EXPLICIT = {
    "ties": [1234567890123455.0, 999999999999999.5, 100000000000000.5, 0.5, 2.5,
             *((2 * k + 1) * 5e-16 for k in range(2000))],
    "powers of ten": [v for p in range(-307, 309) for v in _neighbours(10.0 ** p, 1)],
    "notation bounds": [v for x in (1e-5, 1e-4, 1e15, 1e16, 9.9999999999999995e-5,
                                    999999999999999.4, 999999999999999.6)
                        for v in _neighbours(x, 8)],
    "extremes": [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 -1.7976931348623157e308, 0.0, -0.0, np.nan, np.inf, -np.inf,
                 *_neighbours(1e-290), *_neighbours(1e290), *_neighbours(1e-100), *_neighbours(1e100)],
    "short decimals": [0.05, 0.18, 0.0648, 0.98, 0.979999999999999, 1.0, 10.0, 123456.0,
                       1e14, 123456789012345.0, 0.1, 0.2, 0.3, 0.7],
}


@pytest.mark.parametrize("name", EXPLICIT)
def test_vector_text_equals_the_reference_on_hard_cases(name):
    values = np.array(EXPLICIT[name], dtype=float)
    _assert_same_text(np.concatenate([values, -values]))


def test_vector_text_equals_the_reference_on_random_bit_patterns():
    bits = np.random.default_rng(5).integers(0, 2**64, 60000, dtype=np.uint64, endpoint=False)
    _assert_same_text(bits.view(np.float64), 3)


def test_vector_text_equals_the_reference_on_grid_like_values():
    b = np.linspace(1e-6, 2**-0.5, 50000)
    _assert_same_text(np.column_stack([b, 2 * b * b, b * b * (1 - b * b)]), 3)


# The widest texts the vector path writes: scientific, fixed below 1e-3 and
# fixed with 14 digits before the point, each with a sign.
WIDEST = [-1.23456789012345e-290, -0.000123456789012345, -12345678901234.5]


def test_widest_texts_take_the_vector_path_in_every_column():
    # each value in the first, middle and last column of a row
    table = np.array([np.roll(WIDEST, k) for k in range(3)])
    assert not _digits(table.ravel())[2].any()
    _assert_same_text(table, 3)
    assert _vector_rows(table).splitlines()[0] == "-1.23456789012345e-290,-0.000123456789012345,-12345678901234.5"


def test_fig1_values_never_fall_back():
    assert not _digits(np.column_stack(fig1_columns(fig1_grid(20000))).ravel())[2].any()


def test_sweep_values_never_fall_back(monkeypatch):
    blocks = []

    def recorded(columns):
        blocks.append(np.column_stack(columns).ravel())
        return rows_text(columns)

    monkeypatch.setattr(telematch.csvtext, "rows_text", recorded)
    for argv in SWEEPS:
        _stdout(argv)
    values = np.concatenate(blocks)
    assert values.size == 120000
    assert not _digits(values)[2].any()


def test_values_whose_log10_misses_their_exponent_fall_back():
    # within a few ulps of a power of ten numpy's log10 may round across it:
    # e = floor(log10 |x|) then misses the decimal exponent of x
    values = np.array([v for name in ("powers of ten", "notation bounds", "extremes") for v in EXPLICIT[name]])
    values = values[(np.abs(values) >= 1e-290) & (np.abs(values) < 1e290)]
    a = np.abs(values)
    e = np.floor(np.log10(a))
    missed = e != [Decimal(v).adjusted() for v in a.tolist()]
    # w, the floor of the rounded product |x| 10^(14-e), then misses [1e14, 1e15), unless it
    # lands on 1e14: there x lies just below 10^e, and its 15 digits are those of 10^e
    landed = np.floor(a * _P10[(e - _E_LO).astype(np.intp), 0]) == 1e14
    assert (missed & ~landed).any()
    assert _digits(values)[2][missed & ~landed].all()
    _assert_same_text(values[missed])


def test_a_log10_rounded_below_its_exponent_leaves_the_carry_to_the_others(monkeypatch):
    # 1000.000000000001 scaled by 10^(14-2) gives 15 digits above 10^15, which fall
    # back; 0.9999999999999998 in the same block still carries to 1
    x = np.array([0.9999999999999998, 1000.000000000001])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda b: np.where(b == x[1], np.nextafter(3.0, 0.0), log10(b)))
    m, row, fallback = _digits(x)
    assert fallback.tolist() == [False, True] and m[1] > 10**15
    _assert_same_text(x)


def test_power_table_is_exact_to_2_pow_104():
    # the fallback band assumes frac(|x| 10^(14-e)) within 2e-16, and
    # Dekker's product needs halves of at most 26 bits
    for e, (hi, lo, hi1, hi2) in enumerate(_P10, _E_LO):
        exact = Fraction(10) ** (14 - e)
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact / 2**104, e
        assert hi1 + hi2 == hi, e
        for half in (hi1, hi2):
            n = abs(half.as_integer_ratio()[0])
            assert n == 0 or (n // (n & -n)).bit_length() <= 26, e


def test_tables_equal_their_definitions():
    # hi is the double nearest 10^(14-e), lo the double nearest the rest
    for e, (hi, lo, _, _) in enumerate(_P10, _E_LO):
        exact = Fraction(10) ** (14 - e)
        assert hi == float(exact), e
        assert lo == float(exact - Fraction(hi)), e
    # bytes 16 to 23 of a number's text: the exponent, at 17 to 21, in scientific notation only
    for e, exponent in enumerate(_LAYOUT[:, 7:].view("S8").ravel().tolist(), _E_LO):
        assert exponent == (b"" if -4 <= e <= 14 else ("\0e%+03d" % e).encode()), e
    assert _DIG4[:10000].view("S8").tolist() == [f"{i:04d}".encode() for i in range(10000)]
    assert _DIG4_STRIPPED.view("S8").tolist() == [f"{i:04d}".rstrip("0").encode() for i in range(10000)]


def test_blocks_below_the_vector_minimum_take_the_scalar_path(monkeypatch):
    monkeypatch.setattr(telematch.csvtext, "_vector_rows", None)
    columns = list(np.random.default_rng(6).random((3, (VECTOR_MIN - 1) // 3)))
    assert rows_text(columns) == _reference_rows(columns)


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


SWEEPS = [
    ["sweep", "--param=b", "--start=-0.7", "--stop=0.69", "--steps=5000", f"--basis={basis}",
     f"--k={k}", "--alpha=0.6", "--beta=0.8i"]
    for basis in ("bell", "gbm:0.6,0.8") for k in ("max", "per-outcome", "0.9")
] + [
    ["sweep", "--param=k", "--start=0.01", "--stop=1.2", "--steps=5000", f"--basis={basis}",
     "--channel=diag:0.8,0.6i", "--alpha=0.6i", "--beta=-0.8"]
    for basis in ("bell", "gbm:0.6,0.8")
]


@pytest.mark.parametrize("argv", [["fig1", "--steps=20000"], *SWEEPS],
                         ids=lambda argv: " ".join(argv[:2] + argv[5:7]))
def test_cli_output_equals_the_reference_writer(monkeypatch, argv):
    text = _stdout(argv)
    monkeypatch.setattr(telematch.csvtext, "rows_text", _reference_rows)
    assert text == _stdout(argv)
