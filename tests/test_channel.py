import cmath
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from telematch import channel as chn
from telematch.channel import (
    NORMALIZATION_TOL,
    ChannelClass,
    PureInputState,
    TwoQubitChannel,
    UnteleportableChannelError,
    classify,
    concurrence,
    cpm,
)
from telematch.cli import format_complex, parse_channel, parse_complex
from telematch.measurement import standard_bell
from telematch.protocol import points

rng = np.random.default_rng(61803)

SQRT_HALF = 1.0 / math.sqrt(2.0)


def same_complex(z, w):
    """z == w, with nan equal to nan in each part."""
    return all(x == y or (math.isnan(x) and math.isnan(y)) for x, y in ((z.real, w.real), (z.imag, w.imag)))


def random_normalized(n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def test_input_state_coerces_to_complex():
    s = PureInputState(1, 0)
    assert s.alpha == 1 + 0j and isinstance(s.alpha, complex)
    assert np.array_equal(s.vector(), np.array([1, 0], dtype=complex))


def test_input_state_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        PureInputState(0.6, 0.7)


def test_input_state_accepts_within_tolerance():
    PureInputState(0.6 + 1e-12, 0.8)


def test_input_state_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        PureInputState(float("nan"), 1.0)


@pytest.mark.parametrize("huge", [1e200, complex(1e308, 1e308)], ids=["square", "modulus"])
def test_huge_amplitudes_are_unnormalized_not_overflow(huge):
    # |z|**2, or |z| itself, leaves the double range: an error message, not OverflowError
    with pytest.raises(ValueError, match="squared moduli is inf$"):
        PureInputState(huge, 1.0)
    with pytest.raises(ValueError, match="squared moduli is inf$"):
        TwoQubitChannel.diagonal(0.5, huge)


@pytest.mark.parametrize("value", ["0.6", b"0.6", None, [0.6], True, np.True_, np.array(0.6)], ids=repr)
def test_an_amplitude_that_is_not_a_number_is_refused_by_name(value):
    # a str was parsed and None raised a raw TypeError; a bool is no amplitude
    got = f"got {value} of type {type(value).__name__}"
    with pytest.raises(ValueError, match=f"^amplitude beta must be a number, {re.escape(got)}$"):
        PureInputState(0.8, value)
    with pytest.raises(ValueError, match=f"^amplitude x11 must be a number, {re.escape(got)}$"):
        TwoQubitChannel.diagonal(0.8, value)


@pytest.mark.parametrize("huge", [10**400, -(10**400)], ids=["huge", "-huge"])
def test_an_int_amplitude_beyond_the_float_range_is_not_finite(huge):
    # read as inf by the number rule, not a raw OverflowError from complex()
    with pytest.raises(ValueError, match="^amplitude alpha must be finite$"):
        PureInputState(huge, 0.0)


def test_input_state_is_frozen():
    s = PureInputState(0.6, 0.8)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.alpha = 1.0


def test_channel_diagonal_constructor():
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    assert np.array_equal(ch.vector(), np.array([0.8, 0, 0, 0.6], dtype=complex))


def test_channel_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        TwoQubitChannel(0.5, 0.5, 0.5, 0.6)


def test_cpm_of_maximally_entangled_channel_is_identity():
    ch = TwoQubitChannel.diagonal(SQRT_HALF, SQRT_HALF)
    assert np.allclose(cpm(ch), np.eye(2), atol=1e-15)


def test_cpm_diagonal_golden():
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    expected = math.sqrt(2.0) * np.diag([0.8, 0.6])
    assert np.allclose(cpm(ch), expected, atol=0)


def test_cpm_transpose_convention():
    # X[k, j] = sqrt(2) * x_jk, so x10 lands in the upper right
    ch = TwoQubitChannel(0.5, 0.5, 0.5, 0.5)
    x = cpm(ch)
    assert x[0, 1] == math.sqrt(2.0) * ch.x10
    assert x[1, 0] == math.sqrt(2.0) * ch.x01


def test_cpm_swap_channel_is_pauli_x():
    ch = TwoQubitChannel(0, SQRT_HALF, SQRT_HALF, 0)
    assert np.allclose(cpm(ch), np.array([[0, 1], [1, 0]]), atol=1e-15)


@pytest.mark.parametrize(
    "entries",
    [
        (SQRT_HALF, 0, 0, SQRT_HALF),
        (SQRT_HALF, 0, 0, -SQRT_HALF),
        (0, SQRT_HALF, SQRT_HALF, 0),
        (0, SQRT_HALF, -SQRT_HALF, 0),
        # X X^dag - I is 4e-10, inside the tolerance of 1e-9
        (SQRT_HALF * (1 + 2e-10), 0, 0, SQRT_HALF * (1 + 2e-10)),
    ],
)
def test_classify_maximally_entangled_channels_as_perfect(entries):
    assert classify(TwoQubitChannel(*entries)) is ChannelClass.PERFECT


def test_classify_partially_entangled_as_probabilistic():
    assert classify(TwoQubitChannel.diagonal(0.8, 0.6)) is ChannelClass.PROBABILISTIC
    # X X^dag - I is diag(2e-9, -2e-9), just outside the tolerance of 1e-9
    near = TwoQubitChannel.diagonal(math.sqrt(0.5 + 1e-9), math.sqrt(0.5 - 1e-9))
    assert classify(near) is ChannelClass.PROBABILISTIC


@pytest.mark.parametrize(
    "entries",
    [
        (1, 0, 0, 0),
        (0.5, 0.5, 0.5, 0.5),  # product state, zero determinant
    ],
)
def test_classify_singular_as_unteleportable(entries):
    assert classify(TwoQubitChannel(*entries)) is ChannelClass.UNTELEPORTABLE


def test_classify_equal_coefficients_is_perfect_not_probabilistic():
    # unitarity is checked before invertibility
    assert classify(TwoQubitChannel.diagonal(SQRT_HALF, SQRT_HALF)) is ChannelClass.PERFECT


def test_is_unitary_accepts_paulis():
    # X[k, j] = sqrt(2) * x_jk: these channels have X = I, X, Z and Y
    paulis = {
        (SQRT_HALF, 0, 0, SQRT_HALF): np.eye(2),
        (0, SQRT_HALF, SQRT_HALF, 0): [[0, 1], [1, 0]],
        (SQRT_HALF, 0, 0, -SQRT_HALF): [[1, 0], [0, -1]],
        (0, 1j * SQRT_HALF, -1j * SQRT_HALF, 0): [[0, -1j], [1j, 0]],
    }
    for entries, pauli in paulis.items():
        ch = TwoQubitChannel(*entries)
        assert np.allclose(cpm(ch), pauli, atol=1e-15)
        assert classify(ch) is ChannelClass.PERFECT


def test_concurrence_goldens():
    assert concurrence(TwoQubitChannel.diagonal(SQRT_HALF, SQRT_HALF)) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(TwoQubitChannel.diagonal(0.8, 0.6)) == pytest.approx(0.96, abs=1e-12)
    assert concurrence(TwoQubitChannel(1, 0, 0, 0)) == 0.0


def test_concurrence_matches_amplitude_formula():
    # concurrence = 2|x00*x11 - x01*x10|, computed here without the matrix
    for _ in range(50):
        x = random_normalized(4)
        ch = TwoQubitChannel(*x)
        direct = 2.0 * abs(x[0] * x[3] - x[1] * x[2])
        assert concurrence(ch) == pytest.approx(direct, abs=1e-12)


def test_perfect_channels_have_unit_concurrence():
    # a channel built from a unitary parameter matrix classifies Perfect
    # and carries maximal entanglement
    s = math.sqrt(2.0)
    for _ in range(25):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        ch = TwoQubitChannel(q[0, 0] / s, q[1, 0] / s, q[0, 1] / s, q[1, 1] / s)
        assert classify(ch) is ChannelClass.PERFECT
        assert concurrence(ch) == pytest.approx(1.0, abs=1e-9)


def test_concurrence_bounds_on_random_channels():
    for _ in range(100):
        ch = TwoQubitChannel(*random_normalized(4))
        c = concurrence(ch)
        assert -1e-12 <= c <= 1.0 + 1e-9


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0.8", 0.8 + 0j),
        ("-0.5+0.5i", -0.5 + 0.5j),
        ("1e-3-2e-4i", 1e-3 - 2e-4j),
        (" 0.25 ", 0.25 + 0j),
        ("i", 1j),
        ("-i", -1j),
        # only a trailing i is the imaginary unit: the i of inf stays
        ("inf", complex(math.inf, 0.0)),
        ("-inf", complex(-math.inf, 0.0)),
        ("Infinity", complex(math.inf, 0.0)),
        ("1+infi", complex(1.0, math.inf)),
        ("nani", complex(0.0, math.nan)),
    ],
)
def test_parse_complex(text, expected):
    assert same_complex(parse_complex(text), expected)


@pytest.mark.parametrize("bad", ["abc", "", "0.5+", "1+2k"])
def test_parse_complex_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_complex(bad)


def test_format_complex_roundtrip():
    for _ in range(50):
        z = complex(rng.normal(), rng.normal())
        back = parse_complex(format_complex(z))
        assert abs(back - z) <= 1e-12 * abs(z)
    assert format_complex(0.5 + 0j) == "0.5"
    assert format_complex(0.5 - 0.25j) == "0.5-0.25i"


@pytest.mark.parametrize("z", [complex(math.inf, 0.0), complex(-math.inf, 0.5), complex(1.0, math.inf),
                               complex(0.0, -math.inf), complex(math.nan, 0.0), complex(0.0, math.nan),
                               complex(math.nan, -math.inf)])
def test_format_complex_roundtrip_of_non_finite_values(z):
    assert same_complex(parse_complex(format_complex(z)), z)


def test_parse_channel_diag_form():
    ch = parse_channel("diag:0.8,0.6")
    assert ch == TwoQubitChannel.diagonal(0.8, 0.6)


def test_parse_channel_full_form():
    ch = parse_channel("0.5,0.5,0.5,0.5")
    assert ch.x01 == 0.5 + 0j


def test_parse_channel_complex_entries():
    ch = parse_channel("diag:0.8i,0.6")
    assert ch.x00 == 0.8j
    assert abs(concurrence(ch) - 0.96) < 1e-12


@pytest.mark.parametrize(
    "bad",
    ["diag:0.8", "0.5,0.5,0.5", "diag:0.8,0.6,0.1", "nope", "diag:0.5,0.5"],
)
def test_parse_channel_rejects_bad_literals(bad):
    with pytest.raises(ValueError):
        parse_channel(bad)


unit_angle = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)


@given(unit_angle, unit_angle)
@settings(max_examples=50)
def test_diagonal_channels_from_angles_always_classify(theta, phase):
    ch = TwoQubitChannel.diagonal(math.cos(theta), math.sin(theta) * np.exp(1j * phase))
    cls = classify(ch)
    assert cls in (ChannelClass.PERFECT, ChannelClass.PROBABILISTIC, ChannelClass.UNTELEPORTABLE)
    assert concurrence(ch) == pytest.approx(2 * abs(math.cos(theta) * math.sin(theta)), abs=1e-9)


# b such that a|00> + b|11> has concurrence 2ab within relative 1e-12 of the
# threshold NORMALIZATION_TOL (a rounds to 1)
near_threshold = st.floats(min_value=0.5e-9 * (1.0 - 1e-12), max_value=0.5e-9 * (1.0 + 1e-12))
local_phase = st.floats(min_value=0.0, max_value=2.0 * math.pi)


@given(near_threshold, local_phase, local_phase, local_phase, local_phase, local_phase)
@example(4.999999999999991e-10, 0.0, 0.0, 0.0, 0.0, 0.0)  # 2b rounds to just below 1e-9
@settings(max_examples=300)
def test_classify_refuses_exactly_the_channels_points_refuses(b, p0, p1, q0, q1, theta):
    # the channel under the local phases diag(e^{i p_j}) (x) diag(e^{i q_k}) and
    # a rotation by theta on the sender's qubit, x[j, k] = x_jk
    d = np.diag([math.sqrt(1.0 - b * b) * cmath.exp(1j * (p0 + q0)), b * cmath.exp(1j * (p1 + q1))])
    rotation = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    x = rotation @ d
    ch = TwoQubitChannel(*x.ravel())
    unteleportable = classify(ch) is ChannelClass.UNTELEPORTABLE
    assert unteleportable == (concurrence(ch) <= NORMALIZATION_TOL)
    for resolve in (lambda: points(x[None], standard_bell(), "max-global"),
                    lambda: points(ch.vector().reshape(1, 2, 2), standard_bell(), "max-global")):
        try:
            resolve()
            refused = False
        except UnteleportableChannelError:
            refused = True
        assert refused == unteleportable
