import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telematch import channel as chn
from telematch.channel import (
    ChannelClass,
    PureInputState,
    TwoQubitChannel,
    classify,
    concurrence,
    cpm,
    format_complex,
    parse_channel,
    parse_complex,
)

rng = np.random.default_rng(61803)

SQRT_HALF = 1.0 / math.sqrt(2.0)


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
        # X X^dag - I is 4e-10, inside the default tolerance of 1e-9
        (SQRT_HALF * (1 + 2e-10), 0, 0, SQRT_HALF * (1 + 2e-10)),
    ],
)
def test_classify_maximally_entangled_channels_as_perfect(entries):
    assert classify(TwoQubitChannel(*entries)) is ChannelClass.PERFECT


def test_classify_partially_entangled_as_probabilistic():
    assert classify(TwoQubitChannel.diagonal(0.8, 0.6)) is ChannelClass.PROBABILISTIC
    # X X^dag - I is diag(2e-9, -2e-9), just outside the default tolerance of 1e-9
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
    ],
)
def test_parse_complex(text, expected):
    assert parse_complex(text) == expected


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
