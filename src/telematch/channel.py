"""Input states, two-qubit channels, and channel classification.

Amplitude conventions used throughout the package:

* a single-qubit state is (alpha, beta) over |0>, |1>;
* a two-qubit channel state is (x00, x01, x10, x11) over |00>, |01>,
  |10>, |11>, where the first digit labels the sender-side qubit and the
  second the receiver-side qubit.

The channel parameter matrix collects the four amplitudes, scaled by
sqrt(2), as X[k, j] = sqrt(2) * x_jk. Its determinant modulus equals the
channel concurrence, and its algebraic character (unitary, merely
invertible, or singular) decides whether teleportation through the
channel is deterministic, probabilistic, or impossible.
"""

from __future__ import annotations

import cmath
import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

SQRT2 = float(np.sqrt(2.0))
NORMALIZATION_TOL = 1e-9


class UnteleportableChannelError(ValueError):
    """Raised when a channel cannot carry any quantum information."""


class ChannelClass(enum.Enum):
    PERFECT = "Perfect"
    PROBABILISTIC = "Probabilistic"
    UNTELEPORTABLE = "Unteleportable"

    def __str__(self) -> str:
        return self.value


def _number(z, error: type[ValueError], message: str, real: bool = True):
    """z as a float, or a complex where real is False: the one rule for what counts
    as a number. A bool, what `numbers.Number` does not take (numpy's bool_ too) and,
    where real, a non-zero imaginary part raise error(message) before any cast could
    fail, warn or drop an imaginary part; an int beyond the float range reads as inf
    of its sign."""
    if isinstance(z, bool) or not isinstance(z, numbers.Number) or (real and z.imag != 0):
        raise error(f"{message}, got {z} of type {type(z).__name__}")
    try:
        return float(z.real) if real else complex(z)
    except OverflowError:  # compared as an int: math.copysign would cast it and overflow
        return -math.inf if z.real < 0 else math.inf


def _amplitude(z, what: str) -> complex:
    """z as a finite complex by the rule of `_number`; what names it in the error."""
    z = _number(z, ValueError, f"{what} must be a number", real=False)
    if not cmath.isfinite(z):
        raise ValueError(f"{what} must be finite")
    return z


def _coerce_amplitudes(obj, names) -> None:
    total = 0.0
    for name in names:
        z = _amplitude(getattr(obj, name), f"amplitude {name}")
        object.__setattr__(obj, name, z)
        try:
            total += abs(z) ** 2
        except OverflowError:  # a modulus above about 1e154
            total = math.inf
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(
            f"amplitudes must be normalized: sum of squared moduli is {total!r}"
        )


@dataclass(frozen=True)
class PureInputState:
    """Qubit to be teleported, alpha|0> + beta|1>."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        _coerce_amplitudes(self, ("alpha", "beta"))

    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=np.complex128)


@dataclass(frozen=True)
class TwoQubitChannel:
    """Pure two-qubit resource state shared between sender and receiver."""

    x00: complex
    x01: complex
    x10: complex
    x11: complex

    def __post_init__(self) -> None:
        _coerce_amplitudes(self, ("x00", "x01", "x10", "x11"))

    @classmethod
    def diagonal(cls, a, b) -> "TwoQubitChannel":
        """Channel of the form a|00> + b|11>."""
        return cls(a, 0.0, 0.0, b)

    def vector(self) -> np.ndarray:
        return np.array(
            [self.x00, self.x01, self.x10, self.x11], dtype=np.complex128
        )


def cpm(ch: TwoQubitChannel) -> np.ndarray:
    """Channel parameter matrix, X[k, j] = sqrt(2) * x_jk."""
    return SQRT2 * np.array(
        [[ch.x00, ch.x10], [ch.x01, ch.x11]], dtype=np.complex128
    )


def _abs_det(m: np.ndarray) -> np.ndarray:
    """|det m| over the last two axes: shared by `concurrence` and `protocol.points`, so
    that `classify` and `points` refuse a channel by one concurrence, bit for bit."""
    return np.abs(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0])


def _gram(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of m m^dag = [[p, r], [r*, q]] over the last two axes, as
    (p, q, |r|): shared by `classify` and `protocol`'s K bounds."""
    a = np.abs(m)
    a *= a
    p = a[..., 0, 0] + a[..., 0, 1]
    q = a[..., 1, 0] + a[..., 1, 1]
    # np.multiply: from 256 KiB, `*` writes into conj()'s temporary and swaps the
    # operands of a complex product, which is not bitwise commutative
    r = np.abs(np.multiply(m[..., 0, 0], m[..., 1, 0].conj())
               + np.multiply(m[..., 0, 1], m[..., 1, 1].conj()))
    return p, q, r


def concurrence(ch: TwoQubitChannel) -> float:
    """Entanglement of the channel: 2|x00*x11 - x01*x10|."""
    return 2.0 * float(_abs_det(ch.vector().reshape(2, 2)))


def classify(ch: TwoQubitChannel) -> ChannelClass:
    """Sort a channel by what its parameter matrix supports.

    Unitary X (every entry of X X^dag - I within NORMALIZATION_TOL in
    modulus) means deterministic teleportation;
    this is checked first, so a maximally entangled channel is Perfect even
    though it is also trivially invertible. Singular X (concurrence |det X|
    <= NORMALIZATION_TOL, as `protocol.points` refuses) supports no
    teleportation at all. Everything between is probabilistic.
    """
    p, q, r = _gram(cpm(ch))  # X X^dag - I = [[p - 1, r], [r*, q - 1]]
    if max(abs(p - 1.0), abs(q - 1.0), r) <= NORMALIZATION_TOL:
        return ChannelClass.PERFECT
    if concurrence(ch) <= NORMALIZATION_TOL:
        return ChannelClass.UNTELEPORTABLE
    return ChannelClass.PROBABILISTIC


def parse_complex(text: str) -> complex:
    """Parse a scalar literal: '0.8', '-0.5+0.5i', '1e-3-2e-4i', '1-infi'; only a
    trailing i or I is the imaginary unit, so 'inf' and 'Infinity' keep their i."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty number literal")
    if s[-1] in "iI":
        s = s[:-1] + "j"
    try:
        return complex(s)
    except ValueError:
        raise ValueError(f"bad number literal: {text!r}") from None


def format_complex(z: complex) -> str:
    """Render a scalar with up to 15 significant digits.

    Real values print without an imaginary part; complex values print as
    're+imi' so the output can be parsed back by parse_complex.
    """
    re = format(z.real, ".15g")
    if z.imag == 0:
        return re
    im = format(z.imag, ".15g")
    sign = "+" if not im.startswith("-") else ""
    return f"{re}{sign}{im}i"


def parse_channel(text: str) -> TwoQubitChannel:
    """Parse a channel literal.

    Two forms are accepted: 'diag:a,b' for a|00> + b|11>, and a
    comma-separated list of four amplitudes 'x00,x01,x10,x11'. Entries
    may be complex ('0.5+0.5i'). The parsed state must be normalized.
    """
    s = text.strip()
    if s.lower().startswith("diag:"):
        parts = s[5:].split(",")
        if len(parts) != 2:
            raise ValueError(f"diag channel needs two amplitudes, got {text!r}")
        a, b = (parse_complex(p) for p in parts)
        return TwoQubitChannel.diagonal(a, b)
    parts = s.split(",")
    if len(parts) != 4:
        raise ValueError(
            f"channel literal needs 'diag:a,b' or four amplitudes, got {text!r}"
        )
    x00, x01, x10, x11 = (parse_complex(p) for p in parts)
    return TwoQubitChannel(x00, x01, x10, x11)
