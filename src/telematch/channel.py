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

import enum
import math
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


def _coerce_amplitudes(obj, names) -> None:
    total = 0.0
    for name in names:
        z = complex(getattr(obj, name))
        if not (np.isfinite(z.real) and np.isfinite(z.imag)):
            raise ValueError(f"amplitude {name} must be finite")
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


def concurrence(ch: TwoQubitChannel) -> float:
    """Entanglement of the channel: 2|x00*x11 - x01*x10|."""
    return float(abs(np.linalg.det(cpm(ch))))


def classify(ch: TwoQubitChannel, tol: float = NORMALIZATION_TOL) -> ChannelClass:
    """Sort a channel by what its parameter matrix supports.

    Unitary X (within tol) means deterministic teleportation; this is
    checked first, so a maximally entangled channel is Perfect even
    though it is also trivially invertible. Singular X (|det X| <= tol)
    supports no teleportation at all. Everything between is
    probabilistic.
    """
    x = cpm(ch)
    if np.max(np.abs(x @ x.conj().T - np.eye(2))) <= tol:
        return ChannelClass.PERFECT
    if abs(np.linalg.det(x)) <= tol:
        return ChannelClass.UNTELEPORTABLE
    return ChannelClass.PROBABILISTIC


def parse_complex(text: str) -> complex:
    """Parse a scalar literal: '0.8', '-0.5+0.5i', '1e-3-2e-4i'."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty number literal")
    try:
        return complex(s.replace("i", "j").replace("I", "j"))
    except ValueError:
        raise ValueError(f"bad number literal: {text!r}") from None


def format_complex(z: complex, digits: int = 15) -> str:
    """Render a scalar with up to `digits` significant digits.

    Real values print without an imaginary part; complex values print as
    're+imi' so the output can be parsed back by parse_complex.
    """
    re = format(z.real, f".{digits}g")
    if z.imag == 0:
        return re
    im = format(z.imag, f".{digits}g")
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
