"""Two-qubit measurement bases and outcome projection.

A measurement basis is a value, its kind and two real coefficients, with a
real 4x4 matrix T whose rows are the four basis states written over |00>,
|01>, |10>, |11> (first digit = input qubit, second digit = sender-side
channel qubit). Outcomes are labeled lam = 1..4, matching row order.

Each outcome lam induces a 2x2 branch operator sigma_lam on the
receiver qubit: if X is the channel parameter matrix, then

    sigma_lam = X @ B_lam,   B_lam[j, i] = sqrt(2) * conj(T[lam-1, 2*i + j]),

and the receiver's unnormalized post-measurement state is
(1/2) * sigma_lam @ (alpha, beta). The projection route in `project_all`
computes the same state directly from the three-qubit product state;
the two must agree, which the test suite checks. The protocol reads
tau_lam = sigma_lam / (2 * pref), pref = 1/sqrt(2) for Bell and 1 for
the generalized basis: with A[j, k] = x_jk, a basis's (16, 4) `blocks`
give blocks @ A.reshape(4) = tau_lam[k, i] over (i, k, lam).
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .channel import SQRT2, parse_complex

BASIS_KINDS = ("bell", "gbm")
ORTHONORMALITY_TOL = 1e-9

# gbm coefficients closer to zero than this leave some outcome with a
# vanishing success amplitude.
DEGENERATE_TOL = 1e-9


class InvalidBasisError(ValueError):
    """Raised when basis coefficients do not describe a valid basis."""


class DegenerateBasisError(InvalidBasisError):
    """Raised when a gbm basis is built with a coefficient within DEGENERATE_TOL
    of 0: a valid basis in which some outcome never heralds success."""


@dataclass(frozen=True)
class TwoQubitBasis:
    """Orthonormal two-qubit measurement basis, fixed by kind and coefficients.

    kind is 'bell', which takes no coefficients, or 'gbm' with real a_p and
    b_p of any numeric type (complex ones only with zero imaginary part),
    stored as floats, finite and with a_p^2 + b_p^2 = 1. A gbm coefficient
    within DEGENERATE_TOL of 0 raises DegenerateBasisError, any other fault
    InvalidBasisError. Bases compare and hash by (kind, a_p, b_p): Bell is not
    gbm(h, h), whose K has another pref. Derived and read-only: t_matrix
    (float64), the rows of gbm(a_p, b_p), Bell's at a_p = b_p = 1/sqrt(2);
    pref2 = pref^2, 1/2 for 'bell' and 1 for 'gbm'; blocks (see module doc).
    """

    kind: str
    a_p: float | None = None
    b_p: float | None = None
    t_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    pref2: float = field(init=False, repr=False, compare=False)
    blocks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in BASIS_KINDS:
            raise InvalidBasisError(f"unknown basis kind {self.kind!r}")
        if self.kind == "bell":
            if self.a_p is not None or self.b_p is not None:
                raise InvalidBasisError("the Bell basis takes no coefficients")
            a_p = b_p = pref = 1.0 / SQRT2
        else:
            a_p, b_p = _coefficient(self.a_p), _coefficient(self.b_p)
            norm2 = a_p * a_p + b_p * b_p
            if not abs(norm2 - 1.0) <= ORTHONORMALITY_TOL:  # nan and inf fail too
                raise InvalidBasisError(f"basis coefficients must satisfy a'^2 + b'^2 = 1, got {norm2!r}")
            if min(abs(a_p), abs(b_p)) <= DEGENERATE_TOL:
                raise DegenerateBasisError(
                    "basis coefficients too close to zero: some outcome would never herald success"
                )
            object.__setattr__(self, "a_p", a_p)
            object.__setattr__(self, "b_p", b_p)
            pref = 1.0
        # the rows a'|00> + b'|11>, b'|00> - a'|11>, a'|01> + b'|10>, b'|01> - a'|10>
        t = np.array([[a_p, 0, 0, b_p], [b_p, 0, 0, -a_p], [0, a_p, b_p, 0], [0, b_p, -a_p, 0]])
        # blocks[i, k, lam, j, k] = T[lam, 2i + j] / pref: +-1 or 0 for Bell
        g = t.reshape(4, 2, 2).transpose(1, 0, 2) / pref
        blocks = np.zeros((2, 2, 4, 2, 2))
        for k in range(2):
            blocks[:, k, :, :, k] = g
        for name, value in (("t_matrix", t), ("blocks", blocks.reshape(16, 4))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "pref2", 0.5 if self.kind == "bell" else 1.0)


def _coefficient(z) -> float:
    """A gbm coefficient as a float. Anything but a number, and a complex
    number with a non-zero imaginary part, raises InvalidBasisError before
    any cast could fail, warn or drop the imaginary part."""
    if not isinstance(z, numbers.Number) or z.imag != 0:
        raise InvalidBasisError(
            f"basis coefficients must be real numbers, got {z} of type {type(z).__name__}"
        )
    try:
        return float(z.real)
    except OverflowError:  # an int or Fraction beyond the float range: not normalized
        return float("inf")


@functools.cache
def standard_bell() -> TwoQubitBasis:
    """The four Bell states, rows ordered (phi+, phi-, psi+, psi-).

    Built on the first call; every call returns that one instance.
    """
    return TwoQubitBasis("bell")


def generalized_bell(a_p: float, b_p: float) -> TwoQubitBasis:
    """Generalized measurement basis with real coefficients a_p, b_p.

    Rows are a_p|00> + b_p|11>, b_p|00> - a_p|11>, a_p|01> + b_p|10>,
    b_p|01> - a_p|10>; `TwoQubitBasis` checks the coefficients. Calls with
    equal coefficients return equal bases.
    """
    return TwoQubitBasis("gbm", a_p, b_p)


def project_all(states: np.ndarray, basis: TwoQubitBasis) -> tuple[np.ndarray, np.ndarray]:
    """Project a batch of N three-qubit states onto every basis outcome.

    states[m, q3, n] is the amplitude of point n on |m>|q3>, m = 2 q1 + q2
    the measured pair (q1 the input qubit, q2 the sender's channel qubit, q3
    the receiver qubit), shape (4, 2, N), complex128 with a contiguous last
    axis. One 2-D product conj(T) @ states, T @ states as every basis is real,
    gives the unnormalized receiver states over (outcome, q3, point), shape
    (4, 2, N): one float64 product over the interleaved real and imaginary
    parts, so T is never cast to complex. Their squared norms, shape (4, N),
    are the outcome probabilities. Inputs are not validated.
    """
    parts = basis.t_matrix @ states.reshape(4, -1).view(np.float64)
    receivers = parts.view(np.complex128).reshape(states.shape)
    sq = _squared_moduli(receivers)
    return sq[:, 0] + sq[:, 1], receivers


def _squared_moduli(z: np.ndarray) -> np.ndarray:
    """re^2 + im^2 per entry of a complex128 array, in float64; the last axis
    must be contiguous. `project_all` and the simulation's success weight
    square moduli this one way."""
    v = z.view(np.float64)  # real and imaginary parts interleaved
    v = v * v
    return v[..., 0::2] + v[..., 1::2]


def parse_basis(text: str) -> TwoQubitBasis:
    """Parse a basis literal: 'bell' or 'gbm:a,b' with real a, b."""
    s = text.strip()
    if s.lower() == "bell":
        return standard_bell()
    if s.lower().startswith("gbm:"):
        parts = s[4:].split(",")
        if len(parts) != 2:
            raise InvalidBasisError(
                f"gbm basis needs two coefficients, got {text!r}"
            )
        a_p, b_p = (parse_complex(p) for p in parts)
        return generalized_bell(a_p, b_p)  # refuses complex coefficients
    raise InvalidBasisError(f"unknown basis literal {text!r} (want 'bell' or 'gbm:a,b')")
