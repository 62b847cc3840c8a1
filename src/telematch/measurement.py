"""Two-qubit measurement bases and outcome projection.

A measurement basis is stored as a 4x4 matrix T whose rows are the four
basis states written over |00>, |01>, |10>, |11> (first digit = input
qubit, second digit = sender-side channel qubit). Outcomes are labeled
lam = 1..4, matching row order.

Each outcome lam induces a 2x2 branch operator sigma_lam on the
receiver qubit: if X is the channel parameter matrix, then

    sigma_lam = X @ B_lam,   B_lam[j, i] = sqrt(2) * conj(T[lam-1, 2*i + j]),

and the receiver's unnormalized post-measurement state is
(1/2) * sigma_lam @ (alpha, beta). The projection route in `project`
computes the same state directly from the three-qubit product state;
the two must agree, which the test suite checks. The protocol reads
tau_lam = sigma_lam / (2 * pref), pref = 1/sqrt(2) for Bell and 1 for
the generalized basis: with A[j, k] = x_jk, a basis's (16, 4) `blocks`
give blocks @ A.reshape(4) = tau_lam[k, i] over (i, k, lam).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .channel import SQRT2, parse_complex

BASIS_KINDS = ("bell", "gbm")
ORTHONORMALITY_TOL = 1e-9


class InvalidBasisError(ValueError):
    """Raised when basis coefficients do not describe a valid basis."""


class DegenerateBasisError(InvalidBasisError):
    """Raised for a valid basis in which some outcome never heralds success."""


@dataclass(frozen=True, eq=False)
class TwoQubitBasis:
    """Orthonormal two-qubit measurement basis.

    kind is 'bell' for the standard basis or 'gbm' for the generalized
    family; a_p and b_p are the generalized coefficients (None for
    'bell'). Rows of t_matrix must be orthonormal. t_conj (conj(T), the
    factor of every projection), pref2 (pref^2, 1/2 for 'bell' and 1 for
    'gbm'), blocks (see module doc) and real_blocks are derived; all arrays
    are read-only. real_blocks is the float64 copy of blocks when T is real,
    as in Bell and gbm, and None otherwise: `points` builds the tau of a
    real amplitude stack from it in float64, bit for bit the real parts of
    the complex product, and the tau of a complex stack from blocks as before.
    """

    kind: str
    a_p: float | None
    b_p: float | None
    t_matrix: np.ndarray
    t_conj: np.ndarray = field(init=False, repr=False)
    pref2: float = field(init=False, repr=False)
    blocks: np.ndarray = field(init=False, repr=False)
    real_blocks: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in BASIS_KINDS:
            raise InvalidBasisError(f"unknown basis kind {self.kind!r}")
        t = np.asarray(self.t_matrix, dtype=np.complex128)
        if t.shape != (4, 4):
            raise InvalidBasisError(f"basis matrix must be 4x4, got {t.shape}")
        t_conj = t.conj()
        gram = t @ t_conj.T
        if float(np.max(np.abs(gram - np.eye(4)))) > ORTHONORMALITY_TOL:
            raise InvalidBasisError("basis rows are not orthonormal")
        t.setflags(write=False)
        t_conj.setflags(write=False)
        object.__setattr__(self, "t_matrix", t)
        object.__setattr__(self, "t_conj", t_conj)
        bell = self.kind == "bell"
        object.__setattr__(self, "pref2", 0.5 if bell else 1.0)
        # blocks[i, k, lam, j, k] = conj(T[lam, 2i + j]) / pref: +-1 or 0 for Bell
        g = t_conj.reshape(4, 2, 2).transpose(1, 0, 2) / (1.0 / SQRT2 if bell else 1.0)
        blocks = np.zeros((2, 2, 4, 2, 2), dtype=np.complex128)
        for k in range(2):
            blocks[:, k, :, :, k] = g
        blocks = blocks.reshape(16, 4)
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
        # kept beside blocks, not in their place: numpy would cast real blocks
        # to complex on every product with a complex stack
        real_blocks = None
        if not t.imag.any():
            real_blocks = np.ascontiguousarray(blocks.real)
            real_blocks.setflags(write=False)
        object.__setattr__(self, "real_blocks", real_blocks)


def _check_lam(lam: int) -> None:
    """Refuse any outcome label but an integer 1..4: a bool or a whole float
    such as 2.0 labels no outcome."""
    try:
        ok = not isinstance(lam, bool) and 1 <= operator.index(lam) <= 4
    except TypeError:
        ok = False
    if not ok:
        if isinstance(lam, np.generic):
            lam = lam.item()  # 7, not np.int64(7)
        raise ValueError(f"outcome label must be 1..4, got {lam!r}")


@functools.cache
def standard_bell() -> TwoQubitBasis:
    """The four Bell states, rows ordered (phi+, phi-, psi+, psi-).

    Built on the first call; every call returns that one instance, so
    reports on it share their resolved points (bases compare by identity).
    """
    h = 1.0 / SQRT2
    t = np.array(
        [
            [h, 0, 0, h],
            [h, 0, 0, -h],
            [0, h, h, 0],
            [0, h, -h, 0],
        ],
        dtype=np.complex128,
    )
    return TwoQubitBasis("bell", None, None, t)


def generalized_bell(a_p: float, b_p: float) -> TwoQubitBasis:
    """Generalized measurement basis with real coefficients a_p, b_p.

    Rows are a_p|00> + b_p|11>, b_p|00> - a_p|11>, a_p|01> + b_p|10>,
    b_p|01> - a_p|10>. Requires a_p^2 + b_p^2 = 1; real coefficients
    keep the rows orthonormal. Calls with the same coefficients, signed
    zeros told apart, return one instance while it stays among the 32
    most recently used.
    """
    if isinstance(a_p, complex) or isinstance(b_p, complex):
        if complex(a_p).imag != 0 or complex(b_p).imag != 0:
            raise InvalidBasisError("basis coefficients must be real")
        a_p, b_p = complex(a_p).real, complex(b_p).real
    a_p, b_p = float(a_p), float(b_p)
    if not (np.isfinite(a_p) and np.isfinite(b_p)):
        raise InvalidBasisError("basis coefficients must be finite")
    if abs(a_p * a_p + b_p * b_p - 1.0) > ORTHONORMALITY_TOL:
        raise InvalidBasisError(
            f"basis coefficients must satisfy a'^2 + b'^2 = 1, "
            f"got {a_p * a_p + b_p * b_p!r}"
        )
    # -0.0 and 0.0 compare and hash equal; their signs keep them apart
    return _generalized_bell(a_p, b_p, math.copysign(1.0, a_p), math.copysign(1.0, b_p))


# About 2 kB per basis.
@functools.lru_cache(maxsize=32)
def _generalized_bell(a_p: float, b_p: float, *signs: float) -> TwoQubitBasis:
    """`generalized_bell` on validated coefficients, memoized; `signs`, the
    coefficients' signs, only tell -0.0 from 0.0 in the key."""
    t = np.array(
        [
            [a_p, 0, 0, b_p],
            [b_p, 0, 0, -a_p],
            [0, a_p, b_p, 0],
            [0, b_p, -a_p, 0],
        ],
        dtype=np.complex128,
    )
    return TwoQubitBasis("gbm", a_p, b_p, t)


def branch_operators(x_cpm, basis: TwoQubitBasis) -> tuple[np.ndarray, ...]:
    """Per-outcome 2x2 operators sigma_lam = X @ B_lam (see module doc)."""
    x = np.asarray(x_cpm, dtype=np.complex128)
    if x.shape != (2, 2):
        raise ValueError(f"channel parameter matrix must be 2x2, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("channel parameter matrix entries must be finite")
    # sigma_lam = X @ B_lam = 2 * pref * tau_lam for A = X.T / sqrt(2)
    ops = math.sqrt(2.0 * basis.pref2) * (basis.blocks @ x.T.reshape(4))
    return tuple(ops.reshape(2, 2, 4).T)


def project_all(states: np.ndarray, basis: TwoQubitBasis) -> tuple[np.ndarray, np.ndarray]:
    """Project a batch of N three-qubit states onto every basis outcome.

    states[m, q3, n] is the amplitude of point n on |m>|q3>, m = 2 q1 + q2
    the measured pair (see `project`), shape (4, 2, N). One 2-D product
    conj(T) @ states gives the unnormalized receiver states over (outcome,
    q3, point), shape (4, 2, N); their squared norms, shape (4, N), are the
    outcome probabilities. Inputs are not validated.
    """
    receivers = (basis.t_conj @ states.reshape(4, -1)).reshape(states.shape)
    sq = receivers.view(np.float64)  # real and imaginary parts interleaved
    sq = sq * sq
    sq = sq[..., 0::2] + sq[..., 1::2]
    return sq[:, 0] + sq[:, 1], receivers


def project(total, basis: TwoQubitBasis, lam: int) -> tuple[float, np.ndarray]:
    """Project a three-qubit state onto outcome lam of the basis.

    `total` is an 8-vector over |q1 q2 q3> with q1 the input qubit,
    q2 the sender-side channel qubit, q3 the receiver qubit; the
    measured pair is (q1, q2). Returns (probability, receiver state),
    with the receiver state left unnormalized so that its squared norm
    is the probability.
    """
    _check_lam(lam)
    v = np.asarray(total, dtype=np.complex128)
    if v.shape != (8,):
        raise ValueError(f"total state must be a vector of length 8, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("total state entries must be finite")
    probs, receivers = project_all(v.reshape(4, 2, 1), basis)
    return probs[lam - 1, 0], receivers[lam - 1, :, 0]


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
        vals = []
        for p in parts:
            z = parse_complex(p)
            if z.imag != 0:
                raise InvalidBasisError("basis coefficients must be real")
            vals.append(z.real)
        return generalized_bell(vals[0], vals[1])
    raise InvalidBasisError(f"unknown basis literal {text!r} (want 'bell' or 'gbm:a,b')")
