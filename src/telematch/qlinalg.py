"""Dense complex linear algebra helpers for small state vectors and operators.

Everything here works on plain numpy arrays of dtype complex128. State
vectors are 1-D with power-of-two length, operators are square 2-D. The
helpers validate shape and finiteness so the physics layers above can
assume well-formed inputs.
"""

from __future__ import annotations

import numpy as np

DEFAULT_UNITARITY_TOL = 1e-9


def as_vector(entries) -> np.ndarray:
    """Coerce to a finite complex 1-D array with power-of-two length."""
    v = np.asarray(entries, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    n = v.shape[0]
    if n == 0 or (n & (n - 1)) != 0:
        raise ValueError(f"vector length must be a power of two, got {n}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def as_matrix(entries) -> np.ndarray:
    """Coerce to a finite complex square 2-D array."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def norm2(v):
    """Squared Euclidean norm over the last axis.

    A 1-D vector gives a scalar, a stack of vectors an array of norms.
    The product goes through matmul, which rounds each norm exactly as
    np.vdot does for a single vector.
    """
    v = np.asarray(v, dtype=np.complex128)
    return (v.conj()[..., None, :] @ v[..., :, None])[..., 0, 0].real[()]


def is_unitary(m, tol: float = DEFAULT_UNITARITY_TOL) -> bool:
    """True when max |(M M† - I)_ij| <= tol."""
    m = as_matrix(m)
    dev = m @ m.conj().T - np.eye(m.shape[0])
    return float(np.max(np.abs(dev))) <= tol
