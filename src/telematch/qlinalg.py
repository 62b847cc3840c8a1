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


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two vectors or two square matrices.

    The left operand owns the most significant index: for vectors u and v,
    tensor(u, v)[i * len(v) + j] == u[i] * v[j].
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != b.ndim:
        raise ValueError("operands must both be vectors or both be matrices")
    if a.ndim == 1:
        return np.kron(as_vector(a), as_vector(b))
    return np.kron(as_matrix(a), as_matrix(b))


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T


def apply(m, v) -> np.ndarray:
    """Matrix-vector product with a dimension check."""
    m = as_matrix(m)
    v = as_vector(v)
    if m.shape[1] != v.shape[0]:
        raise ValueError(
            f"dimension mismatch: operator is {m.shape[0]}x{m.shape[1]}, "
            f"state has length {v.shape[0]}"
        )
    return m @ v


def norm2(v):
    """Squared Euclidean norm over the last axis.

    A 1-D vector gives a scalar, a stack of vectors an array of norms.
    The product goes through matmul, which rounds each norm exactly as
    np.vdot does for a single vector.
    """
    v = np.asarray(v, dtype=np.complex128)
    return (v.conj()[..., None, :] @ v[..., :, None])[..., 0, 0].real[()]


def is_normalized(v, tol: float = DEFAULT_UNITARITY_TOL) -> bool:
    """True when the squared norm is within tol of 1."""
    return abs(norm2(as_vector(v)) - 1.0) <= tol


def is_unitary(m, tol: float = DEFAULT_UNITARITY_TOL) -> bool:
    """True when max |(M M† - I)_ij| <= tol."""
    m = as_matrix(m)
    dev = m @ m.conj().T - np.eye(m.shape[0])
    return float(np.max(np.abs(dev))) <= tol
