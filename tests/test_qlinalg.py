import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telematch import qlinalg

rng = np.random.default_rng(90125)


def random_state(n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_unitary(n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# The suite builds product states with np.kron; these pin the layout that
# measurement.project expects of them: the left factor is most significant.


def test_tensor_basis_states():
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    out = np.kron(e0, e1)
    assert out.shape == (4,)
    assert np.array_equal(out, np.array([0, 1, 0, 0], dtype=complex))


def test_tensor_left_operand_is_most_significant():
    u = random_state(2)
    v = random_state(4)
    out = np.kron(u, v)
    for i in range(2):
        for j in range(4):
            assert abs(out[i * 4 + j] - u[i] * v[j]) <= 1e-15


def test_tensor_matches_explicit_three_qubit_indexing():
    # total[4i + 2j + k] must be input[i] * channel[2j + k]
    inp = random_state(2)
    ch = random_state(4)
    total = np.kron(inp, ch)
    expected = np.empty(8, dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                expected[4 * i + 2 * j + k] = inp[i] * ch[2 * j + k]
    assert np.allclose(total, expected, atol=1e-15, rtol=0)


@pytest.mark.parametrize("bad", [[1, 0, 0], [], [[1, 0], [0, 1]]])
def test_as_vector_rejects_bad_shapes(bad):
    with pytest.raises(ValueError):
        qlinalg.as_vector(bad)


def test_as_vector_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        qlinalg.as_vector([np.nan, 0])
    with pytest.raises(ValueError, match="finite"):
        qlinalg.as_vector([np.inf * 1j, 0])


def test_as_matrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        qlinalg.as_matrix(np.zeros((2, 3)))


def test_is_unitary_accepts_paulis():
    for m in (np.eye(2), [[0, 1], [1, 0]], [[1, 0], [0, -1]], [[0, -1j], [1j, 0]]):
        assert qlinalg.is_unitary(m)


def test_is_unitary_rejects_scaled_identity():
    assert not qlinalg.is_unitary(1.001 * np.eye(2))
    assert qlinalg.is_unitary((1 + 1e-12) * np.eye(2))  # inside default tol


def test_is_unitary_random_qr_factors():
    for n in (2, 4, 8):
        for _ in range(5):
            assert qlinalg.is_unitary(random_unitary(n), tol=1e-10)


def test_unitaries_preserve_norm():
    for _ in range(20):
        u = random_unitary(4)
        v = random_state(4)
        w = u @ v
        assert np.vdot(w, w).real == pytest.approx(1.0, abs=1e-12)


finite_complex = st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False
)
vec2 = st.lists(finite_complex, min_size=2, max_size=2).map(
    lambda xs: np.array(xs, dtype=complex)
)


@given(vec2, vec2)
@settings(max_examples=50)
def test_tensor_norm_is_multiplicative(u, v):
    uv = np.kron(u, v)
    lhs = np.vdot(uv, uv).real
    rhs = np.vdot(u, u).real * np.vdot(v, v).real
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
