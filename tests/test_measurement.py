import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telematch import measurement
from telematch.channel import TwoQubitChannel, cpm
from telematch.measurement import (
    InvalidBasisError,
    TwoQubitBasis,
    branch_operators,
    generalized_bell,
    parse_basis,
    project,
    standard_bell,
)
from telematch.protocol import channel_points

rng = np.random.default_rng(31415)

H = 1.0 / math.sqrt(2.0)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_state(n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def test_standard_bell_rows():
    basis = standard_bell()
    expected = np.array(
        [
            [H, 0, 0, H],
            [H, 0, 0, -H],
            [0, H, H, 0],
            [0, H, -H, 0],
        ]
    )
    assert np.allclose(basis.t_matrix, expected, atol=0)
    assert basis.kind == "bell"
    assert basis.a_p is None and basis.b_p is None


def test_standard_bell_is_orthonormal():
    t = standard_bell().t_matrix
    assert np.allclose(t @ t.conj().T, np.eye(4), atol=1e-15)


def test_generalized_bell_balanced_equals_standard():
    t_g = generalized_bell(H, H).t_matrix
    t_b = standard_bell().t_matrix
    assert np.allclose(t_g, t_b, atol=1e-15)


def test_generalized_bell_rows_golden():
    basis = generalized_bell(0.8, 0.6)
    expected = np.array(
        [
            [0.8, 0, 0, 0.6],
            [0.6, 0, 0, -0.8],
            [0, 0.8, 0.6, 0],
            [0, 0.6, -0.8, 0],
        ]
    )
    assert np.allclose(basis.t_matrix, expected, atol=0)
    assert basis.a_p == 0.8 and basis.b_p == 0.6


def test_generalized_bell_orthonormal_across_angles():
    for theta in rng.uniform(0, 2 * math.pi, size=100):
        t = generalized_bell(math.cos(theta), math.sin(theta)).t_matrix
        assert np.max(np.abs(t @ t.conj().T - np.eye(4))) < 1e-12


def test_generalized_bell_accepts_negative_coefficients():
    generalized_bell(0.6, -0.8)


def test_generalized_bell_rejects_unnormalized():
    with pytest.raises(InvalidBasisError, match="a'"):
        generalized_bell(0.5, 0.5)


def test_generalized_bell_rejects_complex_coefficients():
    with pytest.raises(InvalidBasisError, match="real"):
        generalized_bell(0.8j, 0.6)


def test_generalized_bell_rejects_nonfinite():
    with pytest.raises(InvalidBasisError):
        generalized_bell(float("nan"), 0.6)


def test_basis_rejects_nonorthonormal_matrix():
    bad = np.eye(4)
    bad[0, 0] = 0.9
    with pytest.raises(InvalidBasisError, match="orthonormal"):
        TwoQubitBasis("bell", None, None, bad)


def test_basis_rejects_unknown_kind():
    with pytest.raises(InvalidBasisError, match="kind"):
        TwoQubitBasis("magic", None, None, np.eye(4))


def test_basis_matrix_is_read_only():
    basis = standard_bell()
    with pytest.raises(ValueError):
        basis.t_matrix[0, 0] = 2.0


def test_each_basis_is_built_once():
    assert standard_bell() is standard_bell()
    assert parse_basis(" Bell ") is standard_bell()
    gbm = generalized_bell(0.6, 0.8)
    assert generalized_bell(0.6, 0.8) is gbm
    assert parse_basis("gbm:0.6,0.8") is gbm
    assert generalized_bell(0.6 + 0j, np.float64(0.8)) is gbm
    assert generalized_bell(0.8, 0.6) is not gbm


def test_signed_zero_coefficients_give_distinct_bases():
    # -0.0 == 0.0 and hash(-0.0) == hash(0.0), but each basis keeps its signs
    for a_p, b_p in ((-0.0, 1.0), (0.0, 1.0), (1.0, -0.0), (1.0, 0.0)):
        basis = generalized_bell(a_p, b_p)
        assert (math.copysign(1.0, basis.a_p), math.copysign(1.0, basis.b_p)) == (
            math.copysign(1.0, a_p), math.copysign(1.0, b_p))
        assert generalized_bell(a_p, b_p) is basis
    assert generalized_bell(-0.0, 1.0) is not generalized_bell(0.0, 1.0)
    assert generalized_bell(-0.0, 1.0).t_matrix.tobytes() != generalized_bell(0.0, 1.0).t_matrix.tobytes()


def test_the_basis_cache_is_bounded():
    maxsize = measurement._generalized_bell.cache_info().maxsize
    first = generalized_bell(1.0, 0.0)
    for t in np.linspace(0.1, 1.4, maxsize).tolist():
        generalized_bell(math.cos(t), math.sin(t))
    rebuilt = generalized_bell(1.0, 0.0)
    assert rebuilt is not first
    assert rebuilt.t_matrix.tobytes() == first.t_matrix.tobytes()


@pytest.mark.parametrize("basis_factory", [standard_bell, lambda: generalized_bell(0.6, 0.8)])
def test_shared_basis_arrays_are_read_only(basis_factory):
    basis = basis_factory()
    assert np.array_equal(basis.t_conj, basis.t_matrix.conj())
    assert np.array_equal(basis.real_blocks, basis.blocks)
    for name in ("t_matrix", "t_conj", "blocks", "real_blocks"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(basis, name)[0, 0] = 2.0


def test_branch_operators_perfect_channel_are_paulis():
    # maximally entangled channel turns the four outcomes into exact
    # Pauli rotations of the input
    ch = TwoQubitChannel.diagonal(H, H)
    ops = branch_operators(cpm(ch), standard_bell())
    assert np.allclose(ops[0], np.eye(2), atol=1e-12)
    assert np.allclose(ops[1], PAULI_Z, atol=1e-12)
    assert np.allclose(ops[2], PAULI_X, atol=1e-12)
    assert np.allclose(ops[3], PAULI_X @ PAULI_Z, atol=1e-12)


def test_branch_operators_diagonal_channel_golden():
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    ops = branch_operators(cpm(ch), standard_bell())
    assert np.allclose(ops[0], math.sqrt(2.0) * np.diag([0.8, 0.6]), atol=1e-15)


def test_branch_operators_are_twice_pref_times_the_kernels_outcome_operators():
    # one product over the basis blocks gives sigma_lam; the kernels read
    # tau_lam = sigma_lam / (2 pref) from the same blocks
    for basis, pref in ((standard_bell(), H), (generalized_bell(0.6, 0.8), 1.0)):
        ch = TwoQubitChannel(*random_state(4))
        tau = channel_points(ch, basis, "max-global").tau[0]
        ops = branch_operators(cpm(ch), basis)
        assert np.allclose(np.stack(ops), 2.0 * pref * tau, atol=1e-14)


def test_branch_operators_reject_wrong_shape():
    with pytest.raises(ValueError, match="2x2"):
        branch_operators(np.eye(4), standard_bell())
    with pytest.raises(ValueError, match="2x2"):
        branch_operators(np.zeros((2, 3)), standard_bell())
    with pytest.raises(ValueError, match="finite"):
        branch_operators([[np.nan, 0], [0, 1]], standard_bell())


@pytest.mark.parametrize("basis_factory", [standard_bell, lambda: generalized_bell(0.6, 0.8)])
def test_branch_operator_route_matches_projection(basis_factory):
    # (1/2) sigma_lam @ (alpha, beta) must equal the receiver state from
    # projecting the full three-qubit product state, for any channel
    basis = basis_factory()
    for _ in range(25):
        inp = random_state(2)
        ch_vec = random_state(4)
        ch = TwoQubitChannel(*ch_vec)
        total = np.kron(inp, ch_vec)
        ops = branch_operators(cpm(ch), basis)
        for lam in range(1, 5):
            _, receiver = project(total, basis, lam)
            direct = 0.5 * (ops[lam - 1] @ inp)
            assert np.allclose(receiver, direct, atol=1e-12)


def test_project_perfect_channel_probabilities_are_quarter():
    total = np.kron(random_state(2), np.array([H, 0, 0, H]))
    for lam in range(1, 5):
        p, _ = project(total, standard_bell(), lam)
        assert p == pytest.approx(0.25, abs=1e-12)


def test_project_partial_channel_probabilities_golden():
    inp = np.array([0.6, 0.8])
    ch = np.array([0.8, 0, 0, 0.6])
    total = np.kron(inp, ch)
    probs = [project(total, standard_bell(), lam)[0] for lam in range(1, 5)]
    assert probs == pytest.approx([0.2304, 0.2304, 0.2696, 0.2696], abs=1e-12)


def test_project_receiver_norm_equals_probability():
    total = random_state(8)
    p, receiver = project(total, generalized_bell(0.8, 0.6), 3)
    assert np.vdot(receiver, receiver).real == pytest.approx(p, abs=1e-15)


def test_project_probabilities_sum_to_one_for_any_state():
    for basis in (standard_bell(), generalized_bell(0.28, math.sqrt(1 - 0.28**2))):
        for _ in range(25):
            total = random_state(8)
            s = sum(project(total, basis, lam)[0] for lam in range(1, 5))
            assert s == pytest.approx(1.0, abs=1e-12)


def test_project_generalized_branch_amplitudes():
    # outcome 2 of the generalized basis weights the input by the
    # crossed products (a*b', b*a') with a sign the correction removes
    inp = np.array([0.6, 0.8])
    total = np.kron(inp, np.array([0.8, 0, 0, 0.6]))
    _, receiver = project(total, generalized_bell(0.6, 0.8), 2)
    assert np.allclose(receiver, [0.8 * 0.8 * 0.6, -(0.6 * 0.6 * 0.8)], atol=1e-15)


def test_project_validates_inputs():
    for bad in ([1, 0, 0, 0], [1, 0, 0], [], random_state(8).reshape(2, 4)):
        with pytest.raises(ValueError, match="length 8"):
            project(np.array(bad), standard_bell(), 1)
    for entry in (np.nan, np.inf * 1j):
        bad = random_state(8)
        bad[3] = entry
        with pytest.raises(ValueError, match="finite"):
            project(bad, standard_bell(), 1)
    with pytest.raises(ValueError, match="1..4"):
        project(random_state(8), standard_bell(), 0)


def test_parse_basis_bell():
    assert parse_basis("bell").kind == "bell"
    assert parse_basis(" BELL ").kind == "bell"


def test_parse_basis_generalized():
    basis = parse_basis("gbm:0.8,0.6")
    assert basis.kind == "gbm"
    assert basis.a_p == 0.8


@pytest.mark.parametrize("bad", ["foo", "gbm:0.5,0.5", "gbm:1,2,3", "gbm:0.8i,0.6", "gbm:"])
def test_parse_basis_rejects_bad_literals(bad):
    with pytest.raises(InvalidBasisError):
        parse_basis(bad)


# The suite builds product states with np.kron; these pin the layout that
# project expects of them: the left factor is most significant.


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


vec2 = st.lists(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=2,
).map(lambda xs: np.array(xs, dtype=complex))


@given(vec2, vec2)
@settings(max_examples=50)
def test_tensor_norm_is_multiplicative(u, v):
    uv = np.kron(u, v)
    lhs = np.vdot(uv, uv).real
    rhs = np.vdot(u, u).real * np.vdot(v, v).real
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
