import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telematch import measurement
from telematch.channel import TwoQubitChannel, cpm
from telematch.cli import parse_basis
from telematch.measurement import (
    DegenerateBasisError,
    InvalidBasisError,
    TwoQubitBasis,
    generalized_bell,
    project_all,
    standard_bell,
)
from telematch.protocol import points

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
    # an int beyond the float range overflows its cast
    with pytest.raises(InvalidBasisError, match="got inf"):
        generalized_bell(10**400, 0.6)


def test_basis_rejects_unknown_kind():
    with pytest.raises(InvalidBasisError, match="kind"):
        TwoQubitBasis("magic", None, None)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: TwoQubitBasis("gbm", None, None), "real numbers, got None"),
        (lambda: generalized_bell(None, 0.8), "real numbers, got None"),
        # a numpy complex would cast to its real part with only a ComplexWarning
        (lambda: generalized_bell(np.complex64(0.5 + 0.25j), math.sqrt(0.75)), "complex64"),
        (lambda: TwoQubitBasis("bell", 0.6, 0.8), "no coefficients"),
        (lambda: generalized_bell(np.array(0.6), 0.8), "ndarray"),
        (lambda: generalized_bell("0.6", "0.8"), "str"),
    ],
    ids=["gbm-none", "generalized-none", "numpy-complex", "bell-with-coefficients", "array", "str"],
)
def test_coefficients_that_are_not_real_numbers_are_refused_before_any_cast(build, match):
    # the suite turns ComplexWarning into an error: a cast would raise that instead
    with pytest.raises(InvalidBasisError, match=match):
        build()


def test_a_basis_is_rebuilt_from_its_repr():
    # the repr names the constructor arguments only, not the derived arrays
    assert repr(generalized_bell(0.6, 0.8)) == "TwoQubitBasis(kind='gbm', a_p=0.6, b_p=0.8)"
    for basis in (standard_bell(), generalized_bell(-0.28, 0.96)):
        rebuilt = eval(repr(basis), {"TwoQubitBasis": TwoQubitBasis})
        assert rebuilt == basis
        assert rebuilt.blocks.tobytes() == basis.blocks.tobytes()


def test_bases_compare_and_hash_by_kind_and_coefficients():
    gbm = TwoQubitBasis("gbm", 0.6, 0.8)
    same = generalized_bell(0.6 + 0j, np.float64(0.8))
    assert same == gbm and hash(same) == hash(gbm)
    assert len({gbm, same, standard_bell(), TwoQubitBasis("bell")}) == 2


def test_bell_differs_from_the_balanced_generalized_basis():
    # equal rows, but Bell's K is measured with pref = 1/sqrt(2) and gbm's with 1
    bell, gbm = TwoQubitBasis("bell"), TwoQubitBasis("gbm", H, H)
    assert bell.t_matrix.tobytes() == gbm.t_matrix.tobytes()
    assert bell == standard_bell() != generalized_bell(H, H) == gbm
    assert len({bell, gbm, standard_bell(), generalized_bell(H, H)}) == 2


@pytest.mark.parametrize(
    "a_p, b_p",
    [(None, None), (0.6, 0.8), (0.8, 0.6), (-0.28, 0.96), (-0.6, -0.8), (H, H),
     (2e-9, math.sqrt(1.0 - 4e-18))],
    ids=repr,
)
def test_basis_arrays_are_pinned_byte_for_byte(a_p, b_p):
    # built here from the four row formulas and conj(T) / pref, so that no
    # other construction of the blocks can move a bit unseen
    basis = standard_bell() if a_p is None else generalized_bell(a_p, b_p)
    a, b = (H, H) if a_p is None else (a_p, b_p)
    t = np.zeros((4, 4))
    t[0, 0], t[0, 3] = a, b  # a'|00> + b'|11>
    t[1, 0], t[1, 3] = b, -a  # b'|00> - a'|11>
    t[2, 1], t[2, 2] = a, b  # a'|01> + b'|10>
    t[3, 1], t[3, 2] = b, -a  # b'|01> - a'|10>
    pref = H if a_p is None else 1.0
    blocks = np.zeros((2, 2, 4, 2, 2))
    for i in range(2):
        for k in range(2):
            for lam in range(4):
                for j in range(2):
                    blocks[i, k, lam, j, k] = np.conj(t[lam, 2 * i + j]) / pref
    for got, want in ((basis.t_matrix, t), (basis.blocks, blocks.reshape(16, 4))):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert basis.pref2 == (0.5 if a_p is None else 1.0)


def test_basis_matrix_is_read_only():
    basis = standard_bell()
    with pytest.raises(ValueError):
        basis.t_matrix[0, 0] = 2.0


def test_bases_built_alike_are_equal_and_hash_alike():
    bell = standard_bell()
    for twin in (standard_bell(), parse_basis(" Bell ")):
        assert twin == bell and hash(twin) == hash(bell)
    gbm = generalized_bell(0.6, 0.8)
    assert generalized_bell(0.6, 0.8) == gbm
    assert parse_basis("gbm:0.6,0.8") == gbm
    assert generalized_bell(0.6 + 0j, np.float64(0.8)) == gbm
    assert generalized_bell(0.8, 0.6) != gbm


@pytest.mark.parametrize(
    "a_p, b_p",
    [(0.0, 1.0), (-0.0, 1.0), (1.0, 0.0), (1.0, -0.0), (1e-9, math.sqrt(1.0 - 1e-18))],
)
def test_a_degenerate_basis_is_refused_when_built(a_p, b_p):
    with pytest.raises(DegenerateBasisError, match="too close to zero"):
        generalized_bell(a_p, b_p)


def test_the_smallest_coefficient_above_the_tolerance_is_accepted():
    # the edge of the oracle's gbm grid
    basis = generalized_bell(2e-9, math.sqrt(1.0 - 4e-18))
    assert basis.a_p == 2e-9 > measurement.DEGENERATE_TOL


def test_a_degenerate_basis_is_refused_however_it_is_built():
    with pytest.raises(DegenerateBasisError):
        parse_basis("gbm:1,0")
    with pytest.raises(DegenerateBasisError):
        TwoQubitBasis("gbm", 0.0, 1.0)


@pytest.mark.parametrize("basis_factory", [standard_bell, lambda: generalized_bell(0.6, 0.8)])
def test_shared_basis_arrays_are_read_only(basis_factory):
    basis = basis_factory()
    assert basis.t_matrix.dtype == basis.blocks.dtype == np.float64
    for name in ("t_matrix", "blocks"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(basis, name)[0, 0] = 2.0


def reference_sigma(ch, basis):
    """The branch operators sigma_lam = X @ B_lam of the module doc, built from
    the basis matrix: B_lam[j, i] = sqrt(2) conj(T[lam-1, 2i + j])."""
    t = basis.t_matrix
    b = [[[math.sqrt(2.0) * t[lam0, 2 * i + j].conjugate() for i in range(2)] for j in range(2)]
         for lam0 in range(4)]
    return cpm(ch) @ np.array(b)


def kernel_sigma(ch, basis):
    """2 pref tau_lam, from the outcome operators the kernels run on."""
    tau = points(ch.vector().reshape(1, 2, 2), basis, "max-global").tau[0]
    return 2.0 * math.sqrt(basis.pref2) * tau


def project_one(total, basis):
    """project_all on one three-qubit vector over |q1 q2 q3>: the four outcome
    probabilities and the (4, 2) unnormalized receiver states."""
    probs, receivers = project_all(np.asarray(total, dtype=complex).reshape(4, 2, 1), basis)
    return probs[:, 0], receivers[..., 0]


def test_branch_operators_perfect_channel_are_paulis():
    # maximally entangled channel turns the four outcomes into exact
    # Pauli rotations of the input
    ch = TwoQubitChannel.diagonal(H, H)
    paulis = (np.eye(2), PAULI_Z, PAULI_X, PAULI_X @ PAULI_Z)
    tau = points(ch.vector().reshape(1, 2, 2), standard_bell(), "max-global").tau[0]
    for ops in (reference_sigma(ch, standard_bell()), kernel_sigma(ch, standard_bell())):
        for op, pauli in zip(ops, paulis):
            assert np.allclose(op, pauli, atol=1e-12)
    for op, pauli in zip(tau, paulis):
        assert np.array_equal(op, H * pauli)


def test_branch_operators_diagonal_channel_golden():
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    for ops in (reference_sigma(ch, standard_bell()), kernel_sigma(ch, standard_bell())):
        assert np.allclose(ops[0], math.sqrt(2.0) * np.diag([0.8, 0.6]), atol=1e-15)


def test_branch_operators_are_twice_pref_times_the_kernels_outcome_operators():
    # the kernels read tau_lam = sigma_lam / (2 pref); sigma_lam is built here
    # from the basis matrix, not from the basis's blocks
    for basis in (standard_bell(), generalized_bell(0.6, 0.8)):
        for _ in range(10):
            ch = TwoQubitChannel(*random_state(4))
            assert np.allclose(kernel_sigma(ch, basis), reference_sigma(ch, basis), atol=1e-14)


@pytest.mark.parametrize("basis_factory", [standard_bell, lambda: generalized_bell(0.6, 0.8)])
def test_branch_operator_route_matches_projection(basis_factory):
    # pref tau_lam @ (alpha, beta) = (1/2) sigma_lam @ (alpha, beta) must equal
    # the receiver state from projecting the full three-qubit product state,
    # for any channel
    basis = basis_factory()
    for _ in range(25):
        inp = random_state(2)
        ch = TwoQubitChannel(*random_state(4))
        _, receivers = project_one(np.kron(inp, ch.vector()), basis)
        for lam0 in range(4):
            # the projection written out: <row lam| on the measured pair
            direct = basis.t_matrix[lam0].conj() @ np.kron(inp, ch.vector()).reshape(4, 2)
            assert np.allclose(receivers[lam0], direct, atol=1e-15)
            assert np.allclose(receivers[lam0], 0.5 * (kernel_sigma(ch, basis)[lam0] @ inp), atol=1e-12)
            assert np.allclose(receivers[lam0], 0.5 * (reference_sigma(ch, basis)[lam0] @ inp), atol=1e-12)


def test_project_perfect_channel_probabilities_are_quarter():
    total = np.kron(random_state(2), np.array([H, 0, 0, H]))
    probs, _ = project_one(total, standard_bell())
    assert probs == pytest.approx([0.25] * 4, abs=1e-12)


def test_project_partial_channel_probabilities_golden():
    inp = np.array([0.6, 0.8])
    ch = np.array([0.8, 0, 0, 0.6])
    probs, _ = project_one(np.kron(inp, ch), standard_bell())
    assert probs == pytest.approx([0.2304, 0.2304, 0.2696, 0.2696], abs=1e-12)


def test_project_receiver_norm_equals_probability():
    probs, receivers = project_one(random_state(8), generalized_bell(0.8, 0.6))
    for p, receiver in zip(probs, receivers):
        assert np.vdot(receiver, receiver).real == pytest.approx(p, abs=1e-15)


def test_project_probabilities_sum_to_one_for_any_state():
    for basis in (standard_bell(), generalized_bell(0.28, math.sqrt(1 - 0.28**2))):
        for _ in range(25):
            probs, _ = project_one(random_state(8), basis)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_project_generalized_branch_amplitudes():
    # outcome 2 of the generalized basis weights the input by the
    # crossed products (a*b', b*a') with a sign the correction removes
    inp = np.array([0.6, 0.8])
    total = np.kron(inp, np.array([0.8, 0, 0, 0.6]))
    _, receivers = project_one(total, generalized_bell(0.6, 0.8))
    assert np.allclose(receivers[1], [0.8 * 0.8 * 0.6, -(0.6 * 0.6 * 0.8)], atol=1e-15)


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
# project_all expects of them: the left factor is most significant.


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
