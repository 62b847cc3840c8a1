import cmath
import copy
import dataclasses
import inspect
import itertools
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from telematch import protocol
from telematch.channel import (
    ChannelClass,
    PureInputState,
    TwoQubitChannel,
    UnteleportableChannelError,
    classify,
    concurrence,
    cpm,
)
from telematch.measurement import (
    DegenerateBasisError,
    InvalidBasisError,
    TwoQubitBasis,
    generalized_bell,
    parse_basis,
    project_all,
    standard_bell,
)
from telematch.protocol import (
    B_LO,
    K_POLICY_MODES,
    MAX_TRIALS,
    KOutOfRangeError,
    KPolicy,
    MonteCarloReport,
    OutcomeReport,
    ProtocolReport,
    analytic_batch,
    analytic_report,
    b_axis_channels,
    fig1_columns,
    fig1_grid,
    matched_unitary,
    monte_carlo,
    points,
    simulate_batch,
    simulate_report,
)

rng = np.random.default_rng(27182)

H = 1.0 / math.sqrt(2.0)


def unitarity_error(u):
    """max |(U U^dag - I)_ij|."""
    return np.max(np.abs(u @ u.conj().T - np.eye(len(u))))


def diagonal_bounds(c0, c1):
    """1/s_max(diag(c0, c1)) elementwise, each pair bounded as `matched_unitary` bounds its own."""
    pairs = np.broadcast(c0, c1)
    stack = np.array([np.diag([a, b]) for a, b in pairs]).reshape(pairs.shape + (2, 2))
    with np.errstate(divide="ignore"):  # inf where both vanish
        return protocol._k_bounds(stack)


def channel_stack(ch):
    """(1, 2, 2) amplitude stack of one channel object."""
    return ch.vector().reshape(1, 2, 2)


def diag_stack(a, b):
    """(N, 2, 2) amplitude stack of the channels a|00> + b|11>."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    x = np.zeros(a.shape + (2, 2), dtype=complex)
    x[..., 0, 0] = a
    x[..., 1, 1] = b
    return x

GOLDEN_K1 = np.array(
    [
        [0.6, 0, 0.8, 0],
        [0, 0.8, 0, 0.6],
        [0.8, 0, -0.6, 0],
        [0, 0.6, 0, -0.8],
    ]
)

# same channel run at the largest common K = 1/0.8
GOLDEN_KMAX = np.array(
    [
        [0.75, 0, math.sqrt(1 - 0.75**2), 0],
        [0, 1, 0, 0],
        [math.sqrt(1 - 0.75**2), 0, -0.75, 0],
        [0, 0, 0, -1],
    ]
)


def random_angle_pair():
    theta = rng.uniform(0.1, math.pi / 2 - 0.1)
    return math.cos(theta), math.sin(theta)


def random_input():
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return PureInputState(v[0], v[1])


def random_channel_vector():
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- KPolicy


def test_kpolicy_parse_forms():
    assert KPolicy.parse("max") == KPolicy.max_global()
    assert KPolicy.parse("MAX-GLOBAL") == KPolicy.max_global()
    assert KPolicy.parse("per-outcome") == KPolicy.max_per_outcome()
    assert KPolicy.parse("1.25") == KPolicy.fixed(1.25)


@pytest.mark.parametrize("bad", ["", "fastest", "1..2"])
def test_kpolicy_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        KPolicy.parse(bad)


@pytest.mark.parametrize("bad_k", [0.0, -1.0, float("nan"), float("inf")])
def test_kpolicy_fixed_rejects_nonpositive(bad_k):
    with pytest.raises(KOutOfRangeError):
        KPolicy.fixed(bad_k)


def test_kpolicy_message_shows_plain_numbers():
    with pytest.raises(KOutOfRangeError) as info:
        KPolicy.fixed(np.float64(-1))
    assert "np." not in str(info.value)
    assert "got -1.0" in str(info.value)


# Each entry point of a K, called with one K: the suite turns ComplexWarning into
# an error, so a cast that drops an imaginary part would raise that instead.
K_ENTRY_POINTS = {
    "kpolicy": KPolicy.fixed,
    "points": lambda k: points(diag_stack([0.8], [0.6]), standard_bell(), "fixed", k).k,
    "matched-unitary": lambda k: matched_unitary(0.8, 0.6, k),
}

# Spellings of K = 1 that every entry point takes, and those only `points` takes:
# a 0-d array, a list of one K per point, and object arrays.
K_ONE_SPELLINGS = [1 + 0j, np.complex128(1.0), np.complex64(1.0), np.float64(1.0), 1]
K_ONE_ARRAY_SPELLINGS = [np.array(1.0), np.array(1 + 0j), [1.0], [1], [1 + 0j],
                         np.array([1.0], dtype=object), np.array([np.float64(1.0)], dtype=object)]


@pytest.mark.parametrize("enter", K_ENTRY_POINTS.values(), ids=K_ENTRY_POINTS)
@pytest.mark.parametrize("k", [np.complex128(1 + 1j), 1 + 1j, 1e-300j, "1", b"1", True, np.True_], ids=repr)
def test_a_k_that_is_not_a_real_number_is_refused_before_any_cast(enter, k):
    with pytest.raises(ValueError, match="must be a real number") as info:
        enter(k)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("k", [np.array([1 + 1j]), np.array(["1"]), np.array([None]), np.array(1 + 1j),
                               [1 + 1j], ["1"], np.array([1j], dtype=object),
                               np.array(["1"], dtype=object), np.array([True]), [True], np.array(True),
                               np.array([True], dtype=object)], ids=repr)
def test_points_refuse_a_k_array_that_is_not_real_numbers(k):
    with pytest.raises(ValueError, match="must be a real number") as info:
        points(diag_stack([0.8], [0.6]), standard_bell(), "fixed", k)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("k", [[1.0, [1.0]], [[1.0], [1.0, 2.0]]], ids=repr)
def test_points_refuse_a_ragged_k_with_the_package_message(k):
    # numpy cannot make an array of it: the entries are read one by one, and a list is no K
    with pytest.raises(ValueError, match=r"^K must be a real number, got \[1.0\] of type list$"):
        points(diag_stack([0.8, 0.6], [0.6, 0.8]), standard_bell(), "fixed", k)
    with pytest.raises(ValueError, match=r"^fixed K must be one number or one per point, got shape \(2,\)"):
        points(diag_stack([0.8] * 3, [0.6] * 3), standard_bell(), "fixed", k)


def test_points_refuse_a_ragged_stack_with_the_package_message():
    # as for K, numpy cannot make an array of it: read as objects, a ragged point
    # fails the shape test and a list entry the number rule
    with pytest.raises(ValueError, match=r"^channel amplitudes must be an \(N, 2, 2\) stack, got shape \(2,\)$"):
        points([[[0.8, 0.0], [0.0, 0.6]], [[1.0]]], standard_bell(), "max-global")
    # numpy cannot read these arrays even as objects: the outer entries are the objects
    for ragged in ([np.eye(2), np.zeros((2, 3))], [np.eye(2), np.zeros((2, 3)), np.ones(4)]):
        with pytest.raises(ValueError, match=r"^channel amplitudes must be an \(N, 2, 2\) stack, "
                                             rf"got shape \({len(ragged)},\)$"):
            points(ragged, standard_bell(), "max-global")
    with pytest.raises(ValueError, match=r"^channel amplitudes must be numbers, got \[0.6\] of type list$"):
        points([[[0.8, 0.0], [0.0, [0.6]]]], standard_bell(), "max-global")


@pytest.mark.parametrize("k", [np.array([1.0]), np.array(1.0), [1.0]], ids=repr)
def test_kpolicy_refuses_an_array_k(k):
    with pytest.raises(ValueError, match="must be a real number") as info:
        KPolicy.fixed(k)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("enter", K_ENTRY_POINTS.values(), ids=K_ENTRY_POINTS)
def test_a_complex_k_with_zero_imaginary_part_is_its_real_part(enter):
    want = enter(1.0)
    arrays = K_ONE_ARRAY_SPELLINGS if enter is K_ENTRY_POINTS["points"] else []
    for k in K_ONE_SPELLINGS + arrays:
        got = enter(k)
        assert repr(got) == repr(want)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_a_complex_k_array_with_zero_imaginary_parts_is_its_real_part():
    x = diag_stack([0.8, 0.6], [0.6, 0.8])
    assert points(x, standard_bell(), "fixed", np.array([1 + 0j, 0.5])).k.tobytes() == \
        points(x, standard_bell(), "fixed", np.array([1.0, 0.5])).k.tobytes()


@pytest.mark.parametrize("enter", K_ENTRY_POINTS.values(), ids=K_ENTRY_POINTS)
@pytest.mark.parametrize("k, got", [(10**400, "inf"), (-(10**400), "-inf")], ids=["huge", "-huge"])
def test_an_int_beyond_the_float_range_is_out_of_range(enter, k, got):
    # read as inf of its sign, not a raw OverflowError from its cast
    message = f"^K must be a finite positive number, got {got}$"
    with pytest.raises(KOutOfRangeError, match=message):
        enter(k)
    with pytest.raises(KOutOfRangeError, match=message):
        points(diag_stack([0.8, 0.6], [0.6, 0.8]), standard_bell(), "fixed", np.array([1, k], dtype=object))


def test_kpolicy_mode_validation():
    with pytest.raises(ValueError, match="mode"):
        KPolicy("fastest")
    with pytest.raises(ValueError, match="no K value"):
        KPolicy("max-global", 1.0)
    with pytest.raises(ValueError, match="needs a value"):
        KPolicy("fixed")


def test_kpolicy_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        KPolicy.max_global().mode = "fixed"


# ----------------------------------------------------- matched unitary


def test_k_bound_goldens_on_the_edge_of_matched_unitary():
    # min(1/|c0|, 1/|c1|) is accepted, and refused above its tolerance
    for c0, c1, bound in ((0.8, 0.6, 1.25), (0.0, 0.5, 2.0)):
        assert diagonal_bounds(c0, c1) == bound
        assert unitarity_error(matched_unitary(c0, c1, bound)) <= 1e-12
        above = bound * (1.0 + 2.0 * protocol.K_BOUND_RTOL)
        with pytest.raises(KOutOfRangeError, match=f"^{re.escape(f'K={above!r} outside (0, {bound!r}]')}"):
            matched_unitary(c0, c1, above)
    # no bound where both vanish: every finite positive K is accepted
    assert diagonal_bounds(0.0, 0.0) == math.inf
    assert unitarity_error(matched_unitary(0.0, 0.0, sys.float_info.max)) == 0.0


def test_matched_unitary_k1_golden():
    u = matched_unitary(0.8, 0.6, 1.0)
    assert np.max(np.abs(u - GOLDEN_K1)) <= 1e-15


def test_matched_unitary_kmax_golden():
    u = matched_unitary(0.8, 0.6, 1.25)
    assert np.max(np.abs(u - GOLDEN_KMAX)) <= 1e-12


def test_matched_unitary_perfect_channel_at_bound():
    u = matched_unitary(H, H, math.sqrt(2.0))
    assert np.allclose(u, np.diag([1, 1, -1, -1]), atol=1e-12)


def test_matched_unitary_rejects_k_outside_range():
    with pytest.raises(KOutOfRangeError, match=r"^K=1.3 outside \(0, 1.25\] for coefficients"):
        matched_unitary(0.8, 0.6, 1.3)
    # the range rule of every K entry point, before the bound is computed
    for k in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(KOutOfRangeError, match=f"^K must be a finite positive number, got {k!r}$"):
            matched_unitary(0.8, 0.6, k)


def test_matched_unitary_message_shows_plain_numbers():
    with pytest.raises(KOutOfRangeError) as info:
        matched_unitary(np.complex128(0.8), np.float64(0.6), np.float64(2.0))
    assert "np." not in str(info.value)
    assert "((0.8+0j), (0.6+0j))" in str(info.value)


@pytest.mark.parametrize(
    "bad", ["0.8", True, np.bool_(True), None, [0.6], math.nan, math.inf, complex(0.8, -math.inf)]
)
def test_matched_unitary_refuses_a_coefficient_that_is_not_a_finite_amplitude(bad):
    # the amplitude rule of `PureInputState` and `TwoQubitChannel`
    for c0, c1, name in ((bad, 0.6, "c0"), (0.8, bad, "c1")):
        with pytest.raises(ValueError, match=f"^coefficient {name} must be (a number|finite)"):
            matched_unitary(c0, c1, 1.0)


def test_matched_unitary_accepts_k_at_bound():
    u = matched_unitary(0.8, 0.6, 1.25)
    assert unitarity_error(u) <= 1e-12


def test_matched_unitary_is_unitary_for_random_pairs():
    for _ in range(200):
        c0 = rng.uniform(0.05, 1.2) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        c1 = rng.uniform(0.05, 1.2) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        bound = float(diagonal_bounds(c0, c1))
        for k in (rng.uniform(0.05, 1.0) * bound, bound):
            assert unitarity_error(matched_unitary(c0, c1, k)) <= 1e-12
        with pytest.raises(KOutOfRangeError):
            matched_unitary(c0, c1, bound * (1.0 + 2.0 * protocol.K_BOUND_RTOL))


def test_matched_unitary_success_block_rescales_amplitudes():
    # acting on (c0*u0, c1*u1, 0, 0), the ancilla-|0> block must come
    # out proportional to (u0, u1) with weight (k*c0*c1)^2
    c0, c1, k = 0.7 * np.exp(0.3j), 0.5, 1.2
    u0, u1 = 0.6, 0.8j
    state = np.array([c0 * u0, c1 * u1, 0, 0])
    out = matched_unitary(c0, c1, k) @ state
    expected = k * c0 * c1 * np.array([u0, u1])
    assert np.allclose(out[:2], expected, atol=1e-12)


def test_success_weight_does_not_depend_on_the_order_of_the_heralded_amplitudes():
    # the filters of outcomes 3 and 4 reorder the two success amplitudes
    z = rng.normal(size=(2, 10000)) + 1j * rng.normal(size=(2, 10000))
    assert np.array_equal(protocol._success_weight(z), protocol._success_weight(z[::-1]))


def test_the_simulated_route_squares_moduli_in_plain_double():
    # magnitudes from 1e-8 to 1, where an extended-precision weight differs
    # from plain double on about 29% of pairs; a Python float is an IEEE double
    def random_complex(shape):
        modulus = 10.0 ** rng.uniform(-8.0, 0.0, size=shape)
        return modulus * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=shape))

    def reference(z0, z1):
        return (z0.real * z0.real + z0.imag * z0.imag) + (z1.real * z1.real + z1.imag * z1.imag)

    z = random_complex((2, 20000))
    assert protocol._success_weight(z).tolist() == list(map(reference, *z.tolist()))
    for basis in (standard_bell(), generalized_bell(0.6, 0.8)):
        p_alice, receivers = project_all(random_complex((4, 2, 5000)), basis)
        expected = [list(map(reference, *r)) for r in receivers.tolist()]
        assert p_alice.tolist() == expected
        # every batch size: the receivers are T @ states to a rounding of each
        # part's two-term sum (a BLAS product may fuse its multiply-adds)
        states = random_complex((4, 2, 2048))
        t = basis.t_matrix
        for n in range(1, 2049):
            s = np.ascontiguousarray(states[..., :n])
            p_alice, receivers = project_all(s, basis)
            assert receivers.shape == (4, 2, n) and p_alice.shape == (4, n)
            for part in ("real", "imag"):
                a, b = getattr(s, part).reshape(4, -1), getattr(receivers, part).reshape(4, -1)
                terms = t[:, :, None] * a  # terms[lam, m, .] = T[lam, m] a[m, .], summed in order
                assert np.all(np.abs(b - terms.sum(axis=1)) <= 4.5e-16 * np.abs(terms).sum(axis=1))
            x, y = receivers.real, receivers.imag
            assert p_alice.tobytes() == ((x[:, 0] * x[:, 0] + y[:, 0] * y[:, 0])
                                         + (x[:, 1] * x[:, 1] + y[:, 1] * y[:, 1])).tobytes()


# ------------------------------------------------- branch coefficients

# tau_lam of a channel a|00> + b|11> is diag(c0, c1) @ P_lam, with P_lam the
# signed permutation of the basis row and (c0, c1) the paper's coefficient pair
P_LAM = [np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]),
         np.array([[0.0, -1.0], [1.0, 0.0]])]


def test_branch_coefficients_bell_repeats_channel_pair():
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    tau = points(channel_stack(ch), standard_bell(), "max-global").tau[0]
    for lam0 in range(4):
        assert np.array_equal(tau[lam0], np.diag([0.8, 0.6]) @ P_LAM[lam0])


def test_branch_coefficients_generalized_pairing():
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    tau = points(channel_stack(ch), generalized_bell(0.6, 0.8), "max-global").tau[0]
    direct = (0.8 * 0.6, 0.6 * 0.8)
    crossed = (0.8 * 0.8, 0.6 * 0.6)
    for lam0, pair in enumerate((direct, crossed, crossed, direct)):
        assert np.array_equal(tau[lam0], np.diag(pair) @ P_LAM[lam0])


def test_outcome_operators_of_a_general_channel_are_its_branch_operators():
    # tau_lam = sigma_lam / (2 pref), for channels off the a|00> + b|11> family too,
    # with sigma_lam = X @ B_lam and B_lam[j, i] = sqrt(2) conj(T[lam-1, 2i + j])
    for basis, pref in ((standard_bell(), H), (generalized_bell(0.6, 0.8), 1.0)):
        t = basis.t_matrix
        for _ in range(10):
            ch = TwoQubitChannel(*random_channel_vector())
            tau = points(channel_stack(ch), basis, "max-global").tau[0]
            for lam0 in range(4):
                b_lam = np.array([[math.sqrt(2.0) * t[lam0, 2 * i + j].conjugate() for i in range(2)]
                                  for j in range(2)])
                assert np.allclose(2.0 * pref * tau[lam0], cpm(ch) @ b_lam, atol=1e-14)


def test_branch_coefficients_reject_unteleportable_channel():
    with pytest.raises(UnteleportableChannelError):
        points(channel_stack(TwoQubitChannel.diagonal(1, 0)), standard_bell(), "max-global")
    with pytest.raises(UnteleportableChannelError):  # a product state off the diagonal
        points(channel_stack(TwoQubitChannel(0.5, 0.5, 0.5, 0.5)), standard_bell(), "max-global")


def test_branch_coefficients_reject_degenerate_basis():
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    with pytest.raises(InvalidBasisError, match="zero"):
        points(channel_stack(ch), generalized_bell(1.0, 0.0), "max-per-outcome")


def test_b_axis_beyond_the_double_range_is_refused_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = b_axis_channels([1e200, 2e200])
        assert x[:, 0, 0].tolist() == [0.0, 0.0]
        with pytest.raises(ValueError, match="normalized"):
            points(x, standard_bell(), "max-global")


def test_only_a_degenerate_basis_raises_degenerate_basis_error():
    # a valid basis that never heralds success, not a malformed basis literal
    with pytest.raises(DegenerateBasisError):
        points(diag_stack([0.8], [0.6]), generalized_bell(1.0, 0.0), "max-per-outcome")
    for bad in ("gbm:0.5,0.5", "gbm:0.6", "magic"):
        with pytest.raises(InvalidBasisError) as info:
            parse_basis(bad)
        assert not isinstance(info.value, DegenerateBasisError)


def optimal_ks(ch, basis):
    """Each outcome's largest valid K, as the max-per-outcome policy runs it."""
    return points(channel_stack(ch), basis, "max-per-outcome").k[0].tolist()


def test_optimal_k_bell_is_inverse_larger_coefficient():
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    assert optimal_ks(ch, standard_bell()) == pytest.approx([1.25] * 4, abs=0)


def test_optimal_k_generalized_golden():
    ch = TwoQubitChannel.diagonal(0.9, math.sqrt(1 - 0.81))
    basis = generalized_bell(0.8, 0.6)
    expected = [1 / 0.72, 1 / 0.54, 1 / 0.54, 1 / 0.72]
    assert optimal_ks(ch, basis) == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------ analytic report


def test_analytic_report_balanced_input_golden():
    rep = analytic_report(
        PureInputState(H, H),
        TwoQubitChannel.diagonal(0.8, 0.6),
        standard_bell(),
        KPolicy.fixed(1.0),
    )
    assert rep.total == pytest.approx(0.4608, abs=1e-15)
    for o in rep.outcomes:
        assert o.p_alice == pytest.approx(0.25, abs=1e-15)
        assert o.p_bob == pytest.approx(0.4608, abs=1e-15)
        assert o.p_joint == pytest.approx(0.1152, abs=1e-15)
        assert o.fidelity == 1.0
        assert o.k_used == 1.0


def test_analytic_report_unbalanced_input_golden():
    rep = analytic_report(
        PureInputState(0.6, 0.8),
        TwoQubitChannel.diagonal(0.8, 0.6),
        standard_bell(),
        KPolicy.fixed(1.0),
    )
    p_alice = [o.p_alice for o in rep.outcomes]
    assert p_alice == pytest.approx([0.2304, 0.2304, 0.2696, 0.2696], abs=1e-12)
    assert rep.total == pytest.approx(0.4608, abs=1e-12)


def test_analytic_report_max_global_bell():
    rep = analytic_report(
        PureInputState(H, H),
        TwoQubitChannel.diagonal(0.8, 0.6),
        standard_bell(),
        KPolicy.max_global(),
    )
    assert all(o.k_used == pytest.approx(1.25, abs=0) for o in rep.outcomes)
    assert rep.total == pytest.approx(0.72, abs=1e-12)


def test_analytic_report_per_outcome_generalized_golden():
    rep = analytic_report(
        PureInputState(0.6, 0.8),
        TwoQubitChannel.diagonal(0.8, 0.6),
        generalized_bell(0.8, 0.6),
        KPolicy.max_per_outcome(),
    )
    ks = [o.k_used for o in rep.outcomes]
    assert ks == pytest.approx([1 / 0.64, 1 / 0.48, 1 / 0.48, 1 / 0.64], rel=1e-12)
    assert rep.total == pytest.approx(0.72, abs=1e-12)


def test_analytic_report_perfect_channel_is_certain():
    rep = analytic_report(
        PureInputState(H, H),
        TwoQubitChannel.diagonal(H, H),
        standard_bell(),
        KPolicy.max_global(),
    )
    assert rep.total == pytest.approx(1.0, abs=1e-12)
    for o in rep.outcomes:
        assert o.p_bob == pytest.approx(1.0, abs=1e-12)


def test_analytic_report_rejects_fixed_k_above_bound():
    with pytest.raises(KOutOfRangeError, match="exceeds"):
        analytic_report(
            PureInputState(H, H),
            TwoQubitChannel.diagonal(0.8, 0.6),
            standard_bell(),
            KPolicy.fixed(1.3),
        )


def test_analytic_report_fixed_k_checked_against_every_outcome():
    # K=2.0 fits the crossed pairs (bound 1/0.48 = 2.083) but not the
    # direct ones (bound 1/0.64 = 1.5625), so outcome 1 must reject it
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    basis = generalized_bell(0.8, 0.6)
    with pytest.raises(KOutOfRangeError, match="outcome 1"):
        analytic_report(PureInputState(H, H), ch, basis, KPolicy.fixed(2.0))


def test_reports_run_nondiagonal_channel():
    # psi+ = (|01> + |10>)/sqrt(2) is maximally entangled: total 1 at the largest K
    ch = TwoQubitChannel(0, H, H, 0)
    inp = PureInputState(0.6, 0.8j)
    for policy in (KPolicy.max_global(), KPolicy.max_per_outcome()):
        ana = analytic_report(inp, ch, standard_bell(), policy)
        sim = simulate_report(inp, ch, standard_bell(), policy)
        assert ana.total == pytest.approx(1.0, abs=1e-12)
        assert sim.total == pytest.approx(1.0, abs=1e-12)
        assert all(o.fidelity == pytest.approx(1.0, abs=1e-12) for o in sim.outcomes)
    # K = 1 halves every outcome's filter determinant: 4 * (1/2) * (1/2)^2
    assert analytic_report(inp, ch, standard_bell(), KPolicy.fixed(1.0)).total == pytest.approx(0.5)


# ------------------------------------------------------ dual-route checks


def _random_config():
    a, b = random_angle_pair()
    ch = TwoQubitChannel.diagonal(a, b)
    if rng.random() < 0.5:
        basis = standard_bell()
    else:
        ap, bp = random_angle_pair()
        basis = generalized_bell(ap, bp)
    mode = rng.integers(3)
    if mode == 0:
        bounds = optimal_ks(ch, basis)
        policy = KPolicy.fixed(rng.uniform(0.05, 1.0) * min(bounds))
    elif mode == 1:
        policy = KPolicy.max_global()
    else:
        policy = KPolicy.max_per_outcome()
    return ch, basis, policy


def test_simulate_matches_analytic_everywhere():
    for _ in range(100):
        ch, basis, policy = _random_config()
        inp = random_input()
        ana = analytic_report(inp, ch, basis, policy)
        sim = simulate_report(inp, ch, basis, policy)
        assert abs(ana.total - sim.total) <= 1e-12
        for x, y in zip(ana.outcomes, sim.outcomes):
            assert x.lam == y.lam
            assert x.k_used == y.k_used
            assert abs(x.p_alice - y.p_alice) <= 1e-12
            assert abs(x.p_bob - y.p_bob) <= 1e-12
            assert abs(x.p_joint - y.p_joint) <= 1e-12
            assert abs(x.fidelity - y.fidelity) <= 1e-12


def test_simulated_fidelity_is_unity_on_every_success_branch():
    for _ in range(50):
        ch, basis, policy = _random_config()
        sim = simulate_report(random_input(), ch, basis, policy)
        for o in sim.outcomes:
            assert o.fidelity == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("k", [1e-154, 1e-155, 1e-157, 1e-160, 1e-200, 1e-290])
@pytest.mark.parametrize("basis", [standard_bell(), generalized_bell(0.6, 0.8)], ids=["bell", "gbm"])
@pytest.mark.parametrize(
    "ch",
    [TwoQubitChannel.diagonal(0.8, 0.6), TwoQubitChannel(0.5, 0.5j, 0.1 + 0.1j, math.sqrt(0.48))],
    ids=["diagonal", "general"],
)
def test_simulated_fidelity_is_unity_where_the_heralded_weight_is_subnormal(ch, basis, k):
    # (K |det tau|)^2 lies below the smallest normal double, or underflows to 0
    sim = simulate_report(PureInputState(0.6, 0.8j), ch, basis, KPolicy.fixed(k))
    for o in sim.outcomes:
        assert abs(o.fidelity - 1.0) <= 1e-12


def test_total_success_is_input_independent():
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    basis = standard_bell()
    policy = KPolicy.fixed(1.0)
    totals = []
    joints = []
    for _ in range(50):
        rep = analytic_report(random_input(), ch, basis, policy)
        totals.append(rep.total)
        joints.append([o.p_joint for o in rep.outcomes])
    assert max(totals) - min(totals) <= 1e-12
    spread = np.max(np.ptp(np.array(joints), axis=0))
    assert spread <= 1e-12


def test_bell_total_closed_form():
    for _ in range(50):
        a, b = random_angle_pair()
        phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
        ch = TwoQubitChannel.diagonal(a * phase, b)
        k = rng.uniform(0.05, 1.0) * (1.0 / max(a, b))
        rep = analytic_report(random_input(), ch, standard_bell(), KPolicy.fixed(k))
        assert rep.total == pytest.approx(2.0 * (k * a * b) ** 2, abs=1e-12)


def test_generalized_total_closed_form():
    for _ in range(50):
        a, b = random_angle_pair()
        ap, bp = random_angle_pair()
        ch = TwoQubitChannel.diagonal(a, b)
        basis = generalized_bell(ap, bp)
        bounds = optimal_ks(ch, basis)
        k = rng.uniform(0.05, 1.0) * min(bounds)
        rep = analytic_report(random_input(), ch, basis, KPolicy.fixed(k))
        assert rep.total == pytest.approx(4.0 * (k * a * b * ap * bp) ** 2, abs=1e-12)


def test_per_outcome_optimum_is_twice_smaller_square():
    # orderings a >= a' >= b' >= b and a' >= a >= b >= b'
    for _ in range(50):
        tb = rng.uniform(0.1, math.pi / 4 - 0.01)
        ta = rng.uniform(0.05, tb)
        a, b = math.cos(ta), math.sin(ta)
        ap, bp = math.cos(tb), math.sin(tb)
        ch = TwoQubitChannel.diagonal(a, b)
        rep = analytic_report(
            random_input(), ch, generalized_bell(ap, bp), KPolicy.max_per_outcome()
        )
        assert rep.total == pytest.approx(2.0 * b * b, abs=1e-12)
        ch2 = TwoQubitChannel.diagonal(ap, bp)
        rep2 = analytic_report(
            random_input(), ch2, generalized_bell(a, b), KPolicy.max_per_outcome()
        )
        assert rep2.total == pytest.approx(2.0 * b * b, abs=1e-12)


def test_outcome_probabilities_close():
    for _ in range(50):
        ch, basis, policy = _random_config()
        rep = analytic_report(random_input(), ch, basis, policy)
        assert sum(o.p_alice for o in rep.outcomes) == pytest.approx(1.0, abs=1e-12)


def test_joint_probability_factorizes():
    for _ in range(50):
        ch, basis, policy = _random_config()
        rep = simulate_report(random_input(), ch, basis, policy)
        for o in rep.outcomes:
            assert o.p_joint == pytest.approx(o.p_alice * o.p_bob, rel=1e-12)


def test_total_grows_with_k():
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    inp = PureInputState(H, H)
    totals = [
        analytic_report(inp, ch, standard_bell(), KPolicy.fixed(k)).total
        for k in np.linspace(0.1, 1.25, 12)
    ]
    assert all(x < y for x, y in zip(totals, totals[1:]))


def test_per_outcome_beats_or_ties_other_policies():
    for _ in range(25):
        ch, basis, _ = _random_config()
        inp = random_input()
        per = analytic_report(inp, ch, basis, KPolicy.max_per_outcome()).total
        glob = analytic_report(inp, ch, basis, KPolicy.max_global()).total
        assert per >= glob - 1e-12


# ----------------------------------------------------------- monte carlo


def test_monte_carlo_is_deterministic_per_seed():
    inp = PureInputState(H, H)
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    mc1 = monte_carlo(inp, ch, standard_bell(), KPolicy.fixed(1.0), 20000, 7)
    mc2 = monte_carlo(inp, ch, standard_bell(), KPolicy.fixed(1.0), 20000, 7)
    assert mc1 == mc2
    mc3 = monte_carlo(inp, ch, standard_bell(), KPolicy.fixed(1.0), 20000, 8)
    assert mc3 != mc1


# Counts of 100000 trials of input (0.6, 0.8i) through 0.8|00> + 0.6|11>,
# fixed K = 1 or a maximal K: a seed must give these on every version and
# platform. Bell's two maximal policies coincide on a diagonal channel; gbm's
# per-outcome outcomes 1 and 4 herald with p_bob 1.
SEEDED_COUNTS = {
    ("bell", "fixed", 0): ((23206, 23000, 26916, 26878), (11568, 11438, 11507, 11624)),
    ("bell", "fixed", 7): ((23021, 22914, 26827, 27238), (11531, 11440, 11484, 11610)),
    ("bell", "fixed", 2**32): ((23138, 22966, 26780, 27116), (11626, 11466, 11340, 11333)),
    ("bell", "fixed", 2**63 - 1): ((22972, 22979, 26981, 27068), (11488, 11603, 11570, 11619)),
    ("bell", "fixed", 10**30): ((23058, 23237, 26952, 26753), (11445, 11504, 11594, 11428)),
    ("bell", "max", 0): ((23206, 23000, 26916, 26878), (18158, 18016, 17965, 17813)),
    ("bell", "max", 7): ((23021, 22914, 26827, 27238), (17968, 17916, 17891, 18213)),
    ("bell", "max", 2**32): ((23138, 22966, 26780, 27116), (18030, 17956, 17978, 18345)),
    ("bell", "max", 2**63 - 1): ((22972, 22979, 26981, 27068), (17945, 17861, 17975, 18021)),
    ("bell", "max", 10**30): ((23058, 23237, 26952, 26753), (18082, 18248, 17921, 17865)),
    ("bell", "per", 0): ((23206, 23000, 26916, 26878), (18158, 18016, 17965, 17813)),
    ("bell", "per", 7): ((23021, 22914, 26827, 27238), (17968, 17916, 17891, 18213)),
    ("bell", "per", 2**32): ((23138, 22966, 26780, 27116), (18030, 17956, 17978, 18345)),
    ("bell", "per", 2**63 - 1): ((22972, 22979, 26981, 27068), (17945, 17861, 17975, 18021)),
    ("bell", "per", 10**30): ((23058, 23237, 26952, 26753), (18082, 18248, 17921, 17865)),
    ("gbm", "fixed", 0): ((23206, 23000, 30789, 23005), (5317, 5252, 5300, 5409)),
    ("gbm", "fixed", 7): ((23021, 22914, 31166, 22899), (5321, 5265, 5374, 5254)),
    ("gbm", "fixed", 2**32): ((23138, 22966, 31032, 22864), (5379, 5277, 5250, 5071)),
    ("gbm", "fixed", 2**63 - 1): ((22972, 22979, 30997, 23052), (5294, 5388, 5361, 5353)),
    ("gbm", "fixed", 10**30): ((23058, 23237, 30659, 23046), (5242, 5258, 5335, 5308)),
    ("gbm", "max", 0): ((23206, 23000, 30789, 23005), (13088, 12998, 12927, 12811)),
    ("gbm", "max", 7): ((23021, 22914, 31166, 22899), (12929, 12906, 13102, 12907)),
    ("gbm", "max", 2**32): ((23138, 22966, 31032, 22864), (12958, 12935, 12913, 13095)),
    ("gbm", "max", 2**63 - 1): ((22972, 22979, 30997, 23052), (12920, 12814, 13053, 12918)),
    ("gbm", "max", 10**30): ((23058, 23237, 30659, 23046), (13053, 13185, 12949, 12966)),
    ("gbm", "per", 0): ((23206, 23000, 30789, 23005), (23206, 13077, 12794, 23005)),
    ("gbm", "per", 7): ((23021, 22914, 31166, 22899), (23021, 12837, 13102, 22899)),
    ("gbm", "per", 2**32): ((23138, 22966, 31032, 22864), (23138, 12785, 13027, 22864)),
    ("gbm", "per", 2**63 - 1): ((22972, 22979, 30997, 23052), (22972, 12934, 12891, 23052)),
    ("gbm", "per", 10**30): ((23058, 23237, 30659, 23046), (23058, 13080, 12885, 23046)),
}
SAMPLER_BASES = {"bell": standard_bell(), "gbm": generalized_bell(0.6, 0.8)}
SAMPLER_POLICIES = {"fixed": KPolicy.fixed(1.0), "max": KPolicy.max_global(),
                    "per": KPolicy.max_per_outcome()}


@pytest.mark.parametrize("basis_name, policy_name, seed", list(SEEDED_COUNTS))
def test_a_seed_gives_its_recorded_counts(basis_name, policy_name, seed):
    inp, ch = PureInputState(0.6, 0.8j), TwoQubitChannel.diagonal(0.8, 0.6)
    basis, policy = SAMPLER_BASES[basis_name], SAMPLER_POLICIES[policy_name]
    counts = SEEDED_COUNTS[basis_name, policy_name, seed]
    mc = monte_carlo(inp, ch, basis, policy, 100000, seed)
    assert (mc.outcome_counts, mc.success_counts) == counts
    # the documented stream: one multinomial, then one binomial per outcome in
    # order, all from np.random.default_rng(seed)
    rep = analytic_report(inp, ch, basis, policy)
    reference = np.random.default_rng(seed)
    outcomes = reference.multinomial(100000, [o.p_alice for o in rep.outcomes]).tolist()
    successes = [reference.binomial(n, min(o.p_bob, 1.0)) for n, o in zip(outcomes, rep.outcomes)]
    assert (tuple(outcomes), tuple(successes)) == counts


def test_monte_carlo_refuses_a_negative_seed():
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        monte_carlo(PureInputState(H, H), ch, standard_bell(), KPolicy.fixed(1.0), 100, -1)


def test_monte_carlo_agrees_with_analytic():
    inp = PureInputState(H, H)
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    mc = monte_carlo(inp, ch, standard_bell(), KPolicy.fixed(1.0), 50000, 42)
    assert abs(mc.p_hat - 0.4608) <= 3.0 * mc.std_err


def test_monte_carlo_counts_are_consistent():
    mc = monte_carlo(
        PureInputState(0.6, 0.8),
        TwoQubitChannel.diagonal(0.8, 0.6),
        generalized_bell(0.6, 0.8),
        KPolicy.max_per_outcome(),
        5000,
        3,
    )
    assert sum(mc.outcome_counts) == mc.trials == 5000
    assert all(s <= n for s, n in zip(mc.success_counts, mc.outcome_counts))
    assert mc.p_hat == sum(mc.success_counts) / mc.trials
    expected_err = math.sqrt(mc.p_hat * (1 - mc.p_hat) / mc.trials)
    assert mc.std_err == pytest.approx(expected_err, abs=0)


def test_monte_carlo_perfect_channel_always_succeeds():
    mc = monte_carlo(
        PureInputState(H, H),
        TwoQubitChannel.diagonal(H, H),
        standard_bell(),
        KPolicy.max_global(),
        2000,
        11,
    )
    assert mc.p_hat == 1.0


def test_monte_carlo_outcome_frequencies_follow_analytic():
    inp = PureInputState(0.6, 0.8)
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    mc = monte_carlo(inp, ch, standard_bell(), KPolicy.fixed(1.0), 100000, 5)
    rep = analytic_report(inp, ch, standard_bell(), KPolicy.fixed(1.0))
    for o, count in zip(rep.outcomes, mc.outcome_counts):
        freq = count / mc.trials
        err = math.sqrt(o.p_alice * (1 - o.p_alice) / mc.trials)
        assert abs(freq - o.p_alice) <= 4.0 * err


def test_monte_carlo_validates_arguments():
    inp = PureInputState(H, H)
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    with pytest.raises(ValueError, match="trials"):
        monte_carlo(inp, ch, standard_bell(), KPolicy.fixed(1.0), 0, 1)
    with pytest.raises(TypeError):
        monte_carlo(inp, ch, standard_bell(), KPolicy.fixed(1.0), 10.5, 1)
    # a bool is no count, though operator.index takes True for 1
    for trials, seed, message in ((True, 1, "trials must be an integer, got the bool True"),
                                  (np.True_, 1, "trials must be an integer, got the bool True"),
                                  (10, False, "seed must be an integer, got the bool False"),
                                  (10, np.False_, "seed must be an integer, got the bool False")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            monte_carlo(inp, ch, standard_bell(), KPolicy.fixed(1.0), trials, seed)
    mc = monte_carlo(inp, ch, standard_bell(), KPolicy.fixed(1.0), 1, 1)
    assert mc.p_hat in (0.0, 1.0)


def test_monte_carlo_perfect_channel_succeeds_at_per_outcome_k():
    # p_bob comes out an ulp above 1 here, as under max-global
    mc = monte_carlo(
        PureInputState(H, H),
        TwoQubitChannel.diagonal(H, H),
        standard_bell(),
        KPolicy.max_per_outcome(),
        10**6,
        13,
    )
    assert mc.p_hat == 1.0
    assert mc.success_counts == mc.outcome_counts


def test_monte_carlo_refuses_trials_above_int64():
    inp = PureInputState(H, H)
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    assert MAX_TRIALS == 2**63 - 1
    with pytest.raises(ValueError, match="trials"):
        monte_carlo(inp, ch, standard_bell(), KPolicy.fixed(1.0), 2**63, 1)


def test_monte_carlo_cost_does_not_grow_with_trials():
    inp = PureInputState(0.6, 0.8)
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    monte_carlo(inp, ch, standard_bell(), KPolicy.fixed(1.0), 10, 1)  # warm outside the trace
    tracemalloc.start()
    try:
        mc = monte_carlo(inp, ch, standard_bell(), KPolicy.fixed(1.0), 10**12, 17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(mc.outcome_counts) == mc.trials == 10**12
    assert all(0 <= s <= n for s, n in zip(mc.success_counts, mc.outcome_counts))
    assert abs(mc.p_hat - 0.4608) <= 4.0 * mc.std_err
    assert mc.sampler == "multinomial-binomial"
    assert peak < 100_000


def _per_trial_counts(inp, ch, basis, policy, trials, seed):
    """The former sampler, one outcome draw and one herald draw per
    trial: a reference for the distribution of monte_carlo's counts."""
    rep = analytic_report(inp, ch, basis, policy)
    p_alice = np.array([o.p_alice for o in rep.outcomes])
    p_bob = np.array([o.p_bob for o in rep.outcomes])
    draws = np.random.default_rng(seed).random((trials, 2))
    idx = np.minimum(np.searchsorted(np.cumsum(p_alice), draws[:, 0], side="right"), 3)
    succeeded = draws[:, 1] < p_bob[idx]
    return np.bincount(idx, minlength=4), np.bincount(idx[succeeded], minlength=4)


def _chi2_sf(x, dof):
    """P(X > x) for X chi-square distributed with integer dof."""
    h = x / 2.0
    if dof % 2 == 0:
        return math.exp(-h) * sum(h**j / math.factorial(j) for j in range(dof // 2))
    return math.erfc(math.sqrt(h)) + math.exp(-h) * sum(
        h ** (j + 0.5) / math.gamma(j + 1.5) for j in range(dof // 2)
    )


def test_chi2_sf_reference_values():
    # upper quantiles from standard chi-square tables
    for x, dof, p in [(3.841459, 1, 0.05), (9.210340, 2, 0.01), (16.26624, 3, 0.001),
                      (24.32189, 7, 0.001), (14.06714, 7, 0.05)]:
        assert _chi2_sf(x, dof) == pytest.approx(p, rel=1e-5)


# Significance level of the two-sample chi-square test below.
CHI2_ALPHA = 1e-3


@pytest.mark.parametrize(
    "policy",
    [KPolicy.fixed(1.0), KPolicy.max_global(), KPolicy.max_per_outcome()],
    ids=lambda policy: policy.mode,
)
@pytest.mark.parametrize(
    "channel, basis",
    [
        pytest.param((0.8, 0.6), standard_bell(), id="bell"),
        pytest.param((0.8, 0.6), generalized_bell(0.6, 0.8), id="gbm"),
        pytest.param((H, H), standard_bell(), id="psi+"),
    ],
)
def test_monte_carlo_matches_per_trial_sampler_in_distribution(channel, basis, policy):
    inp, ch, trials = PureInputState(0.6, 0.8), TwoQubitChannel.diagonal(*channel), 200_000
    old_outcomes, old_successes = _per_trial_counts(inp, ch, basis, policy, trials, 101)
    mc = monte_carlo(inp, ch, basis, policy, trials, 202)
    new_outcomes, new_successes = np.array(mc.outcome_counts), np.array(mc.success_counts)
    # a 2 x 8 table: per sampler, successes and failures of each outcome
    table = np.array(
        [
            np.concatenate([old_successes, old_outcomes - old_successes]),
            np.concatenate([new_successes, new_outcomes - new_successes]),
        ],
        dtype=float,
    )
    table = table[:, table.sum(axis=0) > 0]  # drop cells neither sampler reached
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    stat = float(((table - expected) ** 2 / expected).sum())
    assert _chi2_sf(stat, table.shape[1] - 1) > CHI2_ALPHA


# ------------------------------------------------------------ fig1 data


def test_fig1_grid_endpoints_and_shape():
    columns = fig1_columns(fig1_grid(2))
    assert [len(column) for column in columns] == [2] * 4
    b = columns[0]
    assert b[0] == B_LO
    assert b[-1] == pytest.approx(1.0 / math.sqrt(2.0), abs=0)
    assert [len(column) for column in fig1_columns(fig1_grid(100))] == [100] * 4


def test_fig1_rejects_tiny_grids():
    with pytest.raises(ValueError, match="steps"):
        fig1_grid(1)
    # formerly "steps must be >= 2, got 1" for True
    for steps in (True, np.True_, False):
        with pytest.raises(ValueError, match=f"^steps must be an integer, got the bool {bool(steps)}$"):
            fig1_grid(steps)


def test_fig1_rows_match_protocol_reports():
    # each tabulated value must be reproducible from the protocol itself
    inp = PureInputState(H, H)
    rows = zip(*(column.tolist() for column in fig1_columns(fig1_grid(7))))
    for b, p_opt, p_k1, p_ksqrt2 in list(rows)[1:]:
        ch = TwoQubitChannel.diagonal(math.sqrt(1 - b**2), b)
        opt = analytic_report(inp, ch, standard_bell(), KPolicy.max_per_outcome())
        assert p_opt == pytest.approx(opt.total, abs=1e-12)
        k1 = analytic_report(inp, ch, standard_bell(), KPolicy.fixed(1.0))
        assert p_k1 == pytest.approx(k1.total, abs=1e-12)
        assert p_ksqrt2 == pytest.approx(2.0 * p_k1, rel=1e-12)


def test_fig1_optimal_curve_dominates_fixed_k():
    _, p_opt, p_k1, _ = fig1_columns(fig1_grid(500))
    assert np.all(p_opt > p_k1)


def test_fig1_columns_follow_the_closed_forms_on_a_large_grid():
    # fig1's own size in the benchmark: both curves come from the b-axis stack alone
    b, p_opt, p_k1, p_ksqrt2 = fig1_columns(fig1_grid(20000))
    a = np.sqrt(1.0 - b * b)
    assert np.max(np.abs(p_opt - 2.0 * b * b)) <= 1e-12
    assert np.max(np.abs(p_k1 - 2.0 * (a * b) ** 2)) <= 1e-12
    assert np.max(np.abs(p_ksqrt2 - 4.0 * (a * b) ** 2)) <= 1e-12
    assert np.all(p_opt > p_k1)


def test_fig1_curves_equal_the_analytic_kernels_totals_bit_for_bit():
    # fig1 skips `points` on its grid; each block's curves must still be the totals
    # the analytic kernel gives on the validated points of the same stack
    inp = PureInputState(H, H)
    grid = fig1_grid(20000)
    for start in range(0, len(grid), 1024):
        b = grid[start:start + 1024]
        _, p_opt, p_k1, _ = fig1_columns(b)
        x = b_axis_channels(b)
        for (mode, k), curve in ((("max-per-outcome", None), p_opt), (("fixed", 1.0), p_k1)):
            total = analytic_batch(inp, points(x, standard_bell(), mode, k)).total
            assert np.array_equal(curve, total), (start, mode)


# ------------------------------------------------------- batched kernels

REPORT_FIELDS = ("k_used", "p_alice", "p_bob", "p_joint", "fidelity")

angle = st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05)
phase = st.floats(min_value=0.0, max_value=2.0 * math.pi)


@st.composite
def batches(draw):
    """Random complex diagonal channels sharing one input, basis and K policy."""
    n = draw(st.integers(min_value=1, max_value=6))
    a, b = [], []
    for _ in range(n):
        theta = draw(angle)
        a.append(math.cos(theta) * cmath.exp(1j * draw(phase)))
        b.append(math.sin(theta) * cmath.exp(1j * draw(phase)))
    theta = draw(angle)
    inp = PureInputState(
        math.cos(theta) * cmath.exp(1j * draw(phase)),
        math.sin(theta) * cmath.exp(1j * draw(phase)),
    )
    if draw(st.booleans()):
        basis = standard_bell()
    else:
        theta = draw(angle)
        basis = generalized_bell(math.cos(theta), math.sin(theta))
    mode = draw(st.sampled_from(K_POLICY_MODES))
    k = None
    if mode == "fixed":
        fractions = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
        bounds = points(diag_stack(a, b), basis, "max-global").k[:, 0]
        k = np.array(fractions) * bounds
    return inp, np.array(a), np.array(b), basis, mode, k


@given(batches())
@settings(max_examples=100)
def test_batch_elements_match_single_point_reports(case):
    inp, a, b, basis, mode, k = case
    pts = points(diag_stack(a, b), basis, mode, k)
    ana, sim = analytic_batch(inp, pts), simulate_batch(inp, pts)
    for i in range(len(a)):
        ch = TwoQubitChannel.diagonal(a[i], b[i])
        policy = KPolicy(mode, None if k is None else k[i])
        for batch, report in (
            (ana, analytic_report(inp, ch, basis, policy)),
            (sim, simulate_report(inp, ch, basis, policy)),
        ):
            assert abs(batch.total[i] - report.total) <= 1e-12
            for lam0, o in enumerate(report.outcomes):
                for field in REPORT_FIELDS:
                    assert abs(getattr(batch, field)[i, lam0] - getattr(o, field)) <= 1e-12
        assert abs(ana.total[i] - sim.total[i]) <= 1e-12
        for field in REPORT_FIELDS:
            assert np.max(np.abs(getattr(ana, field)[i] - getattr(sim, field)[i])) <= 1e-12
        assert np.max(np.abs(sim.fidelity[i] - 1.0)) <= 1e-12


@st.composite
def large_batches(draw):
    """Batches long enough for numpy's vector loops and their remainders."""
    n = draw(st.integers(min_value=1, max_value=300))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    theta = gen.uniform(0.05, math.pi / 2 - 0.05, n)
    a = np.cos(theta) * np.exp(1j * gen.uniform(0.0, 2.0 * math.pi, n))
    b = np.sin(theta) * np.exp(1j * gen.uniform(0.0, 2.0 * math.pi, n))
    theta = draw(angle)
    inp = PureInputState(
        math.cos(theta) * cmath.exp(1j * draw(phase)),
        math.sin(theta) * cmath.exp(1j * draw(phase)),
    )
    if draw(st.booleans()):
        basis = standard_bell()
    else:
        theta = draw(angle)
        basis = generalized_bell(math.cos(theta), math.sin(theta))
    mode = draw(st.sampled_from(K_POLICY_MODES))
    k = None
    if mode == "fixed":
        k = gen.uniform(0.05, 1.0, n) * points(diag_stack(a, b), basis, "max-global").k[:, 0]
    return inp, diag_stack(a, b), basis, mode, k


def general_batch(n, seed, basis, mode):
    """n random channels U diag(cos t, sin t) V^T as in `general_cases`, t in
    [0.05, pi/4], with a random input state and K a random fraction of the
    largest common bound for the 'fixed' mode."""
    gen = np.random.default_rng(seed)
    q, r = np.linalg.qr(gen.normal(size=(2, n, 2, 2)) + 1j * gen.normal(size=(2, n, 2, 2)))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u, v = q * (d / np.abs(d))[..., None, :]
    t = gen.uniform(0.05, math.pi / 4, n)
    x = u * np.stack([np.cos(t), np.sin(t)], axis=-1)[:, None, :] @ v.swapaxes(-1, -2)
    k = None
    if mode == "fixed":
        k = gen.uniform(0.05, 1.0, n) * points(x, basis, "max-global").k[:, 0]
    psi = gen.normal(size=2) + 1j * gen.normal(size=2)
    psi /= np.linalg.norm(psi)
    return PureInputState(psi[0], psi[1]), x, basis, mode, k


# A 2-D product may round a column by its place in a panel, or differently once
# BLAS runs it on several threads, which OpenBLAS does from about 2048 points.
@example(general_batch(2048, 1, standard_bell(), "fixed"))
@example(general_batch(2048, 2, standard_bell(), "max-global"))
@example(general_batch(2048, 3, standard_bell(), "max-per-outcome"))
@example(general_batch(2048, 4, generalized_bell(0.28, 0.96), "fixed"))
@example(general_batch(2048, 5, generalized_bell(0.28, 0.96), "max-global"))
@example(general_batch(2048, 6, generalized_bell(0.96, 0.28), "max-per-outcome"))
# From 256 KiB, 4096 points x 4 outcomes of complex128, numpy reuses a bare temporary
# operand as the output of an operator, and may then multiply in the swapped order,
# which rounds a complex product differently: the max modes read K off such products.
@example(general_batch(4096, 2, standard_bell(), "max-global"))
@example(general_batch(4096, 3, standard_bell(), "max-per-outcome"))
@example(general_batch(4096, 5, generalized_bell(0.28, 0.96), "max-global"))
@example(general_batch(4096, 6, generalized_bell(0.96, 0.28), "max-per-outcome"))
@given(large_batches())
@settings(max_examples=25)
def test_batch_elements_equal_single_point_reports_exactly(case):
    # numpy rounds each element of abs, np.multiply and + alike at any array length,
    # as long as the operands keep their order and layout
    inp, x, basis, mode, k = case
    pts = points(x, basis, mode, k)
    for kernel, report in ((analytic_batch, analytic_report), (simulate_batch, simulate_report)):
        batch = kernel(inp, pts)
        for i in range(len(x)):
            ch = TwoQubitChannel(*x[i].ravel())
            single = report(inp, ch, basis, KPolicy(mode, None if k is None else k[i]))
            assert batch.total[i] == single.total
            for lam0, o in enumerate(single.outcomes):
                for field in REPORT_FIELDS:
                    assert getattr(batch, field)[i, lam0] == getattr(o, field)


def test_points_accept_every_channel_the_channel_class_accepts():
    # |a|^2 + |b|^2 sits within an ulp of 1 - NORMALIZATION_TOL here, where
    # numpy's vectorised moduli may disagree with the scalar abs in the last bit
    a, b = -0.882616540498969 - 0.2501412990660471j, -0.272037316154242 + 0.2905392754151825j
    ch = TwoQubitChannel.diagonal(a, b)
    bell = standard_bell()
    report = analytic_report(PureInputState(1.0, 0.0), ch, bell, KPolicy.max_global())
    assert report.total == pytest.approx(2.0 * abs(a * b) ** 2 / max(abs(a), abs(b)) ** 2)
    assert points(diag_stack([a], [b]), bell, "fixed", 1.0).k[0, 0] == 1.0


def test_points_first_failing_point_decides_the_error():
    bell = standard_bell()
    x = diag_stack([0.8, 1.0, 0.6], [0.6, 0.0, 0.8])
    with pytest.raises(UnteleportableChannelError):
        points(x, bell, "fixed", np.array([1.0, 1.0, 5.0]))
    with pytest.raises(KOutOfRangeError, match="exceeds"):
        points(x, bell, "fixed", np.array([5.0, 1.0, 1.0]))
    with pytest.raises(KOutOfRangeError, match="finite positive"):
        points(x, bell, "fixed", np.array([-1.0, 1.0, 1.0]))
    with pytest.raises(KOutOfRangeError, match="finite positive"):
        points(x, bell, "fixed", np.array([np.nan, 1.0, 1.0]))
    with pytest.raises(ValueError, match="normalized"):
        points(diag_stack([0.9, 1.0], [0.9, 0.0]), bell, "max-global")


def test_points_refuse_a_stack_that_is_not_n_by_2_by_2():
    # a flat channel, two flat channels, and one channel without the N axis;
    # (a, b) arrays of unequal lengths used to fail with an IndexError instead
    bell = standard_bell()
    for x, shape in ((np.array([0.8, 0, 0, 0.6]), "(4,)"), (np.zeros((2, 4)), "(2, 4)"),
                     (diag_stack([0.8], [0.6])[0], "(2, 2)")):
        with pytest.raises(ValueError, match=r"must be an \(N, 2, 2\) stack") as info:
            points(x, bell, "max-global")
        assert f"got shape {shape}" in str(info.value)


def test_points_refuse_a_stack_entry_that_is_not_a_number():
    # numpy would parse a str stack, read None as nan and a bool as 0 or 1
    good = np.array([[[0.8, 0.0], [0.0, 0.6]]])
    with_none, with_bool = good.astype(object), good.astype(object)
    with_none[0, 1, 1], with_bool[0, 0, 1] = None, True
    for x, got in ((good.astype(str), "0.8 of type str"), (good.astype(bytes), "b'0.8' of type bytes"),
                   (with_none, "None of type NoneType"), (with_bool, "True of type bool")):
        with pytest.raises(ValueError, match=f"^channel amplitudes must be numbers, got {re.escape(got)}$"):
            points(x, standard_bell(), "max-global")
    # numpy would read the bool of a list stack as 0: each entry is read as given
    with pytest.raises(ValueError, match="^channel amplitudes must be numbers, got False of type bool$"):
        points([[[0.8, False], [False, 0.6]]], standard_bell(), "max-global")
    assert points([[[0.8, 0], [0, 0.6]]], standard_bell(), "max-global").x.dtype == np.float64
    # an object stack of numbers is the complex stack, and a bool stack is read as 0 and 1
    for basis in (standard_bell(), generalized_bell(0.6, 0.8)):
        got, want = (points(x, basis, "max-global") for x in (good.astype(object), good.astype(complex)))
        assert all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got[1:], want[1:]))
    with pytest.raises(ValueError, match="normalized"):
        points(np.eye(2, dtype=bool)[None], standard_bell(), "max-global")


def test_points_refuse_a_k_array_of_another_length():
    # formerly numpy's "operands could not be broadcast together with shapes (2,) (3,)"
    for k, shape in ((np.array([1.0, 1.0, 1.0]), "(3,)"), (np.ones((2, 1)), "(2, 1)"),
                     ([1.0, 1.0, 1.0], "(3,)"), ([1, 1, 1], "(3,)"), ([np.float64(1.0)] * 3, "(3,)"),
                     (np.array([1.0] * 3, dtype=object), "(3,)"), ([[1.0], [1.0]], "(2, 1)"),
                     (np.array([[1.0, 1.0]], dtype=object), "(1, 2)")):
        with pytest.raises(ValueError, match=rf"got shape {re.escape(shape)} for 2 points"):
            points(diag_stack([0.8, 0.6], [0.6, 0.8]), standard_bell(), "fixed", k)


def test_the_bound_of_a_diagonal_pair_is_one_over_its_larger_modulus():
    # 1/s_max(diag(c0, c1)) equals 1/max(|c0|, |c1|) bit for bit
    c0 = rng.normal(size=3000) + 1j * rng.normal(size=3000)
    c1 = rng.normal(size=3000) + 1j * rng.normal(size=3000)
    assert np.array_equal(diagonal_bounds(c0, c1), 1.0 / np.maximum(np.abs(c0), np.abs(c1)))


def _k_bounds_unconditional(tau):
    """_k_bounds with the off-diagonal correction always computed."""
    m = np.abs(tau) ** 2
    p = m[..., 0, 0] + m[..., 0, 1]
    q = m[..., 1, 0] + m[..., 1, 1]
    r = np.abs(tau[..., 0, 0] * tau[..., 1, 0].conj() + tau[..., 0, 1] * tau[..., 1, 1].conj())
    h = 0.5 * np.abs(p - q)
    return 1.0 / np.sqrt(np.maximum(p, q) + (np.sqrt(h * h + r * r) - h))


@st.composite
def tau_stacks(draw):
    """(N, 4, 2, 2) real or complex operator stacks: every operator diagonal
    or anti-diagonal (r = 0, as on diagonal channels on Bell or gbm), every
    operator general, or a mix with at least one general operator."""
    n = draw(st.integers(min_value=1, max_value=200))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(("diagonal", "general", "mixed")))
    shape = (n, 4, 2, 2)
    tau = gen.normal(size=shape) * 10.0 ** gen.uniform(-3, 3, shape)
    if draw(st.booleans()):
        tau = tau + 1j * gen.normal(size=shape)
    if kind != "general":
        keep = np.eye(2, dtype=bool)
        orthogonal = np.where(gen.random((n, 4, 1, 1)) < 0.5, keep, ~keep) * tau
        general = np.zeros((n, 4, 1, 1), dtype=bool)
        if kind == "mixed":
            general.flat[gen.integers(0, 4 * n, gen.integers(1, 4 * n + 1))] = True
        tau = np.where(general, tau, orthogonal)
    return tau


@given(tau_stacks())
@settings(max_examples=150)
def test_k_bounds_equal_the_unconditional_formula(tau):
    # the correction is skipped only where r = 0 at every operator, where it is
    # sqrt(h^2) - h = 0 exactly
    assert np.array_equal(protocol._k_bounds(tau), _k_bounds_unconditional(tau))


# ------------------------------------------------------------ real stacks

# Smallest |b| the b axis accepts: the concurrence 2|ab| must exceed 1e-9.
B_EDGE = 5.1e-10


def _real_orthogonal(gen):
    """A random 2x2 rotation or reflection."""
    t = gen.uniform(0.0, 2.0 * math.pi)
    r = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    return r if gen.random() < 0.5 else r * [1.0, -1.0]


@st.composite
def real_batches(draw):
    """Real amplitude stacks on Bell or on gbm with signed coefficients, under
    every K policy: b-axis grids of either sign down to |b| = B_EDGE (with
    their b), real diagonal channels a|00> + b|11> of any signs, and real
    general channels R diag(cos t, sin t) S^T, R and S orthogonal."""
    n = draw(st.integers(min_value=1, max_value=300))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(("b-axis", "diagonal", "general")))
    b = None
    if kind == "b-axis":
        # log-uniform |b| between B_EDGE and 1 - 1e-6, led by a few edge values
        b = np.where(gen.random(n) < 0.5, -1.0, 1.0) * np.minimum(B_EDGE ** gen.random(n), 1 - 1e-6)
        edges = draw(st.lists(st.sampled_from([B_EDGE, -B_EDGE, 1 - 1e-6, -(1 - 1e-6), H]),
                              max_size=min(n, 3)))
        b[:len(edges)] = edges
        x = b_axis_channels(b)
    elif kind == "diagonal":
        t = gen.uniform(0.05, math.pi / 2 - 0.05, n) + gen.integers(0, 4, n) * (math.pi / 2)
        x = np.zeros((n, 2, 2))
        x[:, 0, 0], x[:, 1, 1] = np.cos(t), np.sin(t)
    else:
        t = gen.uniform(0.05, math.pi / 4, n)
        x = np.stack([_real_orthogonal(gen) @ np.diag([math.cos(ti), math.sin(ti)])
                      @ _real_orthogonal(gen).T for ti in t])
    if draw(st.booleans()):
        basis = standard_bell()
    else:
        theta = draw(angle) + draw(st.integers(min_value=0, max_value=3)) * (math.pi / 2)
        basis = generalized_bell(math.cos(theta), math.sin(theta))
    mode = draw(st.sampled_from(K_POLICY_MODES))
    k = None
    if mode == "fixed":
        bounds = points(x, basis, "max-global").k[:, 0]
        if draw(st.booleans()):
            k = gen.uniform(0.05, 1.0, n) * bounds  # one K per point
        else:
            k = draw(st.floats(0.05, 1.0)) * float(bounds.min())
    theta = draw(angle)
    inp = PureInputState(
        math.cos(theta) * cmath.exp(1j * draw(phase)),
        math.sin(theta) * cmath.exp(1j * draw(phase)),
    )
    return inp, x, b, basis, mode, k


@given(real_batches())
@settings(max_examples=60)
def test_real_stacks_give_the_numbers_of_the_same_stacks_taken_as_complex(case):
    # complex arithmetic on zero imaginary parts reduces to the real one, so the
    # float64 path must reproduce the complex128 path exactly, not approximately
    inp, x, b, basis, mode, k = case
    real, twin = points(x, basis, mode, k), points(x.astype(complex), basis, mode, k)
    # neither path may silently fall back to the other
    assert real.x.dtype == real.tau.dtype == np.float64
    assert twin.x.dtype == twin.tau.dtype == np.complex128
    assert np.array_equal(real.k, twin.k)
    assert np.array_equal(real.tau, twin.tau)
    for kernel in (analytic_batch, simulate_batch):
        for field, got, want in zip(protocol.Batch._fields, kernel(inp, real), kernel(inp, twin)):
            assert np.array_equal(got, want), (kernel.__name__, field)
    if b is not None:
        pts = points(b_axis_channels(b).astype(complex), standard_bell(), "max-per-outcome")
        det = protocol._abs_det(pts.tau)
        p_k1 = (pts.basis.pref2 * np.square(det)).sum(axis=-1)
        want = (b, (pts.basis.pref2 * np.square(pts.k * det)).sum(axis=-1), p_k1, 2.0 * p_k1)
        for got, column in zip(fig1_columns(b), want):
            assert np.array_equal(got, column)


def test_real_stacks_stay_real_only_on_a_real_basis():
    assert b_axis_channels([0.6]).dtype == np.float64
    assert standard_bell().blocks.dtype == generalized_bell(-0.6, 0.8).blocks.dtype == np.float64
    # int and bool stacks are real too: refused here as their float64 twins are
    for stack in (np.eye(2, dtype=int)[None], np.eye(2, dtype=bool)[None]):
        with pytest.raises(ValueError, match="sum of squared moduli is 2.0"):
            points(stack, standard_bell(), "max-global")


# ---------------------------------------------------- general pure channels


def random_unitary(gen):
    q, r = np.linalg.qr(gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def general_cases(draw):
    """A random pure channel with Schmidt coefficients (cos t, sin t), a
    basis, a K policy and an input state.

    The amplitude matrix is U diag(cos t, sin t) V^T with random unitaries
    U and V, so the channel is off the a|00> + b|11> family; t >= 0.05
    keeps the smaller Schmidt coefficient, sin t, away from 0.
    """
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    t = draw(st.floats(min_value=0.05, max_value=math.pi / 4))
    x = random_unitary(gen) @ np.diag([math.cos(t), math.sin(t)]) @ random_unitary(gen).T
    if draw(st.booleans()):
        basis = standard_bell()
    else:
        theta = draw(st.floats(min_value=0.1, max_value=math.pi / 2 - 0.1))
        basis = generalized_bell(math.cos(theta), math.sin(theta))
    mode = draw(st.sampled_from(K_POLICY_MODES))
    k = None
    if mode == "fixed":
        k = draw(st.floats(min_value=0.05, max_value=1.0)) * points(x[None], basis, "max-global").k[0, 0]
    psi = gen.normal(size=2) + 1j * gen.normal(size=2)
    psi /= np.linalg.norm(psi)
    return x, math.sin(t), basis, mode, k, PureInputState(psi[0], psi[1])


def _channel(x):
    return TwoQubitChannel(*x.ravel())


@given(general_cases())
@settings(max_examples=150)
def test_general_channels_analytic_and_simulated_agree_with_fidelity_one(case):
    x, _, basis, mode, k, inp = case
    policy = KPolicy(mode, k)
    ana = analytic_report(inp, _channel(x), basis, policy)
    sim = simulate_report(inp, _channel(x), basis, policy)
    assert abs(ana.total - sim.total) <= 1e-12
    for a, b in zip(ana.outcomes, sim.outcomes):
        for field in REPORT_FIELDS:
            assert abs(getattr(a, field) - getattr(b, field)) <= 1e-12
        assert abs(b.fidelity - 1.0) <= 1e-12


@given(general_cases(), st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=1, max_value=10**9))
@settings(max_examples=150)
def test_the_sampler_draws_from_the_analytic_probabilities(case, seed, trials):
    # the documented stream on every point: one multinomial over analytic_batch's
    # p_alice, then one binomial per outcome at its p_bob, from default_rng(seed)
    x, _, basis, mode, k, inp = case
    mc = monte_carlo(inp, _channel(x), basis, KPolicy(mode, k), trials, seed)
    batch = analytic_batch(inp, points(x[None], basis, mode, k))
    reference = np.random.default_rng(seed)
    outcomes = reference.multinomial(trials, batch.p_alice[0]).tolist()
    successes = [reference.binomial(n, min(p, 1.0)) for n, p in zip(outcomes, batch.p_bob[0].tolist())]
    assert (mc.outcome_counts, mc.success_counts) == (tuple(outcomes), tuple(successes))


@given(general_cases())
@settings(max_examples=150)
def test_total_never_exceeds_twice_the_smaller_schmidt_coefficient_squared(case):
    x, lam_min, basis, mode, k, inp = case
    assert np.linalg.svd(cpm(_channel(x)) / math.sqrt(2.0), compute_uv=False)[1] == pytest.approx(lam_min)
    total = analytic_report(inp, _channel(x), basis, KPolicy(mode, k)).total
    assert total <= 2.0 * lam_min**2 + 1e-12
    if basis.kind == "bell" and mode == "max-per-outcome":
        assert total == pytest.approx(2.0 * lam_min**2, abs=1e-12)
    if mode == "max-per-outcome":
        # K_lam |det tau_lam| = s_min(tau_lam): the total is pref^2 sum_lam s_min(tau_lam)^2
        pts = points(x[None], basis, mode)
        s_min = np.linalg.svd(pts.tau[0], compute_uv=False)[:, 1]
        expected = basis.pref2 * np.sum(s_min**2)
        for kernel in (analytic_batch, simulate_batch):
            assert kernel(inp, pts).total[0] == pytest.approx(expected, rel=1e-12)


# Points.det against each outcome's |det tau_lam|: c_B |det x| and the 2x2 determinant
# of tau_lam round differently. A scan of 20000 general channels on both bases read at
# most 1.3e-15 (6 ulp).
DET_RTOL = 4e-15


def _rotation(angle):
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


@given(general_cases(), st.floats(min_value=0.0, max_value=2 * math.pi),
       st.floats(min_value=0.0, max_value=2 * math.pi))
@settings(max_examples=150)
def test_points_carry_every_outcomes_determinant_as_c_b_times_det_x(case, phi, psi):
    # |det tau_lam| = c_B |det x| on every outcome, so p_joint is the product of the
    # measurement (pref, c_B), the unitary (K) and the entanglement (C = 2 |det x|)
    x, lam_min, basis, mode, k, inp = case
    pts = points(x[None], basis, mode, k)
    per_outcome = protocol._abs_det(pts.tau)
    assert pts.det.shape == (1, 1) and pts.det.dtype == np.float64
    assert np.all(np.abs(pts.det - per_outcome) <= DET_RTOL * per_outcome)
    if basis.kind == "bell":
        assert 2.0 * pts.det[0, 0] == concurrence(_channel(x))
        # a real stack with the same Schmidt coefficients: the same bound, so a fixed K fits
        real = _rotation(phi) @ np.diag([math.sqrt(1.0 - lam_min**2), lam_min]) @ _rotation(psi).T
        pts = points(real[None], basis, mode, k)
        assert pts.det.dtype == np.float64
        assert np.array_equal(np.broadcast_to(pts.det, (1, 4)), protocol._abs_det(pts.tau))
        assert 2.0 * pts.det[0, 0] == concurrence(_channel(real))


@given(general_cases(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150)
def test_total_is_invariant_under_local_unitaries(case, seed):
    # receiver-side rotations for both bases, rotations on both sides for
    # the Bell basis, whose blocks are unitary
    x, _, basis, mode, k, inp = case
    gen = np.random.default_rng(seed)
    sender = random_unitary(gen) if basis.kind == "bell" else np.eye(2)
    rotated = sender @ x @ random_unitary(gen).T
    policy = KPolicy(mode, None if k is None else 0.999999 * k)
    before = analytic_report(inp, _channel(x), basis, policy).total
    after = analytic_report(inp, _channel(rotated), basis, policy).total
    assert after == pytest.approx(before, abs=1e-12)


@given(general_cases())
@settings(max_examples=100)
def test_kernel_dilation_is_the_full_dilation_on_an_ancilla_in_zero(case):
    # simulate_batch applies only the heralded block M = K adj(tau) of each
    # filter's dilation; the dilation's columns that meet an ancilla in |0>,
    # [[M], [sqrt(I - M^dag M)]], must herald with the same chance and return
    # the input state
    x, _, basis, mode, k, inp = case
    pts = points(x[None], basis, mode, k)
    p_bob = simulate_batch(inp, pts).p_bob[0]
    state = np.kron(inp.vector(), x.ravel())
    filters = protocol._filters_transposed(pts.tau, pts.k).T[0]
    for lam0 in range(4):
        m = filters[lam0]
        w, q = np.linalg.eigh(np.eye(2) - m.conj().T @ m)
        u = np.vstack([m, (q * np.sqrt(np.maximum(w, 0.0))) @ q.conj().T])
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-13
        receiver = project_all(state.reshape(4, 2, 1), basis)[1][lam0, :, 0]
        out = u @ receiver
        succ_w = np.vdot(out[:2], out[:2]).real
        assert abs(succ_w / np.vdot(receiver, receiver).real - p_bob[lam0]) <= 1e-12
        assert abs(abs(np.vdot(inp.vector(), out[:2])) ** 2 / succ_w - 1.0) <= 1e-12


@given(general_cases())
@settings(max_examples=150)
def test_a_k_within_the_bound_tolerance_runs_and_one_beyond_it_is_refused(case):
    # K at the largest common bound times 1 + 0.9 K_BOUND_RTOL, just over the smallest
    # outcome bound, whose filter's s_max then exceeds 1 by about 1e-12. The kernels agree
    # to a relative 1e-13, and the fidelity is 1 to 2e-15 (a scan of 20000 draws weighted
    # to the strategy's edges read at most 3.7e-14 and 1.1e-15)
    x, _, basis, _, _, inp = case
    k_max = points(x[None], basis, "max-global").k[0, 0]
    pts = points(x[None], basis, "fixed", k_max * (1.0 + 0.9 * protocol.K_BOUND_RTOL))
    ana, sim = analytic_batch(inp, pts), simulate_batch(inp, pts)
    for a, s in zip(ana, sim):
        assert np.all(np.abs(a - s) <= 1e-13 * np.abs(a))
    assert np.all(np.abs(np.concatenate([ana.fidelity, sim.fidelity]) - 1.0) <= 2e-15)
    beyond = k_max * (1.0 + 2.0 * protocol.K_BOUND_RTOL)
    with pytest.raises(KOutOfRangeError):
        points(x[None], basis, "fixed", beyond)
    with pytest.raises(KOutOfRangeError):
        analytic_report(inp, _channel(x), basis, KPolicy.fixed(beyond))


@st.composite
def general_stacks(draw):
    """An input state and an (N, 2, 2) stack of general pure channels: the one
    channel of `general_cases`, or a `general_batch` of up to 4096 points."""
    if draw(st.booleans()):
        x, _, _, _, _, inp = draw(general_cases())
        return inp, x[None]
    n = draw(st.sampled_from((5, 300, 4096)))
    inp, x, _, _, _ = general_batch(n, draw(st.integers(0, 2**32 - 1)), standard_bell(), "max-global")
    return inp, x


gbm_bases = st.floats(min_value=0.1, max_value=math.pi / 2 - 0.1).map(
    lambda theta: generalized_bell(math.cos(theta), math.sin(theta)))


# The outcome operators of a basis that differ only by a signed swap of their columns
# share one Gram matrix, whose entries `_gram` adds in swapped order: one bound, bit for
# bit. On Bell that holds for all four; on gbm for outcomes 1 and 4, and for 2 and 3.
@given(general_stacks())
@settings(max_examples=60)
def test_bell_outcomes_share_one_bound_exactly(stack):
    _, x = stack
    k = points(x, standard_bell(), "max-per-outcome").k
    assert np.array_equal(k, np.broadcast_to(k[:, :1], k.shape))


@given(general_stacks(), gbm_bases)
@settings(max_examples=60)
def test_gbm_outcomes_1_4_and_2_3_share_their_bounds_exactly(stack, basis):
    _, x = stack
    k = points(x, basis, "max-per-outcome").k
    assert np.array_equal(k[:, 0], k[:, 3]) and np.array_equal(k[:, 1], k[:, 2])


@given(general_stacks())
@settings(max_examples=60)
def test_bell_max_global_and_max_per_outcome_agree_exactly(stack):
    inp, x = stack
    shared, own = (points(x, standard_bell(), mode) for mode in ("max-global", "max-per-outcome"))
    for kernel in (analytic_batch, simulate_batch):
        for field, a, b in zip(protocol.Batch._fields, kernel(inp, shared), kernel(inp, own)):
            assert np.array_equal(a, b), (kernel.__name__, field)


FIXED_K_POINT_KINDS = ("valid", "not-finite-positive", "tolerated", "beyond", "unentangled")


@st.composite
def fixed_k_batches(draw):
    """A batch of 1 to 6 points and one fixed K per point, each point of a drawn kind:
    a valid K below the largest common bound; K <= 0, nan or +-inf; K at a random
    outcome's bound times 1 + 0.9 or 1 + 2 K_BOUND_RTOL; an unentangled channel,
    with a positive K or one of those not finite and positive. Returns the
    amplitude stack, the basis and the K array."""
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    basis = draw(st.sampled_from([standard_bell(), generalized_bell(0.6, 0.8), generalized_bell(-0.28, 0.96)]))
    kinds = draw(st.lists(st.sampled_from(FIXED_K_POINT_KINDS), min_size=1, max_size=6))
    x, k = [], []
    for kind in kinds:
        if kind == "unentangled":
            u, v = random_unitary(gen)[:, 0], random_unitary(gen)[:, 0]
            x.append(np.outer(u, v))
            k.append(draw(st.sampled_from([0.5, 1.0, 3.0, 0.0, -1.0, math.nan, math.inf])))
            continue
        t = draw(st.floats(min_value=0.05, max_value=math.pi / 4))
        x.append(random_unitary(gen) @ np.diag([math.cos(t), math.sin(t)]) @ random_unitary(gen).T)
        bounds = points(x[-1][None], basis, "max-per-outcome").k[0]
        if kind == "valid":
            k.append(draw(st.floats(min_value=0.05, max_value=1.0)) * bounds.min())
        elif kind == "not-finite-positive":
            k.append(draw(st.sampled_from([0.0, -0.0, -1.0, -1e-300, math.nan, math.inf, -math.inf])))
        else:
            rtol = (0.9 if kind == "tolerated" else 2.0) * protocol.K_BOUND_RTOL
            k.append(bounds[draw(st.integers(min_value=0, max_value=3))] * (1.0 + rtol))
    return np.array(x), basis, np.array(k)


@given(fixed_k_batches())
@settings(max_examples=200)
def test_a_fixed_k_batch_raises_for_its_first_failing_point_or_runs_at_that_k(case):
    # per point, in order: a K that is not finite and positive, an unentangled
    # channel, then the first outcome whose bound (times 1 + K_BOUND_RTOL) K exceeds
    x, basis, k = case
    expected = None
    for i in range(len(k)):
        if not (math.isfinite(k[i]) and k[i] > 0.0):
            expected = KOutOfRangeError, f"K must be a finite positive number, got {float(k[i])!r}"
        elif 2.0 * abs(x[i, 0, 0] * x[i, 1, 1] - x[i, 0, 1] * x[i, 1, 0]) <= 1e-9:
            expected = UnteleportableChannelError, "channel carries no entanglement; nothing can be teleported"
        else:
            bounds = points(x[i][None], basis, "max-per-outcome").k[0]
            over = [lam0 for lam0 in range(4) if k[i] > bounds[lam0] * (1.0 + protocol.K_BOUND_RTOL)]
            if over:
                expected = KOutOfRangeError, (
                    f"K={float(k[i])!r} exceeds the bound {float(bounds[over[0]])!r} of outcome {over[0] + 1}"
                )
        if expected:
            break
    if expected:
        with pytest.raises(expected[0]) as info:
            points(x, basis, "fixed", k)
        assert type(info.value) is expected[0] and str(info.value) == expected[1]
    else:
        pts = points(x, basis, "fixed", k)
        assert pts.k.dtype == np.float64 and pts.k.tobytes() == np.repeat(k, 4).tobytes()


def test_gbm_max_per_outcome_total_closed_form_example():
    # diag(.8, .6) with gbm(.9, sqrt(.19)): 2 [min(.72, .6 sqrt .19)^2 + min(.8 sqrt .19, .54)^2]
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    basis = generalized_bell(0.9, math.sqrt(0.19))
    total = analytic_report(PureInputState(H, H), ch, basis, KPolicy.max_per_outcome()).total
    assert total == pytest.approx(0.38, abs=1e-12)


@given(
    st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05),
    st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05),
    phase,
    phase,
)
@settings(max_examples=200)
def test_gbm_max_per_outcome_total_without_ordering_assumptions(t, t_p, phase_a, phase_b):
    # each outcome runs at its own bound, whatever the orderings of |a|, |b|, a', b'
    a, b = math.cos(t) * cmath.exp(1j * phase_a), math.sin(t) * cmath.exp(1j * phase_b)
    ap, bp = math.cos(t_p), math.sin(t_p)
    expected = 2.0 * (min(abs(a * ap), abs(b * bp)) ** 2 + min(abs(a * bp), abs(b * ap)) ** 2)
    # the one-line form: a plateau at 2 lambda_min^2 while b' lies between |b| and |a|
    one_line = 2.0 * min(abs(a), abs(b), ap, bp) ** 2
    for kernel in (analytic_batch, simulate_batch):
        pts = points(diag_stack([a], [b]), generalized_bell(ap, bp), "max-per-outcome")
        total = kernel(PureInputState(H, H), pts).total[0]
        assert total == pytest.approx(expected, abs=1e-12)
        assert total == pytest.approx(one_line, abs=1e-12)


def test_maximally_entangled_channels_are_perfect_and_run_at_total_one():
    for _ in range(50):
        x = random_unitary(rng) / math.sqrt(2.0)
        ch = _channel(x)
        assert classify(ch) is ChannelClass.PERFECT
        for report in (analytic_report, simulate_report):
            rep = report(random_input(), ch, standard_bell(), KPolicy.max_global())
            assert rep.total == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------ point memo

POINT_MEMO = protocol._report_points


def _direct_reports(inp, ch, basis, policy):
    """Both reports from points resolved afresh, without the memo."""
    return tuple(
        protocol._report(kernel(inp, points(channel_stack(ch), basis, policy.mode, policy.k)))
        for kernel in (analytic_batch, simulate_batch)
    )


def _count_point_resolutions(monkeypatch):
    calls = []
    original = protocol._points

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(protocol, "_points", counting)
    return calls


@given(general_cases(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100)
def test_reports_through_the_memo_equal_the_kernels_on_fresh_points(case, seed):
    x, _, drawn_basis, mode, k, inp = case
    ch = _channel(x)
    # the drawn point, then other keys of the same channel, which must not
    # read its point
    keys = [(drawn_basis, KPolicy(mode, k))]
    for basis in (drawn_basis, standard_bell()):
        half = 0.5 * points(channel_stack(ch), basis, "max-global").k[0, 0]
        keys += [(basis, policy) for policy in (KPolicy.max_global(), KPolicy.max_per_outcome(),
                                                KPolicy.fixed(half))]
    fresh = []  # each key's sample from its own point, resolved into an empty memo
    for basis, policy in keys:
        POINT_MEMO.cache_clear()
        fresh.append(monte_carlo(inp, ch, basis, policy, 1000, seed))
    POINT_MEMO.cache_clear()
    for (basis, policy), mc in zip(keys, fresh):
        ana, sim = _direct_reports(inp, ch, basis, policy)
        for _ in range(2):  # a miss, then hits
            assert analytic_report(inp, ch, basis, policy) == ana
            assert simulate_report(inp, ch, basis, policy) == sim
        assert monte_carlo(inp, ch, basis, policy, 1000, seed) == mc


def _signed_zero_variants(amplitudes):
    """The channels with these amplitudes and every sign of their zero parts."""
    parts = [p for z in map(complex, amplitudes) for p in (z.real, z.imag)]
    for signed in itertools.product(*((p,) if p else (0.0, -0.0) for p in parts)):
        yield TwoQubitChannel(*map(complex, signed[0::2], signed[1::2]))


@pytest.mark.parametrize(
    "amplitudes", [(0.8, 0.0, 0.0, 0.6), (0.6, 0.0, 0.0, 0.8j), (0.5, 0.5j, -0.5, 0.5)]
)
def test_channels_equal_up_to_signed_zeros_give_identical_reports(amplitudes):
    inp = PureInputState(0.6, 0.8j)
    variants = list(_signed_zero_variants(amplitudes))
    assert len(set(variants)) == 1 and len(variants) > 1
    for basis in (standard_bell(), generalized_bell(0.6, 0.8)):
        for policy in (KPolicy.fixed(0.5), KPolicy.max_global(), KPolicy.max_per_outcome()):
            for first in (variants[0], variants[-1]):
                POINT_MEMO.cache_clear()
                analytic_report(inp, first, basis, policy)  # memoizes first's point
                for ch in variants:
                    memo = tuple(report(inp, ch, basis, policy)
                                 for report in (analytic_report, simulate_report))
                    assert repr(memo) == repr(_direct_reports(inp, ch, basis, policy))


def test_memoized_points_are_read_only():
    pts = POINT_MEMO(TwoQubitChannel(0.6, 0.0, 0.0, 0.8), standard_bell(), "max-global", None)
    for name in ("x", "tau", "k"):
        array = getattr(pts, name)
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


@pytest.mark.parametrize(
    "ch, basis, policy, error",
    [
        (TwoQubitChannel.diagonal(0.8, 0.6), standard_bell(), KPolicy.fixed(2.0),
         KOutOfRangeError),
        (TwoQubitChannel.diagonal(1.0, 0.0), standard_bell(), KPolicy.max_global(),
         UnteleportableChannelError),
    ],
)
def test_a_refused_point_raises_on_every_call(ch, basis, policy, error):
    inp = PureInputState(1.0, 0.0)
    messages = []
    for report in (analytic_report, simulate_report, analytic_report):
        with pytest.raises(error) as info:
            report(inp, ch, basis, policy)
        assert type(info.value) is error
        messages.append(str(info.value))
    assert len(set(messages)) == 1
    assert POINT_MEMO.cache_info().currsize == 0


def test_the_memo_recomputes_its_oldest_point_after_maxsize_others(monkeypatch):
    calls = _count_point_resolutions(monkeypatch)
    maxsize = POINT_MEMO.cache_info().maxsize
    basis = standard_bell()
    channels = [TwoQubitChannel.diagonal(math.cos(t), math.sin(t))
                for t in np.linspace(0.1, 0.7, maxsize + 1).tolist()]
    inp, policy = PureInputState(1.0, 0.0), KPolicy.max_per_outcome()
    for ch in channels:
        analytic_report(inp, ch, basis, policy)
    assert len(calls) == maxsize + 1
    simulate_report(inp, channels[-1], basis, policy)  # the newest point is still there
    assert len(calls) == maxsize + 1
    analytic_report(inp, channels[0], basis, policy)  # the oldest was dropped
    assert len(calls) == maxsize + 2


def test_a_report_pair_resolves_its_point_once(monkeypatch):
    calls = _count_point_resolutions(monkeypatch)
    args = PureInputState(0.6, 0.8), TwoQubitChannel.diagonal(0.8, 0.6), generalized_bell(0.6, 0.8)
    for policy in (KPolicy.fixed(1.0), KPolicy.max_global(), KPolicy.max_per_outcome()):
        calls.clear()
        analytic_report(*args, policy)
        simulate_report(*args, policy)
        monte_carlo(*args, policy, 1000, 5)
        assert len(calls) == 1


def test_a_k_policy_is_checked_once_where_it_enters(monkeypatch):
    # by the KPolicy for the reports, which hand its mode and K on unchecked; by points for a batch
    calls = []
    original = protocol._check_mode
    monkeypatch.setattr(protocol, "_check_mode", lambda *args: calls.append(args) or original(*args))
    POINT_MEMO.cache_clear()
    inp, ch, basis = PureInputState(0.6, 0.8), TwoQubitChannel.diagonal(0.8, 0.6), standard_bell()
    policy = KPolicy.fixed(0.5)
    analytic_report(inp, ch, basis, policy)
    simulate_report(inp, ch, basis, policy)
    assert calls == [("fixed", 0.5)]
    calls.clear()
    points(channel_stack(ch), basis, "fixed", 0.5)
    assert calls == [("fixed", 0.5)]


def test_a_report_pair_on_bases_named_twice_resolves_its_point_once():
    # each call names the basis afresh, as a caller that does not keep one would
    inp, ch, policy = PureInputState(0.6, 0.8), TwoQubitChannel.diagonal(0.8, 0.6), KPolicy.max_global()
    for basis in (standard_bell, lambda: generalized_bell(0.6, 0.8), lambda: parse_basis("gbm:0.6,0.8")):
        POINT_MEMO.cache_clear()
        analytic_report(inp, ch, basis(), policy)
        simulate_report(inp, ch, basis(), policy)
        info = POINT_MEMO.cache_info()
        assert (info.hits, info.misses) == (1, 1)


@pytest.mark.parametrize("first", [analytic_report, simulate_report])
def test_equal_bases_built_apart_share_one_point(first):
    # the memo keys a basis by its value, however each was built
    inp, ch, policy = PureInputState(0.6, 0.8), TwoQubitChannel.diagonal(0.8, 0.6), KPolicy.max_global()
    second = simulate_report if first is analytic_report else analytic_report
    first(inp, ch, TwoQubitBasis("gbm", 0.6, 0.8), policy)
    second(inp, ch, generalized_bell(0.6 + 0j, np.float64(0.8)), policy)
    info = POINT_MEMO.cache_info()
    assert (info.hits, info.misses) == (1, 1)


# --------------------------------------------------------- report types

_OUTCOME = OutcomeReport(2, 1.25, 0.375, 0.5, 0.1875, 1.0)

REPORT_TYPES = [
    pytest.param(
        OutcomeReport,
        (2, 1.25, 0.375, 0.5, 0.1875, 1.0),
        "OutcomeReport(lam=2, k_used=1.25, p_alice=0.375, p_bob=0.5, p_joint=0.1875, fidelity=1.0)",
        id="outcome",
    ),
    pytest.param(
        ProtocolReport,
        ((_OUTCOME,), 0.1875),
        f"ProtocolReport(outcomes=({_OUTCOME!r},), total=0.1875)",
        id="protocol",
    ),
    pytest.param(
        MonteCarloReport,
        (1000, 7, (250, 250, 250, 250), (60, 0, 125, 250), 0.435, 0.015676),
        "MonteCarloReport(trials=1000, seed=7, outcome_counts=(250, 250, 250, 250), "
        "success_counts=(60, 0, 125, 250), p_hat=0.435, std_err=0.015676, "
        "sampler='multinomial-binomial')",
        id="montecarlo",
    ),
]


@pytest.mark.parametrize("cls, values, text", REPORT_TYPES)
def test_report_types_are_frozen_value_objects(cls, values, text):
    names = [f.name for f in dataclasses.fields(cls)]
    rep = cls(*values)
    assert list(inspect.signature(cls).parameters) == names
    assert repr(rep) == text
    assert [getattr(rep, name) for name in names][:len(values)] == list(values)
    assert set(vars(rep)) == set(names)
    for twin in (cls(*values), cls(**dict(zip(names, values))), copy.deepcopy(rep)):
        assert twin == rep and hash(twin) == hash(rep) and twin is not rep
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(rep, names[1], values[1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(rep, names[0])
    changed = dataclasses.replace(rep, **{names[1]: values[0]})
    assert getattr(changed, names[1]) == values[0] and changed != rep
    assert dataclasses.replace(changed, **{names[1]: values[1]}) == rep
    assert repr(rep) == text  # replace made copies
    with pytest.raises(TypeError):
        cls(values[0])  # every field but the sampler is required


@pytest.mark.parametrize(
    "ch, basis, policy",
    [
        (TwoQubitChannel.diagonal(0.8, 0.6), standard_bell(), KPolicy.max_global()),
        (TwoQubitChannel.diagonal(0.6 + 0.48j, 0.64), generalized_bell(0.28, 0.96), KPolicy.max_per_outcome()),
        (TwoQubitChannel(0.5, 0.5j, -0.1, 0.7), generalized_bell(0.6, 0.8), KPolicy.fixed(0.5)),
    ],
)
def test_reports_hold_python_numbers(ch, basis, policy):
    # np.float64 subclasses float, so only the exact type shows a numpy scalar
    # that would print as np.float64(...) in a repr
    inp = PureInputState(0.6, 0.8j)
    for rep in (analytic_report(inp, ch, basis, policy), simulate_report(inp, ch, basis, policy)):
        assert type(rep.total) is float
        assert [type(o.lam) for o in rep.outcomes] == [int] * 4
        assert {type(getattr(o, name)) for o in rep.outcomes
                for name in ("k_used", "p_alice", "p_bob", "p_joint", "fidelity")} == {float}
        assert "np." not in repr(rep)
    mc = monte_carlo(inp, ch, basis, policy, 1000, 3)
    assert [type(n) for n in (mc.trials, mc.seed, *mc.outcome_counts, *mc.success_counts)] == [int] * 10
    assert (type(mc.p_hat), type(mc.std_err)) == (float, float)
    assert "np." not in repr(mc)


@pytest.mark.parametrize("n", [1, 5])
def test_analytic_fidelity_is_float64_ones_per_point_and_outcome(n):
    pts = points(np.repeat(diag_stack(0.8, 0.6j)[None], n, axis=0), generalized_bell(0.6, 0.8),
                 "max-per-outcome")
    fidelity = analytic_batch(PureInputState(0.6, 0.8j), pts).fidelity
    assert fidelity.dtype == np.float64 and fidelity.shape == (n, 4)
    assert (fidelity == 1.0).all()
