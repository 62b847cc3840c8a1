"""The algebra the kernels' shortcuts rest on, proved with sympy.

The hypothesis properties sample these identities in floating point, to a
tolerance; here they are proved over symbols. The outcome operators are built
as `test_measurement.reference_sigma` builds them, sigma_lam = X @ B_lam with
B_lam[j, i] = sqrt(2) conj(T[lam-1, 2i + j]), and tau_lam = sigma_lam / (2 pref),
but over symbols: the channel's four amplitudes are x_jk = re_jk + i im_jk with
eight real symbols, a gbm basis has positive coefficients a' and b', and Bell's
are an exact 1/sqrt(2). Each symbolic matrix takes its layout from the package's
own `t_matrix` and `cpm`, so a change to either shows here.
"""

import math

import numpy as np
import pytest
import sympy as sp

from telematch import protocol
from telematch.channel import TwoQubitChannel, cpm
from telematch.measurement import generalized_bell, standard_bell

NAMES = ("x00", "x01", "x10", "x11")
AMPLITUDES = {
    name: sp.Symbol(f"re_{name}", real=True) + sp.I * sp.Symbol(f"im_{name}", real=True)
    for name in NAMES
}
A_P, B_P = sp.symbols("a_p b_p", positive=True)
DET_X = AMPLITUDES["x00"] * AMPLITUDES["x11"] - AMPLITUDES["x01"] * AMPLITUDES["x10"]

# The coefficients of the gbm basis in BASES, exact: its constants are checked there.
GBM_POINT = {A_P: sp.Rational(3, 5), B_P: sp.Rational(4, 5)}

# Signs of det tau_lam / (c_B det x) over lam = 1..4.
DET_SIGNS = (1, -1, -1, 1)


def symbolic_cpm():
    """cpm's layout over the amplitude symbols: each entry of cpm at a channel of
    four distinct amplitudes is matched to the amplitude it is sqrt(2) times."""
    probe = TwoQubitChannel(*(np.array([1.0, 2.0j, 3.0, 4.0j]) / math.sqrt(30.0)))
    amplitudes = dict(zip(NAMES, probe.vector()))

    def entry(value):
        [name] = [n for n, a in amplitudes.items() if np.isclose(value, math.sqrt(2.0) * a)]
        return sp.sqrt(2) * AMPLITUDES[name]

    return sp.Matrix(2, 2, [entry(v) for v in cpm(probe).reshape(-1)])


def symbolic_t(basis, values):
    """basis.t_matrix with each non-zero entry replaced, sign kept, by the exact
    value of its modulus in values (a float modulus -> a sympy expression)."""

    def entry(v):
        if v == 0.0:
            return sp.Integer(0)
        [exact] = [e for m, e in values.items() if abs(v) == m]
        return sp.sign(v) * exact

    return sp.Matrix(4, 4, [entry(v) for v in basis.t_matrix.reshape(-1)])


def outcome_operators(t, pref):
    """tau_lam = X @ B_lam / (2 pref) for lam = 1..4, as `reference_sigma` builds sigma_lam."""
    x = symbolic_cpm()
    taus = []
    for lam0 in range(4):
        b = sp.Matrix(2, 2, lambda j, i: sp.sqrt(2) * sp.conjugate(t[lam0, 2 * i + j]))
        taus.append(x * b / (2 * pref))
    return taus


H = 1.0 / math.sqrt(2.0)
BASES = {
    # kind: (basis, its t_matrix over symbols, pref, c_B)
    "bell": (standard_bell(), symbolic_t(standard_bell(), {H: 1 / sp.sqrt(2)}), 1 / sp.sqrt(2),
             sp.Integer(1)),
    "gbm": (generalized_bell(0.6, 0.8), symbolic_t(generalized_bell(0.6, 0.8), {0.6: A_P, 0.8: B_P}),
            sp.Integer(1), A_P * B_P),
}
# Outcomes, counted from 1, that share one Gram trace and determinant, so one K bound.
SHARED_BOUNDS = {"bell": [(1, 2, 3, 4)], "gbm": [(1, 4), (2, 3)]}


def is_zero(expr):
    return sp.expand(expr) == 0


@pytest.fixture(scope="module", params=BASES)
def operators(request):
    basis, t, pref, c_b = BASES[request.param]
    return request.param, basis, pref, c_b, outcome_operators(t, pref)


def test_det_tau_is_a_signed_c_b_times_det_x(operators):
    # |det tau_lam| = c_B |det x| on every outcome: Points.det, one determinant per point
    kind, _, _, c_b, taus = operators
    for lam, (tau, sign) in enumerate(zip(taus, DET_SIGNS), 1):
        assert is_zero(tau.det() - sign * c_b * DET_X), (kind, lam)


def test_the_flipped_signed_transpose_is_the_adjugate(operators):
    # M_lam @ tau_lam = K det(tau_lam) I, on which fidelity 1 rests; the filters
    # take adj(t) as the flipped transpose [[t11, t01], [t10, t00]] times the signs
    kind, _, _, _, taus = operators
    signs = protocol._ADJUGATE_SIGNS.reshape(2, 2)
    for lam, tau in enumerate(taus, 1):
        adj = sp.Matrix(2, 2, lambda i, j: int(signs[i, j]) * tau[1 - j, 1 - i])
        assert all(is_zero(e) for e in adj * tau - tau.det() * sp.eye(2)), (kind, lam)


def test_outcomes_that_share_a_k_bound_share_their_gram_trace_and_determinant(operators):
    # s_max(tau) depends on tau tau^dag's trace and determinant alone
    kind, _, _, _, taus = operators
    grams = [tau * tau.H for tau in taus]
    for group in SHARED_BOUNDS[kind]:
        first, *rest = (grams[lam - 1] for lam in group)
        for lam, gram in zip(group[1:], rest):
            assert is_zero(gram.trace() - first.trace()), (kind, group[0], lam)
            assert is_zero(gram.det() - first.det()), (kind, group[0], lam)


def test_the_basis_constants_are_the_proved_factors(operators):
    # the basis's c_b and pref2 are the factors the identities above were proved with
    kind, basis, pref, c_b, _ = operators
    assert basis.pref2 == float(pref**2), kind
    assert basis.c_b == pytest.approx(float(c_b.subs(GBM_POINT)), rel=1e-15, abs=0), kind
