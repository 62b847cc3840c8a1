"""The b axis against a 50-digit reference.

Near the refusal edge of the b axis the totals are tiny: 5.2e-19 at
b = 5.1e-10, where an absolute bound of 1e-12 checks nothing. The
reference functions below compute the closed forms in 50 digits with
mpmath, from the doubles the package starts from, a = sqrt(fmax(0, 1 - b*b))
and b, and use nothing from telematch. The tests bound each total's
relative error.
"""

import math

import mpmath
import numpy as np
import pytest

from telematch.channel import PureInputState
from telematch.measurement import generalized_bell, standard_bell
from telematch.protocol import (
    analytic_batch,
    b_axis_channels,
    fig1_columns,
    points,
    simulate_batch,
)

# Largest relative error allowed against the reference, 1.8e-15: about twice
# the worst seen, 7.3e-16 on these grids and 8.3e-16 on 8000 random b of the
# same range with six random gbm bases, both kernels and fig1_columns.
REL_BOUND = 2.0**-49

# Smallest |b| the b axis accepts: the concurrence 2|ab| must exceed 1e-9.
B_EDGE = 5.1e-10


def bell_totals(a: float, b: float):
    """Bell-basis totals of a|00> + b|11>, 50 digits: 2 min(|a|, |b|)^2 with
    each outcome at its own maximal K, and 2 a^2 b^2 at K = 1."""
    with mpmath.workdps(50):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        return 2 * min(abs(a), abs(b)) ** 2, 2 * a**2 * b**2


def gbm_total(a: float, b: float, a_p: float, b_p: float):
    """Total of a|00> + b|11> measured in gbm(a', b'), each outcome at its own
    maximal K, 50 digits: 2 min(|a|, |b|, |a'|, |b'|)^2."""
    with mpmath.workdps(50):
        return 2 * min(abs(mpmath.mpf(v)) for v in (a, b, a_p, b_p)) ** 2


def max_rel_error(got, want) -> float:
    """Largest |got - want| / want over two sequences, got in doubles."""
    with mpmath.workdps(50):
        return float(max(abs(mpmath.mpf(g) - w) / w for g, w in zip(np.asarray(got).tolist(), want)))


def grid_doubles():
    """b of both signs, log-spaced from B_EDGE to 1e-2 and then linear to
    1 - 1e-6, with the a the package derives from it, in doubles."""
    b = np.concatenate([np.geomspace(B_EDGE, 1e-2, 300), np.linspace(1e-2, 1 - 1e-6, 300)])
    b = np.concatenate([b, -b])
    return np.sqrt(np.fmax(0.0, 1.0 - b * b)), b


def test_the_grid_reaches_the_edge_of_the_b_axis():
    a, b = grid_doubles()
    assert np.min(np.abs(b)) == B_EDGE
    assert float(bell_totals(a[0], b[0])[0]) == pytest.approx(2 * B_EDGE**2, rel=1e-15)


def test_fig1_columns_match_the_reference():
    a, b = grid_doubles()
    opt, k1 = zip(*map(bell_totals, a.tolist(), b.tolist()))
    _, p_opt, p_k1, p_ksqrt2 = fig1_columns(b)
    assert max_rel_error(p_opt, opt) <= REL_BOUND
    assert max_rel_error(p_k1, k1) <= REL_BOUND
    assert max_rel_error(p_ksqrt2, [2 * v for v in k1]) <= REL_BOUND


@pytest.mark.parametrize("kernel", [analytic_batch, simulate_batch])
@pytest.mark.parametrize(
    "mode, k, column",
    [("max-per-outcome", None, 0), ("max-global", None, 0), ("fixed", 1.0, 1)],
)
def test_bell_totals_of_both_kernels_match_the_reference(kernel, mode, k, column):
    a, b = grid_doubles()
    want = [totals[column] for totals in map(bell_totals, a.tolist(), b.tolist())]
    pts = points(b_axis_channels(b), standard_bell(), mode, k)
    assert max_rel_error(kernel(PureInputState(0.6, 0.8j), pts).total, want) <= REL_BOUND


@pytest.mark.parametrize("kernel", [analytic_batch, simulate_batch])
@pytest.mark.parametrize(
    "a_p, b_p",
    [(0.6, 0.8), (-0.28, 0.96), (0.96, -0.28), (2e-9, math.sqrt(1 - 4e-18)), (2**-0.5, -(2**-0.5))],
)
def test_gbm_totals_of_both_kernels_match_the_reference(kernel, a_p, b_p):
    # a' = 2e-9 sits just above DEGENERATE_TOL: the plateau at 8e-18
    a, b = grid_doubles()
    basis = generalized_bell(a_p, b_p)
    want = [gbm_total(x, y, basis.a_p, basis.b_p) for x, y in zip(a.tolist(), b.tolist())]
    pts = points(b_axis_channels(b), basis, "max-per-outcome")
    assert max_rel_error(kernel(PureInputState(0.6, 0.8j), pts).total, want) <= REL_BOUND
