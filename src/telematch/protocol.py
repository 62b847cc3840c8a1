"""Probabilistic teleportation through a partially entangled channel.

Outcome lam of the sender's measurement leaves the receiver with
pref * tau_lam @ (alpha, beta), tau_lam the outcome operator of the
channel and basis (see `measurement`). The receiver applies the unitary
dilation [[M, sqrt(I - M M^dag)], [sqrt(I - M^dag M), -M^dag]] of the
filter M_lam = K * adj(tau_lam) to (receiver, ancilla |0>), ancilla most
significant, for 0 < K <= 1/s_max(tau_lam). As M_lam @ tau_lam =
K * det(tau_lam) * I, the ancilla read in |0> heralds the input state
itself: outcome lam occurs with p_alice = pref^2 |tau_lam (alpha, beta)|^2
and succeeds with p_joint = pref^2 (K |det tau_lam|)^2 = pref^2 (K c_B C / 2)^2
for any input, C the channel's concurrence and c_B a constant of the basis.

Two kernels do the work, each over a batch of N points (channel
amplitudes and K per outcome) that share one input state and one
basis: `analytic_batch` evaluates the closed forms, `simulate_batch`
evolves the three-qubit state vector: it projects every point by one
2-D product and applies only the block M_lam of each dilation, the
part that maps ancilla |0> to |0> and the only one any reported number
reads (`matched_unitary` alone builds the whole dilation, in closed
form for a diagonal pair). `points` validates a batch and resolves K
once; the report functions call the kernels, a single report being the
N=1 case, and `monte_carlo` draws from the analytic kernel's two closed
forms alone (`_probabilities`). The scalar functions read their point
through a small memo (`_report_points`), so an analytic and a simulated
report on one point validate it once.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import (
    NORMALIZATION_TOL,
    PureInputState,
    TwoQubitChannel,
    UnteleportableChannelError,
    _abs_det,
    _amplitude,
    _gram,
    _number,
)
from .measurement import TwoQubitBasis, _squared_moduli, project_all

# Accept K at the matching bound despite last-ulp roundoff, while still
# rejecting anything meaningfully above it.
K_BOUND_RTOL = 1e-12

K_POLICY_MODES = ("fixed", "max-global", "max-per-outcome")
_K_NOT_REAL = "K must be a real number"

# Most trials monte_carlo takes: numpy draws the counts as int64.
MAX_TRIALS = 2**63 - 1

# Signs that turn the flipped transpose [[t11, t01], [t10, t00]] into adj(t), in
# their broadcast shape over the (outcome, point) axes of a transposed tau.
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]]).reshape(2, 2, 1, 1)

# Smallest normal double: keeps 1/sqrt(w) finite where a weight w is 0.
_TINY = np.finfo(float).tiny


class KOutOfRangeError(ValueError):
    """Raised when K violates an outcome's matching bound."""


def _check_mode(mode: str, k) -> None:
    """Refuse an unknown K policy mode, 'fixed' without a K, and a K for a max mode."""
    if mode not in K_POLICY_MODES:
        raise ValueError(f"unknown K policy mode {mode!r}")
    if mode == "fixed" and k is None:
        raise ValueError("fixed K policy needs a value")
    if mode != "fixed" and k is not None:
        raise ValueError(f"policy {mode!r} takes no K value")


def _positive_k(k) -> float:
    """K as a float: ValueError if not a real number, KOutOfRangeError if not finite and > 0."""
    k = _number(k, ValueError, _K_NOT_REAL)
    if not math.isfinite(k) or k <= 0.0:
        raise KOutOfRangeError(f"K must be a finite positive number, got {k!r}")
    return k


@dataclass(frozen=True)
class KPolicy:
    """How to choose the matching parameter K.

    mode 'fixed' uses the given k for every outcome (it must respect
    every outcome's bound); 'max-global' uses the largest k valid for
    all outcomes at once; 'max-per-outcome' runs each outcome at its
    own bound.
    """

    mode: str
    k: float | None = None

    def __post_init__(self) -> None:
        _check_mode(self.mode, self.k)
        if self.mode == "fixed":
            object.__setattr__(self, "k", _positive_k(self.k))

    @classmethod
    def fixed(cls, k: float) -> "KPolicy":
        return cls("fixed", k)

    @classmethod
    def max_global(cls) -> "KPolicy":
        return cls("max-global")

    @classmethod
    def max_per_outcome(cls) -> "KPolicy":
        return cls("max-per-outcome")

    @classmethod
    def parse(cls, text: str) -> "KPolicy":
        """Parse 'max', 'per-outcome', or a positive number."""
        s = text.strip().lower()
        if s in ("max", "max-global"):
            return cls.max_global()
        if s in ("per-outcome", "max-per-outcome"):
            return cls.max_per_outcome()
        try:
            k = float(s)
        except ValueError:
            raise ValueError(
                f"bad K literal {text!r} (want a number, 'max', or 'per-outcome')"
            ) from None
        return cls.fixed(k)


# The three report types below write their fields straight into __dict__: the
# generated __init__ of a frozen dataclass calls object.__setattr__ once per
# field, which took most of the time of building a report. Their eq, hash, repr
# and frozenness stay the generated ones, and replace calls this __init__.


@dataclass(frozen=True, init=False)
class OutcomeReport:
    """Per-outcome numbers for one run of the protocol."""

    lam: int
    k_used: float
    p_alice: float
    p_bob: float
    p_joint: float
    fidelity: float

    def __init__(self, lam, k_used, p_alice, p_bob, p_joint, fidelity):
        fields = self.__dict__
        fields["lam"] = lam
        fields["k_used"] = k_used
        fields["p_alice"] = p_alice
        fields["p_bob"] = p_bob
        fields["p_joint"] = p_joint
        fields["fidelity"] = fidelity


@dataclass(frozen=True, init=False)
class ProtocolReport:
    outcomes: tuple[OutcomeReport, ...]
    total: float

    def __init__(self, outcomes, total):
        fields = self.__dict__
        fields["outcomes"] = outcomes
        fields["total"] = total


@dataclass(frozen=True, init=False)
class MonteCarloReport:
    trials: int
    seed: int
    outcome_counts: tuple[int, int, int, int]
    success_counts: tuple[int, int, int, int]
    p_hat: float
    std_err: float
    sampler: str = "multinomial-binomial"

    def __init__(self, trials, seed, outcome_counts, success_counts, p_hat, std_err,
                 sampler="multinomial-binomial"):
        fields = self.__dict__
        fields["trials"] = trials
        fields["seed"] = seed
        fields["outcome_counts"] = outcome_counts
        fields["success_counts"] = success_counts
        fields["p_hat"] = p_hat
        fields["std_err"] = std_err
        fields["sampler"] = sampler


class Points(NamedTuple):
    """A validated batch of N protocol points that share one basis.

    x holds the (N, 2, 2) channel amplitudes x[n, j, k] = x_jk; tau the (N, 4, 2, 2)
    outcome operators of each point; k the (N, 4) K each outcome runs at; det the
    (N, 1) float64 column basis.c_b |det x|, |det tau_lam| on every outcome. x and tau
    are float64 for a real stack, bit for bit equal to the complex128 arrays of the
    same stack taken as complex, and complex128 otherwise.
    """

    basis: TwoQubitBasis
    x: np.ndarray
    tau: np.ndarray
    k: np.ndarray
    det: np.ndarray


class Batch(NamedTuple):
    """Kernel results: (N, 4) arrays per outcome and (N,) totals."""

    k_used: np.ndarray
    p_alice: np.ndarray
    p_bob: np.ndarray
    p_joint: np.ndarray
    fidelity: np.ndarray
    total: np.ndarray


def _k_bounds(tau: np.ndarray) -> np.ndarray:
    """Largest valid K, 1/s_max, per operator over the last two axes.

    s_max^2 is the larger eigenvalue of tau tau^dag = [[p, r], [r*, q]],
    max(p, q) + (sqrt(h^2 + |r|^2) - h) with h = |p - q| / 2: exactly
    max(p, q) when r = 0, as on every diagonal channel on Bell or gbm, where
    the correction is not computed. inf for 0; the caller sets np.errstate.
    """
    p, q, r = _gram(tau)
    if not np.count_nonzero(r):
        return 1.0 / np.sqrt(np.maximum(p, q))
    h = 0.5 * np.abs(p - q)
    return 1.0 / np.sqrt(np.maximum(p, q) + (np.sqrt(h * h + r * r) - h))


def _filters_transposed(tau: np.ndarray, k) -> np.ndarray:
    """The filters K * adj(tau) = K [[t11, -t01], [-t10, t00]] in the layout of tau.T:
    entry [j, i] is (K adj(tau))[..., i, j], one contiguous block of a Fortran-ordered
    tau and k, over the (N, 4, 2, 2) tau of `Points`."""
    return tau.T[::-1, ::-1].swapaxes(0, 1) * (_ADJUGATE_SIGNS * k.T)


def matched_unitary(c0: complex, c1: complex, k: float) -> np.ndarray:
    """Ancilla-assisted unitary matched to a coefficient pair.

    Acts on (receiver qubit, ancilla) with the ancilla index most
    significant and the ancilla starting in |0>. On the success branch
    it rescales both receiver amplitudes to K*c0*c1; the leftover
    weight moves to the ancilla |1> branch. Requires
    0 < k <= min(1/|c0|, 1/|c1|). It is the dilation of the diagonal
    M = K * adj(diag(c0, c1)) = K * diag(c1, c0), in closed form
    [[M, S], [S, -M^dag]]: S = diag(sqrt(1 - K^2 |c1|^2), sqrt(1 - K^2 |c0|^2)),
    clamped at 0, is both sqrt(I - M M^dag) and sqrt(I - M^dag M).
    c0 and c1 are amplitudes by the rule of `channel._amplitude`.
    """
    k = _positive_k(k)
    c0, c1 = _amplitude(c0, "coefficient c0"), _amplitude(c1, "coefficient c1")
    with np.errstate(divide="ignore"):  # min(1/|c0|, 1/|c1|), inf where both vanish
        bound = float(_k_bounds(np.diag([c0, c1])))
    if k > bound * (1.0 + K_BOUND_RTOL):
        raise KOutOfRangeError(
            f"K={k!r} outside (0, {bound!r}] for coefficients ({complex(c0)!r}, {complex(c1)!r})"
        )
    d = k * np.array([c1, c0], dtype=np.complex128)  # M = K adj(diag(c0, c1)) = diag(d)
    s = np.diag(np.sqrt(np.maximum(0.0, 1.0 - (d * d.conj()).real)))  # sqrt(I - M M^dag)
    m = np.diag(d)
    return np.block([[m, s], [s, -m.conj()]])


def _success_weight(amplitudes: np.ndarray) -> np.ndarray:
    """|a0|^2 + |a1|^2 over the first axis: re^2 + im^2 in float64, as
    `project_all` squares, and one IEEE addition, which does not depend on
    the order of the two heralded amplitudes."""
    w = _squared_moduli(amplitudes)
    return w[0] + w[1]


def points(x, basis: TwoQubitBasis, mode: str, k=None) -> Points:
    """Validate a batch of pure channels and resolve K.

    x is an (N, 2, 2) stack of amplitudes x[n, j, k] = x_jk, j the
    sender's qubit, of a bool, int, float or complex dtype or else of
    numbers (see `channel._number`); 'fixed' takes k as one real number or
    one per point. Each entry of an x or k that is not an ndarray passes
    that rule before numpy reads it, which would take a bool for 0 or 1.
    Anything else raises ValueError. A real stack is kept in
    float64, and so are its tau, K bounds and filters until the input state
    enters a kernel: bit for bit the numbers of the same stack with zero
    imaginary parts. A complex stack stays complex128. The first failing point
    raises what a single report on it would: ValueError for amplitudes
    that are not a normalized state, KOutOfRangeError for a K that is not
    finite and positive, UnteleportableChannelError for a concurrence
    2|x00 x11 - x01 x10| <= 1e-9, and KOutOfRangeError for a K above some
    outcome's bound. A degenerate basis is refused where it is built.
    """
    given, x = x, _array(x)
    if x.ndim != 3 or x.shape[1:] != (2, 2):
        raise ValueError(f"channel amplitudes must be an (N, 2, 2) stack, got shape {x.shape}")
    x = _number_array(given, x, "biufc", complex,
                 lambda z: _number(z, ValueError, "channel amplitudes must be numbers", real=False))
    x = x.astype(np.float64 if x.dtype.kind in "biuf" else np.complex128, copy=False)
    _check_mode(mode, k)
    if mode == "fixed":
        given, k = k, _array(k)
        if k.shape not in ((), (len(x),)):
            raise ValueError(
                f"fixed K must be one number or one per point, got shape {k.shape} for {len(x)} points"
            )
        k = _number_array(given, k, "iuf", float, lambda z: _number(z, ValueError, _K_NOT_REAL))
    # Every point is computed and checked, invalid ones included, whose
    # arithmetic may overflow or produce nan; only the first failure counts.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        m = np.abs(x.reshape(-1, 4))
        m *= m
        # nan and inf amplitudes fail the comparison too
        unnormalized = ~(np.abs(m[:, 0] + m[:, 1] + m[:, 2] + m[:, 3] - 1.0) <= NORMALIZATION_TOL)
        return _points(x, basis, mode, k, unnormalized)


def _array(v) -> np.ndarray:
    """v as an ndarray; as an array of its entries, of object dtype, where it is ragged,
    so that the shape test or the entry rule of `_number_array` refuses it."""
    try:
        return np.asarray(v)
    except ValueError:
        pass
    try:
        return np.asarray(v, dtype=object)
    except ValueError:  # as for arrays of shapes (2, 2) and (2, 3): one object per outer entry
        return np.fromiter(v, dtype=object, count=len(v))


def _number_array(given, a: np.ndarray, kinds: str, otype: type, rule) -> np.ndarray:
    """a, the `_array` of given, once rule, which raises for what is not a number, has
    passed every entry. Where a is not of a dtype of kinds, rule reads a's entries into
    an otype array. Where given is not an ndarray, rule checks given's own entries: numpy
    reads a bool in a list as 0 or 1."""
    if a.dtype.kind not in kinds:
        return np.vectorize(rule, otypes=[otype])(a)
    if not isinstance(given, np.ndarray):
        for z in np.asarray(given, dtype=object).flat:
            rule(z)
    return a


def _points(x: np.ndarray, basis: TwoQubitBasis, mode: str, k, unnormalized=None) -> Points:
    """`points` past its checks: resolve a checked mode and a real K, one or one per
    point, on an (N, 2, 2) stack. unnormalized flags the points that failed the
    normalization check, None for amplitudes known to be finite and normalized."""
    n = x.shape[0]
    # tau[n, lam, k, i] = sum_j G_lam[j, i] x[n, j, k] by one 2-D product; tau
    # is Fortran-ordered, so each entry tau[..., k, i] is one (N, 4) block.
    # A real stack stays real: each entry is one product c x, which
    # complex arithmetic with zero imaginary parts rounds alike.
    tau = (basis.blocks @ x.reshape(n, 4).T).reshape(2, 2, 4, n).T
    bounds = _k_bounds(tau)
    det = _abs_det(x)
    unentangled = 2.0 * det <= NORMALIZATION_TOL  # the concurrence, as `classify` tests it
    fails = unentangled if unnormalized is None else unentangled | unnormalized
    if mode == "fixed":
        ks = np.empty_like(bounds)
        ks.T[:] = k  # a float or one K per point, broadcast over the outcomes
        # K that is not positive, nan, or above some outcome's bound
        fits = (ks > 0.0) & (ks <= bounds * (1.0 + K_BOUND_RTOL))
        if np.count_nonzero(fits) != fits.size:  # reduce per point only if some K fails
            fails = fails | ~np.logical_and.reduce(fits, axis=1)
    elif mode == "max-global":
        ks = np.empty_like(bounds)
        ks[:] = np.minimum.reduce(bounds, axis=1)[:, None]
    else:
        ks = bounds
    # np.count_nonzero: at N=1 ndarray.any costs more than the empty loop it skips
    if np.count_nonzero(fails):
        for i in fails.nonzero()[0]:
            if unnormalized is not None and unnormalized[i]:
                # raises its own error, unless its scalar moduli, which may
                # differ from numpy's in the last bit, pass the tolerance
                TwoQubitChannel(*x[i].ravel().tolist())
            if mode == "fixed":
                _positive_k(float(ks[i, 0]))  # raises for a K that is not finite and positive
            if unentangled[i]:
                raise UnteleportableChannelError(
                    "channel carries no entanglement; nothing can be teleported"
                )
            if mode == "fixed" and not fits[i].all():
                lam0 = int(fits[i].argmin())
                raise KOutOfRangeError(
                    f"K={float(ks[i, 0])!r} exceeds the bound "
                    f"{float(bounds[i, lam0])!r} of outcome {lam0 + 1}"
                )
    return Points(basis, x, tau, ks, basis.c_b * det[:, None])


# A few kB in all: enough for callers that take turns over a few points.
@functools.lru_cache(maxsize=32)
def _report_points(ch: TwoQubitChannel, basis: TwoQubitBasis, mode: str, k) -> Points:
    """`points` for one channel object of the scalar API, memoized.

    Keyed by the values of the channel and the basis and the policy's
    mode and K. The arrays are read-only, as every caller shares them. A
    refused point raises and is not stored.
    """
    # the channel checked its amplitudes and the KPolicy its mode and K when made
    pts = _points(ch.vector().reshape(1, 2, 2), basis, mode, k)
    for a in pts[1:]:
        a.setflags(write=False)
    return pts


def b_axis_channels(b) -> np.ndarray:
    """Amplitude stack of the channels sqrt(1 - b^2)|00> + b|11>, in float64:
    every channel of the b axis is real, and `points` keeps it so."""
    b = np.asarray(b, dtype=float)
    x = np.zeros(b.shape + (2, 2))
    with np.errstate(over="ignore"):  # |b| above 1e154 gives a = 0, refused by `points`
        x[..., 0, 0] = np.sqrt(np.fmax(0.0, 1.0 - b * b))
    x[..., 1, 1] = b
    return x


def analytic_batch(inp: PureInputState, pts: Points) -> Batch:
    """Closed-form per-outcome probabilities for every point.

    p_alice is the chance the sender sees each outcome, p_bob the
    conditional chance the ancilla heralds success, and p_joint their
    product; p_joint never depends on the input amplitudes. Fidelity
    is exactly 1 on every success branch. At each outcome's own maximal K
    the total is pref^2 sum_lam s_min(tau_lam)^2: for a|00> + b|11> in
    gbm(a', b') that is 2 min(|a|, |b|, |a'|, |b'|)^2, a plateau at
    2 lambda_min^2 (Vidal's bound), on which the Bell basis always sits.
    """
    p_alice, p_bob, p_joint = _probabilities(inp, pts)
    total = np.add.reduce(p_joint, axis=-1)  # ndarray.sum's reduction, in outcome order
    return Batch(pts.k, p_alice, p_bob, p_joint, np.ones(p_joint.shape), total)


def _probabilities(inp: PureInputState, pts: Points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closed forms alone: the (N, 4) p_alice, p_bob and p_joint = pref^2 (K det)^2,
    det = |det tau|, of `analytic_batch`."""
    tau = pts.tau
    # tau @ (alpha, beta) elementwise: a matmul may round differently
    v = np.abs(tau[..., 0] * inp.alpha + tau[..., 1] * inp.beta)
    v *= v
    p_alice = pts.basis.pref2 * (v[..., 0] + v[..., 1])
    p_joint = pts.basis.pref2 * np.square(pts.k * pts.det)
    return p_alice, p_joint / p_alice, p_joint


def simulate_batch(inp: PureInputState, pts: Points) -> Batch:
    """Run the protocol on every point by state-vector evolution.

    Projects the three-qubit product states onto each outcome by one 2-D
    product, applies the heralded block M = K * adj(tau) of each filter's
    dilation to the receivers (the block that maps the ancilla's |0> to
    |0>, which all reported numbers read), and compares the heralded
    state with the input. Works on (4, N) arrays over (outcome, point)
    and reports the same fields as analytic_batch, to double precision.
    """
    psi_in = np.array((inp.alpha, inp.beta))  # both complex, as the state coerced them
    # states[2 q1 + q2, q3, n], input qubit q1 most significant as in np.kron(psi_in, channel)
    states = (psi_in[:, None, None, None] * pts.x.transpose(1, 2, 0)).reshape(4, 2, -1)
    p_alice, r = project_all(states, pts.basis)
    m = _filters_transposed(pts.tau, pts.k)  # m[j, i] is M[..., i, j] over (outcome, point)
    succ = m[0] * r[:, 0] + m[1] * r[:, 1]
    succ_w = w = _success_weight(succ)
    small = succ_w < _TINY  # weights below the normal range, which have lost bits
    if np.count_nonzero(small):
        succ[:, small] *= 2.0**600  # exact; every nonzero square is then a normal double
        w = _success_weight(succ)
    succ /= np.sqrt(np.maximum(w, _TINY))
    overlap = np.abs(inp.alpha.conjugate() * succ[0] + inp.beta.conjugate() * succ[1])
    fidelity = overlap * overlap
    p_bob = succ_w / p_alice
    p_joint = p_alice * p_bob
    return Batch(pts.k, p_alice.T, p_bob.T, p_joint.T, fidelity.T, np.add.reduce(p_joint, axis=0))


def _report(batch: Batch) -> ProtocolReport:
    """The single point of an N=1 batch as a report."""
    k_used, p_alice, p_bob, p_joint, fidelity = [column.tolist()[0] for column in batch[:5]]
    outcomes = tuple(map(OutcomeReport, (1, 2, 3, 4), k_used, p_alice, p_bob, p_joint, fidelity))
    return ProtocolReport(outcomes, batch.total.tolist()[0])


def analytic_report(
    inp: PureInputState,
    ch: TwoQubitChannel,
    basis: TwoQubitBasis,
    policy: KPolicy,
) -> ProtocolReport:
    """Closed-form per-outcome probabilities and fidelities (see analytic_batch)."""
    return _report(analytic_batch(inp, _report_points(ch, basis, policy.mode, policy.k)))


def simulate_report(
    inp: PureInputState,
    ch: TwoQubitChannel,
    basis: TwoQubitBasis,
    policy: KPolicy,
) -> ProtocolReport:
    """Run the protocol by brute-force state evolution (see simulate_batch)."""
    return _report(simulate_batch(inp, _report_points(ch, basis, policy.mode, policy.k)))


def _count(value, name: str) -> int:
    """operator.index(value), refusing a bool: True is no count."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got the bool {bool(value)!r}")
    return operator.index(value)


def monte_carlo(
    inp: PureInputState,
    ch: TwoQubitChannel,
    basis: TwoQubitBasis,
    policy: KPolicy,
    trials: int,
    seed: int,
) -> MonteCarloReport:
    """Sample the protocol from its sufficient statistics.

    Outcome counts ~ Multinomial(trials, p_alice), then success counts
    ~ Binomial(count, p_bob) per outcome: the law of `trials` runs, at
    a cost independent of trials. A seed, any non-negative integer,
    always reproduces its counts.
    std_err is the binomial standard error of p_hat.
    """
    trials = _count(trials, "trials")
    seed = _count(seed, "seed")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be between 1 and {MAX_TRIALS}, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    # analytic_batch's p_alice and p_bob, bit for bit, without its total and fidelity
    p_alice, p_bob, _ = _probabilities(inp, _report_points(ch, basis, policy.mode, policy.k))
    rng = np.random.Generator(np.random.PCG64(seed))  # what default_rng(seed) builds
    outcomes = rng.multinomial(trials, p_alice[0]).tolist()
    # Four scalar draws: the same counts and generator state as one array call,
    # at less than half its cost. binomial refuses the p_bob of 1 + 1ulp that
    # perfect channels give.
    successes = [rng.binomial(n, min(p, 1.0)) for n, p in zip(outcomes, p_bob[0].tolist())]
    p_hat = sum(successes) / trials
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return MonteCarloReport(trials, seed, tuple(outcomes), tuple(successes), p_hat, std_err)


# Smallest b on the comparison grid. Kept strictly positive so the
# optimal curve stays strictly above the K=1 curve in doubles.
B_LO = 1e-6


def fig1_grid(steps: int) -> np.ndarray:
    """The b grid of fig1: `steps` points from B_LO to 1/sqrt(2)."""
    steps = _count(steps, "steps")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    return np.linspace(B_LO, 1.0 / math.sqrt(2.0), steps)


def fig1_columns(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Success-probability curves at the channel coefficients b, 0 < |b| < 1.

    With a = sqrt(1 - b^2), tabulates the Bell-basis total with each
    outcome at its own maximal K (2*b^2), at K=1 (2*(ab)^2), and at
    K=sqrt(2), which doubles the K=1 total. That K is above the matching
    bound 1/a at every b < 1/sqrt(2), where its total exceeds p_opt: it is
    tabulated for comparison only. Returns the columns (b, p_opt, p_k1, p_ksqrt2).
    On that domain every channel is normalized and entangled by construction, so
    nothing is validated: each column is the one `points` and `analytic_batch`
    give, bit for bit.
    """
    b = np.asarray(b, dtype=float)
    x = b_axis_channels(b)
    # Bell's outcome-1 operator of a diagonal x is x itself, and Bell's four outcomes
    # share its bound and |det| bit for bit, with K >= 1 as |a|, |b| <= 1. So each
    # total, at that K or at K=1, is four equal outcomes at pref^2 = 1/2: 2 (K det)^2.
    # max(a^2, b^2) >= 1/2 on the axis: no bound divides by zero.
    det = _abs_det(x)
    p_k1 = 2.0 * np.square(det)
    return b, 2.0 * np.square(_k_bounds(x) * det), p_k1, 2.0 * p_k1
