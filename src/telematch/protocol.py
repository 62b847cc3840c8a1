"""Probabilistic teleportation through a partially entangled channel.

The channel a|00> + b|11> teleports alpha|0> + beta|1> only
probabilistically when |a| != |b|. After the sender measures, the
receiver holds a state whose amplitudes are weighted by a coefficient
pair (c0, c1) determined by the channel and the measured outcome. The
receiver then attaches an ancilla qubit in |0> and applies a unitary
built from that pair; reading the ancilla back in |0> heralds success,
after which a Pauli rotation restores the input state exactly.

The unitary has one free parameter K with 0 < K <= min(1/|c0|, 1/|c1|).
The probability that outcome lam occurs and the ancilla heralds success
is pref^2 * (K_lam * |c0 * c1|)^2 independent of the input state, where
pref is 1/sqrt(2) for the standard Bell basis and 1 for the generalized
basis. Summing over outcomes gives the closed forms checked by the test
suite: 2(K|ab|)^2 for the Bell basis with a common K, 4(K|a b a' b'|)^2
for the generalized basis, and 2*min(|b|, |b'|)^2 when each outcome
runs at its own maximal K.

Coefficient pairs per outcome for channel (a, b):

    Bell basis:         (a, b) for every outcome;
    generalized basis:  (a*a', b*b') for lam in {1, 4},
                        (a*b', b*a') for lam in {2, 3}.

Outcomes 3 and 4 deliver the input amplitudes swapped, so their success
branches are evaluated against (beta, alpha); the trailing Pauli fixes
the order. All probability formulas use coefficient moduli and hold for
complex amplitudes.

Two kernels do the work, each over a batch of N points (channel
amplitudes a, b and K per outcome) that share one input state and one
basis: `analytic_batch` evaluates the closed forms, `simulate_batch`
evolves the three-qubit state vector. `points` validates a batch and
resolves K once; the report functions, `monte_carlo` and `fig1_data`
call the kernels, a single report being the N=1 case.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qlinalg
from .channel import (
    NORMALIZATION_TOL,
    PureInputState,
    TwoQubitChannel,
    UnteleportableChannelError,
)
from .measurement import (
    DegenerateBasisError,
    TwoQubitBasis,
    _check_lam,
    project_all,
    standard_bell,
)

# Accept K at the matching bound despite last-ulp roundoff, while still
# rejecting anything meaningfully above it.
K_BOUND_RTOL = 1e-12

# Basis coefficients closer to zero than this leave some outcome with a
# vanishing success amplitude.
DEGENERATE_TOL = 1e-9

K_POLICY_MODES = ("fixed", "max-global", "max-per-outcome")

# Most trials monte_carlo takes: numpy draws the counts as int64.
MAX_TRIALS = 2**63 - 1

PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

# Correction per outcome: identity, phase flip, bit flip, both.
_CORRECTIONS = np.stack([PAULI["I"], PAULI["Z"], PAULI["X"], PAULI["Z"] @ PAULI["X"]])

# Outcomes 3 and 4 arrive with the input amplitudes swapped.
_SWAPS_INPUT = np.array([False, False, True, True])

# The Bell basis weights the channel pair (a, b) alike in every outcome.
_BELL_WEIGHTS = np.ones(4)


class KOutOfRangeError(ValueError):
    """Raised when K violates an outcome's matching bound."""


class UnsupportedChannelError(ValueError):
    """Raised for channels outside the a|00> + b|11> family."""


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
        if self.mode not in K_POLICY_MODES:
            raise ValueError(f"unknown K policy mode {self.mode!r}")
        if self.mode == "fixed":
            if self.k is None:
                raise ValueError("fixed K policy needs a value")
            k = float(self.k)
            if not math.isfinite(k) or k <= 0.0:
                raise KOutOfRangeError(f"K must be a finite positive number, got {k!r}")
            object.__setattr__(self, "k", k)
        elif self.k is not None:
            raise ValueError(f"policy {self.mode!r} takes no K value")

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


@dataclass(frozen=True)
class OutcomeReport:
    """Per-outcome numbers for one run of the protocol."""

    lam: int
    k_used: float
    p_alice: float
    p_bob: float
    p_joint: float
    fidelity: float


@dataclass(frozen=True)
class ProtocolReport:
    outcomes: tuple[OutcomeReport, ...]
    total: float


@dataclass(frozen=True)
class MonteCarloReport:
    trials: int
    seed: int
    outcome_counts: tuple[int, int, int, int]
    success_counts: tuple[int, int, int, int]
    p_hat: float
    std_err: float
    sampler: str = "multinomial-binomial"


class Fig1Row(NamedTuple):
    b: float
    p_opt: float
    p_k1: float
    p_ksqrt2: float


class Points(NamedTuple):
    """A validated batch of N protocol points that share one basis.

    a and b hold the (N,) amplitudes of the channels a|00> + b|11>;
    c0 and c1 the (N, 4) coefficient pair of each outcome; k the (N, 4)
    K each outcome runs at.
    """

    basis: TwoQubitBasis
    a: np.ndarray
    b: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    k: np.ndarray


class Batch(NamedTuple):
    """Kernel results: (N, 4) arrays per outcome and (N,) totals."""

    k_used: np.ndarray
    p_alice: np.ndarray
    p_bob: np.ndarray
    p_joint: np.ndarray
    fidelity: np.ndarray
    total: np.ndarray


def _total(p_joint: np.ndarray) -> np.ndarray:
    """Sum over the outcome axis, in outcome order."""
    return p_joint[..., 0] + p_joint[..., 1] + p_joint[..., 2] + p_joint[..., 3]


def k_bound(c0, c1):
    """Largest valid K for a coefficient pair: min(1/|c0|, 1/|c1|).

    Works elementwise on arrays of pairs; inf where both vanish.
    """
    with np.errstate(divide="ignore"):
        return 1.0 / np.maximum(np.abs(c0), np.abs(c1))


def _unitaries(c0: np.ndarray, c1: np.ndarray, k: np.ndarray) -> np.ndarray:
    """matched_unitary over arrays of pairs and K: shape (..., 4, 4)."""
    m0 = k * c1  # success amplitude for receiver bit 0 picks up the other coefficient
    m1 = k * c0
    t0 = k * np.abs(c1)
    t1 = k * np.abs(c0)
    r0 = np.sqrt(np.maximum(0.0, 1.0 - t0 * t0))
    r1 = np.sqrt(np.maximum(0.0, 1.0 - t1 * t1))
    u = np.zeros(np.shape(m0) + (4, 4), dtype=np.complex128)
    u[..., 0, 0] = m0
    u[..., 0, 2] = r0
    u[..., 1, 1] = m1
    u[..., 1, 3] = r1
    u[..., 2, 0] = r0
    u[..., 2, 2] = -np.conj(m0)
    u[..., 3, 1] = r1
    u[..., 3, 3] = -np.conj(m1)
    return u


def matched_unitary(c0: complex, c1: complex, k: float) -> np.ndarray:
    """Ancilla-assisted unitary matched to a coefficient pair.

    Acts on (receiver qubit, ancilla) with the ancilla index most
    significant and the ancilla starting in |0>. On the success branch
    it rescales both receiver amplitudes to K*c0*c1; the leftover
    weight moves to the ancilla |1> branch. Requires
    0 < k <= min(1/|c0|, 1/|c1|).
    """
    k = float(k)
    bound = float(k_bound(c0, c1))
    if not math.isfinite(k) or k <= 0.0 or k > bound * (1.0 + K_BOUND_RTOL):
        raise KOutOfRangeError(
            f"K={k!r} outside (0, {bound!r}] for coefficients ({complex(c0)!r}, {complex(c1)!r})"
        )
    return _unitaries(np.complex128(c0), np.complex128(c1), k)


def _attach(receivers: np.ndarray) -> np.ndarray:
    psi = np.zeros(receivers.shape[:-1] + (4,), dtype=np.complex128)
    psi[..., :2] = receivers
    return psi


def attach_ancilla(receiver) -> np.ndarray:
    """Extend a receiver qubit state with an ancilla in |0>."""
    v = qlinalg.as_vector(receiver)
    if v.shape[0] != 2:
        raise ValueError(f"receiver state must have length 2, got {v.shape[0]}")
    return _attach(v)


def _normalized(v: np.ndarray, weight) -> np.ndarray:
    """v / sqrt(weight) over the last axis; v unchanged where weight is 0."""
    return v / np.sqrt(np.where(weight > 0, weight, 1.0))[..., None]


def _evolve(psi: np.ndarray, u: np.ndarray):
    """Apply stacks of unitaries to stacks of states and read the ancilla.

    Returns the success probability, the normalized success branch and
    the unnormalized failure branch.
    """
    out = (u @ psi[..., None])[..., 0]
    succ, succ_w = out[..., :2], qlinalg.norm2(out[..., :2])
    return succ_w / qlinalg.norm2(psi), _normalized(succ, succ_w), out[..., 2:]


def evolve_and_measure(state, u) -> tuple[float, np.ndarray, np.ndarray]:
    """Apply u to (receiver, ancilla) and read the ancilla.

    Returns (success probability, receiver state on ancilla |0>,
    receiver state on ancilla |1>), both conditional states normalized.
    The input state may be unnormalized; the probability is relative to
    its weight.
    """
    v = qlinalg.as_vector(state)
    if v.shape[0] != 4:
        raise ValueError(f"state must have length 4, got {v.shape[0]}")
    if qlinalg.norm2(v) <= 1e-30:
        raise ValueError("state has zero norm")
    p, succ, fail = _evolve(v, qlinalg.as_matrix(u))
    return float(p), succ, _normalized(fail, qlinalg.norm2(fail))


def pauli_correction(lam: int) -> np.ndarray:
    """Pauli rotation that restores the input state for outcome lam."""
    _check_lam(lam)
    return _CORRECTIONS[lam - 1].copy()


def _pairs(a: np.ndarray, b: np.ndarray, basis: TwoQubitBasis):
    """Coefficient pairs (c0, c1), each (N, 4), per point and outcome."""
    if basis.kind == "bell":
        w0 = w1 = _BELL_WEIGHTS
    else:
        ap, bp = basis.a_p, basis.b_p
        w0 = np.array([ap, bp, bp, ap])
        w1 = np.array([bp, ap, ap, bp])
    return a[:, None] * w0, b[:, None] * w1


def points(a, b, basis: TwoQubitBasis, mode: str, k=None) -> Points:
    """Validate a batch of channels a|00> + b|11> and resolve K.

    a and b are (N,) amplitude arrays; mode is one of K_POLICY_MODES,
    and 'fixed' takes k as one number or an (N,) array, one K per point.
    Points are checked in order, and the first point that fails raises
    what a single report on it would: ValueError for amplitudes that do
    not form a normalized state, KOutOfRangeError for a K that is not
    finite and positive, UnteleportableChannelError for 2|ab| <= 1e-9,
    DegenerateBasisError for a degenerate basis, and KOutOfRangeError for
    a K above some outcome's bound.
    """
    if mode not in K_POLICY_MODES:
        raise ValueError(f"unknown K policy mode {mode!r}")
    if mode == "fixed" and k is None:
        raise ValueError("fixed K policy needs a value")
    if mode != "fixed" and k is not None:
        raise ValueError(f"policy {mode!r} takes no K value")
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    degenerate = basis.kind == "gbm" and (
        abs(basis.a_p) <= DEGENERATE_TOL or abs(basis.b_p) <= DEGENERATE_TOL
    )
    # Every point is computed and checked, invalid ones included, whose
    # arithmetic may overflow or produce nan; only the first failure counts.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        c0, c1 = _pairs(a, b, basis)
        bounds = k_bound(c0, c1)
        # nan and inf amplitudes fail the comparison too
        ma, mb = np.abs(a), np.abs(b)
        bad_channel = ~(np.abs(ma * ma + mb * mb - 1.0) <= NORMALIZATION_TOL)
        unentangled = 2.0 * np.abs(a * b) <= NORMALIZATION_TOL
        fails = bad_channel | unentangled | degenerate
        ks = np.empty(bounds.shape)
        if mode == "fixed":
            k_points = np.ones(a.shape) * k
            bad_k = ~(k_points > 0.0) | (k_points == np.inf)
            above = k_points[:, None] > bounds * (1.0 + K_BOUND_RTOL)
            fails |= bad_k | np.logical_or.reduce(above, axis=1)
            ks[:] = k_points[:, None]
        elif mode == "max-global":
            ks[:] = np.minimum.reduce(bounds, axis=1)[:, None]
        else:
            ks[:] = bounds
    for i in np.flatnonzero(fails):
        if bad_channel[i]:
            # raises its own error, unless its scalar moduli, which may
            # differ from numpy's in the last bit, pass the tolerance
            TwoQubitChannel.diagonal(complex(a[i]), complex(b[i]))
        if mode == "fixed" and bad_k[i]:
            KPolicy.fixed(float(k_points[i]))  # raises its own error
        if unentangled[i]:
            raise UnteleportableChannelError(
                "channel carries no entanglement; nothing can be teleported"
            )
        if degenerate:
            raise DegenerateBasisError(
                "basis coefficients too close to zero: some outcome would "
                "never herald success"
            )
        if mode == "fixed" and above[i].any():
            lam0 = int(above[i].argmax())
            raise KOutOfRangeError(
                f"K={float(k_points[i])!r} exceeds the bound "
                f"{float(bounds[i, lam0])!r} of outcome {lam0 + 1}"
            )
    return Points(basis, a, b, c0, c1, ks)


def channel_points(ch: TwoQubitChannel, basis: TwoQubitBasis, mode: str, k=None) -> Points:
    """`points` for one channel object, with a K or an (N,) array of K."""
    ks = None if k is None else np.atleast_1d(np.asarray(k, dtype=float))
    if not ch.is_diagonal:
        if ks is not None:
            KPolicy.fixed(float(ks[0]))  # the first point checks its K first
        raise UnsupportedChannelError(
            "matching is implemented for channels a|00> + b|11>; "
            "this channel has off-diagonal amplitudes"
        )
    n = 1 if ks is None else ks.shape[0]
    return points(np.full(n, ch.x00), np.full(n, ch.x11), basis, mode, ks)


def b_axis_channels(b) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes (a, b) of the channels sqrt(1 - b^2)|00> + b|11>."""
    b = np.asarray(b, dtype=float)
    with np.errstate(over="ignore"):  # |b| above 1e154 gives a = 0, refused by `points`
        return np.sqrt(np.fmax(0.0, 1.0 - b * b)), b


def analytic_batch(inp: PureInputState, pts: Points) -> Batch:
    """Closed-form per-outcome probabilities for every point.

    p_alice is the chance the sender sees each outcome, p_bob the
    conditional chance the ancilla heralds success, and p_joint their
    product; p_joint never depends on the input amplitudes. Fidelity
    after correction is exactly 1 on every success branch.
    """
    pref2 = 0.5 if pts.basis.kind == "bell" else 1.0
    u0 = np.where(_SWAPS_INPUT, inp.beta, inp.alpha)
    u1 = np.where(_SWAPS_INPUT, inp.alpha, inp.beta)
    m0, m1 = np.abs(pts.c0 * u0), np.abs(pts.c1 * u1)
    p_alice = pref2 * (m0 * m0 + m1 * m1)
    m = pts.k * np.abs(pts.c0 * pts.c1)
    p_joint = pref2 * (m * m)
    return Batch(pts.k, p_alice, p_joint / p_alice, p_joint, np.ones_like(p_joint), _total(p_joint))


def simulate_batch(inp: PureInputState, pts: Points) -> Batch:
    """Run the protocol on every point by state-vector evolution.

    Builds the three-qubit product states, projects them onto each
    measurement outcome, attaches the ancilla, applies the matched
    unitaries, reads the ancilla, and applies the Pauli corrections.
    Reports the same fields as analytic_batch; the two must agree to
    double precision.
    """
    psi_in = inp.vector()
    channel = np.zeros(pts.a.shape + (4,), dtype=np.complex128)
    channel[:, 0] = pts.a
    channel[:, 3] = pts.b
    # Input qubit most significant, as in qlinalg.tensor(psi_in, channel).
    state = (psi_in[:, None] * channel[:, None, :]).reshape(-1, 8)
    p_alice, receivers = project_all(state, pts.basis)
    p_bob, success, _ = _evolve(_attach(receivers), _unitaries(pts.c0, pts.c1, pts.k))
    corrected = (_CORRECTIONS @ success[..., None])[..., 0]
    overlap = np.abs((psi_in.conj() @ corrected[..., None])[..., 0])
    fidelity = overlap * overlap
    p_joint = p_alice * p_bob
    return Batch(pts.k, p_alice, p_bob, p_joint, fidelity, _total(p_joint))


def _report(batch: Batch) -> ProtocolReport:
    """The single point of an N=1 batch as a report."""
    rows = zip(*(field[0].tolist() for field in batch[:5]))
    outcomes = tuple(OutcomeReport(lam, *row) for lam, row in enumerate(rows, 1))
    return ProtocolReport(outcomes, float(batch.total[0]))


def branch_coefficients(
    ch: TwoQubitChannel, basis: TwoQubitBasis
) -> tuple[tuple[complex, complex], ...]:
    """Coefficient pair (c0, c1) for each outcome (see module doc)."""
    pts = channel_points(ch, basis, "max-per-outcome")
    return tuple(zip(pts.c0[0].tolist(), pts.c1[0].tolist()))


def optimal_k(ch: TwoQubitChannel, basis: TwoQubitBasis, lam: int) -> float:
    """Largest K valid for outcome lam of this channel and basis."""
    _check_lam(lam)
    return float(channel_points(ch, basis, "max-per-outcome").k[0, lam - 1])


def analytic_report(
    inp: PureInputState,
    ch: TwoQubitChannel,
    basis: TwoQubitBasis,
    policy: KPolicy,
) -> ProtocolReport:
    """Closed-form per-outcome probabilities and fidelities (see analytic_batch)."""
    return _report(analytic_batch(inp, channel_points(ch, basis, policy.mode, policy.k)))


def simulate_report(
    inp: PureInputState,
    ch: TwoQubitChannel,
    basis: TwoQubitBasis,
    policy: KPolicy,
) -> ProtocolReport:
    """Run the protocol by brute-force state evolution (see simulate_batch)."""
    return _report(simulate_batch(inp, channel_points(ch, basis, policy.mode, policy.k)))


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
    a cost independent of trials. A seed always reproduces its counts.
    std_err is the binomial standard error of p_hat.
    """
    trials = operator.index(trials)
    seed = operator.index(seed)
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be between 1 and {MAX_TRIALS}, got {trials}")
    batch = analytic_batch(inp, channel_points(ch, basis, policy.mode, policy.k))
    return _sample(batch, trials, seed)


def _sample(batch: Batch, trials: int, seed: int) -> MonteCarloReport:
    """monte_carlo on the first point of an analytic batch."""
    rng = np.random.default_rng(seed)
    outcomes = rng.multinomial(trials, batch.p_alice[0])
    # binomial refuses the p_bob of 1 + 1ulp that perfect channels give
    successes = rng.binomial(outcomes, np.minimum(batch.p_bob[0], 1.0))
    p_hat = int(successes.sum()) / trials
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return MonteCarloReport(
        trials, seed, tuple(outcomes.tolist()), tuple(successes.tolist()), p_hat, std_err
    )


# Smallest b on the comparison grid. Kept strictly positive so the
# optimal curve stays strictly above the fixed-K curves in doubles.
B_LO = 1e-6


def fig1_grid(steps: int) -> np.ndarray:
    """The b grid of fig1: `steps` points from B_LO to 1/sqrt(2)."""
    steps = operator.index(steps)
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    return np.linspace(B_LO, 1.0 / math.sqrt(2.0), steps)


def fig1_columns(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Success-probability curves at the channel coefficients b.

    With a = sqrt(1 - b^2), tabulates the Bell-basis total with each
    outcome at its own maximal K (2*b^2), at K=1 (2*(ab)^2), and at
    K=sqrt(2), which doubles the K=1 total. Returns the columns
    (b, p_opt, p_k1, p_ksqrt2).
    """
    a, b = b_axis_channels(b)
    h = 1.0 / math.sqrt(2.0)
    inp = PureInputState(h, h)
    pts = points(a, b, standard_bell(), "max-per-outcome")
    p_opt = analytic_batch(inp, pts).total
    # |a| and |b| are at most 1 at every valid point of the b axis, so
    # each Bell-basis bound 1/max(|a|, |b|) is at least 1: K=1 is valid.
    p_k1 = analytic_batch(inp, pts._replace(k=np.ones_like(pts.k))).total
    return b, p_opt, p_k1, 2.0 * p_k1


def fig1_data(steps: int) -> list[Fig1Row]:
    """The rows of fig1_columns over fig1_grid(steps)."""
    columns = fig1_columns(fig1_grid(steps))
    return list(map(Fig1Row, *(column.tolist() for column in columns)))
