"""Probabilistic qubit teleportation through partially entangled channels.

The package models teleportation of alpha|0> + beta|1> through a pure
two-qubit channel. A partially entangled channel cannot teleport
deterministically; matching the receiver's conditional unitary to the
sender's outcome turns it into a heralded probabilistic protocol with
unit fidelity on success. Closed-form success
probabilities, a brute-force state-vector simulation, and a seeded
Monte Carlo sampler are all provided and cross-checked.
"""

from .channel import (
    ChannelClass,
    PureInputState,
    TwoQubitChannel,
    UnteleportableChannelError,
    classify,
    concurrence,
    cpm,
)
from .measurement import (
    DegenerateBasisError,
    InvalidBasisError,
    TwoQubitBasis,
    generalized_bell,
    standard_bell,
)
from .protocol import (
    Batch,
    KOutOfRangeError,
    KPolicy,
    MonteCarloReport,
    OutcomeReport,
    Points,
    ProtocolReport,
    analytic_batch,
    analytic_report,
    matched_unitary,
    monte_carlo,
    points,
    simulate_batch,
    simulate_report,
)

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "ChannelClass",
    "DegenerateBasisError",
    "InvalidBasisError",
    "KOutOfRangeError",
    "KPolicy",
    "MonteCarloReport",
    "OutcomeReport",
    "Points",
    "ProtocolReport",
    "PureInputState",
    "TwoQubitBasis",
    "TwoQubitChannel",
    "UnteleportableChannelError",
    "__version__",
    "analytic_batch",
    "analytic_report",
    "classify",
    "concurrence",
    "cpm",
    "generalized_bell",
    "matched_unitary",
    "monte_carlo",
    "points",
    "simulate_batch",
    "simulate_report",
    "standard_bell",
]
