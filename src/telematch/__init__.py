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
    format_complex,
    parse_channel,
    parse_complex,
)
from .measurement import (
    DegenerateBasisError,
    InvalidBasisError,
    TwoQubitBasis,
    branch_operators,
    generalized_bell,
    parse_basis,
    project,
    standard_bell,
)
from .protocol import (
    Batch,
    Fig1Row,
    KOutOfRangeError,
    KPolicy,
    MonteCarloReport,
    OutcomeReport,
    Points,
    ProtocolReport,
    analytic_batch,
    analytic_report,
    attach_ancilla,
    channel_points,
    evolve_and_measure,
    fig1_data,
    k_bound,
    matched_unitary,
    monte_carlo,
    optimal_k,
    pauli_correction,
    points,
    simulate_batch,
    simulate_report,
)

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "ChannelClass",
    "DegenerateBasisError",
    "Fig1Row",
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
    "attach_ancilla",
    "branch_operators",
    "channel_points",
    "classify",
    "concurrence",
    "cpm",
    "evolve_and_measure",
    "fig1_data",
    "format_complex",
    "generalized_bell",
    "k_bound",
    "matched_unitary",
    "monte_carlo",
    "optimal_k",
    "parse_basis",
    "parse_channel",
    "parse_complex",
    "pauli_correction",
    "points",
    "project",
    "simulate_batch",
    "simulate_report",
    "standard_bell",
]
