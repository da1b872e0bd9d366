"""Finite-dimensional open quantum dynamics with detailed balance checks
and energy-exchange fluctuation ratios."""

from . import balance, dynamics, errors, examples, fluctuation, matlin, states
from .balance import check_qdb1, check_qdb2
from .dynamics import (
    Dynamics,
    KrausChannel,
    LindbladGenerator,
    SuperOperator,
    apply,
    channel_from_superop,
    evolve,
    is_cptp,
    lindblad_superop,
    superop_from_channel,
)
from .fluctuation import Classification, classify, exchange_grid, transition_matrix
from .states import BlochVector, DensityMatrix, HamiltonianSpec, gibbs, infer_beta, populations

__version__ = "0.1.0"
