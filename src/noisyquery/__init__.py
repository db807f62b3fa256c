"""Noisy-query computation of OR and MAX, with exact validation oracles.

Simulates computing the OR of n bits from noisy bit reads and the argmax
of n reals from noisy pairwise comparisons, where every answer flips
independently with a known probability p < 1/2.  Ships the
query-optimal two-phase algorithms, their knockout-tournament and
stopped-walk building blocks, closed-form complexity bounds, exact
small-instance enumeration for validation, and a reproducible Monte
Carlo harness with a CLI.
"""

from .bounds import (
    BoundReport,
    binary_entropy,
    checkbit_budget,
    kl_pq,
    lecam_budget,
    lecam_floor,
    make_bound_report,
    upper_budget,
)
from .errors import ContractViolation, EnumerationCapError, InvariantError
from .exact_oracle import (
    EnumerationResult,
    WalkAnalysis,
    WalkBranchStats,
    analyze_walk,
    analyze_walk_markov,
    enumerate_tournament,
    walk_branch_stats,
)
from .oracles import (
    BitInstance,
    NoisyOracle,
    ValueInstance,
    make_instance_max,
    make_instance_or,
)
from .primitives import (
    StopReport,
    check_bit,
    noisy_compare,
    vote_threshold,
    vote_threshold_log,
)
from .tournaments import RoundSchedule, tournament_max, tournament_or
from .toplevel import (
    MaxRunReport,
    OrRunReport,
    noisy_max_report,
    noisy_or_report,
    or_threshold,
    sampling_probability,
)

__version__ = "0.1.0"

__all__ = [
    "BitInstance",
    "BoundReport",
    "ContractViolation",
    "EnumerationCapError",
    "EnumerationResult",
    "InvariantError",
    "MaxRunReport",
    "NoisyOracle",
    "OrRunReport",
    "RoundSchedule",
    "StopReport",
    "ValueInstance",
    "WalkAnalysis",
    "WalkBranchStats",
    "analyze_walk",
    "analyze_walk_markov",
    "binary_entropy",
    "check_bit",
    "checkbit_budget",
    "enumerate_tournament",
    "kl_pq",
    "lecam_budget",
    "lecam_floor",
    "make_bound_report",
    "make_instance_max",
    "make_instance_or",
    "noisy_compare",
    "noisy_max_report",
    "noisy_or_report",
    "or_threshold",
    "sampling_probability",
    "tournament_max",
    "tournament_or",
    "upper_budget",
    "vote_threshold",
    "vote_threshold_log",
    "walk_branch_stats",
]
