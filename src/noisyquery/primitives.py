"""Bayesian-stopping primitives for a single repeated noisy query.

Both primitives repeat one query until the posterior probability of the
favoured answer leaves (delta, 1 - delta), starting from a uniform
prior.  With likelihood ratio lambda = (1-p)/p the posterior after a net
vote count d is exactly lambda^d / (1 + lambda^d), so the stopping rule
is an integer random walk absorbed at +/-K with

    K = ceil( log((1-delta)/delta) / log((1-p)/p) ).

The integer representation is exact: it never underflows, even for
tolerances far below float-minimum, which the tournament schedule
produces routinely (tolerances are therefore passed around in log space).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ContractViolation
from .oracles import NoisyOracle

__all__ = [
    "PosteriorState",
    "StopReport",
    "check_bit",
    "check_bit_log",
    "noisy_compare",
    "noisy_compare_log",
    "vote_threshold",
    "vote_threshold_log",
]


# Walks ask for the same few thresholds over and over (one per tournament
# round and parameter point); bad arguments raise on every call, since
# lru_cache stores no exceptions.
@lru_cache(maxsize=1024)
def vote_threshold(p: float, delta: float) -> int:
    """Net-vote margin K at which the posterior leaves (delta, 1 - delta)."""
    if not 0.0 < p < 0.5:
        raise ContractViolation(f"p must lie in (0, 1/2), got {p}")
    if not 0.0 < delta < 0.5:
        raise ContractViolation(f"delta must lie in (0, 1/2), got {delta}")
    return math.ceil(math.log((1.0 - delta) / delta) / math.log((1.0 - p) / p))


@lru_cache(maxsize=1024)
def vote_threshold_log(p: float, log_delta: float) -> int:
    """Vote threshold for a tolerance given as log(delta).

    Exact even when delta itself underflows float range: for tiny delta
    the numerator log((1-delta)/delta) collapses to -log(delta).  When
    the underlying ratio is an exact integer, the exp/log round trip can
    land one vote above the direct form; the higher threshold only
    tightens the error guarantee.
    """
    if not 0.0 < p < 0.5:
        raise ContractViolation(f"p must lie in (0, 1/2), got {p}")
    if not log_delta < math.log(0.5):
        raise ContractViolation(f"log_delta must be below log(1/2), got {log_delta}")
    delta = math.exp(log_delta)  # underflows harmlessly to 0.0 for tiny tolerances
    numerator = math.log1p(-delta) - log_delta
    return math.ceil(numerator / math.log((1.0 - p) / p))


@dataclass
class PosteriorState:
    """Exact posterior of the stopped walk: alpha = lambda^d / (1 + lambda^d).

    ``net_votes`` is the number of answers favouring the positive
    hypothesis minus those against; ``threshold`` is the absorbing margin
    K >= 1.
    """

    net_votes: int
    threshold: int
    lam: float

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ContractViolation(f"threshold must be >= 1, got {self.threshold}")
        if not self.lam > 1.0:
            raise ContractViolation(f"lambda must exceed 1, got {self.lam}")

    @property
    def alpha(self) -> float:
        # Logistic form keeps the value finite for large |d| log(lambda).
        x = self.net_votes * math.log(self.lam)
        if x >= 0:
            return 1.0 / (1.0 + math.exp(-x))
        e = math.exp(x)
        return e / (1.0 + e)

    @property
    def stopped(self) -> bool:
        return abs(self.net_votes) >= self.threshold

    def observe(self, favourable: bool) -> None:
        if self.stopped:
            raise ContractViolation("posterior walk already absorbed; no further observations allowed")
        self.net_votes += 1 if favourable else -1

    def decision(self) -> bool:
        if not self.stopped:
            raise ContractViolation("walk has not stopped; no decision available")
        return self.net_votes > 0


@dataclass(frozen=True)
class StopReport:
    """Outcome of one stopping primitive: the decision and the queries it consumed."""

    decision: int | bool
    queries_used: int


def _bit_walk(oracle: NoisyOracle, i: int, k: int) -> StopReport:
    up, t = oracle.walk(i, 0, k)
    return StopReport(decision=1 if up else 0, queries_used=t)


def _compare_walk(oracle: NoisyOracle, i: int, j: int, k: int) -> StopReport:
    if j == 0:  # oracle.walk would read bit i instead
        raise ContractViolation(f"pair ({i}, {j}) out of range 1..{oracle.instance.n}")
    less, t = oracle.walk(i, j, k)
    return StopReport(decision=less, queries_used=t)


def check_bit(oracle: NoisyOracle, i: int, delta: float, p: float) -> StopReport:
    """Estimate bit i by repeated reads; error probability at most delta.

    Returns decision 1 when the posterior reaches 1 - delta (net votes
    +K) and 0 at delta (net votes -K).  Expected queries are at most
    K / (1 - 2p).
    """
    return _bit_walk(oracle, i, vote_threshold(p, delta))


def check_bit_log(oracle: NoisyOracle, i: int, log_delta: float, p: float) -> StopReport:
    """As :func:`check_bit` with the tolerance given as log(delta)."""
    return _bit_walk(oracle, i, vote_threshold_log(p, log_delta))


def noisy_compare(oracle: NoisyOracle, i: int, j: int, delta: float, p: float) -> StopReport:
    """Decide whether values[i] < values[j] by repeated comparisons.

    Identical walk to :func:`check_bit` on comparison answers; decision
    True means "less than".
    """
    return _compare_walk(oracle, i, j, vote_threshold(p, delta))


def noisy_compare_log(oracle: NoisyOracle, i: int, j: int, log_delta: float, p: float) -> StopReport:
    """As :func:`noisy_compare` with the tolerance given as log(delta)."""
    return _compare_walk(oracle, i, j, vote_threshold_log(p, log_delta))
