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
from functools import lru_cache

from .bounds import log_odds
from .errors import ContractViolation
from .oracles import NoisyOracle, StopReport

__all__ = [
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
    ratio = (1.0 - delta) / delta  # overflows for subnormal delta, where its log is -log(delta)
    numerator = math.log(ratio) if ratio < math.inf else -math.log(delta)
    return math.ceil(numerator / log_odds(p))


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
    return math.ceil(numerator / log_odds(p))


# Each primitive is one walk.  While the caller's named run has walks left
# (``oracle.pending``), check_bit and noisy_compare take its next report, at
# the run's threshold; a lone walk's threshold uses the oracle's own p.  The
# ``_log`` forms serve tournament matches, which no run names, so they always
# walk alone; they take p, as the benchmark's direct walk timings pass one.


def check_bit(oracle: NoisyOracle, i: int, delta: float) -> StopReport:
    """Estimate bit i by repeated reads; error probability at most delta.

    Returns decision 1 when the posterior reaches 1 - delta (net votes
    +K) and 0 at delta (net votes -K).  Expected queries are at most
    K / (1 - 2p).
    """
    if oracle.pending:
        return oracle.take(i, None)
    return oracle.walk(i, None, vote_threshold(oracle.p, delta))


def check_bit_log(oracle: NoisyOracle, i: int, log_delta: float, p: float) -> StopReport:
    """As :func:`check_bit` at tolerance exp(log_delta), always walked alone; p is passed, as the benchmark does."""
    return oracle.walk(i, None, vote_threshold_log(p, log_delta))


def noisy_compare(oracle: NoisyOracle, i: int, j: int, delta: float) -> StopReport:
    """Decide whether values[i] < values[j] by repeated comparisons.

    Identical walk to :func:`check_bit` on comparison answers; decision
    True means "less than".
    """
    if oracle.pending:
        return oracle.take(i, j)
    return oracle.walk(i, j, vote_threshold(oracle.p, delta))


def noisy_compare_log(oracle: NoisyOracle, i: int, j: int, log_delta: float, p: float) -> StopReport:
    """As :func:`noisy_compare` at tolerance exp(log_delta), always walked alone; p is passed, as the benchmark does."""
    return oracle.walk(i, j, vote_threshold_log(p, log_delta))
