"""The two-phase optimal algorithms for noisy OR and noisy MAX.

Both spend almost their whole budget on cheap per-element primitives at
the full tolerance delta and reserve the expensive knockout tournament
for a sublinear shortlist: the OR algorithm tournaments only the bits
whose individual checks returned 1, the MAX algorithm only a random
subsample plus the elements that beat the subsample's champion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import log_inverse
from .errors import ContractViolation
from .oracles import NoisyOracle
from .primitives import check_bit, noisy_compare, vote_threshold
from .tournaments import or_half, tournament_max, tournament_or

__all__ = [
    "MaxRunReport",
    "OrRunReport",
    "noisy_max_report",
    "noisy_or_report",
    "or_threshold",
    "sampling_probability",
]


def or_threshold(n: int, delta: float) -> float:
    """Survivor-count cutoff max(log n, n delta log(1/delta)) for declaring OR = 1.

    The count term n delta log(1/delta) is the larger exactly when delta >= 1/n.
    """
    if n < 1:
        raise ContractViolation(f"n must be >= 1, got {n}")
    if not 0.0 < delta < 0.5:
        raise ContractViolation(f"delta must lie in (0, 1/2), got {delta}")
    return max(math.log(n), n * delta * log_inverse(delta))


def sampling_probability(n: int) -> float:
    """Per-index subsampling probability 1/log n, clamped to 1 for n <= 2."""
    if n < 1:
        raise ContractViolation(f"n must be >= 1, got {n}")
    if n <= 2:  # log n <= 1 there
        return 1.0
    return min(1.0, 1.0 / math.log(n))


@dataclass(frozen=True)
class OrRunReport:
    """Outcome and per-phase accounting of one OR run."""

    output: int
    phase1_queries: int       # the n individual bit checks
    subroutine_queries: int   # the shortlist tournament, if it ran
    survivors: tuple[int, ...]


@dataclass(frozen=True)
class MaxRunReport:
    """Outcome and per-phase accounting of one MAX run."""

    output: int
    phase1_queries: int       # the comparisons against the sample champion
    subroutine_queries: int   # both tournaments
    sample: tuple[int, ...]
    champion: int             # winner of the sample tournament
    shortlist: tuple[int, ...]


def noisy_or_report(oracle: NoisyOracle, delta: float, p: float) -> OrRunReport:
    """Run the two-phase OR algorithm on the oracle's n bits and report the phase breakdown.

    Phase 1 checks every bit at tolerance delta, collecting the indices
    that answered 1.  No survivor means 0; at least
    max(log n, n delta log(1/delta)) survivors means 1 outright (that
    many simultaneous false positives is overwhelmingly unlikely);
    anything between goes to a tournament at tolerance delta.  Worst-case
    error is at most 2 delta.  A delta the tournament cannot split is
    refused before any query, whatever the bits turn out to be.
    """
    or_half(delta)
    n = oracle.instance.n
    start = oracle.queries
    oracle.name_run(range(1, n + 1), None, vote_threshold(p, delta))
    survivors = [i for i in range(1, n + 1) if check_bit(oracle, i, delta, p).decision == 1]
    phase1 = oracle.queries - start
    if not survivors:
        return OrRunReport(0, phase1, 0, ())
    if len(survivors) >= or_threshold(n, delta):
        return OrRunReport(1, phase1, 0, tuple(survivors))
    output = tournament_or(oracle, survivors, delta, p)
    return OrRunReport(output, phase1, oracle.queries - start - phase1, tuple(survivors))


def noisy_max_report(oracle: NoisyOracle, delta: float, p: float) -> MaxRunReport:
    """Run the two-phase MAX algorithm on the oracle's n values and report the phase breakdown.

    A subsample drawn with per-index probability 1/log n is tournamented
    to a champion; every unsampled element is compared against the
    champion once at tolerance delta, and the apparent beaters plus the
    champion go to a second tournament whose winner is returned.
    Worst-case error is at most 3 delta.

    An empty subsample (possible, with vanishing probability) is redrawn
    until nonempty, which leaves the conditional law of the sample
    unchanged.
    """
    n = oracle.instance.n
    q = sampling_probability(n)
    rng = oracle.algorithm_rng
    if q >= 1.0:
        sample, others = list(range(1, n + 1)), []
    else:
        while True:
            mask = rng.random(n) < q
            if mask.any():
                break
        sample = (mask.nonzero()[0] + 1).tolist()
        others = ((~mask).nonzero()[0] + 1).tolist()  # the unsampled indices, in order
    start = oracle.queries

    champion = tournament_max(oracle, sample, delta, p)
    before_compares = oracle.queries

    oracle.name_run([champion] * len(others), others, vote_threshold(p, delta))
    shortlist = [champion, *(u for u in others if noisy_compare(oracle, champion, u, delta, p).decision)]
    phase1 = oracle.queries - before_compares

    output = tournament_max(oracle, shortlist, delta, p)
    sub = oracle.queries - start - phase1
    return MaxRunReport(
        output=output,
        phase1_queries=phase1,
        subroutine_queries=sub,
        sample=tuple(sample),
        champion=champion,
        shortlist=tuple(shortlist),
    )

