"""The two-phase optimal algorithms for noisy OR and noisy MAX.

Both spend almost their whole budget on cheap per-element primitives at
the full tolerance delta and reserve the expensive knockout tournament
for a sublinear shortlist: the OR algorithm tournaments only the bits
whose individual checks returned 1, the MAX algorithm only a random
subsample plus the elements that beat the subsample's champion.

Each takes an oracle and delta, reads n and the crossover probability p
off the oracle, and returns a :class:`RunReport`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bounds import log_inverse
from .errors import ContractViolation
from .oracles import NoisyOracle
from .primitives import check_bit, noisy_compare, vote_threshold
from .tournaments import or_half, tournament_max, tournament_or

__all__ = [
    "RunReport",
    "noisy_max_report",
    "noisy_or_report",
    "or_threshold",
    "sampling_probability",
]

_RUN = 1024  # the longest named run: a phase of about n walks names them this many at a time, so no run grows with n


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


class RunReport(NamedTuple):
    """Outcome and per-phase query accounting of one run of either algorithm."""

    output: int
    phase1_queries: int       # OR: the n bit checks; MAX: the comparisons against the sample champion
    subroutine_queries: int   # the tournaments that ran


def noisy_or_report(oracle: NoisyOracle, delta: float) -> RunReport:
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
    n, p = oracle.instance.n, oracle.p
    start = oracle.queries
    k, survivors = vote_threshold(p, delta), []
    for first in range(1, n + 1, _RUN):
        stop = min(first + _RUN, n + 1)
        oracle.name_run(np.arange(first, stop), None, k)
        survivors += [i for i in range(first, stop) if check_bit(oracle, i, delta).decision == 1]
    phase1 = oracle.queries - start
    if not survivors:
        return RunReport(0, phase1, 0)
    if len(survivors) >= or_threshold(n, delta):
        return RunReport(1, phase1, 0)
    output = tournament_or(oracle, survivors, delta)
    return RunReport(output, phase1, oracle.queries - start - phase1)


def noisy_max_report(oracle: NoisyOracle, delta: float) -> RunReport:
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
    n, p = oracle.instance.n, oracle.p
    q = sampling_probability(n)
    while True:
        mask = oracle.algorithm_rng.random(n) < q  # all true at n <= 2, where q is 1
        if mask.any():
            break
    sample = (mask.nonzero()[0] + 1).tolist()
    unsampled = (~mask).nonzero()[0] + 1  # the unsampled indices, in order
    start = oracle.queries

    champion = tournament_max(oracle, sample, delta)
    before_compares = oracle.queries

    k, shortlist = vote_threshold(p, delta), [champion]
    for first in range(0, len(unsampled), _RUN):
        run = unsampled[first : first + _RUN]
        oracle.name_run(np.full(len(run), champion), run, k)
        shortlist += [u for u in run.tolist() if noisy_compare(oracle, champion, u, delta).decision]
    phase1 = oracle.queries - before_compares

    output = tournament_max(oracle, shortlist, delta)
    return RunReport(output, phase1, oracle.queries - start - phase1)
