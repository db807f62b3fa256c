"""Knockout tournaments with a per-round halving error schedule.

Round i of a tournament over r entrants plays floor(r/2) positional
matches at tolerance delta 2^-i, after Feige, Raghavan, Peleg and Upfal,
"Computing with Noisy Information" (1994); an odd last entrant gets a bye
and is appended after the winners.  After ceil(log2 r) rounds one
survivor remains.  The true maximum, or any 1-bit, plays at most one
match a round, so its round errors sum to less than delta.

The OR variant decides each match by checking only the first element of
the pair (keeping it on a 1, else keeping the second) and finishes with
one more check of the survivor; it gives delta/2 to its bracket and
delta/2 to its final check, so it too errs at most delta.  The MAX
variant decides each match with a noisy comparison and returns the
survivor directly.  Both read the crossover probability p off the oracle.

Round tolerances underflow any float for deep brackets and small delta,
so the schedule is carried in log space and vote thresholds are computed
from logs directly.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import ContractViolation
from .oracles import NoisyOracle
from .primitives import check_bit, check_bit_log, noisy_compare_log, vote_threshold_log

__all__ = ["or_half", "round_log_errors", "round_thresholds", "tournament_max", "tournament_or"]


def round_log_errors(r: int, delta: float) -> list[float]:
    """log of each round's tolerance delta 2^-i, i = 1..ceil(log2 r), for a bracket of r entrants.

    Exact where the tolerance itself underflows.
    """
    if r < 1:
        raise ContractViolation(f"tournament size must be >= 1, got {r}")
    if not 0.0 < delta < 0.5:
        raise ContractViolation(f"delta must lie in (0, 1/2), got {delta}")
    return [math.log(delta) - i * math.log(2.0) for i in range(1, math.ceil(math.log2(r)) + 1)]


def round_thresholds(r: int, delta: float, p: float) -> list[int]:
    """The vote threshold of each round of a bracket of r entrants at crossover probability p."""
    return [vote_threshold_log(p, log_tol) for log_tol in round_log_errors(r, delta)]


def or_half(delta: float) -> float:
    """delta/2, the tolerance of both the bracket and the final check of an OR tournament erring at most delta."""
    if not 0.0 < delta < 0.5:
        raise ContractViolation(f"delta must lie in (0, 1/2), got {delta}")
    half = delta / 2.0
    if half == 0.0:
        raise ContractViolation(f"delta {delta!r} is too small to split in half")
    return half


def _play_rounds(entrants: Sequence[int], delta: float, play: Callable[[list, list, float], list[int]]) -> int:
    """Run the bracket to a single survivor; ``play(firsts, seconds, log_tol)`` lists a round's match winners.

    The schedule refuses an empty bracket and a delta outside (0, 1/2)
    before any match is played.
    """
    survivors = list(entrants)
    for log_tol in round_log_errors(len(survivors), delta):
        r = len(survivors)
        nxt = play(survivors[: r - r % 2 : 2], survivors[1::2], log_tol)
        if r % 2 == 1:
            nxt.append(survivors[-1])
        survivors = nxt
    return survivors[0]


def tournament_or(oracle: NoisyOracle, indices: Sequence[int], delta: float) -> int:
    """Estimate the OR of the bits at ``indices``; error probability at most delta.

    Matches check only the first element of each pair: a 1 keeps it, a 0
    advances the second.  The bracket plays at delta/2 and the last
    survivor is checked once more at delta/2; that decision is returned.
    A delta too small to halve is refused before any match is played.
    Each match is one lone walk.  An index out of range raises when it is
    first checked, after the earlier checks have been walked.
    """
    half, p = or_half(delta), oracle.p

    def play(firsts: list[int], seconds: list[int], log_tol: float) -> list[int]:
        return [a if check_bit_log(oracle, a, log_tol, p).decision == 1 else b for a, b in zip(firsts, seconds)]

    last = _play_rounds(indices, half, play)
    return check_bit(oracle, last, half).decision


def tournament_max(oracle: NoisyOracle, indices: Sequence[int], delta: float) -> int:
    """Return the index of the (estimated) maximum among ``indices``.

    Each match compares the pair once through the stopping primitive: a
    "less-than" verdict advances the second element, anything else the
    first.  A single entrant is returned immediately with no queries.
    Each match is one lone walk.  A bad entrant raises at its first
    match, after the earlier matches have been walked.
    """
    p = oracle.p

    def play(firsts: list[int], seconds: list[int], log_tol: float) -> list[int]:
        return [b if noisy_compare_log(oracle, a, b, log_tol, p).decision else a for a, b in zip(firsts, seconds)]

    return _play_rounds(indices, delta, play)
