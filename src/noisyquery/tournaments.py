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
survivor directly.

Round tolerances underflow any float for deep brackets and small delta,
so the schedule is carried in log space and vote thresholds are computed
from logs directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ContractViolation
from .oracles import NoisyOracle
from .primitives import check_bit, check_bit_log, noisy_compare_log, vote_threshold_log

__all__ = ["RoundSchedule", "tournament_max", "tournament_or"]

@dataclass(frozen=True)
class RoundSchedule:
    """The per-round error budget delta 2^-i of one bracket, held in log space."""

    delta: float
    rounds: int

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 0.5:
            raise ContractViolation(f"delta must lie in (0, 1/2), got {self.delta}")
        if self.rounds < 0:
            raise ContractViolation(f"rounds must be >= 0, got {self.rounds}")

    @classmethod
    def for_size(cls, r: int, delta: float) -> "RoundSchedule":
        if r < 1:
            raise ContractViolation(f"tournament size must be >= 1, got {r}")
        return cls(delta=delta, rounds=math.ceil(math.log2(r)))

    @staticmethod
    def or_split(delta: float) -> tuple[float, float]:
        """(bracket, final check) tolerances of an OR tournament that may err with probability delta."""
        if not 0.0 < delta < 0.5:
            raise ContractViolation(f"delta must lie in (0, 1/2), got {delta}")
        half = delta / 2.0
        if half == 0.0:
            raise ContractViolation(f"delta {delta!r} is too small to split in half")
        return half, half

    def log_round_error(self, i: int) -> float:
        """log of the round-i tolerance; exact where the tolerance itself underflows."""
        if not 1 <= i <= max(self.rounds, 1):
            raise ContractViolation(f"round index {i} outside 1..{self.rounds}")
        return math.log(self.delta) - i * math.log(2.0)

    def vote_thresholds(self, p: float) -> list[int]:
        """The vote threshold of rounds 1..rounds at crossover probability p."""
        return [vote_threshold_log(p, self.log_round_error(i)) for i in range(1, self.rounds + 1)]


def _play_rounds(entrants: Sequence[int], delta: float, play: Callable[[list, list, float], list[int]]) -> int:
    """Run the bracket to a single survivor; ``play(firsts, seconds, log_tol)`` lists a round's match winners.

    The schedule refuses an empty bracket and a delta outside (0, 1/2)
    before any match is played.
    """
    schedule = RoundSchedule.for_size(len(entrants), delta)
    survivors = list(entrants)
    for i in range(1, schedule.rounds + 1):
        r = len(survivors)
        nxt = play(survivors[: r - r % 2 : 2], survivors[1::2], schedule.log_round_error(i))
        if r % 2 == 1:
            nxt.append(survivors[-1])
        survivors = nxt
    return survivors[0]


def tournament_or(oracle: NoisyOracle, indices: Sequence[int], delta: float, p: float) -> int:
    """Estimate the OR of the bits at ``indices``; error probability at most delta.

    Matches check only the first element of each pair: a 1 keeps it, a 0
    advances the second.  The bracket plays at delta/2 and the last
    survivor is checked once more at delta/2; that decision is returned.
    A delta too small to halve is refused before any match is played.
    Each round's checks are named on the oracle as one run of walks.
    """
    bracket_delta, final_delta = RoundSchedule.or_split(delta)

    def play(firsts: list[int], seconds: list[int], log_tol: float) -> list[int]:
        oracle.name_run(firsts, None, vote_threshold_log(p, log_tol))
        return [a if check_bit_log(oracle, a, log_tol, p).decision == 1 else b for a, b in zip(firsts, seconds)]

    last = _play_rounds(indices, bracket_delta, play)
    return check_bit(oracle, last, final_delta, p).decision


def tournament_max(oracle: NoisyOracle, indices: Sequence[int], delta: float, p: float) -> int:
    """Return the index of the (estimated) maximum among ``indices``.

    Each match compares the pair once through the stopping primitive: a
    "less-than" verdict advances the second element, anything else the
    first.  A single entrant is returned immediately with no queries.
    Each round's comparisons are named on the oracle as one run of walks.
    """
    def play(firsts: list[int], seconds: list[int], log_tol: float) -> list[int]:
        oracle.name_run(firsts, seconds, vote_threshold_log(p, log_tol))
        return [b if noisy_compare_log(oracle, a, b, log_tol, p).decision else a for a, b in zip(firsts, seconds)]

    return _play_rounds(indices, delta, play)
