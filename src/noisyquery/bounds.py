"""Closed-form query-complexity bounds for noisy OR/MAX computation.

All divergences and logarithms are natural (nats) unless a name says
otherwise; ``noisyquery bounds`` prints the binary entropy in nats and in
bits.
"""

from __future__ import annotations

import math
import sys

from .errors import ContractViolation


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ContractViolation(message)


def _require_n(n: int) -> None:
    """Refuse an n below 1, or one too large for the float arithmetic of the bounds."""
    _require(n >= 1, f"n must be >= 1, got {n}")
    _require(n <= sys.float_info.max, f"n must be at most {sys.float_info.max!r}, got a {len(str(n))}-digit n")


def log_inverse(x: float) -> float:
    """log(1/x) for x > 0; taken as -log(x) where 1/x overflows (x below 2**-1024, subnormal)."""
    inverse = 1.0 / x
    return math.log(inverse) if inverse < math.inf else -math.log(x)


def log_odds(p: float) -> float:
    """log((1-p)/p) for 0 < p < 1; taken as log1p(-p) - log(p) where (1-p)/p overflows (p below 2**-1024)."""
    ratio = (1.0 - p) / p
    return math.log(ratio) if ratio < math.inf else math.log1p(-p) - math.log(p)


def kl_pq(p: float) -> float:
    """KL divergence D(Bern(p) || Bern(1-p)) = (1-2p) log((1-p)/p), in nats.

    Symmetric about 1/2, nonnegative, and zero only at p = 1/2.
    """
    _require(0.0 < p < 1.0, f"p must lie in (0, 1), got {p} (divergence diverges at 0 and 1)")
    if p == 0.5:
        return 0.0
    return (1.0 - 2.0 * p) * log_odds(p)


def binary_entropy(p: float) -> float:
    """Binary entropy H(p) in nats, with H(0) = H(1) = 0 by continuity."""
    _require(0.0 <= p <= 1.0, f"p must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))


def lecam_floor(n: int, m: float, p: float) -> float:
    """Worst-case error floor (1/4) exp(-m D/n) for any strategy with m expected queries."""
    _require_n(n)
    _require(m >= 0.0, f"m must be >= 0, got {m}")
    _require(0.0 < p < 0.5, f"p must lie in (0, 1/2), got {p}")
    return 0.25 * math.exp(-m * kl_pq(p) / n)


def upper_budget(n: int, delta: float, p: float) -> float:
    """Leading-order achievable budget n log(1/delta) / D(p || 1-p).

    The vanishing correction factor is deliberately not included; callers
    compare measured means against this leading term.  ``delta = 1`` is
    accepted as degenerate arithmetic (budget 0) even though the
    algorithms themselves reject it.
    """
    _require_n(n)
    _require(0.0 < delta <= 1.0, f"delta must lie in (0, 1], got {delta}")
    _require(0.0 < p < 0.5, f"p must lie in (0, 1/2), got {p}")
    return n * log_inverse(delta) / kl_pq(p)


def lecam_budget(n: int, delta: float, p: float) -> float:
    """Minimum expected queries n log(1/(4 delta)) / D forced by the error floor.

    Inverts :func:`lecam_floor`: any strategy whose worst-case error is at
    most ``delta`` must spend at least this many queries in expectation.
    For delta >= 1/4 the floor is vacuous and the forced budget is 0.
    """
    _require_n(n)
    _require(0.0 < delta < 0.5, f"delta must lie in (0, 1/2), got {delta}")
    _require(0.0 < p < 0.5, f"p must lie in (0, 1/2), got {p}")
    return max(0.0, n * log_inverse(4.0 * delta) / kl_pq(p))


def checkbit_budget(delta: float, p: float) -> float:
    """Expected-query bound (1/(1-2p)) ceil(log((1-delta)/delta) / log((1-p)/p)) for one stopped walk."""
    from .primitives import vote_threshold  # local import: primitives imports this module

    return vote_threshold(p, delta) / (1.0 - 2.0 * p)


def regime_ratio(delta: float, p: float) -> float:
    """The ratio log(1/delta)/log(1/p) that separates the varying-p regimes."""
    _require(0.0 < delta < 1.0, f"delta must lie in (0, 1), got {delta}")
    _require(0.0 < p < 0.5, f"p must lie in (0, 1/2), got {p}")
    return log_inverse(delta) / log_inverse(p)


def regime_label(ratio: float) -> str:
    """Classify a regime ratio as omega(1)-like, o(1)-like, or constant-gap.

    The thresholds 10 and 0.1 are presentation heuristics for a single
    (delta, p) point; the asymptotic statements only make sense along
    sequences.
    """
    if ratio >= 10.0:
        return "omega(1)-like: KL term dominates, bounds tight"
    if ratio <= 0.1:
        return "o(1)-like: linear term dominates, bounds tight"
    return "Theta(1): constant gap, bounds tight up to constant"

