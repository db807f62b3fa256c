"""Reference values and output checks for the benchmark.

The stopped-walk quantities are recomputed here from the gambler's-ruin
closed form and an exact duration recursion, without calling the
simulator.  The two n=1000 workloads are checked against the exact
predictors in ``noisyquery.exact_oracle``, the referee the simulator's
own acceptance suite uses; those never draw a random bit.

Every check returns a list of failure messages; an empty list passes.
Statistical checks allow sampling error at about five sigma: a false
alarm has probability near 1e-6 per check.
"""

from __future__ import annotations

import math

ALPHA = 1e-6  # two-sided false-alarm probability of one binomial check
Z = 5.0  # sigmas allowed for a mean


def vote_threshold(p: float, delta: float) -> int:
    """Net-vote margin K at which the posterior of one walk leaves (delta, 1 - delta)."""
    return math.ceil(math.log((1.0 - delta) / delta) / math.log((1.0 - p) / p))


def walk_closed_form(p: float, k: int) -> tuple[float, float]:
    """(error probability, expected queries) of the +/-K walk with up-probability 1 - p.

    Gambler's ruin from the centre: the walk ends at -K with probability
    1 / (1 + lambda^K), lambda = (1-p)/p, and Wald's identity gives
    E[T] = K (1 - 2 err) / (1 - 2p).
    """
    err = 1.0 / (1.0 + ((1.0 - p) / p) ** k)
    return err, k * (1.0 - 2.0 * err) / (1.0 - 2.0 * p)


def walk_duration_moments(p: float, k: int, tail: float = 1e-15) -> tuple[float, float, float]:
    """(error probability, mean, variance) of the walk's duration by forward recursion.

    Propagates the distribution over the 2K-1 open positions one query
    at a time until less than ``tail`` of the mass is left.
    """
    probs = [0.0] * (2 * k + 1)  # position d = index - k
    probs[k] = 1.0
    err = mean = second = 0.0
    t = 0
    alive = 1.0
    while alive > tail:
        t += 1
        nxt = [0.0] * (2 * k + 1)
        for idx in range(1, 2 * k):
            mass = probs[idx]
            if mass:
                nxt[idx + 1] += mass * (1.0 - p)
                nxt[idx - 1] += mass * p
        stopped = nxt[0] + nxt[2 * k]
        err += nxt[0]
        mean += t * stopped
        second += t * t * stopped
        nxt[0] = nxt[2 * k] = 0.0
        probs = nxt
        alive -= stopped
    return err, mean, second - mean * mean


def _log_binom_pmf(n: int, q: float, i: int) -> float:
    return (
        math.lgamma(n + 1)
        - math.lgamma(i + 1)
        - math.lgamma(n - i + 1)
        + i * math.log(q)
        + (n - i) * math.log1p(-q)
    )


def binom_upper_tail(n: int, q: float, k: int) -> float:
    """P(X >= k) for X ~ Binomial(n, q)."""
    if k <= 0:
        return 1.0
    if q <= 0.0:
        return 0.0
    return min(1.0, sum(math.exp(_log_binom_pmf(n, q, i)) for i in range(k, n + 1)))


def binom_lower_tail(n: int, q: float, k: int) -> float:
    """P(X <= k) for X ~ Binomial(n, q)."""
    if k >= n:
        return 1.0
    if q <= 0.0:
        return 1.0
    return min(1.0, sum(math.exp(_log_binom_pmf(n, q, i)) for i in range(0, k + 1)))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_error_bound(label: str, errors: int, trials: int, bound: float) -> list[str]:
    """The error count is not significantly above what an error rate of ``bound`` allows."""
    tail = binom_upper_tail(trials, bound, errors)
    if tail < ALPHA:
        return [f"{label}: {errors}/{trials} errors exceed the proven bound {bound} (P={tail:.2e})"]
    return []


def check_error_rate(label: str, errors: int, trials: int, expected: float) -> list[str]:
    """The error count agrees with an exact error probability, two-sided."""
    hi = binom_upper_tail(trials, expected, errors)
    lo = binom_lower_tail(trials, expected, errors)
    if min(hi, lo) < ALPHA / 2:
        return [
            f"{label}: {errors}/{trials} errors disagree with exact rate {expected:.6g} "
            f"(P(X>=k)={hi:.2e}, P(X<=k)={lo:.2e})"
        ]
    return []


def check_mean(label: str, mean: float, expected: float, se: float, slack: float = 0.0) -> list[str]:
    """A mean agrees with its prediction within Z standard errors plus a stated bias."""
    allowed = Z * se + slack
    if not abs(mean - expected) <= allowed:
        return [
            f"{label}: mean queries {mean:.6g} vs predicted {expected:.6g} "
            f"(|diff| {abs(mean - expected):.4g} > allowed {allowed:.4g})"
        ]
    return []


def check_phase_split(label: str, row: dict) -> list[str]:
    """The per-phase means of an output row add up to its mean."""
    total = row["phase1_mean_queries"] + row["subroutine_mean_queries"]
    if not abs(total - row["mean_queries"]) <= 1e-9 * max(1.0, row["mean_queries"]):
        return [
            f"{label}: phase split {row['phase1_mean_queries']} + "
            f"{row['subroutine_mean_queries']} != mean {row['mean_queries']}"
        ]
    return []


def check_row_against_trials(label: str, row: dict, raw: list[dict]) -> list[str]:
    """An aggregated row states what its own per-trial records say."""
    failures = []
    m = len(raw)
    if m != row["trials"]:
        return [f"{label}: {m} per-trial records for {row['trials']} trials"]
    if sorted(t["trial_index"] for t in raw) != list(range(m)):
        failures.append(f"{label}: per-trial records do not cover trials 0..{m - 1}")
    errors = sum(1 for t in raw if not t["correct"])
    if errors != row["errors"]:
        failures.append(f"{label}: row says {row['errors']} errors, records say {errors}")
    total = sum(t["queries"] for t in raw)
    if not abs(total / m - row["mean_queries"]) <= 1e-9 * max(1.0, row["mean_queries"]):
        failures.append(f"{label}: row mean {row['mean_queries']} != record mean {total / m}")
    for t in raw:
        if t["phase1_queries"] + t["subroutine_queries"] != t["queries"]:
            failures.append(f"{label}: trial {t['trial_index']} phase split does not sum")
            break
    return failures


def sample_mean_se(values: list[float]) -> tuple[float, float]:
    """Sample mean and its standard error."""
    m = len(values)
    mean = sum(values) / m
    if m < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (m - 1)
    return mean, math.sqrt(var / m)
