"""Independent ground truth for the stopping walks and tiny algorithm instances.

Three layers, each checking the one below:

* :func:`analyze_walk` gives the closed-form absorption probability and
  expected absorption time of the +/-K vote walk (the stopping rule both
  primitives reduce to).
* :func:`analyze_walk_markov` recomputes both by a dense linear solve of
  the absorbing chain; :func:`walk_branch_stats` solves the conditional
  expected durations exactly in rational arithmetic, which the
  enumerators need because an algorithm's future depends on each
  decision.
* :func:`enumerate_tournament` walks every decision path of a whole
  algorithm on a tiny instance, yielding the exact output distribution,
  error probability, and expected query count.

The implementations consume oracle answers query by query; the analysis
here never draws a single random bit.  It shares only the vote threshold
(:func:`~noisyquery.primitives.vote_threshold` and its log form) and the
round schedule (:class:`~noisyquery.tournaments.RoundSchedule`) with them,
and the tests pin the values of both independently.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ContractViolation, EnumerationCapError
from .oracles import BitInstance, ValueInstance
from .primitives import vote_threshold
from .toplevel import or_threshold, sampling_probability
from .tournaments import RoundSchedule

__all__ = [
    "EnumerationResult",
    "WalkAnalysis",
    "WalkBranchStats",
    "analyze_walk",
    "analyze_walk_markov",
    "enumerate_tournament",
    "expected_queries_noisy_max",
    "expected_queries_noisy_or",
    "noisy_or_error_all_zero",
    "tournament_max_cost",
    "tournament_or_cost",
    "walk_branch_stats",
]

_PATH_CAP = 10_000_000
_FULL_ALGO_N_CAP = 4
_FULL_ALGO_K_CAP = 8
_TOURNAMENT_N_CAP = 8


@dataclass(frozen=True)
class WalkAnalysis:
    """Closed-form absorption statistics of the +/-K walk with up-probability 1-p."""

    p: float
    threshold: int
    lam: float
    error_probability: float
    expected_queries: float


def _check_walk(p: float, threshold: int) -> None:
    if not 0.0 < p < 0.5:
        raise ContractViolation(f"p must lie in (0, 1/2), got {p}")
    if threshold < 1:
        raise ContractViolation(f"threshold must be >= 1, got {threshold}")


def analyze_walk(p: float, threshold: int) -> WalkAnalysis:
    """Gambler's-ruin closed form for the stopping walk.

    The walk starts at 0, steps +1 with probability 1-p (the truthful
    direction) and -1 with probability p, and stops at +/-K.  Absorption
    at -K is the error.
    """
    _check_walk(p, threshold)
    lam = (1.0 - p) / p
    try:
        power = lam**threshold
    except OverflowError:  # (p = 0.25 from K = 647): the error is below float range
        power = math.inf
    error = 1.0 / (1.0 + power)
    win = 1.0 / (1.0 + lam**-threshold)  # underflows to 0.0 where power overflows
    expected = (threshold - 2.0 * threshold * win) / (p - (1.0 - p))
    return WalkAnalysis(
        p=p, threshold=threshold, lam=lam, error_probability=error, expected_queries=expected
    )


def analyze_walk_markov(p: float, threshold: int) -> WalkAnalysis:
    """The same statistics by a dense absorbing-chain linear solve.

    Cross-check for :func:`analyze_walk`; practical for K up to a few
    hundred (the transient space has 2K - 1 states).
    """
    _check_walk(p, threshold)
    k = threshold
    m = 2 * k - 1  # transient states d = -K+1 .. K-1
    up = 1.0 - p
    q_mat = np.zeros((m, m))
    lose_rhs = np.zeros(m)
    for s in range(m):
        d = s - (k - 1)
        if d + 1 < k:
            q_mat[s, s + 1] = up
        if d - 1 == -k:
            lose_rhs[s] = p  # one step to the -K boundary
        else:
            q_mat[s, s - 1] = p
    eye = np.eye(m)
    # Solving for the losing side directly keeps tiny error probabilities
    # free of 1 - (1 - eps) cancellation.
    lose = np.linalg.solve(eye - q_mat, lose_rhs)
    time = np.linalg.solve(eye - q_mat, np.ones(m))
    start = k - 1  # d = 0
    return WalkAnalysis(
        p=p,
        threshold=threshold,
        lam=(1.0 - p) / p,
        error_probability=float(lose[start]),
        expected_queries=float(time[start]),
    )


@dataclass(frozen=True)
class WalkBranchStats:
    """Decision-conditional walk statistics.

    ``correct_prob`` is the probability the walk absorbs on the side the
    true answer favours; ``error_prob`` is its exact complement,
    converted from rational arithmetic separately so that tiny values
    survive.  The conditional expected durations are carried because an
    enumerated algorithm's future depends on each decision; for this walk
    they happen to coincide (symmetric barriers, centered start), which
    doubles as a solver check.
    """

    p: float
    threshold: int
    correct_prob: float
    error_prob: float
    expected_queries: float
    expected_queries_correct: float
    expected_queries_wrong: float


def _solve_tridiagonal(
    lower: list[Fraction], diag: list[Fraction], upper: list[Fraction], rhs: list[Fraction]
) -> list[Fraction]:
    # Thomas algorithm in exact rational arithmetic.
    m = len(diag)
    c = [Fraction(0)] * m
    d = [Fraction(0)] * m
    c[0] = upper[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, m):
        denom = diag[i] - lower[i] * c[i - 1]
        if i < m - 1:
            c[i] = upper[i] / denom
        d[i] = (rhs[i] - lower[i] * d[i - 1]) / denom
    x = [Fraction(0)] * m
    x[m - 1] = d[m - 1]
    for i in range(m - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


@lru_cache(maxsize=None)
def _branch_stats_cached(p: float, threshold: int) -> WalkBranchStats:
    k = threshold
    m = 2 * k - 1
    up = Fraction(1) - Fraction(p)
    down = Fraction(p)
    one = Fraction(1)

    # (I - Q) x = rhs systems over transient states d = -K+1 .. K-1.
    lower = [-down] * m
    diag = [one] * m
    upper = [-up] * m

    # Win probability h: rhs collects the jump onto the +K boundary.
    rhs_h = [Fraction(0)] * m
    rhs_h[m - 1] = up
    h = _solve_tridiagonal(lower, diag, upper, rhs_h)

    # Unconditional expected time t.
    t = _solve_tridiagonal(lower, diag, upper, [one] * m)

    # w = E[T 1{win}]: rhs is the harmonic average of h including boundaries.
    h_full = [Fraction(0), *h, one]
    rhs_w = [down * h_full[s] + up * h_full[s + 2] for s in range(m)]
    w = _solve_tridiagonal(lower, diag, upper, rhs_w)

    start = k - 1
    win = h[start]
    e_win = w[start] / win
    e_lose = (t[start] - w[start]) / (one - win)
    return WalkBranchStats(
        p=p,
        threshold=threshold,
        correct_prob=float(win),
        error_prob=float(one - win),
        expected_queries=float(t[start]),
        expected_queries_correct=float(e_win),
        expected_queries_wrong=float(e_lose),
    )


def walk_branch_stats(p: float, threshold: int) -> WalkBranchStats:
    """Exact conditional absorption statistics (rational solve, cached)."""
    _check_walk(p, threshold)
    return _branch_stats_cached(float(p), int(threshold))


# ---------------------------------------------------------------------------
# Expected-cost helpers (composition-independent parts of the algorithms)
# ---------------------------------------------------------------------------


def _round_thresholds(r: int, delta: float, p: float) -> list[tuple[int, int]]:
    """(matches, vote threshold) per round of a knockout over r entrants."""
    out = []
    size = r
    for k in RoundSchedule.for_size(r, delta).vote_thresholds(p):
        out.append((size // 2, k))
        size = (size + 1) // 2
    return out


def tournament_max_cost(r: int, delta: float, p: float) -> float:
    """Exact expected comparisons of a MAX knockout over r entrants.

    Match counts and round tolerances are fixed by r alone, and each
    match's duration law depends only on its vote threshold, so the
    expectation is composition-independent.
    """
    return sum(
        matches * analyze_walk(p, k).expected_queries for matches, k in _round_thresholds(r, delta, p)
    )


def tournament_or_cost(r: int, delta: float, p: float) -> float:
    """Exact expected reads of an OR knockout over r entrants (final check included)."""
    bracket, final = RoundSchedule.or_split(delta)
    final_check = analyze_walk(p, vote_threshold(p, final)).expected_queries
    return tournament_max_cost(r, bracket, p) + final_check


def _binom_pmf_window(n: int, q: float) -> tuple[int, np.ndarray]:
    """Binomial(n, q) pmf on a window covering all but ~1e-15 of the mass."""
    if q <= 0.0:
        return 0, np.array([1.0])
    if q >= 1.0:
        return n, np.array([1.0])
    mean = n * q
    sd = math.sqrt(n * q * (1.0 - q))
    lo = max(0, int(mean - 12.0 * sd - 2))
    hi = min(n, int(mean + 12.0 * sd + 2))
    ks = np.arange(lo, hi + 1)
    log_pmf = (
        _lgamma_vec(n + 1)
        - _lgamma_vec(ks + 1)
        - _lgamma_vec(n - ks + 1)
        + ks * math.log(q)
        + (n - ks) * math.log1p(-q)
    )
    return lo, np.exp(log_pmf)


def _lgamma_vec(x):
    return np.vectorize(math.lgamma)(np.asarray(x, dtype=float))


def noisy_or_error_all_zero(n: int, delta: float, p: float) -> float:
    """Exact error probability of the two-phase OR algorithm on the all-zero input.

    Every first-phase survivor is a false positive (rate exactly the walk
    error), and a tournament over zero bits errs exactly when its final
    check does, independent of the bracket path.
    """
    err = analyze_walk(p, vote_threshold(p, delta)).error_probability
    _, final = RoundSchedule.or_split(delta)
    final_err = analyze_walk(p, vote_threshold(p, final)).error_probability
    theta = or_threshold(n, delta)
    lo, pmf = _binom_pmf_window(n, err)
    error = 0.0
    for offset, mass in enumerate(pmf):
        s = lo + offset
        if s == 0:
            continue
        error += mass * (1.0 if s >= theta else final_err)
    return error


def expected_queries_noisy_or(instance: BitInstance, delta: float, p: float) -> float:
    """Exact expected total queries of the two-phase OR algorithm.

    The first phase is n independent stopped walks; the tournament cost
    depends only on the survivor count, whose law is the convolution of
    the per-bit survival Bernoullis.
    """
    n = instance.n
    k = vote_threshold(p, delta)
    walk = analyze_walk(p, k)
    err = walk.error_probability
    ones = sum(instance.bits)
    zeros = n - ones
    # Survivor count = Binom(ones, 1-err) + Binom(zeros, err).
    lo1, pmf1 = _binom_pmf_window(ones, 1.0 - err) if ones else (0, np.array([1.0]))
    lo0, pmf0 = _binom_pmf_window(zeros, err) if zeros else (0, np.array([1.0]))
    pmf = np.convolve(pmf1, pmf0)
    lo = lo1 + lo0
    theta = or_threshold(n, delta)
    tournament = 0.0
    for offset, mass in enumerate(pmf):
        s = lo + offset
        if s == 0 or s >= theta or mass == 0.0:
            continue
        tournament += mass * tournament_or_cost(s, delta, p)
    return n * walk.expected_queries + tournament


def expected_queries_noisy_max(n: int, delta: float, p: float) -> float:
    """Expected total queries of the two-phase MAX algorithm, to first order.

    Exact in the sampling randomness and all walk durations; the only
    approximation is assuming the sample tournament crowns the sample
    maximum, so the result is accurate to a relative O(delta).  Valid for
    any distinct-values instance: only ranks enter the calculation.
    """
    if n < 1:
        raise ContractViolation(f"n must be >= 1, got {n}")
    q = sampling_probability(n)
    k = vote_threshold(p, delta)
    walk = analyze_walk(p, k)
    err = walk.error_probability

    if q >= 1.0:
        return tournament_max_cost(n, delta, p) + tournament_max_cost(1, delta, p)

    # Sample size (conditioned nonempty) drives the first tournament and
    # the number of champion comparisons.
    lo_s, pmf_s = _binom_pmf_window(n, q)
    nonempty = 1.0 - math.exp(n * math.log1p(-q))
    first_tournament = 0.0
    mean_sample = 0.0
    for offset, mass in enumerate(pmf_s):
        s = lo_s + offset
        if s == 0:
            continue
        w = mass / nonempty
        first_tournament += w * tournament_max_cost(s, delta, p)
        mean_sample += w * s
    compares = (n - mean_sample) * walk.expected_queries

    # Rank J of the sample maximum (1 = global max) is geometric with rate
    # q; given J = j the shortlist is 1 + Binom(j-1, 1-err) apparent
    # beaters + Binom(n-j, (1-q) err) false positives from below.
    second_tournament = 0.0
    tail = 1.0
    j = 1
    while j <= n and tail > 1e-14:
        pj = (q * (1.0 - q) ** (j - 1)) / nonempty if j < n else tail / nonempty
        lo_a, pmf_a = _binom_pmf_window(j - 1, 1.0 - err)
        lo_b, pmf_b = _binom_pmf_window(n - j, (1.0 - q) * err)
        pmf_z = np.convolve(pmf_a, pmf_b)
        lo_z = 1 + lo_a + lo_b
        cost = sum(
            mass * tournament_max_cost(lo_z + off, delta, p)
            for off, mass in enumerate(pmf_z)
            if mass > 1e-15
        )
        second_tournament += pj * cost
        tail -= q * (1.0 - q) ** (j - 1)
        j += 1

    return first_tournament + compares + second_tournament


# ---------------------------------------------------------------------------
# Exhaustive decision-path enumeration for tiny instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationResult:
    """Exact output law of an algorithm on one instance."""

    error_probability: float
    expected_queries: float
    outcome_probs: dict[int, float]


def _decision_branches(truth: bool, stats: WalkBranchStats) -> list[tuple[bool, float, float]]:
    """Branches labelled by the returned decision for a call whose true answer is ``truth``."""
    return [
        (truth, stats.correct_prob, stats.expected_queries_correct),
        (not truth, stats.error_prob, stats.expected_queries_wrong),
    ]


def _enum_knockout(
    entrants: list[tuple[int, float]],
    delta: float,
    p: float,
    is_max: bool,
) -> list[tuple[float, float, tuple[int, float]]]:
    """All (prob, expected queries, survivor) leaves of one knockout bracket.

    Entrants are (index, key) pairs; for the OR variant the key is the
    bit value and a match checks the first element, for the MAX variant
    the key is the value and a match compares the pair.
    """
    leaves = [(1.0, 0.0, list(entrants))]
    for k in RoundSchedule.for_size(len(entrants), delta).vote_thresholds(p):
        stats = walk_branch_stats(p, k)
        new_leaves = []
        for prob, eq, survivors in leaves:
            r = len(survivors)
            partials = [(prob, eq, [])]
            for j in range(r // 2):
                first, second = survivors[2 * j], survivors[2 * j + 1]
                if is_max:
                    truth_less = first[1] < second[1]
                    branches = [
                        (second if dec else first, pr, cost)
                        for dec, pr, cost in _decision_branches(truth_less, stats)
                    ]
                else:
                    branches = [
                        (first if dec else second, pr, cost)
                        for dec, pr, cost in _decision_branches(first[1] == 1, stats)
                    ]
                partials = [
                    (pp * pr, ee + cost, acc + [winner])
                    for pp, ee, acc in partials
                    for winner, pr, cost in branches
                ]
            carry = [survivors[-1]] if r % 2 == 1 else []
            new_leaves.extend((pp, ee, acc + carry) for pp, ee, acc in partials)
        leaves = new_leaves
    return [(prob, eq, survivors[0]) for prob, eq, survivors in leaves]


def _enum_or_decisions(
    entrants: list[tuple[int, float]], delta: float, p: float
) -> list[tuple[float, float, bool]]:
    """All (prob, expected queries, decision) leaves of an OR tournament, final check included."""
    bracket, final = RoundSchedule.or_split(delta)
    final_stats = walk_branch_stats(p, vote_threshold(p, final))
    return [
        (prob * pr, eq + cost, dec)
        for prob, eq, (_idx, bit) in _enum_knockout(entrants, bracket, p, is_max=False)
        for dec, pr, cost in _decision_branches(bit == 1.0, final_stats)
    ]


def _enum_tournament_or(instance: BitInstance, delta: float, p: float) -> EnumerationResult:
    entrants = [(i + 1, float(b)) for i, b in enumerate(instance.bits)]
    out = {0: 0.0, 1: 0.0}
    eq_total = 0.0
    for prob, eq, dec in _enum_or_decisions(entrants, delta, p):
        out[1 if dec else 0] += prob
        eq_total += prob * eq
    truth = instance.truth()
    return EnumerationResult(
        error_probability=out[1 - truth], expected_queries=eq_total, outcome_probs=out
    )


def _enum_tournament_max(instance: ValueInstance, delta: float, p: float) -> EnumerationResult:
    entrants = [(i + 1, v) for i, v in enumerate(instance.values)]
    out: dict[int, float] = {}
    eq_total = 0.0
    for prob, eq, (idx, _val) in _enum_knockout(entrants, delta, p, is_max=True):
        out[idx] = out.get(idx, 0.0) + prob
        eq_total += prob * eq
    truth = instance.truth()
    error = sum(pr for idx, pr in out.items() if idx != truth)
    return EnumerationResult(error_probability=error, expected_queries=eq_total, outcome_probs=out)


def _enum_noisy_or(instance: BitInstance, delta: float, p: float) -> EnumerationResult:
    n = instance.n
    stats = walk_branch_stats(p, vote_threshold(p, delta))
    theta = or_threshold(n, delta)
    out = {0: 0.0, 1: 0.0}
    eq_total = 0.0
    # Phase-1 outcomes: which bits end up on the survivor list.
    phase: list[tuple[float, float, list[tuple[int, float]]]] = [(1.0, 0.0, [])]
    for i, b in enumerate(instance.bits):
        nxt = []
        for prob, eq, survivors in phase:
            for dec, pr, cost in _decision_branches(b == 1, stats):
                kept = survivors + [(i + 1, float(b))] if dec else survivors
                nxt.append((prob * pr, eq + cost, kept))
        phase = nxt
    for prob, eq, survivors in phase:
        if not survivors:
            out[0] += prob
            eq_total += prob * eq
        elif len(survivors) >= theta:
            out[1] += prob
            eq_total += prob * eq
        else:
            for pr2, eq2, dec in _enum_or_decisions(survivors, delta, p):
                out[1 if dec else 0] += prob * pr2
                eq_total += prob * pr2 * (eq + eq2)
    truth = instance.truth()
    return EnumerationResult(
        error_probability=out[1 - truth], expected_queries=eq_total, outcome_probs=out
    )


def _enum_noisy_max(instance: ValueInstance, delta: float, p: float) -> EnumerationResult:
    n = instance.n
    q = sampling_probability(n)
    stats = walk_branch_stats(p, vote_threshold(p, delta))
    out: dict[int, float] = {}
    eq_total = 0.0
    nonempty = 1.0 - (1.0 - q) ** n if q < 1.0 else 1.0
    for mask in range(1, 1 << n):
        sample = [(i + 1, instance.values[i]) for i in range(n) if mask >> i & 1]
        if q >= 1.0:
            if len(sample) != n:
                continue
            weight = 1.0
        else:
            s = len(sample)
            weight = q**s * (1.0 - q) ** (n - s) / nonempty
        complement = [(i + 1, instance.values[i]) for i in range(n) if not mask >> i & 1]
        for pr1, eq1, champion in _enum_knockout(sample, delta, p, is_max=True):
            # Compare every unsampled element against the champion.
            states = [(pr1, eq1, [champion])]
            for u in complement:
                nxt = []
                truth_less = champion[1] < u[1]
                for prob, eq, shortlist in states:
                    for dec, pr, cost in _decision_branches(truth_less, stats):
                        nxt.append(
                            (prob * pr, eq + cost, shortlist + [u] if dec else shortlist)
                        )
                states = nxt
            for prob, eq, shortlist in states:
                for pr2, eq2, (idx, _v) in _enum_knockout(shortlist, delta, p, is_max=True):
                    out[idx] = out.get(idx, 0.0) + weight * prob * pr2
                    eq_total += weight * prob * pr2 * (eq + eq2)
    truth = instance.truth()
    error = sum(pr for idx, pr in out.items() if idx != truth)
    return EnumerationResult(error_probability=error, expected_queries=eq_total, outcome_probs=out)


def _reachable_thresholds(algorithm: str, n: int, delta: float, p: float) -> list[int]:
    """Vote thresholds an algorithm can actually reach on an n-element input.

    The OR algorithm only tournaments survivor sets strictly below its
    count cutoff, so deep (huge-threshold) rounds are often unreachable
    even when n alone would permit them.
    """
    if algorithm == "noisy-or":
        theta = or_threshold(n, delta)
        size = max(min(n, math.ceil(theta) - 1), 1)
        bracket, final = RoundSchedule.or_split(delta)
        checks = [vote_threshold(p, delta), vote_threshold(p, final)]
    else:
        size, bracket = n, delta
        checks = [vote_threshold(p, delta)]
    return [*checks, *RoundSchedule.for_size(size, bracket).vote_thresholds(p)]


# name -> (instance type, enumerator, largest input, largest reachable vote
# threshold or None); names are the CLI's algorithm names.
_ENUMERATORS = {
    "tournament-or": (BitInstance, _enum_tournament_or, _TOURNAMENT_N_CAP, None),
    "tournament-max": (ValueInstance, _enum_tournament_max, _TOURNAMENT_N_CAP, None),
    "noisy-or": (BitInstance, _enum_noisy_or, _FULL_ALGO_N_CAP, _FULL_ALGO_K_CAP),
    "noisy-max": (ValueInstance, _enum_noisy_max, _FULL_ALGO_N_CAP, _FULL_ALGO_K_CAP),
}


def enumerate_tournament(
    instance: BitInstance | ValueInstance,
    algorithm: str,
    delta: float,
    p: float,
) -> EnumerationResult:
    """Exact output law of an algorithm on a tiny instance by full path enumeration.

    Supported algorithms: ``tournament-or``, ``tournament-max`` (inputs up
    to 8 entrants), ``noisy-or``, ``noisy-max`` (inputs up to 4, with
    every reachable vote threshold at most 8).  Configurations beyond the
    caps are refused outright rather than approximated.
    """
    if not 0.0 < delta < 0.5:
        raise ContractViolation(f"delta must lie in (0, 1/2), got {delta}")
    if not 0.0 < p < 0.5:
        raise ContractViolation(f"p must lie in (0, 1/2), got {p}")
    if algorithm not in _ENUMERATORS:
        raise ContractViolation(f"unknown algorithm {algorithm!r}; choose from {', '.join(_ENUMERATORS)}")
    model, enumerate_paths, n_cap, k_cap = _ENUMERATORS[algorithm]
    n = instance.n
    if n > n_cap:
        raise EnumerationCapError(f"{algorithm} enumeration capped at n <= {n_cap}, got {n}")
    if k_cap is not None:
        k = max(_reachable_thresholds(algorithm, n, delta, p))
        if k > k_cap:
            raise EnumerationCapError(
                f"{algorithm} enumeration capped at vote thresholds <= {k_cap}, got {k}"
            )
    # Path count is dominated by one branch per primitive call.
    paths = 2 ** (2 * n + 2) * (2**n if algorithm == "noisy-max" else 1)
    if paths > _PATH_CAP:
        raise EnumerationCapError(f"enumeration would visit ~{paths} paths, above {_PATH_CAP}")
    if not isinstance(instance, model):
        raise ContractViolation(f"{algorithm} needs a {model.__name__}")
    return enumerate_paths(instance, delta, p)


# ---------------------------------------------------------------------------
# Verification registry: the enumerable configurations used for cross-checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyConfig:
    """One enumerable configuration with its applicable error guarantee.

    ``error_bound_multiplier`` scales delta (1 for the tournaments, 2 for
    the OR algorithm, 3 for the MAX algorithm).
    """

    name: str
    algorithm: str
    instance: BitInstance | ValueInstance
    delta: float
    p: float
    error_bound_multiplier: int


def verify_registry() -> list[VerifyConfig]:
    """Every enumerable configuration checked by verify and the acceptance suite."""
    b = lambda *bits: BitInstance(bits=tuple(bits))
    v = lambda *vals: ValueInstance(values=tuple(float(x) for x in vals))
    return [
        # Single tournaments (n <= 8).
        VerifyConfig("tor-n2-hot", "tournament-or", b(1, 0), 0.1, 0.25, 1),
        VerifyConfig("tor-n2-zero", "tournament-or", b(0, 0), 0.1, 0.25, 1),
        VerifyConfig("tor-n3-mid", "tournament-or", b(0, 1, 0), 0.05, 0.25, 1),
        VerifyConfig("tor-n4-zero", "tournament-or", b(0, 0, 0, 0), 0.05, 0.25, 1),
        VerifyConfig("tor-n4-pair", "tournament-or", b(0, 1, 1, 0), 0.05, 0.3, 1),
        VerifyConfig("tor-n8-tail", "tournament-or", b(0, 0, 0, 0, 0, 0, 0, 1), 0.05, 0.25, 1),
        VerifyConfig("tmax-n2", "tournament-max", v(1, 2), 0.1, 0.25, 1),
        VerifyConfig("tmax-n3-sorted", "tournament-max", v(1, 2, 3), 0.05, 0.3, 1),
        VerifyConfig("tmax-n4-sorted", "tournament-max", v(1, 2, 3, 4), 0.05, 0.25, 1),
        VerifyConfig("tmax-n4-reloc", "tournament-max", v(1, 4, 2, 3), 0.05, 0.1, 1),
        VerifyConfig("tmax-n8-sorted", "tournament-max", v(*range(1, 9)), 0.05, 0.25, 1),
        # Full OR algorithm (n <= 4, reachable thresholds <= 8).
        VerifyConfig("nor-n2-zero", "noisy-or", b(0, 0), 0.2, 0.25, 2),
        VerifyConfig("nor-n3-zero", "noisy-or", b(0, 0, 0), 0.1, 0.25, 2),
        VerifyConfig("nor-n3-one", "noisy-or", b(0, 1, 0), 0.1, 0.25, 2),
        VerifyConfig("nor-n4-one", "noisy-or", b(1, 0, 0, 0), 0.05, 0.3, 2),
        VerifyConfig("nor-n4-zero", "noisy-or", b(0, 0, 0, 0), 0.05, 0.1, 2),
        # Full MAX algorithm (n <= 3, reachable thresholds <= 8).
        VerifyConfig("nmax-n2", "noisy-max", v(1, 2), 0.2, 0.25, 3),
        VerifyConfig("nmax-n3-sorted", "noisy-max", v(1, 2, 3), 0.25, 0.25, 3),
        VerifyConfig("nmax-n3-reloc", "noisy-max", v(3, 1, 2), 0.25, 0.25, 3),
        VerifyConfig("nmax-n3-p15", "noisy-max", v(1, 2, 3), 0.25, 0.15, 3),
    ]


def _rel_err(a: float, ref: float) -> float:
    if ref == 0.0:
        return abs(a)
    return abs(a - ref) / abs(ref)


def run_verify_checks(mc_trials: int = 0) -> list[tuple[str, bool, str]]:
    """Cross-check every layer of the exact analysis; optionally against Monte Carlo.

    Returns (name, passed, detail) triples.  With ``mc_trials`` > 0 each
    registry configuration is also simulated that many times and compared
    against its enumeration at 5 binomial sigma on the error rate.
    """
    if mc_trials < 0:
        raise ContractViolation(f"mc_trials must be >= 0, got {mc_trials}")
    checks: list[tuple[str, bool, str]] = []

    # Closed form vs dense Markov solve, 12 significant digits.
    worst = 0.0
    for p in (0.05, 0.1, 0.25, 0.4, 0.45):
        for k in range(1, 31):
            cf = analyze_walk(p, k)
            mk = analyze_walk_markov(p, k)
            worst = max(
                worst,
                _rel_err(mk.error_probability, cf.error_probability),
                _rel_err(mk.expected_queries, cf.expected_queries),
            )
    checks.append(
        ("walk closed-form vs markov (K<=30)", worst < 1e-12, f"max rel err {worst:.2e}")
    )

    # Rational branch stats vs closed form, plus the equal-conditional-time identity.
    worst = 0.0
    for p in (0.05, 0.1, 0.25, 0.4, 0.45):
        for k in (1, 2, 3, 5, 8, 13, 21):
            cf = analyze_walk(p, k)
            br = walk_branch_stats(p, k)
            worst = max(
                worst,
                _rel_err(br.error_prob, cf.error_probability),
                _rel_err(br.expected_queries, cf.expected_queries),
                _rel_err(br.expected_queries_correct, br.expected_queries_wrong),
            )
    checks.append(("walk conditional stats vs closed form", worst < 1e-12, f"max rel err {worst:.2e}"))

    # Enumeration agrees with hand-derivable structure.
    single = enumerate_tournament(BitInstance(bits=(0,)), "tournament-or", 0.25, 0.25)
    cf1 = analyze_walk(0.25, vote_threshold(0.25, RoundSchedule.or_split(0.25)[1]))
    ok = (
        _rel_err(single.error_probability, cf1.error_probability) < 1e-12
        and _rel_err(single.expected_queries, cf1.expected_queries) < 1e-12
    )
    checks.append(("enumeration: single-entrant OR = one stopped walk", ok, ""))

    pair = enumerate_tournament(ValueInstance(values=(1.0, 2.0)), "tournament-max", 0.1, 0.25)
    (k2,) = RoundSchedule.for_size(2, 0.1).vote_thresholds(0.25)
    cf2 = analyze_walk(0.25, k2)
    ok = (
        _rel_err(pair.error_probability, cf2.error_probability) < 1e-12
        and _rel_err(pair.expected_queries, cf2.expected_queries) < 1e-12
    )
    checks.append(("enumeration: two-entrant MAX = one half-tolerance walk", ok, ""))

    # Three zeros at delta = 0.1: a lone survivor is below the cutoff log 3,
    # so it goes to the tournament and its final check at delta/2.
    zeros = BitInstance(bits=(0, 0, 0))
    enum_zeros = enumerate_tournament(zeros, "noisy-or", 0.1, 0.25)
    ok = (
        _rel_err(enum_zeros.error_probability, noisy_or_error_all_zero(3, 0.1, 0.25)) < 1e-9
        and _rel_err(enum_zeros.expected_queries, expected_queries_noisy_or(zeros, 0.1, 0.25)) < 1e-9
    )
    checks.append(
        (
            "enumeration vs structural OR predictor",
            ok,
            f"error {enum_zeros.error_probability:.6f}, mean {enum_zeros.expected_queries:.4f}",
        )
    )

    # Guarantee domination over the registry.
    for cfg in verify_registry():
        result = enumerate_tournament(cfg.instance, cfg.algorithm, cfg.delta, cfg.p)
        bound = cfg.error_bound_multiplier * cfg.delta
        checks.append(
            (
                f"bound {cfg.name}",
                result.error_probability <= bound + 1e-12,
                f"exact {result.error_probability:.6f} <= {bound}",
            )
        )

    if mc_trials > 0:
        from .harness import ExperimentConfig, run_experiment

        for cfg in verify_registry():
            result = enumerate_tournament(cfg.instance, cfg.algorithm, cfg.delta, cfg.p)
            if isinstance(cfg.instance, BitInstance):
                spec = "literal:" + ",".join(str(x) for x in cfg.instance.bits)
            else:
                spec = "literal:" + ",".join(repr(x) for x in cfg.instance.values)
            stats = run_experiment(
                ExperimentConfig(
                    algorithm=cfg.algorithm,
                    instance=spec,
                    n=cfg.instance.n,
                    p=cfg.p,
                    delta=cfg.delta,
                    trials=mc_trials,
                    seed=20_000 + zlib.crc32(cfg.name.encode()) % 1000,
                )
            )
            sigma = math.sqrt(
                max(result.error_probability * (1 - result.error_probability), 1e-12) / mc_trials
            )
            gap = abs(stats.error_rate - result.error_probability)
            checks.append(
                (
                    f"mc {cfg.name}",
                    gap <= 5.0 * sigma,
                    f"mc {stats.error_rate:.5f} vs exact {result.error_probability:.5f} (5s={5*sigma:.5f})",
                )
            )
    return checks
