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
here never draws a single random bit.  It shares only four definitions
with them: the vote threshold
(:func:`~noisyquery.primitives.vote_threshold` and its log form), the
round schedule (:func:`~noisyquery.tournaments.round_thresholds` and
:func:`~noisyquery.tournaments.or_half`), the OR survivor cutoff
(:func:`~noisyquery.toplevel.or_threshold`) and the MAX sampling
probability (:func:`~noisyquery.toplevel.sampling_probability`);
the tests pin the values of all four independently.  The enumerator
restates each algorithm from these alone.
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
from .tournaments import or_half, round_thresholds

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

_FULL_ALGO_N_CAP = 4
_TOURNAMENT_N_CAP = 8


@dataclass(frozen=True)
class WalkAnalysis:
    """Closed-form absorption statistics of the +/-K walk with up-probability 1-p."""

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
    return WalkAnalysis(error_probability=error, expected_queries=expected)


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
    return WalkAnalysis(error_probability=float(lose[start]), expected_queries=float(time[start]))


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


def tournament_max_cost(r: int, delta: float, p: float) -> float:
    """Exact expected comparisons of a MAX knockout over r entrants.

    Match counts and round tolerances are fixed by r alone, and each
    match's duration law depends only on its vote threshold, so the
    expectation is composition-independent.
    """
    cost = 0.0
    for k in round_thresholds(r, delta, p):
        cost += r // 2 * analyze_walk(p, k).expected_queries
        r = (r + 1) // 2
    return cost


def tournament_or_cost(r: int, delta: float, p: float) -> float:
    """Exact expected reads of an OR knockout over r entrants (final check included)."""
    half = or_half(delta)
    final_check = analyze_walk(p, vote_threshold(p, half)).expected_queries
    return tournament_max_cost(r, half, p) + final_check


def _binom_pmf_window(n: int, q: float) -> tuple[int, np.ndarray]:
    """Binomial(n, q) pmf on mean +/- (12 sd + 16), all but ~1e-15 of the mass.

    The 16 fixed terms keep a tail in the window where the sd is near 0,
    such as the OR cutoff's declare-1 mass when few bits survive.
    """
    if q <= 0.0:
        return 0, np.array([1.0])
    if q >= 1.0:
        return n, np.array([1.0])
    mean = n * q
    sd = math.sqrt(n * q * (1.0 - q))
    lo = max(0, int(mean - 12.0 * sd - 16))
    hi = min(n, int(mean + 12.0 * sd + 16))
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
    final_err = analyze_walk(p, vote_threshold(p, or_half(delta))).error_probability
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
    lo1, pmf1 = _binom_pmf_window(ones, 1.0 - err)
    lo0, pmf0 = _binom_pmf_window(zeros, err)
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

    # Sample size (conditioned nonempty) drives the first tournament and
    # the number of champion comparisons.
    lo_s, pmf_s = _binom_pmf_window(n, q)
    nonempty = 1.0 - (1.0 - q) ** n
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
    # q, conditioned on J <= n; given J = j the shortlist is 1 +
    # Binom(j-1, 1-err) apparent beaters + Binom(n-j, (1-q) err) false
    # positives from below.
    second_tournament = 0.0
    tail = 1.0
    j = 1
    while j <= n and tail > 1e-14:
        pj = q * (1.0 - q) ** (j - 1) / nonempty
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


# A leaf is (probability, expected queries so far, state).  The steps
# branch on the walks in the order the algorithms play them.


def _walk(leaves: list, stats: WalkBranchStats, truth, step) -> list:
    """Branch each leaf on one stopped walk: true decision ``truth(state)``, next state ``step(state, decision)``."""
    out = []
    for prob, queries, state in leaves:
        right = truth(state)
        out.append((prob * stats.correct_prob, queries + stats.expected_queries_correct, step(state, right)))
        out.append((prob * stats.error_prob, queries + stats.expected_queries_wrong, step(state, not right)))
    return out


def _then(leaves: list, more) -> list:
    """Continue each leaf with the leaves ``more(state)`` of what the algorithm does next from it."""
    return [(prob * pr, queries + cost, out) for prob, queries, state in leaves for pr, cost, out in more(state)]


def _enum_knockout(entrants: tuple, delta: float, p: float, is_max: bool) -> list:
    """All (prob, expected queries, (winner,)) leaves of one knockout bracket.

    Entrants are (index, key) pairs; for the OR variant the key is the
    bit value and a match checks the first element, for the MAX variant
    the key is the value and a match compares the pair.  A state is the
    round's unplayed entrants followed by its winners so far: a match
    plays the first two and appends its winner, and a bye moves the last
    entrant behind the winners.
    """
    if is_max:  # "first < second?"; yes advances the second
        truth, step = (lambda s: s[0][1] < s[1][1]), (lambda s, less: s[2:] + (s[less],))
    else:  # "first bit is 1?"; yes keeps the first
        truth, step = (lambda s: s[0][1] == 1), (lambda s, one: s[2:] + (s[not one],))
    leaves = [(1.0, 0.0, entrants)]
    size = len(entrants)
    for k in round_thresholds(size, delta, p):
        stats = walk_branch_stats(p, k)
        for _ in range(size // 2):
            leaves = _walk(leaves, stats, truth, step)
        if size % 2 == 1:
            leaves = [(prob, queries, s[1:] + s[:1]) for prob, queries, s in leaves]
        size = (size + 1) // 2
    return leaves


def _enum_tournament_or(entrants: tuple, delta: float, p: float) -> list:
    half = or_half(delta)
    final_check = walk_branch_stats(p, vote_threshold(p, half))
    leaves = _enum_knockout(entrants, half, p, is_max=False)
    return _walk(leaves, final_check, lambda s: s[0][1] == 1, lambda s, one: int(one))  # the winner's final check


def _enum_tournament_max(entrants: tuple, delta: float, p: float) -> list:
    return [(prob, queries, s[0][0]) for prob, queries, s in _enum_knockout(entrants, delta, p, is_max=True)]


def _enum_noisy_or(entrants: tuple, delta: float, p: float) -> list:
    stats = walk_branch_stats(p, vote_threshold(p, delta))
    theta = or_threshold(len(entrants), delta)
    leaves = [(1.0, 0.0, ())]  # phase 1: the state is the survivor list
    for e in entrants:
        leaves = _walk(leaves, stats, lambda s: e[1] == 1, lambda s, one: s + (e,) if one else s)

    def finish(survivors: tuple) -> list:
        if not survivors or len(survivors) >= theta:  # none declares 0; the cutoff or more declares 1
            return [(1.0, 0.0, int(bool(survivors)))]
        return _enum_tournament_or(survivors, delta, p)

    return _then(leaves, finish)


def _enum_noisy_max(entrants: tuple, delta: float, p: float) -> list:
    n = len(entrants)
    q = sampling_probability(n)
    stats = walk_branch_stats(p, vote_threshold(p, delta))

    def shortlists(mask: int) -> list:
        # The sample's champion, then every unsampled element that beats it.
        leaves = _enum_knockout(tuple(e for i, e in enumerate(entrants) if mask >> i & 1), delta, p, is_max=True)
        for u in (e for i, e in enumerate(entrants) if not mask >> i & 1):
            leaves = _walk(leaves, stats, lambda s: s[0][1] < u[1], lambda s, less: s + (u,) if less else s)
        return leaves

    # The sample is a branch of no queries, weighted q^s (1-q)^(n-s) / P(nonempty).
    nonempty = 1.0 - (1.0 - q) ** n
    samples = [(q ** m.bit_count() * (1.0 - q) ** (n - m.bit_count()) / nonempty, 0.0, m) for m in range(1, 1 << n)]
    return _then(_then(samples, shortlists), lambda shortlist: _enum_tournament_max(shortlist, delta, p))


# name -> (instance type, enumerator, largest input); names are the CLI's
# algorithm names.  The leaf count grows exponentially in n but not with the
# vote thresholds: each walk is one two-way branch whatever its K.
_ENUMERATORS = {
    "tournament-or": (BitInstance, _enum_tournament_or, _TOURNAMENT_N_CAP),
    "tournament-max": (ValueInstance, _enum_tournament_max, _TOURNAMENT_N_CAP),
    "noisy-or": (BitInstance, _enum_noisy_or, _FULL_ALGO_N_CAP),
    "noisy-max": (ValueInstance, _enum_noisy_max, _FULL_ALGO_N_CAP),
}


def enumerate_tournament(
    instance: BitInstance | ValueInstance,
    algorithm: str,
    delta: float,
    p: float,
) -> EnumerationResult:
    """Exact output law of an algorithm on a tiny instance by full path enumeration.

    Supported algorithms: ``tournament-or``, ``tournament-max`` (inputs up
    to 8 entrants), ``noisy-or``, ``noisy-max`` (inputs up to 4), at any
    delta.  Larger inputs are refused outright rather than approximated.
    """
    if not 0.0 < delta < 0.5:
        raise ContractViolation(f"delta must lie in (0, 1/2), got {delta}")
    if not 0.0 < p < 0.5:
        raise ContractViolation(f"p must lie in (0, 1/2), got {p}")
    if algorithm not in _ENUMERATORS:
        raise ContractViolation(f"unknown algorithm {algorithm!r}; choose from {', '.join(_ENUMERATORS)}")
    model, enumerate_paths, n_cap = _ENUMERATORS[algorithm]
    if instance.n > n_cap:
        raise EnumerationCapError(f"{algorithm} enumeration capped at n <= {n_cap}, got {instance.n}")
    if not isinstance(instance, model):
        raise ContractViolation(f"{algorithm} needs a {model.__name__}")
    entrants = tuple(enumerate(instance.bits if model is BitInstance else instance.values, start=1))
    out: dict[int, float] = {}
    queries = 0.0
    for prob, leaf_queries, output in enumerate_paths(entrants, delta, p):
        out[output] = out.get(output, 0.0) + prob
        queries += prob * leaf_queries
    truth = instance.truth()
    error = sum(pr for output, pr in out.items() if output != truth)
    return EnumerationResult(error_probability=error, expected_queries=queries, outcome_probs=out)


# ---------------------------------------------------------------------------
# Verification registry: the enumerable configurations used for cross-checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyConfig:
    """One enumerable configuration with its applicable error guarantee."""

    name: str
    algorithm: str
    instance: BitInstance | ValueInstance
    delta: float
    p: float

    @property
    def spec(self) -> str:
        """The instance as a CLI ``literal`` spec: bits by ``str``, values by ``repr``, so it parses back exactly."""
        if isinstance(self.instance, BitInstance):
            return "literal:" + ",".join(str(x) for x in self.instance.bits)
        return "literal:" + ",".join(repr(x) for x in self.instance.values)

    @property
    def error_bound_multiplier(self) -> int:
        """The multiple of delta the algorithm may err with: 1 for the tournaments, 2 for OR, 3 for MAX."""
        return {"noisy-or": 2, "noisy-max": 3}.get(self.algorithm, 1)


def verify_registry() -> list[VerifyConfig]:
    """Every enumerable configuration checked by verify and the acceptance suite."""
    b = lambda *bits: BitInstance(bits=tuple(bits))
    v = lambda *vals: ValueInstance(values=tuple(float(x) for x in vals))
    return [
        # Single tournaments (n <= 8).
        VerifyConfig("tor-n2-hot", "tournament-or", b(1, 0), 0.1, 0.25),
        VerifyConfig("tor-n2-zero", "tournament-or", b(0, 0), 0.1, 0.25),
        VerifyConfig("tor-n3-mid", "tournament-or", b(0, 1, 0), 0.05, 0.25),
        VerifyConfig("tor-n4-zero", "tournament-or", b(0, 0, 0, 0), 0.05, 0.25),
        VerifyConfig("tor-n4-pair", "tournament-or", b(0, 1, 1, 0), 0.05, 0.3),
        VerifyConfig("tor-n8-tail", "tournament-or", b(0, 0, 0, 0, 0, 0, 0, 1), 0.05, 0.25),
        VerifyConfig("tmax-n2", "tournament-max", v(1, 2), 0.1, 0.25),
        VerifyConfig("tmax-n3-sorted", "tournament-max", v(1, 2, 3), 0.05, 0.3),
        VerifyConfig("tmax-n4-sorted", "tournament-max", v(1, 2, 3, 4), 0.05, 0.25),
        VerifyConfig("tmax-n4-reloc", "tournament-max", v(1, 4, 2, 3), 0.05, 0.1),
        VerifyConfig("tmax-n8-sorted", "tournament-max", v(*range(1, 9)), 0.05, 0.25),
        # Full OR algorithm (n <= 4).
        VerifyConfig("nor-n2-zero", "noisy-or", b(0, 0), 0.2, 0.25),
        VerifyConfig("nor-n3-zero", "noisy-or", b(0, 0, 0), 0.1, 0.25),
        VerifyConfig("nor-n3-one", "noisy-or", b(0, 1, 0), 0.1, 0.25),
        VerifyConfig("nor-n4-one", "noisy-or", b(1, 0, 0, 0), 0.05, 0.3),
        VerifyConfig("nor-n4-zero", "noisy-or", b(0, 0, 0, 0), 0.05, 0.1),
        # Full MAX algorithm (n <= 3).
        VerifyConfig("nmax-n2", "noisy-max", v(1, 2), 0.2, 0.25),
        VerifyConfig("nmax-n3-sorted", "noisy-max", v(1, 2, 3), 0.25, 0.25),
        VerifyConfig("nmax-n3-reloc", "noisy-max", v(3, 1, 2), 0.25, 0.25),
        VerifyConfig("nmax-n3-p15", "noisy-max", v(1, 2, 3), 0.25, 0.15),
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
    cf1 = analyze_walk(0.25, vote_threshold(0.25, or_half(0.25)))
    ok = (
        _rel_err(single.error_probability, cf1.error_probability) < 1e-12
        and _rel_err(single.expected_queries, cf1.expected_queries) < 1e-12
    )
    checks.append(("enumeration: single-entrant OR = one stopped walk", ok, ""))

    pair = enumerate_tournament(ValueInstance(values=(1.0, 2.0)), "tournament-max", 0.1, 0.25)
    (k2,) = round_thresholds(2, 0.1, 0.25)
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
    registry = [(cfg, enumerate_tournament(cfg.instance, cfg.algorithm, cfg.delta, cfg.p)) for cfg in verify_registry()]
    for cfg, result in registry:
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

        for cfg, result in registry:
            stats = run_experiment(
                ExperimentConfig(
                    algorithm=cfg.algorithm,
                    instance=cfg.spec,
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
