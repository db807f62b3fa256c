"""Reproducible Monte Carlo campaigns over the noisy-query algorithms.

Each trial builds a fresh oracle seeded by (master_seed, trial_index),
runs one algorithm, and records correctness plus query accounting.
Trials are independent, so they may run across worker processes; results
are aggregated in trial order, making every output byte-identical for a
fixed configuration regardless of parallelism.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from multiprocessing import get_context
from typing import Iterable, Sequence

from .bounds import lecam_budget, upper_budget
from .errors import ContractViolation, InvariantError
from .oracles import BitInstance, NoisyOracle, ValueInstance, make_instance_max, make_instance_or
from .primitives import check_bit, noisy_compare
from .toplevel import noisy_max_report, noisy_or_report
from .tournaments import tournament_max, tournament_or

__all__ = [
    "AggregateStats",
    "CSV_COLUMNS",
    "ExperimentConfig",
    "TrialStats",
    "aggregate",
    "mean_interval",
    "parse_instance_spec",
    "render_csv",
    "render_json",
    "run_experiment",
    "run_sweep",
    "run_trial",
    "run_trials",
    "wilson_interval",
]

OR_ALGORITHMS = ("checkbit", "tournament-or", "noisy-or")
MAX_ALGORITHMS = ("noisycompare", "tournament-max", "noisy-max")
ALGORITHMS = OR_ALGORITHMS + MAX_ALGORITHMS

# Two-sided 95% normal quantile, used by both interval styles.
_Z95 = 1.959963984540054

CSV_COLUMNS = (
    "algorithm",
    "instance",
    "n",
    "p",
    "delta",
    "trials",
    "seed",
    "errors",
    "error_rate",
    "error_ci_lo",
    "error_ci_hi",
    "mean_queries",
    "queries_ci_lo",
    "queries_ci_hi",
    "max_queries",
    "phase1_mean_queries",
    "subroutine_mean_queries",
    "theory_upper_budget",
    "theory_lecam_m_at_delta",
    "ratio_mean_over_upper",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully-specified Monte Carlo campaign."""

    algorithm: str
    instance: str
    n: int
    p: float
    delta: float
    trials: int
    seed: int = 0

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ContractViolation(
                f"unknown algorithm {self.algorithm!r}; choose from {', '.join(ALGORITHMS)}"
            )
        if self.n < 1:
            raise ContractViolation(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.p < 0.5:
            raise ContractViolation(f"p must lie in (0, 1/2), got {self.p}")
        if not 0.0 < self.delta < 0.5:
            raise ContractViolation(f"delta must lie in (0, 1/2), got {self.delta}")
        if self.trials < 1:
            raise ContractViolation(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ContractViolation(f"seed must be >= 0, got {self.seed}")
        if self.algorithm in ("noisycompare",) and self.n < 2:
            raise ContractViolation("noisycompare needs n >= 2")
        parse_instance_spec(self.instance, self.n, self.algorithm)


@dataclass(frozen=True)
class TrialStats:
    """Observables of a single trial."""

    trial_index: int
    correct: bool
    queries: int
    phase1_queries: int
    subroutine_queries: int

    def __post_init__(self) -> None:
        if self.queries != self.phase1_queries + self.subroutine_queries:
            raise InvariantError(
                f"trial {self.trial_index}: phase breakdown {self.phase1_queries} + "
                f"{self.subroutine_queries} != total {self.queries}"
            )


@dataclass(frozen=True)
class AggregateStats:
    """Cross-trial aggregates with confidence intervals and theory columns."""

    config: ExperimentConfig
    errors: int
    error_rate: float
    error_ci_lo: float
    error_ci_hi: float
    mean_queries: float
    queries_ci_lo: float
    queries_ci_hi: float
    max_queries: int
    phase1_mean_queries: float
    subroutine_mean_queries: float
    theory_upper_budget: float
    theory_lecam_m_at_delta: float
    ratio_mean_over_upper: float


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval; appropriate for the rare-event error rates here."""
    if trials < 1:
        raise ContractViolation(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ContractViolation(f"successes {successes} outside 0..{trials}")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (phat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    # At the extremes centre - half is 0 (or centre + half is 1) exactly in
    # real arithmetic; pin them so float residue cannot leak through.
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == trials else min(1.0, centre + half)
    return lo, hi


def mean_interval(values: Sequence[float], z: float = _Z95) -> tuple[float, float, float]:
    """(mean, lo, hi) normal-approximation interval; degenerate for one value."""
    m = len(values)
    if m < 1:
        raise ContractViolation("mean_interval needs at least one value")
    mean = sum(values) / m
    if m == 1:
        return mean, mean, mean
    var = sum((v - mean) ** 2 for v in values) / (m - 1)
    half = z * math.sqrt(var / m)
    return mean, mean - half, mean + half


def parse_instance_spec(
    spec: str, n: int, algorithm: str
) -> BitInstance | ValueInstance:
    """Build the instance named by ``family[:params]`` for the algorithm's model."""
    family, _, params = spec.partition(":")
    or_model = algorithm in OR_ALGORITHMS
    try:
        if or_model:
            if family == "all_zero":
                return make_instance_or("all_zero", n)
            if family == "single_one":
                return make_instance_or("single_one", n, index=int(params))
            if family == "literal":
                bits = tuple(int(tok) for tok in params.split(",") if tok != "")
                if len(bits) != n:
                    raise ContractViolation(f"literal bits have length {len(bits)}, expected n={n}")
                return make_instance_or("literal", bits=bits)
            raise ContractViolation(
                f"unknown OR-model instance family {family!r} "
                "(expected all_zero, single_one:j, or literal:b1,b2,...)"
            )
        if family == "sorted":
            return make_instance_max("sorted", n)
        if family == "relocated":
            return make_instance_max("relocated", n, index=int(params))
        if family == "permuted":
            return make_instance_max("permuted", n, seed=int(params))
        if family == "literal":
            values = tuple(float(tok) for tok in params.split(",") if tok != "")
            if len(values) != n:
                raise ContractViolation(f"literal values have length {len(values)}, expected n={n}")
            return make_instance_max("literal", values=values)
        raise ContractViolation(
            f"unknown MAX-model instance family {family!r} "
            "(expected sorted, relocated:i, permuted:seed, or literal:v1,v2,...)"
        )
    except ValueError as exc:  # int()/float() parse failures
        raise ContractViolation(f"bad instance parameters in {spec!r}: {exc}") from exc


@lru_cache(maxsize=32)
def _cached_instance(spec: str, n: int, algorithm: str) -> BitInstance | ValueInstance:
    return parse_instance_spec(spec, n, algorithm)


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialStats:
    """Execute one trial; deterministic in (config.seed, trial_index)."""
    instance = _cached_instance(config.instance, config.n, config.algorithm)
    oracle = NoisyOracle(instance, config.p, config.seed, trial_index)
    algorithm = config.algorithm
    delta, p, n = config.delta, config.p, config.n

    if algorithm == "checkbit":
        report = check_bit(oracle, 1, delta, p)
        correct = report.decision == instance.bits[0]
        phase1, sub = report.queries_used, 0
    elif algorithm == "noisycompare":
        report = noisy_compare(oracle, 1, 2, delta, p)
        correct = report.decision == (instance.values[0] < instance.values[1])
        phase1, sub = report.queries_used, 0
    elif algorithm == "tournament-or":
        output = tournament_or(oracle, list(range(1, n + 1)), delta, p)
        correct = output == instance.truth()
        phase1, sub = 0, oracle.ledger.total
    elif algorithm == "tournament-max":
        output = tournament_max(oracle, list(range(1, n + 1)), delta, p)
        correct = output == instance.truth()
        phase1, sub = 0, oracle.ledger.total
    elif algorithm == "noisy-or":
        rep = noisy_or_report(oracle, n, delta, p)
        correct = rep.output == instance.truth()
        phase1, sub = rep.phase1_queries, rep.subroutine_queries
    else:  # noisy-max
        rep = noisy_max_report(oracle, n, delta, p)
        correct = rep.output == instance.truth()
        phase1, sub = rep.phase1_queries, rep.subroutine_queries

    total = oracle.ledger.total
    if total != oracle.ledger.component_total():
        raise InvariantError("ledger total does not match its per-component sum")
    if phase1 + sub != total:
        raise InvariantError(
            f"phase accounting {phase1} + {sub} != ledger total {total} for {algorithm}"
        )
    return TrialStats(
        trial_index=trial_index,
        correct=correct,
        queries=total,
        phase1_queries=phase1,
        subroutine_queries=sub,
    )


def _worker(args: tuple[ExperimentConfig, int]) -> TrialStats:
    config, trial_index = args
    return run_trial(config, trial_index)


def run_trials(config: ExperimentConfig, workers: int = 1) -> list[TrialStats]:
    """All trials of a campaign, in trial order regardless of worker count."""
    config.validate()
    if workers < 1:
        raise ContractViolation(f"workers must be >= 1, got {workers}")
    indices = range(config.trials)
    if workers == 1 or config.trials < 4:
        return [run_trial(config, t) for t in indices]
    ctx = get_context("fork")
    chunk = max(1, config.trials // (workers * 8))
    with ctx.Pool(workers) as pool:
        results = pool.map(_worker, [(config, t) for t in indices], chunksize=chunk)
    return sorted(results, key=lambda ts: ts.trial_index)


def aggregate(config: ExperimentConfig, trials: Sequence[TrialStats]) -> AggregateStats:
    """Summarize trial records; pure arithmetic over the given sequence."""
    if not trials:
        raise ContractViolation("cannot aggregate zero trials")
    m = len(trials)
    errors = sum(1 for t in trials if not t.correct)
    err_lo, err_hi = wilson_interval(errors, m)
    queries = [float(t.queries) for t in trials]
    mean_q, q_lo, q_hi = mean_interval(queries)
    budget = upper_budget(config.n, config.delta, config.p)
    return AggregateStats(
        config=config,
        errors=errors,
        error_rate=errors / m,
        error_ci_lo=err_lo,
        error_ci_hi=err_hi,
        mean_queries=mean_q,
        queries_ci_lo=q_lo,
        queries_ci_hi=q_hi,
        max_queries=max(t.queries for t in trials),
        phase1_mean_queries=sum(t.phase1_queries for t in trials) / m,
        subroutine_mean_queries=sum(t.subroutine_queries for t in trials) / m,
        theory_upper_budget=budget,
        theory_lecam_m_at_delta=lecam_budget(config.n, config.delta, config.p),
        ratio_mean_over_upper=mean_q / budget if budget > 0 else math.inf,
    )


def run_experiment(config: ExperimentConfig, workers: int = 1) -> AggregateStats:
    """Run a campaign and aggregate it."""
    return aggregate(config, run_trials(config, workers))


def run_sweep(
    base: ExperimentConfig,
    n_grid: Sequence[int],
    p_grid: Sequence[float],
    delta_grid: Sequence[float],
    workers: int = 1,
) -> list[AggregateStats]:
    """One aggregated row per (n, p, delta) grid point; rows are independent runs.

    Every row reuses the base seed, so each row is identical to a
    standalone run of its configuration.
    """
    if not n_grid or not p_grid or not delta_grid:
        raise ContractViolation("sweep grids must be nonempty")
    rows = []
    for n in n_grid:
        for p in p_grid:
            for delta in delta_grid:
                cfg = replace(base, n=n, p=p, delta=delta)
                rows.append(run_experiment(cfg, workers))
    return rows


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _row_values(stats: AggregateStats) -> list:
    cfg = stats.config
    return [
        cfg.algorithm,
        cfg.instance,
        cfg.n,
        cfg.p,
        cfg.delta,
        cfg.trials,
        cfg.seed,
        stats.errors,
        stats.error_rate,
        stats.error_ci_lo,
        stats.error_ci_hi,
        stats.mean_queries,
        stats.queries_ci_lo,
        stats.queries_ci_hi,
        stats.max_queries,
        stats.phase1_mean_queries,
        stats.subroutine_mean_queries,
        stats.theory_upper_budget,
        stats.theory_lecam_m_at_delta,
        stats.ratio_mean_over_upper,
    ]


def render_csv(rows: Iterable[AggregateStats]) -> str:
    """Fixed-schema CSV; float cells use shortest round-trip formatting."""
    lines = [",".join(CSV_COLUMNS)]
    for stats in rows:
        lines.append(",".join(_cell(v) for v in _row_values(stats)))
    return "\n".join(lines) + "\n"


def render_json(
    rows: Sequence[AggregateStats], raw_trials: dict[int, Sequence[TrialStats]] | None = None
) -> str:
    """JSON rendering with the same fields; optional raw per-trial records."""
    payload = []
    for row_idx, stats in enumerate(rows):
        record = dict(zip(CSV_COLUMNS, _row_values(stats)))
        if raw_trials is not None and row_idx in raw_trials:
            record["trials_raw"] = [
                {
                    "trial_index": t.trial_index,
                    "correct": t.correct,
                    "queries": t.queries,
                    "phase1_queries": t.phase1_queries,
                    "subroutine_queries": t.subroutine_queries,
                }
                for t in raw_trials[row_idx]
            ]
        payload.append(record)
    return json.dumps(payload, indent=2) + "\n"
