"""Reproducible Monte Carlo campaigns over the noisy-query algorithms.

Each trial builds a fresh oracle seeded by (master_seed, trial_index),
runs one algorithm, and returns its record: (correct, queries, phase-1
queries), its row of the campaign's three columns.  Trials are
independent, so they may run across worker processes; results are
aggregated in trial order, making every output byte-identical for a
fixed configuration regardless of parallelism.

One runner serves a single campaign and a sweep alike: it takes the
trials one at a time and runs every row of a set of rows on that trial's
one :class:`~noisyquery.oracles.TrialDraws`, the trial's channel, whose
prefix is shared, set up with those of the trials around it.  A sweep
gives it the rows of one n at a time.  Each row's records are appended
to its columns, which :func:`aggregate` reads as they stand and from
which the raw per-trial JSON is read.  CSV is written by the :mod:`csv`
module, so a cell that holds a comma is quoted.
"""

from __future__ import annotations

import io
import math
import os
from array import array
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from itertools import groupby
from typing import Callable, Iterable, Sequence

from .bounds import lecam_budget, upper_budget
from .errors import ContractViolation, InvariantError
from .oracles import BitInstance, NoisyOracle, TrialDraws, ValueInstance, make_instance_max, make_instance_or
from .primitives import check_bit, noisy_compare
from .toplevel import RunReport, noisy_max_report, noisy_or_report
from .tournaments import or_half, tournament_max, tournament_or


# A runner maps (oracle, delta) to (output, phase-1 queries, subroutine
# queries); p is the oracle's.  Each calls its algorithm by module-global name,
# so a tracer that swaps module attributes sees the call; a table of function
# objects would not.


def _run_checkbit(oracle: NoisyOracle, delta: float) -> tuple[int, int, int]:
    decision, queries = check_bit(oracle, 1, delta)
    return decision, queries, 0


def _run_noisycompare(oracle: NoisyOracle, delta: float) -> tuple[int, int, int]:
    decision, queries = noisy_compare(oracle, 1, 2, delta)
    return decision, queries, 0


def _run_tournament_or(oracle: NoisyOracle, delta: float) -> tuple[int, int, int]:
    return tournament_or(oracle, list(range(1, oracle.instance.n + 1)), delta), 0, oracle.queries


def _run_tournament_max(oracle: NoisyOracle, delta: float) -> tuple[int, int, int]:
    return tournament_max(oracle, list(range(1, oracle.instance.n + 1)), delta), 0, oracle.queries


def _run_noisy_or(oracle: NoisyOracle, delta: float) -> RunReport:
    return noisy_or_report(oracle, delta)


def _run_noisy_max(oracle: NoisyOracle, delta: float) -> RunReport:
    return noisy_max_report(oracle, delta)


# A parameter is read strictly, so that each instance has one spec and a row
# names the instance it ran: int() and float() alone also take "_" separators,
# surrounding whitespace and other scripts' digits, and int() a sign.


def _integer(text: str) -> int:
    if text.strip("0123456789"):  # a character that is not an ASCII digit; "" is left to int()
        raise ValueError(f"integer {text!r} must be ASCII digits only")
    return int(text)


def _real(text: str) -> float:
    if "_" in text or text != text.strip() or not text.isascii():  # float() refuses inner whitespace itself
        raise ValueError(f"number {text!r} must be ASCII with no '_' or whitespace")
    return float(text)


def _literal(parse: Callable[[str], int | float]) -> Callable[[str], tuple]:
    return lambda text: tuple(map(parse, text.split(",")))


# An instance model: its factory, and for each family that takes a parameter
# the keyword argument the text after the colon becomes.
_OR_MODEL = (make_instance_or, {"single_one": ("index", _integer), "literal": ("bits", _literal(_integer))})
_MAX_MODEL = (
    make_instance_max,
    {"relocated": ("index", _integer), "permuted": ("seed", _integer), "literal": ("values", _literal(_real))},
)

# name -> (instance model, runner, target: the output a correct run returns).
ALGORITHMS = {
    "checkbit": (_OR_MODEL, _run_checkbit, lambda instance: instance.bits[0]),
    "tournament-or": (_OR_MODEL, _run_tournament_or, BitInstance.truth),
    "noisy-or": (_OR_MODEL, _run_noisy_or, BitInstance.truth),
    "noisycompare": (_MAX_MODEL, _run_noisycompare, lambda instance: instance.values[0] < instance.values[1]),
    "tournament-max": (_MAX_MODEL, _run_tournament_max, ValueInstance.truth),
    "noisy-max": (_MAX_MODEL, _run_noisy_max, ValueInstance.truth),
}

# The largest n a campaign accepts; its instance is built in memory before any trial.
_N_CAP = 10_000_000

# Two-sided 95% normal quantile, used by both interval styles.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully-specified Monte Carlo campaign; it checks itself when it is built."""

    algorithm: str
    instance: str
    n: int
    p: float
    delta: float
    trials: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ContractViolation(f"n must be >= 1, got {self.n}")
        if self.n > _N_CAP:
            raise ContractViolation(f"n must be at most {_N_CAP}, got {self.n}")
        if not 0.0 < self.p < 0.5:
            raise ContractViolation(f"p must lie in (0, 1/2), got {self.p}")
        if not 0.0 < self.delta < 0.5:
            raise ContractViolation(f"delta must lie in (0, 1/2), got {self.delta}")
        if self.trials < 1:
            raise ContractViolation(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ContractViolation(f"seed must be >= 0, got {self.seed}")
        if self.algorithm in ("tournament-or", "noisy-or"):
            or_half(self.delta)
        if self.algorithm in ("noisycompare",) and self.n < 2:
            raise ContractViolation("noisycompare needs n >= 2")
        _cached_instance(self.instance, self.n, self.algorithm)  # the instance its trials will run on


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


# The output columns: the config's fields, then the aggregates' in declaration order.
_CONFIG_COLUMNS = tuple(f.name for f in fields(ExperimentConfig))
_STATS_COLUMNS = tuple(f.name for f in fields(AggregateStats) if f.name != "config")
CSV_COLUMNS = _CONFIG_COLUMNS + _STATS_COLUMNS


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; appropriate for the rare-event error rates here."""
    if trials < 1:
        raise ContractViolation(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ContractViolation(f"successes {successes} outside 0..{trials}")
    phat = successes / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    centre = (phat + z2 / (2.0 * trials)) / denom
    half = _Z95 * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    # At the extremes centre - half is 0 (or centre + half is 1) exactly in
    # real arithmetic; pin them so float residue cannot leak through.
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == trials else min(1.0, centre + half)
    return lo, hi


def mean_interval(values: Sequence[float]) -> tuple[float, float, float]:
    """(mean, lo, hi) 95% normal-approximation interval; degenerate for one value."""
    m = len(values)
    if m < 1:
        raise ContractViolation("mean_interval needs at least one value")
    mean = sum(values) / m
    if m == 1:
        return mean, mean, mean
    var = sum((v - mean) ** 2 for v in values) / (m - 1)
    half = _Z95 * math.sqrt(var / m)
    return mean, mean - half, mean + half


def parse_instance_spec(
    spec: str, n: int, algorithm: str
) -> BitInstance | ValueInstance:
    """Build the instance named by ``family[:params]`` for the algorithm's model.

    Only families that take a parameter accept text after a colon.
    """
    if algorithm not in ALGORITHMS:
        raise ContractViolation(f"unknown algorithm {algorithm!r}; choose from {', '.join(ALGORITHMS)}")
    (factory, keywords), _, _ = ALGORITHMS[algorithm]
    family, colon, params = spec.partition(":")
    kwargs = {}
    try:
        if family in keywords:
            name, parse = keywords[family]
            kwargs[name] = parse(params)
            if family == "literal" and len(kwargs[name]) != n:
                raise ContractViolation(f"literal {name} have length {len(kwargs[name])}, expected n={n}")
        instance = factory(family, n, **kwargs)  # refuses unknown families first
        if colon and family not in keywords:
            raise ContractViolation(f"{family} takes no parameter")
        return instance
    except ValueError as exc:  # parse failures and the factory's refusals (ContractViolation is one)
        raise ContractViolation(f"bad instance parameters in {spec!r}: {exc}") from exc


@lru_cache(maxsize=32)
def _cached_instance(spec: str, n: int, algorithm: str) -> tuple[BitInstance | ValueInstance, int | bool]:
    """The instance a spec names and its algorithm's target, computed once per instance."""
    instance = parse_instance_spec(spec, n, algorithm)
    return instance, ALGORITHMS[algorithm][2](instance)


def run_trial(config: ExperimentConfig, trial_index: int, draws: TrialDraws | None = None) -> tuple[bool, int, int]:
    """Execute one trial; deterministic in (config.seed, trial_index).

    Returns its record, its row of the campaign's columns: (correct,
    queries, phase-1 queries).

    ``draws``, the trial's channel, changes no answer: it only spares
    the oracle drawing the channel's shared prefix again.
    """
    instance, target = _cached_instance(config.instance, config.n, config.algorithm)
    oracle = NoisyOracle(instance, config.p, config.seed, trial_index, draws)
    output, phase1, sub = ALGORITHMS[config.algorithm][1](oracle, config.delta)
    total = oracle.queries
    if phase1 + sub != total:
        raise InvariantError(
            f"phase accounting {phase1} + {sub} != query count {total} for {config.algorithm}"
        )
    return output == target, total, phase1


# A row's trial records as three columns, in trial order: correct (0 or 1),
# queries, phase-1 queries.  They pickle as bytes and take 17 bytes a trial.
Columns = tuple[array, array, array]


def _columns() -> Columns:
    return array("b"), array("q"), array("q")


def _run_block(configs: Sequence[ExperimentConfig], start: int, stop: int) -> list[Columns]:
    """Trials start..stop-1 of every row, one trial at a time: a worker process's unit of work.

    The rows share one seed (and, from a sweep, one n, so one cached
    instance).  Each trial's rows run on its one TrialDraws, whose first
    chunk's tables are built for every row's p with those of the trials
    around it.
    """
    columns = [_columns() for _ in configs]
    ps = {config.p for config in configs}
    for t, draws in zip(range(start, stop), TrialDraws.block(configs[0].seed, start, stop, ps)):
        for config, (correct, queries, phase1) in zip(configs, columns):
            # By module-global name, so a tracer that swaps run_trial sees every (row, trial).
            right, total, first = run_trial(config, t, draws)
            correct.append(right)
            queries.append(total)
            phase1.append(first)
    return columns


def check_workers(workers: int) -> None:
    """Refuse a worker count below one."""
    if workers < 1:
        raise ContractViolation(f"workers must be >= 1, got {workers}")


def _run_rows(configs: Sequence[ExperimentConfig], workers: int) -> list[Columns]:
    """Every trial of rows of one seed and trial count, as each row's columns.

    With workers > 1 the trials are split into blocks of trial indices,
    each a job that runs every row, on one pool of at most as many
    processes as this process has CPUs; campaigns of fewer than 4 trials
    run in this process.
    """
    check_workers(workers)
    trials = configs[0].trials
    # Outputs do not depend on the worker count, so more workers than usable CPUs only cost.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, cpus)
    if workers == 1 or trials < 4:
        return _run_block(configs, 0, trials)
    size = max(1, trials // (workers * 8))
    jobs = [(configs, t, min(t + size, trials)) for t in range(0, trials, size)]
    columns = [_columns() for _ in configs]
    from multiprocessing import get_context  # loaded only where a pool starts

    with get_context("fork").Pool(workers) as pool:
        # starmap returns the blocks in job order, so trials stay in index order.
        for block in pool.starmap(_run_block, jobs, chunksize=1):
            for row, part in zip(columns, block):
                for column, values in zip(row, part):
                    column.extend(values)
    return columns


def run_trials(config: ExperimentConfig, workers: int = 1) -> Columns:
    """All trials of a campaign as its columns, in trial order regardless of worker count."""
    return _run_rows([config], workers)[0]


def aggregate(config: ExperimentConfig, columns: Columns) -> AggregateStats:
    """Summarize a row's trial columns; pure arithmetic over them.

    Sums of query counts are exact integers, so each mean is the one a
    sum of the counts as floats gives.
    """
    correct, queries, phase1 = columns
    m = len(queries)
    if not m:
        raise ContractViolation("cannot aggregate zero trials")
    errors = m - sum(correct)
    err_lo, err_hi = wilson_interval(errors, m)
    mean_q, q_lo, q_hi = mean_interval(queries)
    phase1_total = sum(phase1)
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
        max_queries=max(queries),
        phase1_mean_queries=phase1_total / m,
        subroutine_mean_queries=(sum(queries) - phase1_total) / m,
        theory_upper_budget=budget,
        theory_lecam_m_at_delta=lecam_budget(config.n, config.delta, config.p),
        ratio_mean_over_upper=mean_q / budget,  # a config's n, delta and p make the budget positive and finite
    )


def run_experiment(config: ExperimentConfig, workers: int = 1) -> AggregateStats:
    """Run a campaign and aggregate it."""
    return aggregate(config, run_trials(config, workers))


def sweep_configs(
    base: ExperimentConfig,
    n_grid: Sequence[int],
    p_grid: Sequence[float],
    delta_grid: Sequence[float],
) -> list[ExperimentConfig]:
    """The config of every (n, p, delta) grid point, in row order; each checks itself as it is built."""
    if not n_grid or not p_grid or not delta_grid:
        raise ContractViolation("sweep grids must be nonempty")
    return [replace(base, n=n, p=p, delta=delta) for n in n_grid for p in p_grid for delta in delta_grid]


def run_sweep(configs: Sequence[ExperimentConfig], workers: int = 1) -> list[AggregateStats]:
    """One aggregated row per config of ``sweep_configs``; rows are independent runs.

    The configs are the n-major rows of one base config.  Every row
    reuses the base seed, so each row is identical to a standalone run
    of its configuration.  The rows of each n run together, each trial
    running them all on its one shared prefix of channel draws.
    """
    rows = []
    # One n's rows at a time keep its instance cached for all its trials
    # and hold only its rows' columns, each aggregated as it stands.
    for _, group in groupby(configs, key=lambda cfg: cfg.n):
        group = list(group)
        columns = _run_rows(group, workers)
        # By module-global name, so a tracer that swaps aggregate sees every row.
        rows.extend(aggregate(cfg, cols) for cfg, cols in zip(group, columns))
    return rows


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _row_values(stats: AggregateStats) -> list:
    cfg = stats.config
    return [getattr(cfg, name) for name in _CONFIG_COLUMNS] + [getattr(stats, name) for name in _STATS_COLUMNS]


def render_csv(rows: Iterable[AggregateStats]) -> str:
    """Fixed-schema CSV; a float cell is its shortest round-trip form, and a cell holding a comma is quoted."""
    import csv  # loaded only where CSV is written: at module level it adds about 5% to the CLI's start-up

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(_row_values(stats) for stats in rows)
    return out.getvalue()


def render_json(rows: Sequence[AggregateStats], columns: Columns | None = None) -> str:
    """JSON rendering with the same fields; optionally each trial's record, read off a one-row run's columns."""
    import json  # loaded only where JSON is written, as csv is in render_csv

    payload = [dict(zip(CSV_COLUMNS, _row_values(stats))) for stats in rows]
    if columns is not None:
        payload[0]["trials_raw"] = [
            {"trial_index": t, "correct": c == 1, "queries": q, "phase1_queries": f, "subroutine_queries": q - f}
            for t, (c, q, f) in enumerate(zip(*columns))
        ]
    return json.dumps(payload, indent=2) + "\n"
