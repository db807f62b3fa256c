"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

These are the campaign-scale statistical gates; the quick per-module
versions of the same contracts live next to their modules.  Trial counts
and tolerances are fixed here, not tuned after the fact.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import math
import os

import pytest

from noisyquery.bounds import lecam_budget, lecam_floor, upper_budget
from noisyquery.exact_oracle import analyze_walk, enumerate_tournament, verify_registry
from noisyquery.harness import ExperimentConfig, aggregate, render_csv, run_experiment, run_trials
from noisyquery.primitives import vote_threshold

WORKERS = max(1, min(4, os.cpu_count() or 1))

PRIMITIVE_GRID = [(p, d) for p in (0.1, 0.25, 0.4) for d in (0.05, 0.01, 0.001)]


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _primitive_campaign(algorithm: str, instance: str, n: int, seed: int) -> list[str]:
    """Shared body of criteria 1 and 2: stopped-walk statistics vs closed form.

    The guarantee bounds constrain the true expectation and error, so the
    exact values are checked against them outright while the empirical
    estimates get their own 3-sigma sampling slack on top.
    """
    failures = []
    for p, delta in PRIMITIVE_GRID:
        k = vote_threshold(p, delta)
        exact = analyze_walk(p, k)
        budget = k / (1 - 2 * p)
        stats = run_experiment(
            ExperimentConfig(algorithm, instance, n, p, delta, trials=100_000, seed=seed),
            workers=WORKERS,
        )
        sigma = math.sqrt(exact.error_probability * (1 - exact.error_probability) / 100_000)
        sigma_mean = (stats.queries_ci_hi - stats.mean_queries) / 1.959963984540054
        checks = {
            "error within 3 sigma of exact": abs(stats.error_rate - exact.error_probability)
            <= 3 * sigma,
            "exact error within tolerance": exact.error_probability <= delta,
            "empirical error within tolerance": stats.error_rate <= delta + 3 * sigma,
            "mean within 1 percent of exact": abs(stats.mean_queries - exact.expected_queries)
            <= 0.01 * exact.expected_queries,
            "exact mean within budget": exact.expected_queries <= budget,
            "empirical mean within budget": stats.mean_queries <= budget + 3 * sigma_mean,
        }
        for label, ok in checks.items():
            if not ok:
                failures.append(
                    f"(p={p}, delta={delta}): {label} violated "
                    f"(err {stats.error_rate:.6f} vs {exact.error_probability:.6f}, "
                    f"mean {stats.mean_queries:.4f} vs {exact.expected_queries:.4f})"
                )
    return failures


def test_criterion_1_checkbit_exactness():
    failures = _primitive_campaign("checkbit", "single_one:1", 1, seed=201)
    ok = _report(
        "1 (bit-check walk exactness)",
        not failures,
        "9 configs x 1e5 trials vs closed form" if not failures else "; ".join(failures),
    )
    assert ok, failures


def test_criterion_2_noisycompare_exactness():
    failures = _primitive_campaign("noisycompare", "sorted", 2, seed=202)
    ok = _report(
        "2 (comparison walk exactness)",
        not failures,
        "9 configs x 1e5 trials vs closed form" if not failures else "; ".join(failures),
    )
    assert ok, failures


def test_criterion_3_small_instance_oracle_equivalence():
    trials = 100_000
    failures = []
    for cfg in verify_registry():
        exact = enumerate_tournament(cfg.instance, cfg.algorithm, cfg.delta, cfg.p)
        bound = cfg.error_bound_multiplier * cfg.delta
        if exact.error_probability > bound + 1e-12:
            failures.append(f"{cfg.name}: enumerated error exceeds {bound}")
        if hasattr(cfg.instance, "bits"):
            spec = "literal:" + ",".join(str(b) for b in cfg.instance.bits)
        else:
            spec = "literal:" + ",".join(repr(v) for v in cfg.instance.values)
        stats = run_experiment(
            ExperimentConfig(
                cfg.algorithm.replace("_", "-"), spec, cfg.instance.n, cfg.p, cfg.delta,
                trials=trials, seed=103,
            ),
            workers=WORKERS,
        )
        sigma = math.sqrt(
            max(exact.error_probability * (1 - exact.error_probability), 1e-9) / trials
        )
        if abs(stats.error_rate - exact.error_probability) > 4 * sigma:
            failures.append(
                f"{cfg.name}: error {stats.error_rate:.5f} vs exact "
                f"{exact.error_probability:.5f} beyond 4 sigma ({4 * sigma:.5f})"
            )
        if abs(stats.mean_queries - exact.expected_queries) > 0.02 * exact.expected_queries:
            failures.append(
                f"{cfg.name}: mean {stats.mean_queries:.4f} vs exact "
                f"{exact.expected_queries:.4f} beyond 2 percent"
            )
    ok = _report(
        "3 (small-instance oracle equivalence)",
        not failures,
        f"{len(verify_registry())} enumerable configs x 1e5 trials" if not failures else "; ".join(failures),
    )
    assert ok, failures


def test_criterion_4_noisy_or_at_scale():
    n, p, delta, trials = 1000, 0.25, 0.01, 10_000
    ceiling = 1.5 * upper_budget(n, delta, p)
    failures = []
    details = []
    for instance in ("all_zero", "single_one:1", "single_one:500", "single_one:1000"):
        stats = run_experiment(
            ExperimentConfig("noisy-or", instance, n, p, delta, trials=trials, seed=104),
            workers=WORKERS,
        )
        details.append(f"{instance}: err={stats.error_rate:.4f} ratio={stats.ratio_mean_over_upper:.3f}")
        if stats.error_rate > 2 * delta:
            failures.append(f"{instance}: error {stats.error_rate:.4f} > {2 * delta}")
        if stats.mean_queries > ceiling:
            failures.append(
                f"{instance}: mean {stats.mean_queries:.1f} > 1.5 x budget ({ceiling:.1f})"
            )
    ok = _report("4 (two-phase OR at n=1000)", not failures, "; ".join(details + failures))
    assert ok, failures


def test_criterion_5_noisy_max_at_scale():
    n, p, delta, trials = 1000, 0.25, 0.01, 10_000
    ceiling = 1.5 * upper_budget(n, delta, p)
    failures = []
    details = []
    for instance in ("sorted", "relocated:1", "relocated:500", "relocated:999"):
        stats = run_experiment(
            ExperimentConfig("noisy-max", instance, n, p, delta, trials=trials, seed=105),
            workers=WORKERS,
        )
        details.append(f"{instance}: err={stats.error_rate:.4f} ratio={stats.ratio_mean_over_upper:.3f}")
        if stats.error_rate > 3 * delta:
            failures.append(f"{instance}: error {stats.error_rate:.4f} > {3 * delta}")
        if stats.mean_queries > ceiling:
            failures.append(
                f"{instance}: mean {stats.mean_queries:.1f} is "
                f"{stats.mean_queries / upper_budget(n, delta, p):.2f}x the leading-order "
                f"budget, above the 1.5x ceiling; under the halving schedule a sampled "
                f"element plays about one match, a walk to K(delta 2^-i) in round i, the "
                f"vote-threshold ceiling adds ~18 percent per element, and "
                f"expected_queries_noisy_max predicts ~1.22x here"
            )
    ok = _report("5 (two-phase MAX at n=1000)", not failures, "; ".join(details + failures))
    assert ok, failures


def _sweep_ratios(algorithm: str, instance: str, plan: list[tuple[int, int]], seed: int):
    rows = []
    for n, trials in plan:
        stats = run_experiment(
            ExperimentConfig(algorithm, instance, n, 0.25, 0.01, trials=trials, seed=seed),
            workers=WORKERS,
        )
        half = (stats.queries_ci_hi - stats.mean_queries) / stats.theory_upper_budget
        rows.append((n, stats.ratio_mean_over_upper, half))
    return rows


def test_criterion_6_optimality_trend():
    or_rows = _sweep_ratios(
        "noisy-or", "all_zero", [(100, 10_000), (1000, 6_000), (10_000, 1_200)], seed=106
    )
    max_rows = _sweep_ratios(
        "noisy-max", "sorted", [(100, 4_000), (1000, 1_500), (10_000, 400)], seed=106
    )
    failures = []
    details = []
    for label, rows in (("noisy-or", or_rows), ("noisy-max", max_rows)):
        details.append(
            label + ": " + " ".join(f"n={n}:{ratio:.4f}(ci {half:.4f})" for n, ratio, half in rows)
        )
        for (n1, r1, h1), (n2, r2, h2) in zip(rows, rows[1:]):
            if r2 > r1 + h1 + h2:  # non-increasing, CI overlap tolerated
                failures.append(
                    f"{label}: ratio rises {r1:.4f} -> {r2:.4f} from n={n1} to n={n2} "
                    f"beyond CI overlap ({h1 + h2:.4f}); at fixed delta the shortlist "
                    f"tournament term grows with n while the per-element phase is flat, "
                    f"so this ratio converges upward to its asymptote instead of falling"
                )
    ok = _report("6 (query-optimality trend over n)", not failures, "; ".join(details + failures))
    assert ok, failures


def test_criterion_7_lower_bound_consistency():
    failures = []
    # Padding the achievable budget by log(4)/log(1/delta) must push the
    # error floor to delta/16, i.e. strictly below delta, at every grid point.
    for n in (100, 1000, 10_000):
        for p in (0.1, 0.25, 0.4):
            for delta in (0.05, 0.01, 0.001):
                m = upper_budget(n, delta, p) * (1.0 + math.log(4) / math.log(1 / delta))
                floor = lecam_floor(n, m, p)
                if not floor <= delta:
                    failures.append(f"(n={n}, p={p}, delta={delta}): floor {floor} > delta")
                if abs(floor - delta / 16) > 1e-9 * delta:
                    failures.append(f"(n={n}, p={p}, delta={delta}): floor is not delta/16")
    # Reported anchors.
    if lecam_floor(1000, 0.0, 0.25) != 0.25:
        failures.append("zero-query floor is not 1/4")
    lower_budget = lecam_budget(1000, 0.01, 0.25)
    if abs(lower_budget - 5859.894082871708) > 1e-6:
        failures.append(f"floor-matching budget {lower_budget} drifted")
    if abs(lower_budget - 5859.93) > 0.05:
        failures.append("floor-matching budget disagrees with the published anchor")
    ok = _report(
        "7 (error-floor formula consistency)",
        not failures,
        "27 grid points + anchors" if not failures else "; ".join(failures),
    )
    assert ok, failures


def test_criterion_8_determinism_under_parallelism():
    config = ExperimentConfig("noisy-or", "single_one:3", 200, 0.25, 0.01, trials=400, seed=108)
    serial = render_csv([aggregate(config, run_trials(config, workers=1))])
    parallel = render_csv([aggregate(config, run_trials(config, workers=WORKERS))])
    repeat = render_csv([aggregate(config, run_trials(config, workers=WORKERS))])
    max_config = ExperimentConfig("noisy-max", "sorted", 150, 0.25, 0.05, trials=300, seed=108)
    m_serial = render_csv([aggregate(max_config, run_trials(max_config, workers=1))])
    m_parallel = render_csv([aggregate(max_config, run_trials(max_config, workers=WORKERS))])
    ok = serial == parallel == repeat and m_serial == m_parallel
    ok = _report(
        "8 (byte-identical reruns at any parallelism)",
        ok,
        "csv outputs identical across worker counts and reruns" if ok else "outputs diverged",
    )
    assert ok
