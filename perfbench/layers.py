"""Per-layer metrics: direct-call timings of the lower layers, and figures read off traced replays.

The oracle and walk timings call ``NoisyOracle`` and the walk
primitives directly in a loop.  Everything else comes from the spans of
a traced replay of a campaign (see ``tracing.py``), split by layer:

* a walk is a call of ``check_bit``/``check_bit_log``/``noisy_compare``/``noisy_compare_log``;
* a match is a ``*_log`` walk inside a tournament; the plain ``check_bit``
  inside ``tournament_or`` is its final check;
* OR phase 1 is the walks ``noisy_or_report`` makes itself; MAX champion
  comparisons are the walks ``noisy_max_report`` makes itself, between
  its first (sample) and second (shortlist) ``tournament_max``.
"""

from __future__ import annotations

import math
import statistics
import time

from tracing import COUNT, END, NAME, SIZE, START, TOURNAMENTS, WALKS, children, self_times

P = 0.25
WALK_THRESHOLDS = (5, 20, 100)


# ---------------------------------------------------------------------------
# Direct-call timings
# ---------------------------------------------------------------------------


def _median_seconds_per_op(body, ops: int, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        body()
        samples.append((time.perf_counter() - start) / ops)
    return statistics.median(samples)


def channel_instances(workload: str) -> list[tuple[str, object]]:
    """(channel, instance) pairs a workload's trials query: "bit" reads bit 1, "cmp" compares 1 and 2."""
    from noisyquery.oracles import make_instance_max, make_instance_or

    if workload == "or-n1000":
        return [("bit", make_instance_or("all_zero", 1000))]
    if workload == "max-n1000":
        return [("cmp", make_instance_max("sorted", 1000))]
    return [("bit", make_instance_or("single_one", 1, index=1)), ("cmp", make_instance_max("sorted", 2))]


def log_delta_for_threshold(k: int) -> float:
    """A log tolerance whose vote threshold at p = P is exactly k."""
    from noisyquery.primitives import vote_threshold_log

    log_delta = -(k - 0.5) * math.log((1.0 - P) / P)
    if vote_threshold_log(P, log_delta) != k:
        raise RuntimeError(f"log tolerance {log_delta} does not give vote threshold {k}")
    return log_delta


def _ask(oracle, channel: str) -> None:
    if channel == "bit":
        oracle.read_bit(1)
    else:
        oracle.compare(1, 2)


def _query_loop(oracle, channel: str, count: int) -> None:
    if channel == "bit":
        read = oracle.read_bit
        for _ in range(count):
            read(1)
    else:
        cmp = oracle.compare
        for _ in range(count):
            cmp(1, 2)


def _walk_loop(oracle, channel: str, log_delta: float, count: int) -> None:
    from noisyquery.primitives import check_bit_log, noisy_compare_log

    for _ in range(count):
        if channel == "bit":
            check_bit_log(oracle, 1, log_delta, P)
        else:
            noisy_compare_log(oracle, 1, 2, log_delta, P)


def direct_timings(workload: str, seed: int, scale: float) -> dict[str, float]:
    """ns per query, us per oracle set-up, and us per walk at K = 5, 20, 100.

    Each figure is the median of five timed loops, averaged over the
    workload's channels; ``scale`` shrinks the loops for quick runs.
    """
    from noisyquery.oracles import NoisyOracle

    def fresh(instance, trial: int = 0):
        return NoisyOracle(instance, P, seed, trial)

    out: dict[str, list[float]] = {}
    for channel, inst in channel_instances(workload):
        ops = max(1, int(100_000 * scale))
        per_query = _median_seconds_per_op(lambda: _query_loop(fresh(inst), channel, ops), ops, 5)
        out.setdefault("oracles.ns_per_query", []).append(1e9 * per_query)
        ops = max(1, int(2_000 * scale))
        per_init = _median_seconds_per_op(lambda: [_ask(fresh(inst, t), channel) for t in range(ops)], ops, 5)
        out.setdefault("oracles.init_us", []).append(1e6 * per_init)
        for k in WALK_THRESHOLDS:
            log_delta = log_delta_for_threshold(k)
            ops = max(1, int(20_000 * scale) // k)
            per_walk = _median_seconds_per_op(lambda: _walk_loop(fresh(inst), channel, log_delta, ops), ops, 5)
            out.setdefault(f"primitives.walk_us.k{k}", []).append(1e6 * per_walk)
    return {name: statistics.fmean(values) for name, values in out.items()}


# ---------------------------------------------------------------------------
# Figures read off one traced replay
# ---------------------------------------------------------------------------


def replay_figures(spans: list[list]) -> dict[str, float]:
    """Per-layer sums over one traced replay (counts, ns, and the number of trials per layer)."""
    kids = children(spans)
    own = self_times(spans)
    f = dict.fromkeys(
        (
            "trials", "trial_self_ns", "aggregates", "aggregate_ns", "walks", "walk_queries",
            "direct_walk_queries", "tournament_ns", "tournament_queries", "matches",
            "or_trials", "or_phase1_queries", "or_rounds_queries", "or_final_queries", "or_survivors",
            "or_phase1_ns", "or_tournament_ns",
            "max_trials", "max_sample_queries", "max_champion_queries", "max_shortlist_queries",
            "max_sample_size", "max_shortlist_size", "max_sample_ns", "max_champion_ns", "max_shortlist_ns",
        ),
        0,
    )  # fmt: skip

    def duration(sid: int) -> int:
        return spans[sid][END] - spans[sid][START]

    def walk_queries(sid: int) -> int:
        """Queries of every walk at or under span sid."""
        if spans[sid][NAME] in WALKS:
            return spans[sid][COUNT]
        return sum(walk_queries(c) for c in kids[sid])

    for sid, span in enumerate(spans):
        name = span[NAME]
        if name == "harness.run_trial":
            f["trials"] += 1
            f["trial_self_ns"] += own[sid]
            f["direct_walk_queries"] += sum(spans[c][COUNT] for c in kids[sid] if spans[c][NAME] in WALKS)
        elif name == "harness.aggregate":
            f["aggregates"] += 1
            f["aggregate_ns"] += duration(sid)
        elif name in WALKS:
            f["walks"] += 1
            f["walk_queries"] += span[COUNT]
        elif name in TOURNAMENTS:
            f["tournament_ns"] += duration(sid)
            f["tournament_queries"] += walk_queries(sid)
            f["matches"] += sum(1 for c in kids[sid] if spans[c][NAME].endswith("_log"))
        elif name == "toplevel.noisy_or_report":
            f["or_trials"] += 1
            for c in kids[sid]:
                child = spans[c]
                if child[NAME] in WALKS:
                    f["or_phase1_queries"] += child[COUNT]
                    f["or_survivors"] += child[SIZE]
                    f["or_phase1_ns"] += duration(c)
                elif child[NAME] == "tournaments.tournament_or":
                    f["or_tournament_ns"] += duration(c)
                    for g in kids[c]:
                        key = "or_rounds_queries" if spans[g][NAME].endswith("_log") else "or_final_queries"
                        f[key] += spans[g][COUNT]
        elif name == "toplevel.noisy_max_report":
            f["max_trials"] += 1
            tournaments = [c for c in kids[sid] if spans[c][NAME] == "tournaments.tournament_max"]
            for label, c in zip(("sample", "shortlist"), tournaments):
                f[f"max_{label}_queries"] += walk_queries(c)
                f[f"max_{label}_size"] += spans[c][SIZE]
                f[f"max_{label}_ns"] += duration(c)
            for c in kids[sid]:
                if spans[c][NAME] in WALKS:
                    f["max_champion_queries"] += spans[c][COUNT]
                    f["max_champion_ns"] += duration(c)
    return f


def traced_phases(f: dict[str, float]) -> tuple[int, int]:
    """Traced queries in the CLI's two phase columns.

    Phase 1 is a lone walk, OR phase 1 or the MAX champion comparisons;
    the subroutine column is everything inside tournaments.
    """
    phase1 = f["direct_walk_queries"] + f["or_phase1_queries"] + f["max_champion_queries"]
    sub = f["or_rounds_queries"] + f["or_final_queries"] + f["max_sample_queries"] + f["max_shortlist_queries"]
    return phase1, sub


def workload_metrics(own: dict, or_source: dict, max_source: dict, tournament_source: dict) -> dict[str, float]:
    """Per-layer metrics; each *_source is the replay that enters that layer."""
    t = own["trials"]
    tt = tournament_source["trials"]
    ot = or_source["or_trials"]
    mt = max_source["max_trials"]
    return {
        "primitives.walks_per_trial": own["walks"] / t,
        "primitives.queries_per_walk": own["walk_queries"] / own["walks"],
        "tournaments.matches_per_trial": tournament_source["matches"] / tt,
        "tournaments.queries_per_trial": tournament_source["tournament_queries"] / tt,
        "tournaments.ms_per_trial": tournament_source["tournament_ns"] / tt / 1e6,
        "toplevel.or.phase1_queries": or_source["or_phase1_queries"] / ot,
        "toplevel.or.rounds_queries": or_source["or_rounds_queries"] / ot,
        "toplevel.or.final_check_queries": or_source["or_final_queries"] / ot,
        "toplevel.or.survivors": or_source["or_survivors"] / ot,
        "toplevel.or.phase1_ms": or_source["or_phase1_ns"] / ot / 1e6,
        "toplevel.or.tournament_ms": or_source["or_tournament_ns"] / ot / 1e6,
        "toplevel.max.sample_tournament_queries": max_source["max_sample_queries"] / mt,
        "toplevel.max.champion_compare_queries": max_source["max_champion_queries"] / mt,
        "toplevel.max.shortlist_tournament_queries": max_source["max_shortlist_queries"] / mt,
        "toplevel.max.sample_size": max_source["max_sample_size"] / mt,
        "toplevel.max.shortlist_size": max_source["max_shortlist_size"] / mt,
        "toplevel.max.sample_tournament_ms": max_source["max_sample_ns"] / mt / 1e6,
        "toplevel.max.champion_compare_ms": max_source["max_champion_ns"] / mt / 1e6,
        "toplevel.max.shortlist_tournament_ms": max_source["max_shortlist_ns"] / mt / 1e6,
        "harness.trial_overhead_us": own["trial_self_ns"] / t / 1e3,
        "harness.aggregate_ms": own["aggregate_ns"] / own["aggregates"] / 1e6,
    }


def phase_checks(label: str, rows_per_call: list[list[dict]], f: dict[str, float]) -> list[str]:
    """The traced phases agree with the phase split the CLI printed."""
    phase1 = sub = 0
    for rows in rows_per_call:
        for row in rows:
            phase1 += round(row["phase1_mean_queries"] * row["trials"])
            sub += round(row["subroutine_mean_queries"] * row["trials"])
    traced = traced_phases(f)
    if traced != (phase1, sub):
        return [f"{label}: traced phase split {traced[0]} + {traced[1]} != printed {phase1} + {sub}"]
    return []
