"""The noisyquery benchmark: one workload per process, end-to-end or traced.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload or-n1000 --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole rounds of the workload's CLI invocations with
tracing off and prints the end-to-end metrics.  ``--trace 1`` replays
the same invocations with spans recorded around each layer, times the
lower layers directly, writes the spans to ``perfbench/out/`` and
prints the per-layer metrics.  Either way the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
(counted in trials) and ``metrics``; units come from BENCHMARK.json.
README.md says what each metric means.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7

# Runs in a fresh interpreter: import the package and prepare the
# workload's inputs (parse each invocation, build each instance), which
# is what the CLI does before its first trial.  Prints the seconds that
# took, and the reference loop's seconds just before and just after.
SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[3])
from calibration import reference_seconds
before = reference_seconds()
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from noisyquery.cli import build_parser
from noisyquery.harness import parse_instance_spec
for argv in json.loads(sys.argv[2]):
    args = build_parser().parse_args(argv)
    for n in str(args.n).split(","):
        parse_instance_spec(args.instance, int(n), args.algorithm)
elapsed = time.perf_counter() - start
print(repr(elapsed), repr(before), repr(reference_seconds()))
"""


class Counter:
    """Operations (trials) attempted and failed over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


def run_round(calls, counter: Counter) -> tuple[float, list[str | None]]:
    """One pass over the invocations: (wall seconds, stdout of each or None where it failed)."""
    from workloads import invoke, report_failed_call

    outputs: list[str | None] = []
    elapsed = 0.0
    for call in calls:
        start = time.perf_counter()
        code, out, err = invoke(call)
        elapsed += time.perf_counter() - start
        counter.attempted += call.trials
        if code == 0:
            outputs.append(out)
        else:
            counter.failed += call.trials
            report_failed_call(call, code, err)
            outputs.append(None)
    return elapsed, outputs


def checked_rows(workload, calls, outputs, statistical: bool = True):
    """(rows per invocation, check failures); rows is None when an invocation failed."""
    from workloads import parse_output

    if any(out is None for out in outputs):
        return None, []
    rows = [parse_output(call, out) for call, out in zip(calls, outputs)]
    return rows, workload.check(rows, statistical)


def total_queries(rows_per_call: list[list[dict]]) -> tuple[int, int]:
    """(queries, trials) summed over every output row."""
    queries = trials = 0
    for rows in rows_per_call:
        for row in rows:
            queries += round(row["mean_queries"] * row["trials"])
            trials += row["trials"]
    return queries, trials


def measure_setup(calls) -> float:
    """Median seconds, over fresh interpreters, to import noisyquery and prepare the inputs.

    Each sample is scaled to the nominal machine speed (see calibration.py).
    """
    from calibration import machine_slowdown

    argvs = json.dumps([call.argv for call in calls])
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), argvs, str(HERE)],
            capture_output=True, text=True, timeout=120, check=True,
        )  # fmt: skip
        elapsed, before, after = map(float, done.stdout.split()[-3:])
        samples.append(elapsed / machine_slowdown(before, after))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Largest resident set of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_run(workload, seed: int, seconds: float, size: str, counter: Counter):
    """End-to-end metrics with tracing off: (metrics, check failures)."""
    from calibration import machine_slowdown, reference_seconds
    from workloads import CHECK_ROUNDS

    checked = workload.calls(seed, size, 1, CHECK_ROUNDS)
    timed = workload.calls(seed, size, 1)
    setup_s = measure_setup(timed)
    import noisyquery.cli  # noqa: F401  (imported here, outside every timed region)

    # The checked campaign also warms every cache before the first timed round.
    _, outputs = run_round(checked, counter)
    rows, failures = checked_rows(workload, checked, outputs)
    if rows is None:
        raise SystemExit("an invocation of the checked campaign failed; nothing to report")
    trials = sum(call.trials for call in timed)
    rates: list[float] = []
    first: list[str | None] = []
    reference = [reference_seconds()]
    start = time.perf_counter()
    while not rates or time.perf_counter() - start < seconds:
        elapsed, outputs = run_round(timed, counter)
        reference.append(reference_seconds())
        # The round's rate at nominal machine speed (see calibration.py).
        rates.append(trials / elapsed * machine_slowdown(reference[-2], reference[-1]))
        first = first or outputs
        for call, out, ref in zip(timed, outputs, first):
            if out is not None and ref is not None and out != ref:
                failures.append(f"output of `noisyquery {' '.join(call.argv)}` changed between rounds")
    queries, checked_trials = total_queries(rows)
    metrics = {
        "trials_per_s": statistics.median(rates),
        "queries_per_trial": queries / checked_trials,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, failures


def traced_replay(workload, calls, counter: Counter, failures: list[str], statistical: bool, spans_out: dict):
    """Replay the invocations with tracing on and return the per-layer figures.

    The replay's outputs are checked like a timed round's, and the
    queries counted layer by layer must add up exactly to the campaign
    total the CLI printed.
    """
    import layers
    from tracing import Tracer

    with Tracer() as tracer:
        elapsed, outputs = run_round(calls, counter)
    rows, fails = checked_rows(workload, calls, outputs, statistical)
    failures += fails
    if rows is None:
        raise SystemExit(f"an invocation failed in the traced {workload.name} replay; nothing to report")
    figures = layers.replay_figures(tracer.spans)
    figures["elapsed_s"] = elapsed
    queries, trials = total_queries(rows)
    layered = sum(layers.traced_phases(figures))
    if not layered == figures["walk_queries"] == queries or figures["trials"] != trials:
        failures.append(
            f"{workload.name}: per-layer queries {layered} (all walks {figures['walk_queries']}, "
            f"{figures['trials']} trials) != campaign total {queries} ({trials} trials)"
        )
    failures += layers.phase_checks(workload.name, rows, figures)
    spans_out.setdefault(workload.name, tracer.spans)
    return figures


def traced_run(workload, seed: int, seconds: float, size: str, counter: Counter):
    """Per-layer metrics from traced replays and direct timings: (metrics, check failures)."""
    import layers
    from tracing import write_trace
    from workloads import CHECK_ROUNDS, WORKLOADS

    import noisyquery.cli  # noqa: F401

    failures: list[str] = []
    spans: dict[str, list[list]] = {}
    # A layer this workload's campaign never enters is read off a short
    # traced probe of the n=1000 campaign that does enter it.
    probes = {
        kind: traced_replay(
            WORKLOADS[name], WORKLOADS[name].calls(seed, "probe", 1, CHECK_ROUNDS), counter, failures, False, spans
        )
        for kind, name in (("or", "or-n1000"), ("max", "max-n1000"))
        if name != workload.name
    }
    # The replays run the checked campaign, serially so that every span
    # is recorded in this process.
    serial = workload.calls(seed, size, 1, CHECK_ROUNDS)
    parallel = workload.calls(seed, size, 2, CHECK_ROUNDS)
    samples: list[dict[str, float]] = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        t_serial, _ = run_round(serial, counter)
        t_parallel, _ = run_round(parallel, counter)
        own = traced_replay(workload, serial, counter, failures, True, spans)
        or_source = probes.get("or", own)
        max_source = probes.get("max", own)
        samples.append(
            {
                "oracles.queries_per_s": own["walk_queries"] / t_serial,
                "harness.parallel_speedup": t_serial / t_parallel,
                "trace.throughput_ratio": t_serial / own["elapsed_s"],
                **layers.workload_metrics(own, or_source, max_source, own if own["matches"] else max_source),
            }
        )
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics.update(layers.direct_timings(workload.name, seed, 1.0 if size == "full" else 0.02))
    write_trace(OUT / f"trace-{workload.name}-seed{seed}.json.gz", {"workload": workload.name, "seed": seed}, spans)
    return metrics, failures


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: a few trials per invocation, for tests"
    )
    args = parser.parse_args(argv)
    if not (SRC / "noisyquery" / "__init__.py").is_file():
        print(f"no noisyquery sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 1
    if args.seed < 0:
        print("--seed must be non-negative (it becomes the campaign's master seed)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    counter = Counter()
    measure = traced_run if args.trace else timed_run
    metrics, failures = measure(workload, args.seed, args.seconds, args.size, counter)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    units = declared_units(bool(args.trace))
    if set(units) != set(metrics):
        print(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}", file=sys.stderr)
        return 1
    result = {
        "correct": not failures,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
