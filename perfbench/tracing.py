"""Spans around the calls into the program's layers, recorded from outside it.

:class:`Tracer` swaps each traced public function for a wrapper in every
``noisyquery`` module that holds it by name, and restores the originals
on exit.  Each call becomes one span (name, start, end, parent, trace
id, count, size), kept in memory and written out when the run ends.
Walk spans carry the queries the walk spent, read from its returned
report; no span is recorded per query.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from pathlib import Path

# (module, function) pairs wrapped by the tracer; the span is named after both.
TRACED = (
    ("harness", "run_trial"),
    ("harness", "aggregate"),
    ("toplevel", "noisy_or_report"),
    ("toplevel", "noisy_max_report"),
    ("tournaments", "tournament_or"),
    ("tournaments", "tournament_max"),
    ("primitives", "check_bit"),
    ("primitives", "check_bit_log"),
    ("primitives", "noisy_compare"),
    ("primitives", "noisy_compare_log"),
)
WALKS = frozenset(
    {"primitives.check_bit", "primitives.check_bit_log", "primitives.noisy_compare", "primitives.noisy_compare_log"}
)
TOURNAMENTS = frozenset({"tournaments.tournament_or", "tournaments.tournament_max"})

# Span fields, by position in a span record.
NAME, START, END, PARENT, TRACE, COUNT, SIZE = range(7)
# For a walk, COUNT is its queries and SIZE its decision; for a tournament,
# SIZE is the number of entrants.  Other spans leave both None.


class Tracer:
    """Context manager that records spans while active."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items() if name.startswith("noisyquery") and m is not None]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"noisyquery.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        is_walk = name in WALKS
        is_tournament = name in TOURNAMENTS

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            trace_id = stack[0] if stack else sid
            record = [name, 0, 0, parent, trace_id, None, None]
            spans.append(record)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record[START] = start
                record[END] = end
            if is_walk:
                record[COUNT] = result.queries_used
                record[SIZE] = int(result.decision)
            elif is_tournament:
                record[SIZE] = len(args[1] if len(args) > 1 else kwargs["indices"])
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its child spans cover, in ns."""
    child = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def children(spans: list[list]) -> list[list[int]]:
    """Child span ids of each span, in call order."""
    kids: list[list[int]] = [[] for _ in spans]
    for sid, span in enumerate(spans):
        if span[PARENT] >= 0:
            kids[span[PARENT]].append(sid)
    return kids


def write_trace(path: Path, header: dict, replays: dict[str, list[list]]) -> None:
    """Write spans column by column, with self times, as gzipped JSON."""
    payload = dict(header)
    payload["fields"] = ["name", "start_ns", "end_ns", "parent", "trace", "count", "size", "self_ns"]
    payload["replays"] = {}
    for label, spans in replays.items():
        columns = [list(col) for col in zip(*spans)] if spans else [[] for _ in range(7)]
        columns.append(self_times(spans))
        payload["replays"][label] = dict(zip(payload["fields"], columns))
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=5) as fh:
        json.dump(payload, fh, separators=(",", ":"))
