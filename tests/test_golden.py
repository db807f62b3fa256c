"""Golden outputs: fixed-seed CLI runs must reproduce committed files byte for byte.

Each case is one ``noisyquery`` invocation whose standard output is
stored under ``tests/golden/``.  The flip stream, every decision and
every query count feed into these outputs, so any change to the channel,
the stopped walk or the algorithms that alters behaviour shows up here.

Regenerate the files (only when a behaviour change is intended) with::

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from noisyquery.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

_SEED = "20231"
_GRID = ["--p", "0.1,0.25,0.4", "--delta", "0.05,0.01,0.001", "--trials", "1000", "--seed", _SEED]


def _run(algorithm: str, instance: str, n: int, p: str, delta: str) -> list[str]:
    return [
        "run", "--algorithm", algorithm, "--instance", instance, "--n", str(n),
        "--p", p, "--delta", delta, "--trials", "200", "--seed", _SEED,
        "--format", "json", "--raw-trials",
    ]  # fmt: skip


CASES = {
    "run-checkbit.json": _run("checkbit", "single_one:1", 1, "0.25", "0.01"),
    "run-noisycompare.json": _run("noisycompare", "sorted", 2, "0.3", "0.001"),
    "run-tournament-or.json": _run("tournament-or", "single_one:5", 16, "0.25", "0.01"),
    "run-tournament-max.json": _run("tournament-max", "permuted:7", 16, "0.25", "0.01"),
    "run-noisy-or.json": _run("noisy-or", "all_zero", 100, "0.25", "0.01"),
    "run-noisy-max.json": _run("noisy-max", "relocated:40", 100, "0.25", "0.01"),
    "sweep-checkbit.csv": ["sweep", "--algorithm", "checkbit", "--instance", "single_one:1", "--n", "1", *_GRID],
    "sweep-noisycompare.csv": ["sweep", "--algorithm", "noisycompare", "--instance", "sorted", "--n", "2", *_GRID],
}


def _output(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name):
    expected = (GOLDEN_DIR / name).read_text()
    assert _output(CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN_DIR / name).write_text(_output(argv))
        print(f"wrote {GOLDEN_DIR / name}")
