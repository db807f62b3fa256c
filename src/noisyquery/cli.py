"""Command-line interface: bounds, run, sweep, verify.

Data goes to --out or standard output; progress and diagnostics go to
standard error.  Exit codes: 0 success, 2 configuration error,
3 internal invariant or verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import lru_cache
from pathlib import Path

from .bounds import (
    binary_entropy,
    checkbit_budget,
    kl_pq,
    lecam_budget,
    lecam_floor,
    regime_label,
    regime_ratio,
    upper_budget,
)
from .errors import ContractViolation, InvariantError
from .exact_oracle import run_verify_checks
from .harness import (
    ALGORITHMS,
    ExperimentConfig,
    aggregate,
    check_workers,
    render_csv,
    render_json,
    run_sweep,
    run_trials,
    sweep_configs,
)

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_INTERNAL = 3
_GRID_CAP = 10_000


def _parse_grid(text: str, kind: type[int] | type[float]) -> list:
    """Comma list ("100,1000") or inclusive range ("100:1000:300") of ints or floats.

    A range holds at most ``_GRID_CAP`` points, and its size is checked
    before any point is built.
    """
    if ":" not in text:
        return [kind(tok) for tok in text.split(",") if tok != ""]
    parts = text.split(":")
    if len(parts) != 3:
        raise ContractViolation(f"range grid must be start:stop:step, got {text!r}")
    start, stop, step = (kind(tok) for tok in parts)
    if not (step > 0 and start <= stop):  # also refuses NaN
        raise ContractViolation(f"bad range grid {text!r}")
    if start + step == start:
        raise ContractViolation(f"range grid {text!r}: step {step!r} cannot move start {start!r}")
    too_many = f"range grid {text!r} has more than {_GRID_CAP} points"
    if kind is int:
        if (stop - start) // step >= _GRID_CAP:
            raise ContractViolation(too_many)
        return list(range(start, stop + 1, step))
    slack = step * 1e-6  # relative to the step, so a range of tiny steps keeps its last point and no more
    if not (stop + slack - start) / step < _GRID_CAP:
        raise ContractViolation(too_many)
    out = []
    x = start
    while x <= stop + slack:
        if len(out) == _GRID_CAP:  # x + step can equal x further on, though not at start
            raise ContractViolation(too_many)
        out.append(float(f"{x:.12g}"))  # 12 significant digits, so a tiny step keeps its points
        x += step
    return out


def _check_out(out: str | None) -> None:
    """Refuse an output path that cannot be written, before any work is done."""
    if out is None or out == "-":
        return
    path = Path(out)
    if not path.parent.is_dir():
        raise ContractViolation(f"output directory {str(path.parent)!r} does not exist")
    if path.is_dir():
        raise ContractViolation(f"output path {out!r} is a directory")


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ContractViolation(f"cannot write {out!r}: {exc.strerror or exc}") from exc


def _cmd_bounds(args: argparse.Namespace) -> int:
    n, delta, p = args.n, args.delta, args.p
    if not 0.0 < delta < 0.5:  # checked first, so it wins over every refusal below
        raise ContractViolation(f"delta must lie in (0, 1/2), got {delta}")
    entropy = binary_entropy(p)
    d_kl = kl_pq(p)
    upper = upper_budget(n, delta, p)
    lower = lecam_budget(n, delta, p)
    per_bit = checkbit_budget(delta, p)
    ratio = regime_ratio(delta, p)
    lines = [
        "# convention: divergences and log(1/delta) in nats; capacity term 1-H(p) uses bits",
        f"n                        {n}",
        f"p                        {p!r}",
        f"delta                    {delta!r}",
        f"d_kl_nats                {d_kl!r}",
        f"entropy_nats             {entropy!r}",
        f"entropy_bits             {entropy / math.log(2.0)!r}",
        f"upper_budget             {upper!r}",
        f"lower_budget_lecam       {lower!r}",
        f"checkbit_budget_per_bit  {per_bit!r}",
        f"lecam_floor_at_m0        {lecam_floor(n, 0.0, p)!r}",
        f"lecam_floor_at_upper     {lecam_floor(n, upper, p)!r}",
        f"regime_ratio             {ratio!r}",
        f"regime                   {regime_label(ratio)}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return _EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    if args.raw_trials and args.format == "csv":
        raise ContractViolation("--raw-trials needs --format json")
    config = ExperimentConfig(
        algorithm=args.algorithm,
        instance=args.instance,
        n=args.n,
        p=args.p,
        delta=args.delta,
        trials=args.trials,
        seed=args.seed,
    )
    check_workers(args.workers)
    print(f"running {config.trials} trials of {config.algorithm} ...", file=sys.stderr)
    columns = run_trials(config, workers=args.workers)
    stats = aggregate(config, columns)
    if args.format == "csv":
        _emit(render_csv([stats]), args.out)
    else:
        _emit(render_json([stats], columns if args.raw_trials else None), args.out)
    return _EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        n_grid = _parse_grid(args.n, int)
        p_grid = _parse_grid(args.p, float)
        delta_grid = _parse_grid(args.delta, float)
    except ValueError as exc:  # int()/float() parse failures
        raise ContractViolation(f"bad grid value: {exc}") from exc
    if not n_grid or not p_grid or not delta_grid:  # the base below is the first grid point
        raise ContractViolation("sweep grids must be nonempty")
    base = ExperimentConfig(
        algorithm=args.algorithm,
        instance=args.instance,
        n=n_grid[0],
        p=p_grid[0],
        delta=delta_grid[0],
        trials=args.trials,
        seed=args.seed,
    )
    configs = sweep_configs(base, n_grid, p_grid, delta_grid)  # every row is checked before the progress line
    check_workers(args.workers)
    print(f"sweeping {len(configs)} grid points ...", file=sys.stderr)
    rows = run_sweep(configs, workers=args.workers)
    if args.format == "csv":
        _emit(render_csv(rows), args.out)
    else:
        _emit(render_json(rows), args.out)
    return _EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = run_verify_checks(mc_trials=args.mc_trials)
    width = max(len(name) for name, _, _ in checks)
    failed = 0
    lines = []
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status}  {name:<{width}}  {detail}")
        if not ok:
            failed += 1
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return _EXIT_OK if failed == 0 else _EXIT_INTERNAL


@lru_cache(maxsize=1)  # built once a process: parsing reads the parser and changes nothing in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisyquery",
        description="Noisy-query OR/MAX simulator: bounds, Monte Carlo campaigns, exact verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="print all closed-form bounds at one parameter point")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--delta", type=float, required=True)
    b.add_argument("--p", type=float, required=True)
    b.add_argument("--out", default=None, help="output path (default: stdout)")
    b.set_defaults(func=_cmd_bounds)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    common.add_argument(
        "--instance",
        required=True,
        help="family[:params], e.g. all_zero, single_one:3, literal:0,1,0, "
        "sorted, relocated:2, permuted:7, literal:1.5,2.5",
    )
    common.add_argument("--trials", type=int, required=True)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--workers", type=int, default=1)

    r = sub.add_parser("run", parents=[common], help="run one Monte Carlo campaign")
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--p", type=float, required=True)
    r.add_argument("--delta", type=float, required=True)
    r.add_argument("--raw-trials", action="store_true", help="include per-trial records (json only)")
    r.set_defaults(func=_cmd_run)

    s = sub.add_parser("sweep", parents=[common], help="run a grid of campaigns over n, p, delta")
    s.add_argument("--n", required=True, help="comma list (100,1000) or range start:stop:step")
    s.add_argument("--p", required=True, help="comma list or range")
    s.add_argument("--delta", required=True, help="comma list or range")
    s.set_defaults(func=_cmd_sweep)

    v = sub.add_parser("verify", help="cross-check the exact oracles and enumerable configurations")
    v.add_argument(
        "--mc-trials",
        type=int,
        default=0,
        help="also Monte-Carlo check each enumerable configuration with this many trials",
    )
    v.add_argument("--out", default=None)
    v.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except ContractViolation as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return _EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
