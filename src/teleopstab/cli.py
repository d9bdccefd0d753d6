"""Command line front end.

Subcommands:

* ``analyze``    absolute-stability checks for a scenario, JSON report out
* ``simulate``   time-domain run, writes trace.csv / events.csv / report.json
* ``sweep``      repeat analysis + simulation over a list of sampling periods
* ``max-period`` bisect for the largest sampling period passing a criterion

Exit codes: 0 success, 1 analysis or simulation verdict failed, 2 bad usage,
unreadable configuration, a configuration the stability tests cannot judge, or
a sweep none of whose periods succeeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys

from .scenario import (
    ParseError,
    ValidationError,
    build_report,
    load_run_settings,
    load_scenario,
    write_report,
)
from .sim import run_scenario, sweep_period, verdict, write_events_csv, write_trace_csv
from .stability import CRITERIA, NoBracket, max_stable_period, small_gain_at_period

__all__ = ["main", "cli_dispatch"]

# sweep.csv and sweep.json columns: (source, attribute) of a SweepRow, where
# source None is the row itself; an error row has only period and error
_SWEEP_COLUMNS = (
    (None, "period"),
    ("verdict", "bounded"),
    ("verdict", "max_abs_position"),
    ("verdict", "settling_ok"),
    ("stability", "small_gain_value"),
    ("stability", "small_gain_pass"),
    ("stability", "damping_bound"),
)


def _cmd_analyze(args, sc, run) -> int:
    stability = small_gain_at_period(sc.analysis_system(), sc.channel, run.grid_points)
    report = build_report(sc, run, stability=stability)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        write_report(report, args.out)
    print(text)
    return 0 if stability.small_gain_pass else 1


def _cmd_simulate(args, sc, run) -> int:
    # the small-gain test first: its grid is checked before the trace is allocated
    stability = small_gain_at_period(sc.analysis_system(), sc.channel, run.grid_points)
    trace = run_scenario(sc, seed=run.seed)
    v = verdict(trace, run)
    report = build_report(sc, run, stability=stability, sim_verdict=v)
    os.makedirs(args.out, exist_ok=True)
    write_trace_csv(trace, os.path.join(args.out, "trace.csv"))
    write_events_csv(trace, os.path.join(args.out, "events.csv"))
    write_report(report, os.path.join(args.out, "report.json"))
    print(
        f"bounded={v.bounded} max|x|={v.max_abs_position:.6g} "
        f"settled={v.settling_ok} outputs in {args.out}"
    )
    return 0 if v.bounded else 1


def _parse_periods(raw: str) -> list[float]:
    try:
        periods = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad --periods list: {raw!r}") from None
    if not periods or not all(0 < T < math.inf for T in periods):
        raise ValueError("--periods needs positive finite values")
    return periods


def _cmd_sweep(args, sc, run) -> int:
    periods = _parse_periods(args.periods)
    os.makedirs(args.out, exist_ok=True)
    rows = sweep_period(sc, periods, run)
    payload = [
        {"period": row.period, "error": row.error}
        if row.error is not None
        else {
            attr: getattr(row if source is None else getattr(row, source), attr)
            for source, attr in _SWEEP_COLUMNS
        }
        for row in rows
    ]
    with open(os.path.join(args.out, "sweep.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(
            fh, [attr for _, attr in _SWEEP_COLUMNS] + ["error"], lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(payload)
    report = build_report(sc, run)
    report["sweep"] = payload
    write_report(report, os.path.join(args.out, "sweep.json"))
    print(f"{len(rows)} periods swept, outputs in {args.out}")
    if all(row.error is not None for row in rows):
        # nothing was judged or simulated: fail as analyze and simulate do
        first = rows[0]
        print(f"error: every period failed; at {first.period!r} s: {first.error}", file=sys.stderr)
        return 2
    return 0


def _parse_range(raw: str) -> tuple[float, float]:
    parts = raw.split(":")
    if len(parts) != 2:
        raise ValueError(f"bad --range, expected LO:HI, got {raw!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"bad --range, expected LO:HI, got {raw!r}") from None
    if not 0 < lo < hi < math.inf:
        raise ValueError("--range needs 0 < LO < HI < inf")
    return lo, hi


def _cmd_max_period(args, sc, run) -> int:
    t_lo, t_hi = _parse_range(args.range)
    try:
        result = max_stable_period(
            sc.analysis_system(),
            sc.channel,
            args.criterion,
            (t_lo, t_hi),
            grid_points=run.grid_points,
        )
    except NoBracket as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "criterion": result.criterion,
                "status": result.status,
                "max_period_s": result.period,
                "range_s": [result.t_lo, result.t_hi],
                "pass_at_lo": result.pass_lo,
                "pass_at_hi": result.pass_hi,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args reads the parser and leaves it as it was
    p = argparse.ArgumentParser(
        prog="teleopstab",
        description="Sampled-data bilateral teleoperation: stability analysis "
        "and hybrid simulation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="absolute-stability analysis for one scenario")
    pa.add_argument("--config", required=True, help="scenario file")
    pa.add_argument("--grid", dest="grid_points", type=int, help="frequency grid size")
    pa.add_argument("--out", default=None, help="also write the JSON report here")
    pa.set_defaults(func=_cmd_analyze)

    ps = sub.add_parser("simulate", help="run the hybrid simulation")
    ps.add_argument("--config", required=True, help="scenario file")
    ps.add_argument("--out", required=True, help="output directory")
    ps.add_argument("--seed", type=int, help="override [run] seed")
    ps.set_defaults(func=_cmd_simulate)

    pw = sub.add_parser("sweep", help="analysis + simulation over several periods")
    pw.add_argument("--config", required=True, help="scenario file")
    pw.add_argument("--periods", required=True, help="comma-separated periods in s")
    pw.add_argument("--out", required=True, help="output directory")
    pw.set_defaults(func=_cmd_sweep)

    pm = sub.add_parser("max-period", help="largest period passing a criterion")
    pm.add_argument("--config", required=True, help="scenario file")
    pm.add_argument(
        "--criterion",
        required=True,
        choices=tuple(CRITERIA),
        help="stability criterion to bisect on",
    )
    pm.add_argument("--range", required=True, help="search bracket LO:HI in s")
    pm.add_argument("--grid", dest="grid_points", type=int, help="frequency grid size")
    pm.set_defaults(func=_cmd_max_period)
    return p


def cli_dispatch(argv: list[str] | None = None) -> int:
    """Parse ``argv`` and run one subcommand; returns the process exit code.

    The argument parser is built on the first call and reused by every later
    one in the process (about 0.9 ms a call); each call parses into a fresh
    namespace, so no option carries over from one call to the next.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        sc = load_scenario(args.config)
        run = load_run_settings(args.config)
        # --grid and --seed override [run] for this call, so the report's
        # provenance records the values actually used
        overrides = {
            name: getattr(args, name)
            for name in ("grid_points", "seed")
            if getattr(args, name, None) is not None
        }
        run = dataclasses.replace(run, **overrides)
        return args.func(args, sc, run)
    except (ParseError, ValidationError, OSError, ValueError, ArithmeticError) as exc:
        # ArithmeticError: a loadable scenario the stability tests cannot judge
        # (SingularDenominator, PoleHit, KernelSingular)
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
