"""Command line front end.

Subcommands:

* ``analyze``    absolute-stability checks for a scenario, JSON report out
* ``simulate``   time-domain run, writes trace.csv / events.csv / report.json
* ``sweep``      repeat analysis + simulation over a list of sampling periods
* ``max-period`` bisect for the largest sampling period passing a criterion

Exit codes: 0 success, 1 analysis or simulation verdict failed, 2 bad usage,
unreadable configuration, or a configuration the certificates cannot judge.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .lti import make_grid
from .scenario import (
    ParseError,
    ValidationError,
    build_report,
    load_run_settings,
    load_scenario,
    write_report,
)
from .sim import run_scenario, sweep_period, verdict, write_events_csv, write_trace_csv
from .stability import NoBracket, TeleopSystem, max_stable_period, small_gain_value

__all__ = ["main", "cli_dispatch"]


def _system_from(sc) -> TeleopSystem:
    # analysis quantifies over passive terminations; use the bare robots
    return TeleopSystem(master=sc.master, slave=sc.slave, gains=sc.gains)


def _stability_report(sc, grid_points: int):
    grid = make_grid(sc.channel.T, grid_points)
    return small_gain_value(_system_from(sc), sc.channel, grid)


def _cmd_analyze(args) -> int:
    sc = load_scenario(args.config)
    run = load_run_settings(args.config)
    grid = args.grid if args.grid is not None else run.grid_points
    if grid < 2:
        print("error: --grid must be at least 2", file=sys.stderr)
        return 2
    stability = _stability_report(sc, grid)
    report = build_report(sc, run, stability=stability)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        write_report(report, args.out)
    print(text)
    return 0 if stability.small_gain_pass else 1


def _cmd_simulate(args) -> int:
    sc = load_scenario(args.config)
    run = load_run_settings(args.config)
    seed = run.seed if args.seed is None else args.seed
    trace = run_scenario(sc, seed=seed)
    v = verdict(
        trace,
        position_bound=run.position_bound,
        settle_window=run.settle_window,
        settle_tol=run.settle_tol,
    )
    stability = _stability_report(sc, run.grid_points)
    report = build_report(sc, run, stability=stability, sim_verdict=v)
    report["provenance"]["seed"] = seed
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
    if not periods or any(T <= 0 for T in periods):
        raise ValueError("--periods needs positive values")
    return periods


def _cmd_sweep(args) -> int:
    sc = load_scenario(args.config)
    run = load_run_settings(args.config)
    periods = _parse_periods(args.periods)
    os.makedirs(args.out, exist_ok=True)
    rows = sweep_period(
        sc,
        periods,
        seed=run.seed,
        grid_points=run.grid_points,
        position_bound=run.position_bound,
        settle_window=run.settle_window,
        settle_tol=run.settle_tol,
    )
    header = (
        "period,bounded,max_abs_position,settling_ok,small_gain_value,"
        "small_gain_pass,damping_bound,error"
    )
    lines = [header]
    payload = []
    for row in rows:
        if row.error is not None:
            lines.append(f"{row.period!r},,,,,,,{row.error}")
            payload.append({"period": row.period, "error": row.error})
            continue
        v, st = row.verdict, row.stability
        lines.append(
            f"{row.period!r},{v.bounded},{v.max_abs_position!r},{v.settling_ok},"
            f"{st.small_gain_value!r},{st.small_gain_pass},{st.damping_bound!r},"
        )
        payload.append(
            {
                "period": row.period,
                "bounded": v.bounded,
                "max_abs_position": v.max_abs_position,
                "settling_ok": v.settling_ok,
                "small_gain_value": st.small_gain_value,
                "small_gain_pass": st.small_gain_pass,
                "damping_bound": st.damping_bound,
            }
        )
    with open(os.path.join(args.out, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    report = build_report(sc, run)
    report["sweep"] = payload
    write_report(report, os.path.join(args.out, "sweep.json"))
    print(f"{len(rows)} periods swept, outputs in {args.out}")
    return 0


def _parse_range(raw: str) -> tuple[float, float]:
    parts = raw.split(":")
    if len(parts) != 2:
        raise ValueError(f"bad --range, expected LO:HI, got {raw!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"bad --range, expected LO:HI, got {raw!r}") from None
    if not 0 < lo < hi:
        raise ValueError("--range needs 0 < LO < HI")
    return lo, hi


def _cmd_max_period(args) -> int:
    sc = load_scenario(args.config)
    run = load_run_settings(args.config)
    t_lo, t_hi = _parse_range(args.range)
    sys_ = _system_from(sc)
    try:
        result = max_stable_period(
            sys_,
            sc.channel,
            args.criterion,
            (t_lo, t_hi),
            grid_points=run.grid_points if args.grid is None else args.grid,
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


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="teleopstab",
        description="Sampled-data bilateral teleoperation: stability analysis "
        "and hybrid simulation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="absolute-stability analysis for one scenario")
    pa.add_argument("--config", required=True, help="scenario file")
    pa.add_argument("--grid", type=int, default=None, help="frequency grid size")
    pa.add_argument("--out", default=None, help="also write the JSON report here")
    pa.set_defaults(func=_cmd_analyze)

    ps = sub.add_parser("simulate", help="run the hybrid simulation")
    ps.add_argument("--config", required=True, help="scenario file")
    ps.add_argument("--out", required=True, help="output directory")
    ps.add_argument("--seed", type=int, default=None, help="override [run] seed")
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
        choices=("small_gain", "damping_bound"),
        help="stability criterion to bisect on",
    )
    pm.add_argument("--range", required=True, help="search bracket LO:HI in s")
    pm.add_argument("--grid", type=int, default=None, help="frequency grid size")
    pm.set_defaults(func=_cmd_max_period)
    return p


def cli_dispatch(argv: list[str] | None = None) -> int:
    """Parse ``argv`` and run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, ValidationError, OSError, ValueError, ArithmeticError) as exc:
        # ArithmeticError: a loadable scenario the certificates cannot judge
        # (SingularDenominator, PoleHit, KernelSingular)
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
