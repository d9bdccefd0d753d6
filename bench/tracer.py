"""In-memory spans around the program's layers, recorded from outside.

``install`` rebinds the public functions at the call sites their callers hold
(``teleopstab.cli.run_scenario``, ``teleopstab.sim.small_gain_value``,
``teleopstab.stability.sampled_plant_tf`` ...) to timing wrappers, and
``uninstall`` puts the originals back.  Counts are taken from arguments and
results at the same boundaries; their cost is kept out of every span.
"""

from __future__ import annotations

import importlib
import os
import statistics
from time import perf_counter

import numpy as np

# (module, attribute, span name): every binding through which a layer is called
HOOKS = (
    ("teleopstab.cli", "load_scenario", "scenario.load"),
    ("teleopstab.cli", "load_run_settings", "scenario.load"),
    ("teleopstab.cli", "build_report", "scenario.report"),
    ("teleopstab.cli", "write_report", "scenario.report"),
    ("teleopstab.cli", "make_grid", "lti.make_grid"),
    ("teleopstab.cli", "small_gain_value", "stability.small_gain"),
    ("teleopstab.cli", "max_stable_period", "stability.max_period"),
    ("teleopstab.cli", "run_scenario", "sim.run"),
    ("teleopstab.cli", "verdict", "sim.verdict"),
    ("teleopstab.cli", "sweep_period", "sim.sweep"),
    ("teleopstab.cli", "write_trace_csv", "sim.trace_csv"),
    ("teleopstab.cli", "write_events_csv", "sim.events_csv"),
    ("teleopstab.sim", "make_grid", "lti.make_grid"),
    ("teleopstab.sim", "small_gain_value", "stability.small_gain"),
    ("teleopstab.sim", "run_scenario", "sim.run"),
    ("teleopstab.sim", "verdict", "sim.verdict"),
    ("teleopstab.stability", "make_grid", "lti.make_grid"),
    ("teleopstab.stability", "small_gain_value", "stability.small_gain"),
    ("teleopstab.stability", "damping_bound", "stability.damping_bound"),
    ("teleopstab.stability", "sampled_plant_tf", "plants.zoh"),
)


def _count_small_gain(args, kwargs, result):
    grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
    return {"grid_points": len(grid.points), "excluded_points": result.excluded_points}


def _count_run(args, kwargs, result):
    contact = np.asarray(result.f_e) < 0.0
    return {
        "substeps": len(result.t) - 1,
        "samples": len(result.sample_events),
        "holds": len(result.hold_events_m) + len(result.hold_events_s),
        "wall_transitions": int(np.count_nonzero(contact[1:] != contact[:-1])),
    }


def _count_trace_csv(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)}


COUNTERS = {
    "stability.small_gain": _count_small_gain,
    "sim.run": _count_run,
    "sim.trace_csv": _count_trace_csv,
}


class Tracer:
    """Span recorder; a span is [id, parent, request, name, start, seconds, counts].

    A span's seconds exclude the counting done inside it; ``count_s`` totals
    that counting so callers can take it out of their own timings too.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: int | None = None
        self.count_s = 0.0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [
                len(self.spans), self._stack[-1] if self._stack else None,
                self.request, name, 0.0, 0.0, None,
            ]
            self.spans.append(span)
            self._stack.append(span[0])
            counted_before = self.count_s
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                span[4] = t0
                span[5] = t1 - t0 - (self.count_s - counted_before)
            if counter is not None:
                span[6] = counter(args, kwargs, result)
                self.count_s += perf_counter() - t1
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every hook present in the program; returns the names bound."""
        bound = []
        for mod_name, attr, span_name in HOOKS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(span_name, fn))
            bound.append(f"{mod_name}.{attr}")
        return bound

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


def layer_metrics(spans: list[list], requests: list[int], request_s: list[float]) -> dict:
    """Per-request layer figures over the given traced requests."""
    wanted = set(requests)
    n = len(requests)
    spans = [s for s in spans if s[2] in wanted]
    by_id = {s[0]: s for s in spans}
    dur: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    child_time: dict[int, float] = {}
    for s in spans:
        d = s[5]
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + d
    top_level = 0.0
    criterion_evals = 0
    for s in spans:
        name, d = s[3], s[5]
        dur[name] = dur.get(name, 0.0) + d
        self_s[name] = self_s.get(name, 0.0) + d - child_time.get(s[0], 0.0)
        calls[name] = calls.get(name, 0) + 1
        for key, value in (s[6] or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if s[1] is None:
            top_level += d
        elif name in ("stability.small_gain", "stability.damping_bound"):
            if by_id[s[1]][3] == "stability.max_period":
                criterion_evals += 1

    def per(v):
        return v / n

    substeps = counts.get("sim.run.substeps", 0)
    points = counts.get("stability.small_gain.grid_points", 0)
    sg_self = self_s.get("stability.small_gain", 0.0)
    run_s = dur.get("sim.run", 0.0)
    return {
        "scenario.load_s": (per(dur.get("scenario.load", 0.0)), "s"),
        "scenario.report_s": (per(dur.get("scenario.report", 0.0)), "s"),
        "plants.zoh_calls": (per(calls.get("plants.zoh", 0)), "count"),
        "plants.zoh_s": (per(dur.get("plants.zoh", 0.0)), "s"),
        "lti.grid_points": (per(points), "count"),
        "lti.make_grid_s": (per(dur.get("lti.make_grid", 0.0)), "s"),
        "stability.small_gain_calls": (per(calls.get("stability.small_gain", 0)), "count"),
        "stability.small_gain_self_s": (per(sg_self), "s"),
        "stability.us_per_point": (sg_self / points * 1e6 if points else 0.0, "us"),
        "stability.max_period_calls": (per(calls.get("stability.max_period", 0)), "count"),
        "stability.criterion_evals": (per(criterion_evals), "count"),
        "stability.excluded_points": (per(counts.get("stability.small_gain.excluded_points", 0)), "count"),
        "sim.run_s": (per(run_s), "s"),
        "sim.substeps": (per(substeps), "count"),
        "sim.ns_per_substep": (run_s / substeps * 1e9 if substeps else 0.0, "ns"),
        "sim.samples": (per(counts.get("sim.run.samples", 0)), "count"),
        "sim.holds": (per(counts.get("sim.run.holds", 0)), "count"),
        "sim.wall_transitions": (per(counts.get("sim.run.wall_transitions", 0)), "count"),
        "sim.verdict_s": (per(dur.get("sim.verdict", 0.0)), "s"),
        "sim.sweep_s": (per(self_s.get("sim.sweep", 0.0)), "s"),
        "sim.trace_csv_s": (per(dur.get("sim.trace_csv", 0.0)), "s"),
        "sim.trace_csv_bytes": (per(counts.get("sim.trace_csv.bytes", 0)), "bytes"),
        "sim.events_csv_s": (per(dur.get("sim.events_csv", 0.0)), "s"),
        "cli.other_s": (per(sum(request_s) - top_level), "s"),
    }


def overhead_pct(pairs: list[tuple[float, float]]) -> float:
    """Median relative cost of tracing over (untraced, traced) request pairs."""
    return statistics.median((t - u) / u * 100.0 for u, t in pairs)
