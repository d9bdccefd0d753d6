"""One workload in one fresh process: a closed loop with a single client.

    python3 bench/worker.py PLAN.json [--setup-only]

Every request is one or more in-process ``teleopstab.cli.cli_dispatch`` calls
on a generated scenario file; the next request starts when the previous one
has returned and its outputs have been checked.  ``--setup-only`` stops after
the set-up (importing the program and loading the workload's scenarios) and
prints its duration; an untraced run starts such probes between its requests.
Otherwise the result set is written to the plan's ``result`` path.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

SETUP_PROBES = 10  # fresh processes timed for setup_s within a timed run
# bindings at which every run counts the work the program did
METER_HOOKS = (
    ("teleopstab.cli", "small_gain_value"),
    ("teleopstab.sim", "small_gain_value"),
    ("teleopstab.stability", "small_gain_value"),
    ("teleopstab.cli", "run_scenario"),
    ("teleopstab.sim", "run_scenario"),
)


def _setup(plan: dict) -> float:
    import teleopstab.cli  # noqa: F401
    from teleopstab.scenario import load_run_settings, load_scenario

    for entry in plan["requests"]:
        load_scenario(entry["config"])
        load_run_settings(entry["config"])
    return time.perf_counter() - _T0


def _call(argv: list[str]) -> tuple[int, str]:
    from teleopstab.cli import cli_dispatch

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(argv)
    return code, out.getvalue()


class WorkMeter:
    """Counts what the program evaluates, from outside, in every run.

    ``grid_points`` sums ``len(grid.points)`` over ``small_gain_value`` calls
    and ``substeps`` sums ``len(trace.t) - 1`` over ``run_scenario`` calls.
    Each run's probe rows are kept for the output checks; they are taken at
    once so that no trace outlives its caller's use of it.
    """

    def __init__(self) -> None:
        import workloads

        self._probes = workloads.run_probes
        self.grid_points = 0
        self.substeps = 0
        self.runs: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []

    def _small_gain(self, fn):
        def counted(*args, **kwargs):
            report = fn(*args, **kwargs)
            grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
            self.grid_points += len(grid.points)
            return report

        return counted

    def _run(self, fn):
        def counted(*args, **kwargs):
            trace = fn(*args, **kwargs)
            self.substeps += len(trace.t) - 1
            self.runs.append(self._probes(trace))
            return trace

        return counted

    def install(self) -> None:
        for mod_name, attr in METER_HOOKS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            wrap = self._small_gain if attr == "small_gain_value" else self._run
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrap(fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def take_runs(self) -> list[dict]:
        runs, self.runs = self.runs, []
        return runs


class Loop:
    """Runs and checks requests; remembers output digests per variant."""

    def __init__(self, plan: dict, reference: dict):
        import workloads

        self.w = workloads
        self.plan = plan
        self.out_dir = os.path.join(plan["work_dir"], "out")
        pool = {v["id"]: v for v in reference["workloads"][plan["workload"]]}
        self.expected = {e["variant"]: pool[e["variant"]] for e in plan["requests"]}
        self.digests: dict[int, list] = {}
        self.records: list[dict] = []

    def run(self, entry: dict, tracer=None) -> dict:
        """One timed request, then its checks; returns its record."""
        variant = self.expected[entry["variant"]]
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        calls = self.w.request_argv(self.plan["workload"], entry["config"], self.out_dir)
        outputs = []
        error = None
        meter = WorkMeter()
        meter.install()
        counted = tracer.count_s if tracer else 0.0
        t0 = time.perf_counter()
        try:
            for argv in calls:
                outputs.append((*_call(argv), meter.take_runs()))
        except Exception as exc:  # a raising request is a failed request
            error = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - t0
            meter.uninstall()
        if tracer:
            elapsed -= tracer.count_s - counted
        problems = [error] if error else self._check(entry, variant, calls, outputs)
        record = {
            "variant": entry["variant"],
            "seconds": elapsed,
            "ok": not problems,
            "problems": problems[:5],
            "grid_points": meter.grid_points,
            "substeps": meter.substeps,
            "traced": tracer is not None,
        }
        self.records.append(record)
        return record

    def _check(self, entry, variant, calls, outputs) -> list[str]:
        problems = []
        digests = []
        for argv, (code, stdout, runs), want in zip(calls, outputs, variant["expect"]):
            try:
                obs, dig = self.w.observe(
                    argv, code, stdout, self.out_dir, self.w.probe_rows_of(want)
                )
                obs["runs"] = runs
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"{argv[0]}: unreadable output ({exc})")
                continue
            problems += [f"{argv[0]}{p}" for p in self.w.compare(obs, want, entry["scenario_sha256"])]
            digests.append(dig)
        first = self.digests.setdefault(entry["variant"], digests)
        if digests != first:
            problems.append("outputs differ from an earlier run of the same variant")
        return problems


def _setup_probe(plan_path: str) -> float:
    """Set-up time of a fresh process on the same plan."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), plan_path, "--setup-only"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout)["setup_s"]


def _timed_loop(loop: Loop, seconds: float, plan_path: str) -> list[float]:
    """Requests until time is up, with set-up probes spread over the window.

    The probes run between requests at evenly spaced moments, the first
    before any request, so set-up is sampled across the host's slower and
    faster spells as the requests are.  Returns the probes' set-up times.
    """
    requests = loop.plan["requests"]
    start = time.perf_counter()
    marks = [start + seconds * k / SETUP_PROBES for k in range(SETUP_PROBES)]
    setups = []
    i = 0
    while i == 0 or time.perf_counter() < start + seconds:
        if marks and time.perf_counter() >= marks[0]:
            marks.pop(0)
            setups.append(_setup_probe(plan_path))
            continue
        loop.run(requests[i % len(requests)])
        i += 1
    # probes not reached (a request outlasted the gap) run after the loop
    return setups + [_setup_probe(plan_path) for _ in marks]


def _traced_loop(loop: Loop, seconds: float) -> dict:
    """Untraced/traced pairs per variant until time is up, one cycle at least.

    Layer figures cover whole cycles only, so their counts repeat exactly.
    """
    from tracer import Tracer, layer_metrics, overhead_pct

    tracer = Tracer()
    requests = loop.plan["requests"]
    pairs, traced_ids, traced_s = [], [], []
    deadline = time.perf_counter() + seconds
    hooks: list[str] = []
    i = 0
    while i < len(requests) or time.perf_counter() < deadline:
        entry = requests[i % len(requests)]
        pair = {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.request = len(loop.records)
                hooks = tracer.install()
                try:
                    rec = loop.run(entry, tracer)
                finally:
                    tracer.uninstall()
                traced_ids.append(tracer.request)
                traced_s.append(rec["seconds"])
            else:
                rec = loop.run(entry)
            pair[traced] = rec["seconds"]
        pairs.append((pair[False], pair[True]))
        i += 1
    whole = i - i % len(requests)
    layers = layer_metrics(tracer.spans, traced_ids[:whole], traced_s[:whole])
    layers["trace.overhead_pct"] = (overhead_pct(pairs), "%")
    return {
        "layers": layers,
        "hooks": hooks,
        "cycles": whole // len(requests),
        "spans": tracer.spans,
    }


def main(argv: list[str]) -> int:
    with open(argv[0], "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    setup_s = _setup(plan)
    if "--setup-only" in argv[1:]:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import workloads

    loop = Loop(plan, workloads.load_reference())
    result: dict = {"setup_s": setup_s}
    if plan["trace"]:
        result.update(_traced_loop(loop, plan["seconds"]))
    else:
        result["setup_probes_s"] = _timed_loop(loop, plan["seconds"], argv[0])
    result["records"] = loop.records
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
