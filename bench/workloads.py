"""Workload definitions: variant pools, seeded selection, requests, output checks.

Each workload owns a pool of scenario variants recorded in ``reference.json``
together with the outputs the seed commit produced for them.  A workload seed
picks a fixed-size cycle of pool variants in a seeded order; the benchmark
writes each picked variant as ``serialize_scenario`` text (headed by its
``scenario_hash``) and sends only those files to the program.

Checks compare every request's outputs with the recorded reference: exit
codes, verdict booleans and statuses exactly, floats within the tolerances
already pinned by the repository's tests.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

SWEEP_PERIODS = "2e-4,1e-3,6e-3"
MAX_PERIOD_RANGE = "1e-4:0.5"

# variants per cycle, drawn from each pool class: (class, count)
CYCLES = {
    "certify": (("always_fail", 2), ("bracketed", 6)),
    "contact_run": (("contact", 4),),
    "hardware_sweep": (("hardware", 4),),
}
WORKLOADS = tuple(CYCLES)

# Tolerances pinned by tests/: (kind, value).  "rel" is |a-b| <= v*|b|.
TOLERANCES = {
    "small_gain_value": ("rel", 1e-9),  # tests/test_cli.py
    "damping_bound": ("abs", 1e-12),  # tests/test_acceptance.py
    "max_period_s": ("rel", 1e-4),  # bisection width, tests/test_acceptance.py
    "max_abs_position": ("rel", 1e-6),  # golden probes, tests/test_sim.py
    "final_velocity_max": ("rel", 1e-3),  # tests/test_sim.py
    "position": ("rel", 1e-6),  # x_m / x_s golden probes, tests/test_sim.py
    "velocity": ("rel", 1e-3),  # final_velocity_max, tests/test_sim.py
    "force": ("rel", 1e-4),  # f_m golden probe, tests/test_sim.py
    "time": ("rel", 0.0),  # t column round-trips exactly, tests/test_sim.py
}
# trace columns and the tolerance each probe uses
_TRACE_COLUMNS = (
    ("t", "time"), ("x_m", "position"), ("v_m", "velocity"), ("x_s", "position"),
    ("v_s", "velocity"), ("f_m", "force"), ("f_s", "force"), ("f_h", "force"),
    ("f_e", "force"),
)
RUN_PROBES = 16  # intervals between the probe rows of a simulated run
# checked key -> tolerance; floats under any other key must match exactly
_KEY_TOLERANCE = {
    **{key: key for key in TOLERANCES},
    "max_abs_position_rad": "max_abs_position",
    "final_velocity_max_rad_per_s": "final_velocity_max",
    **dict(_TRACE_COLUMNS),
}


# ---------------------------------------------------------------- scenarios


def build_scenario(params: dict):
    """(SimScenario, RunSettings) from a pool entry's section/key values."""
    from teleopstab.control import ControllerGains
    from teleopstab.plants import ImpedanceModel, RobotParams, WallModel
    from teleopstab.scenario import RunSettings
    from teleopstab.sim import NonidealityConfig, OperatorForce, SimScenario
    from teleopstab.stability import ChannelConfig

    c = params["channel"]
    r = params["run"]
    noni = params.get("nonidealities")
    sc = SimScenario(
        master=RobotParams(**params["master"]),
        slave=RobotParams(**params["slave"]),
        human=ImpedanceModel(**params["human"]),
        wall=WallModel(**params["wall"]),
        gains=ControllerGains(**params["gains"]),
        channel=ChannelConfig(
            T=c["period"], d1=c["d1"], d2=c["d2"], eps_min=c["eps_min"], alpha=c["alpha"]
        ),
        operator_force=OperatorForce(**params["operator_force"]),
        duration=r["duration"],
        integrator_substeps=r["substeps"],
        nonidealities=None if noni is None else NonidealityConfig(**noni),
        jitter_sampling=r.get("jitter", False),
    )
    return sc, RunSettings(seed=r.get("seed", 0))


def scenario_text(params: dict) -> tuple[str, str]:
    """Canonical scenario text headed by its hash, and the hash itself."""
    from teleopstab.scenario import scenario_hash, serialize_scenario

    sc, run = build_scenario(params)
    digest = scenario_hash(sc)
    return f"# scenario_sha256 = {digest}\n" + serialize_scenario(sc, run), digest


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def select_cycle(reference: dict, workload: str, seed: int) -> list[dict]:
    """The seed's cycle of pool variants, in request order."""
    pool = reference["workloads"][workload]
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    picked = []
    for cls, count in CYCLES[workload]:
        members = [v for v in pool if v["class"] == cls]
        idx = rng.choice(len(members), size=count, replace=False)
        picked.extend(members[int(i)] for i in idx)
    order = rng.permutation(len(picked))
    return [picked[int(i)] for i in order]


def generate(reference: dict, workload: str, seed: int, out_dir: str) -> list[dict]:
    """Write the seed's scenario files; returns the request plan entries."""
    os.makedirs(out_dir, exist_ok=True)
    plan = []
    for pos, variant in enumerate(select_cycle(reference, workload, seed)):
        text, digest = scenario_text(variant["params"])
        path = os.path.join(out_dir, f"{workload}-{pos:02d}-v{variant['id']:03d}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        plan.append({"variant": variant["id"], "config": path, "scenario_sha256": digest})
    return plan


# ----------------------------------------------------------------- requests


def request_argv(workload: str, config: str, out_dir: str) -> list[list[str]]:
    """CLI calls that make up one request of the workload."""
    if workload == "certify":
        return [
            ["analyze", "--config", config, "--grid", "8192"],
            ["max-period", "--config", config, "--criterion", "small_gain",
             "--range", MAX_PERIOD_RANGE],
            ["max-period", "--config", config, "--criterion", "damping_bound",
             "--range", MAX_PERIOD_RANGE],
        ]
    if workload == "contact_run":
        return [["simulate", "--config", config, "--out", out_dir]]
    if workload == "hardware_sweep":
        return [["sweep", "--config", config, "--periods", SWEEP_PERIODS, "--out", out_dir]]
    raise ValueError(f"unknown workload {workload!r}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _stability_fields(st: dict) -> dict:
    return {
        "small_gain_value": st["small_gain_value"],
        "small_gain_pass": st["small_gain_pass"],
        "damping_bound": st["damping_bound"],
        "damping_bound_pass_master": st["damping_bound_pass_master"],
        "damping_bound_pass_slave": st["damping_bound_pass_slave"],
        "excluded_points": st["excluded_points"],
        "grid_size": st["grid_size"],
    }


def probe_rows(last: int) -> list[int]:
    """Evenly spaced probe rows of a trace whose last row is ``last``."""
    if last < 0:  # an empty trace has none
        return []
    return sorted({last * k // RUN_PROBES for k in range(RUN_PROBES + 1)})


def run_probes(trace) -> dict:
    """Probe rows of one simulated trace, keyed by row index."""
    return {
        str(i): {name: float(getattr(trace, name)[i]) for name, _ in _TRACE_COLUMNS}
        for i in probe_rows(len(trace.t) - 1)
    }


def _observe_trace(path: str, probe_rows) -> tuple[dict, str]:
    """Header, row and field counts and probe rows of trace.csv, read in chunks.

    Streaming keeps the checker's memory small next to the program's, so the
    worker's peak resident size stays the program's.
    """
    wanted = {int(i) + 1 for i in probe_rows}  # line numbers; line 0 is the header
    found: dict[int, bytes] = {}
    h = hashlib.sha256()
    line_no = 0
    commas = 0
    partial = b""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
            commas += chunk.count(b",")
            newlines = chunk.count(b"\n")
            if any(line_no <= n <= line_no + newlines for n in wanted) or line_no == 0:
                lines = (partial + chunk).split(b"\n")
                for k, text in enumerate(lines[:-1]):
                    if line_no + k in wanted or line_no + k == 0:
                        found[line_no + k] = text
                partial = lines[-1]
            else:
                partial = chunk[chunk.rfind(b"\n") + 1:] if newlines else partial + chunk
            line_no += newlines
    rows = line_no - 1 + (1 if partial else 0)
    obs = {"header": found.get(0, b"").decode(), "rows": rows, "commas": commas, "probes": {}}
    for n in sorted(wanted):
        if n in found:
            obs["probes"][str(n - 1)] = {
                name: float(tok)
                for (name, _), tok in zip(_TRACE_COLUMNS, found[n].split(b","))
            }
    return obs, h.hexdigest()


def _observe_events(path: str) -> tuple[dict, str]:
    data = _read(path)
    counts = {k: data.count(b"\n" + k.encode() + b",") for k in ("sample", "hold_m", "hold_s")}
    return {"header": data.split(b"\n", 1)[0].decode(), **counts}, _sha256(data)


def observe(argv: list[str], code: int, stdout: str, out_dir: str, probe_rows=()):
    """Checked values of one CLI call, plus digests of everything it wrote."""
    cmd = argv[0]
    obs: dict = {"exit": code}
    digests = {"stdout": _sha256(stdout.encode())}
    if cmd == "analyze":
        rep = json.loads(stdout)
        obs["stability"] = _stability_fields(rep["stability"])
        obs["scenario_sha256"] = rep["provenance"]["scenario_sha256"]
    elif cmd == "max-period":
        rep = json.loads(stdout)
        for key in ("criterion", "status", "max_period_s", "range_s", "pass_at_lo", "pass_at_hi"):
            obs[key] = rep[key]
    elif cmd == "simulate":
        raw = _read(os.path.join(out_dir, "report.json"))
        digests["report.json"] = _sha256(raw)
        rep = json.loads(raw)
        obs["simulation"] = rep["simulation"]
        obs["stability"] = _stability_fields(rep["stability"])
        obs["scenario_sha256"] = rep["provenance"]["scenario_sha256"]
        obs["trace"], digests["trace.csv"] = _observe_trace(
            os.path.join(out_dir, "trace.csv"), probe_rows
        )
        obs["events"], digests["events.csv"] = _observe_events(
            os.path.join(out_dir, "events.csv")
        )
    elif cmd == "sweep":
        obs["summary"] = stdout.split(", outputs in ", 1)[0]
        raw = _read(os.path.join(out_dir, "sweep.json"))
        digests["sweep.json"] = _sha256(raw)
        rep = json.loads(raw)
        obs["sweep"] = rep["sweep"]
        obs["scenario_sha256"] = rep["provenance"]["scenario_sha256"]
        csv = _read(os.path.join(out_dir, "sweep.csv"))
        digests["sweep.csv"] = _sha256(csv)
        obs["sweep_csv_rows"] = csv.count(b"\n") - 1
    return obs, digests


# ------------------------------------------------------------------- checks


def _close(kind: str, got, want: float) -> bool:
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    if not math.isfinite(want):
        return got == want
    mode, tol = TOLERANCES[kind]
    return abs(got - want) <= (tol if mode == "abs" else tol * abs(want))


def _diff(path: str, got, want, tol_kind: str | None, out: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict):
            out.append(f"{path}: expected a mapping, got {got!r}")
            return
        for key, w in want.items():
            if key not in got:
                out.append(f"{path}.{key}: missing")
                continue
            _diff(f"{path}.{key}", got[key], w, _KEY_TOLERANCE.get(key), out)
        return
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{path}: expected {want!r}, got {got!r}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _diff(f"{path}[{i}]", g, w, tol_kind, out)
        return
    if isinstance(want, float) and tol_kind is not None:
        ok = _close(tol_kind, got, want)
    elif isinstance(want, bool) or want is None:
        ok = got is want
    else:
        ok = type(got) is type(want) and got == want
    if not ok:
        out.append(f"{path}: expected {want!r}, got {got!r}")


def compare(observed: dict, expected: dict, scenario_sha256: str) -> list[str]:
    """Mismatches between one call's observation and its reference."""
    problems: list[str] = []
    if "scenario_sha256" in observed and observed["scenario_sha256"] != scenario_sha256:
        problems.append(": report scenario_sha256 differs from the generated file's")
    want = {k: v for k, v in expected.items() if k != "scenario_sha256"}
    _diff("", observed, want, None, problems)
    # trace.csv round-trips the simulated trace exactly (tests/test_sim.py)
    written = observed.get("trace", {}).get("probes", {})
    simulated = observed["runs"][-1] if observed.get("runs") else {}
    for row in written.keys() & simulated.keys():
        if written[row] != simulated[row]:
            problems.append(f".trace.probes.{row}: differs from the simulated trace")
    return problems


def probe_rows_of(expected: dict) -> list[int]:
    trace = expected.get("trace")
    return [int(i) for i in trace["probes"]] if trace else []
