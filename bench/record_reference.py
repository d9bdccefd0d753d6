"""Build the variant pools and record their reference outputs.

    PYTHONPATH=src python3 bench/record_reference.py

Draws candidate variants of the reference system from a fixed seed, keeps the
ones that exercise each workload as intended (see ``_accept``), runs every
kept variant once through the CLI with the tracer on, and writes
``bench/reference.json``: the pool parameters, the checked outputs and the
per-request work counts.  Re-record only on purpose: the checks in every
benchmark run compare against this file.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from worker import WorkMeter, _call  # noqa: E402

POOL_SIZES = {
    "certify": (("always_fail", 8), ("bracketed", 24)),
    "contact_run": (("contact", 16),),
    "hardware_sweep": (("hardware", 16),),
}
SWEEP_DURATION = 3.0  # s of simulated time per sweep period
COUNT_KEYS = (
    "lti.grid_points", "plants.zoh_calls", "stability.small_gain_calls",
    "stability.max_period_calls", "stability.criterion_evals",
    "stability.excluded_points", "sim.substeps", "sim.samples", "sim.holds",
    "sim.wall_transitions",
)


def _base() -> dict:
    """scenarios/wall_contact.cfg as pool parameters."""
    return {
        "master": {"mass": 0.5, "damping": 1.0},
        "slave": {"mass": 0.5, "damping": 1.0},
        "human": {"mass": 0.0, "damping": 1.0, "stiffness": 10.0},
        "wall": {"position": 4.0, "stiffness": 1000.0, "damping": 1.0},
        "gains": {"kp": 1.0, "kv": 10.0, "kd": 2.0, "p_eps": 0.002},
        "channel": {"period": 0.006, "d1": 0, "d2": 0, "eps_min": 0.006, "alpha": 0.0},
        "operator_force": {"start": 10.0, "stop": 20.0, "magnitude": 50.0},
        "run": {"duration": 80.0, "substeps": 10},
    }


def _draw(cls: str, rng: np.random.Generator) -> dict:
    p = _base()

    def jiggle(value: float, rel: float) -> float:
        return float(value * (1.0 + rel * rng.uniform(-1.0, 1.0)))

    if cls in ("always_fail", "bracketed"):
        for robot in ("master", "slave"):
            p[robot] = {"mass": jiggle(0.5, 0.1), "damping": jiggle(1.0, 0.1)}
        T = jiggle(0.006, 0.2)
        p["channel"].update(
            period=T, eps_min=T, d1=int(rng.integers(0, 4)), d2=int(rng.integers(0, 4))
        )
        if cls == "bracketed":
            p["gains"] = {
                "kp": jiggle(1.0, 0.2), "kv": jiggle(0.1, 0.2),
                "kd": jiggle(0.2, 0.2), "p_eps": 0.002,
            }
            p["channel"]["alpha"] = 1.0
    elif cls == "contact":
        start = float(rng.uniform(8.0, 12.0))
        p["operator_force"] = {
            "start": start, "stop": start + float(rng.uniform(8.0, 12.0)),
            "magnitude": jiggle(50.0, 0.1),
        }
        p["wall"] = {
            "position": jiggle(4.0, 0.075), "stiffness": jiggle(1000.0, 0.2),
            "damping": jiggle(1.0, 0.2),
        }
    elif cls == "hardware":
        start = float(rng.uniform(0.5, 1.0))
        p["operator_force"] = {
            "start": start, "stop": start + float(rng.uniform(1.0, 1.5)),
            "magnitude": jiggle(20.0, 0.1),
        }
        p["wall"]["position"] = jiggle(0.4, 0.1)  # within the clamped slave's reach
        p["channel"].update(
            d1=int(rng.integers(1, 3)), d2=int(rng.integers(1, 4)),
            eps_min=float(rng.uniform(6.5e-4, 9e-4)),
        )
        p["nonidealities"] = {"noise_std": float(rng.uniform(5e-4, 2e-3))}
        p["run"] = {
            "duration": SWEEP_DURATION, "substeps": 10, "jitter": True,
            "seed": int(rng.integers(0, 2**31)),
        }
    return p


def _probe_rows(params: dict) -> list[int]:
    """trace.csv rows checked for a simulate request.

    The simulated run's probe rows, which include the first and the last,
    and the mid-pulse row, which is in wall contact.
    """
    T = params["channel"]["period"]
    nsub = params["run"]["substeps"]
    last = math.ceil(params["run"]["duration"] / T - 1e-9) * nsub
    f = params["operator_force"]
    mid = int(round(0.5 * (f["start"] + f["stop"]) / (T / nsub)))
    return sorted({*workloads.probe_rows(last), mid})


def _accept(cls: str, expect: list[dict], counts: dict) -> bool:
    if cls == "always_fail":
        return expect[1]["status"] == "always_fail"
    if cls == "bracketed":
        # crossings in (0.32, 0.49) s all take the same number of bisection
        # steps on 1e-4:0.5, so every bracketed request does equal work
        return expect[1]["status"] == "bracketed" and 0.32 < expect[1]["max_period_s"] < 0.49
    if cls == "contact":
        return expect[0]["exit"] == 0 and counts["sim.wall_transitions"] > 0
    if cls == "hardware":
        return (
            expect[0]["exit"] == 0
            and all("error" not in row for row in expect[0]["sweep"])
            and counts["sim.wall_transitions"] > 0
        )
    raise ValueError(cls)


def _record(workload: str, params: dict, work_dir: str) -> tuple[list[dict] | None, dict]:
    text, digest = workloads.scenario_text(params)
    config = os.path.join(work_dir, "variant.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(text)
    out_dir = os.path.join(work_dir, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    tracer = Tracer()
    tracer.request = 0
    tracer.install()
    meter = WorkMeter()
    meter.install()
    try:
        outputs = [
            (argv, *_call(argv), meter.take_runs())
            for argv in workloads.request_argv(workload, config, out_dir)
        ]
    finally:
        meter.uninstall()
        tracer.uninstall()
    layers = layer_metrics(tracer.spans, [0], [0.0])
    counts = {k: int(layers[k][0]) for k in COUNT_KEYS}
    expect = []
    for argv, code, stdout, runs in outputs:
        probes = _probe_rows(params) if argv[0] == "simulate" else ()
        try:
            obs, _ = workloads.observe(argv, code, stdout, out_dir, probes)
        except ValueError:  # e.g. max-period found no bracket: not a pool variant
            return None, counts
        if probes and len(obs["trace"]["probes"]) != len(probes):
            raise RuntimeError("trace.csv probe rows outside the trace")
        obs["runs"] = runs
        if obs.pop("scenario_sha256", digest) != digest:
            raise RuntimeError("report hash differs from the generated file")
        expect.append(obs)
    return expect, counts


def main() -> int:
    import teleopstab

    pools: dict[str, list[dict]] = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(workloads.BENCH_DIR)) as work_dir:
        for w_index, (workload, classes) in enumerate(POOL_SIZES.items()):
            pool = pools.setdefault(workload, [])
            for c_index, (cls, size) in enumerate(classes):
                rng = np.random.default_rng([2026, w_index, c_index])
                drawn = 0
                while sum(v["class"] == cls for v in pool) < size:
                    drawn += 1
                    if drawn > 20 * size:
                        raise RuntimeError(f"{workload}/{cls}: too few acceptable variants")
                    params = _draw(cls, rng)
                    expect, counts = _record(workload, params, work_dir)
                    if expect is None or not _accept(cls, expect, counts):
                        continue
                    pool.append({
                        "id": len(pool), "class": cls, "params": params,
                        "expect": expect, "counts": counts,
                    })
                    print(f"{workload} {cls} {len(pool) - 1}: {counts}", flush=True)
    reference = {
        "recorded_with": run.environment(os.path.dirname(workloads.BENCH_DIR)),
        "teleopstab_version": teleopstab.__version__,
        "workloads": pools,
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
