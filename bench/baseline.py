"""Run every workload over several seeds and summarise the result sets.

    python3 bench/baseline.py --seeds 11-20 --seconds 30 --out bench/baseline.json

For each workload: one untraced run per seed, then one traced run on the
first seed.  Writes the median, quartiles and quartile spread (as a share of
the median) of every end-to-end metric and of the reported-only latency
figures, the traced per-layer breakdown, the environment and every run's raw
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402

REPORTED = ("request_p50_s", "request_tail_s", "tail_percentile", "substeps_per_s")


def _seeds(raw: str) -> list[int]:
    if "-" in raw:
        lo, hi = raw.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in raw.split(",")]


def run_once(workload: str, seed: int, seconds: str, trace: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln)["environment"] for ln in lines if ln.startswith('{"environment"'))
    detail = next(json.loads(ln)["detail"] for ln in lines if ln.startswith('{"detail"'))
    return json.loads(lines[-1]), env, detail


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default="30")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    seeds = _seeds(args.seeds)
    report: dict = {"seeds": seeds, "seconds": float(args.seconds), "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = []
        for seed in seeds:
            res, env, detail = run_once(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, "attempted": res["attempted"], "failed": res["failed"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                         "reported": {k: detail[k] for k in REPORTED}})
            print(workload, seed, res["attempted"], res["failed"], runs[-1]["metrics"], flush=True)
        entry = {
            "environment": env,
            "end_to_end": {
                name: {**summary([r["metrics"][name] for r in runs]), "unit": m["unit"]}
                for name, m in res["metrics"].items()
            },
            "reported_not_gated": {
                name: summary([r["reported"][name] for r in runs]) for name in REPORTED
            },
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "runs": runs,
        }
        traced, _, _ = run_once(workload, seeds[0], args.seconds, 1)
        entry["per_layer"] = {
            "seed": seeds[0],
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in traced["metrics"].items()},
        }
        report["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
