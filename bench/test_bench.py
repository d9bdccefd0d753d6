"""Self-checks of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py

Generation is deterministic, every workload's request passes its reference
check, repeating a request gives bit-identical outputs, traced counts repeat
exactly, the checker rejects out-of-tolerance values, and the command refuses
to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from worker import Loop  # noqa: E402

REPEATED_COUNTS = (
    "sim.substeps", "lti.grid_points", "stability.criterion_evals", "sim.wall_transitions",
)


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_generation_is_seeded_and_embeds_hash(reference, tmp_path):
    from teleopstab.scenario import load_scenario, scenario_hash

    a = workloads.generate(reference, "certify", 5, str(tmp_path / "a"))
    b = workloads.generate(reference, "certify", 5, str(tmp_path / "b"))
    c = workloads.generate(reference, "certify", 6, str(tmp_path / "c"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [e["variant"] for e in a] != [e["variant"] for e in c]
    for entry in a:
        with open(entry["config"], "r", encoding="utf-8") as fh:
            assert fh.readline() == f"# scenario_sha256 = {entry['scenario_sha256']}\n"
        assert scenario_hash(load_scenario(entry["config"])) == entry["scenario_sha256"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_request_repeats_bit_identical_with_exact_counts(reference, workload, tmp_path):
    requests = workloads.generate(reference, workload, 0, str(tmp_path / "scenarios"))
    plan = {"workload": workload, "work_dir": str(tmp_path), "requests": requests}
    loop = Loop(plan, reference)
    entry = requests[0]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.request = len(loop.records)
        tracer.install()
        try:
            rec = loop.run(entry, tracer)
        finally:
            tracer.uninstall()
        # the loop compares each repeat's output digests with the first run's
        assert rec["ok"], rec["problems"]
        layers = layer_metrics(tracer.spans, [tracer.request], [rec["seconds"]])
        counts.append({k: layers[k][0] for k in REPEATED_COUNTS})
    assert counts[0] == counts[1]
    recorded = loop.expected[entry["variant"]]["counts"]
    assert {k: recorded[k] for k in REPEATED_COUNTS} == counts[0]
    # the always-on work meter agrees with the traced counts
    assert rec["grid_points"] == counts[0]["lti.grid_points"]
    assert rec["substeps"] == counts[0]["sim.substeps"]


def test_checker_applies_pinned_tolerances(reference):
    variant = reference["workloads"]["certify"][0]
    want = variant["expect"][0]
    got = json.loads(json.dumps(want))
    sg = want["stability"]["small_gain_value"]
    got["stability"]["small_gain_value"] = sg * (1 + 5e-10)
    assert workloads.compare(got, want, "h") == []
    got["stability"]["small_gain_value"] = sg * (1 + 2e-9)
    assert len(workloads.compare(got, want, "h")) == 1
    got = json.loads(json.dumps(want))
    got["exit"] = 1 - want["exit"]
    got["stability"]["small_gain_pass"] = not want["stability"]["small_gain_pass"]
    assert len(workloads.compare(got, want, "h")) == 2
    assert workloads.compare(dict(want, scenario_sha256="x"), want, "h")


def test_checker_sees_simulated_runs(reference):
    want = reference["workloads"]["hardware_sweep"][0]["expect"][0]
    assert len(want["runs"]) == 3
    got = json.loads(json.dumps(want))
    row = max(got["runs"][0], key=int)
    got["runs"][0][row]["x_s"] *= 1 + 2e-6
    assert len(workloads.compare(got, want, "h")) == 1
    got["runs"].pop()
    assert workloads.compare(got, want, "h")


def test_tail_index():
    assert run.tail_index(10) is None
    assert run.tail_index(11) == 0
    assert run.tail_index(200) == 189


def test_refuses_without_program_sources(tmp_path):
    root = os.path.dirname(BENCH_DIR)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
