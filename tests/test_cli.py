"""Command line front end: exit codes, outputs, and error paths."""

import json
import os
import subprocess
import sys

import pytest

from teleopstab import read_report
from teleopstab.cli import cli_dispatch

SCENARIO_FILE = "scenarios/wall_contact.cfg"

_TEMPLATE = """\
[master]
mass = 0.5
damping = 1.0

[slave]
mass = 0.5
damping = 1.0

[human]
mass = 0.0
damping = 1.0
stiffness = 10.0

[wall]
position = 4.0

[gains]
kp = {kp}
kv = {kv}
kd = {kd}
p_eps = 0.002

[channel]
period = {period}
d1 = 0
d2 = 0
eps_min = {period}
alpha = {alpha}

[operator_force]
start = 0.5
stop = 1.0
magnitude = 5.0

[run]
duration = {duration}
substeps = 4
"""


def _cfg(tmp_path, name="case.cfg", *, kp=1.0, kv=10.0, kd=2.0, period=0.006,
         alpha=0.0, duration=2.0):
    p = tmp_path / name
    p.write_text(
        _TEMPLATE.format(
            kp=kp, kv=kv, kd=kd, period=period, alpha=alpha, duration=duration
        )
    )
    return str(p)


def _low_gain_cfg(tmp_path, **kw):
    return _cfg(tmp_path, "low.cfg", kp=1.0, kv=0.1, kd=0.2, alpha=1.0, **kw)


def test_analyze_reference_fails_certificate(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli_dispatch(
        ["analyze", "--config", SCENARIO_FILE, "--out", str(out)]
    )
    stdout = capsys.readouterr().out
    assert code == 1
    rep = json.loads(stdout)
    assert rep["stability"]["small_gain_pass"] is False
    assert rep["stability"]["small_gain_value"] == pytest.approx(
        1.1998712527884918, rel=1e-9
    )
    assert rep["stability"]["grid_size"] == 512
    assert read_report(out) == rep


def test_analyze_grid_override(capsys):
    code = cli_dispatch(["analyze", "--config", SCENARIO_FILE, "--grid", "1024"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["stability"]["grid_size"] == 1024
    code = cli_dispatch(["analyze", "--config", SCENARIO_FILE, "--grid", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--grid" in err


def test_analyze_passing_configuration(tmp_path, capsys):
    code = cli_dispatch(["analyze", "--config", _low_gain_cfg(tmp_path)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["stability"]["small_gain_pass"] is True
    assert rep["stability"]["excluded_points"] == 0


def test_simulate_outputs(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    out = tmp_path / "run"
    code = cli_dispatch(["simulate", "--config", cfg, "--out", str(out), "--seed", "5"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "bounded=True" in stdout
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,x_m,v_m,x_s,v_s,F_m,F_s,F_h,F_e"
    # ceil(2.0 / 0.006) periods, 4 substeps each, inclusive end point
    assert len(lines) == 334 * 4 + 1 + 1
    events = (out / "events.csv").read_text().splitlines()
    assert events[0] == "kind,t"
    rep = read_report(out / "report.json")
    assert rep["provenance"]["seed"] == 5
    assert rep["simulation"]["bounded"] is True
    assert "stability" in rep


def test_simulate_divergent_exit_code(tmp_path, capsys):
    cfg = _cfg(tmp_path, "slow.cfg", period=0.05, duration=6.0)
    out = tmp_path / "run2"
    code = cli_dispatch(["simulate", "--config", cfg, "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 1
    assert "bounded=False" in stdout
    assert read_report(out / "report.json")["simulation"]["bounded"] is False


def test_simulate_over_trace_budget_exit_code(tmp_path, capsys):
    # 1e9 s at T = 6 ms is ~6.7e11 rows; rejected before anything is allocated
    cfg = _cfg(tmp_path, "long.cfg", duration=1e9)
    code = cli_dispatch(["simulate", "--config", cfg, "--out", str(tmp_path / "long")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "budget" in err
    assert not (tmp_path / "long").exists()  # no output directory for a failed run


def test_sweep_outputs(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    out = tmp_path / "sw"
    code = cli_dispatch(
        ["sweep", "--config", cfg, "--periods", "0.05,0.006", "--out", str(out)]
    )
    stdout = capsys.readouterr().out
    assert code == 0
    assert "2 periods swept" in stdout
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == (
        "period,bounded,max_abs_position,settling_ok,small_gain_value,"
        "small_gain_pass,damping_bound,error"
    )
    assert len(lines) == 3
    assert lines[1].startswith("0.006,")
    assert lines[2].startswith("0.05,")
    rep = read_report(out / "sweep.json")
    assert [row["period"] for row in rep["sweep"]] == [0.006, 0.05]
    assert set(rep["sweep"][0]) == {
        "period", "bounded", "max_abs_position", "settling_ok",
        "small_gain_value", "small_gain_pass", "damping_bound",
    }


def test_sweep_bad_periods(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    code = cli_dispatch(
        ["sweep", "--config", cfg, "--periods", "0.05,x", "--out", str(tmp_path / "o")]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "bad --periods" in err
    code = cli_dispatch(
        ["sweep", "--config", cfg, "--periods", "-0.1", "--out", str(tmp_path / "o")]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "positive" in err


def test_max_period_damping_always_pass(capsys):
    code = cli_dispatch(
        [
            "max-period",
            "--config", SCENARIO_FILE,
            "--criterion", "damping_bound",
            "--range", "1e-4:0.1",
        ]
    )
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["status"] == "always_pass"
    assert rep["max_period_s"] == 0.1
    assert rep["pass_at_lo"] is True and rep["pass_at_hi"] is True


def test_max_period_small_gain_always_fail(capsys):
    code = cli_dispatch(
        [
            "max-period",
            "--config", SCENARIO_FILE,
            "--criterion", "small_gain",
            "--range", "1e-4:0.1",
        ]
    )
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["status"] == "always_fail"
    assert rep["max_period_s"] == 1e-4
    assert rep["pass_at_lo"] is False and rep["pass_at_hi"] is False


def test_max_period_bracketed(tmp_path, capsys):
    code = cli_dispatch(
        [
            "max-period",
            "--config", _low_gain_cfg(tmp_path),
            "--criterion", "small_gain",
            "--range", "0.4:0.5",
        ]
    )
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["status"] == "bracketed"
    assert 0.46 < rep["max_period_s"] < 0.47
    assert rep["pass_at_lo"] is True and rep["pass_at_hi"] is False


def test_max_period_no_bracket(tmp_path, capsys):
    code = cli_dispatch(
        [
            "max-period",
            "--config", _low_gain_cfg(tmp_path),
            "--criterion", "small_gain",
            "--range", "1.0:2.0",
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")


def test_usage_errors(tmp_path, capsys):
    assert cli_dispatch([]) == 2
    capsys.readouterr()
    assert cli_dispatch(["frobnicate"]) == 2
    capsys.readouterr()
    assert cli_dispatch(["analyze"]) == 2  # missing --config
    capsys.readouterr()
    assert cli_dispatch(["--help"]) == 0
    capsys.readouterr()
    assert cli_dispatch(["analyze", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    cfg = _cfg(tmp_path)
    assert cli_dispatch(
        ["max-period", "--config", cfg, "--criterion", "small_gain", "--range", "abc"]
    ) == 2
    assert "bad --range" in capsys.readouterr().err
    assert cli_dispatch(
        ["max-period", "--config", cfg, "--criterion", "small_gain", "--range", "0.5:0.1"]
    ) == 2
    assert "0 < LO < HI" in capsys.readouterr().err
    assert cli_dispatch(
        ["max-period", "--config", cfg, "--criterion", "spectral", "--range", "0.1:0.2"]
    ) == 2
    capsys.readouterr()


def test_invalid_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(_TEMPLATE.format(kp=1, kv=10, kd=2, period=0.006, alpha=0.0,
                                    duration=2.0).replace("mass = 0.5", "mass = -1", 1))
    code = cli_dispatch(["analyze", "--config", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: master:")


def _no_master_damping_cfg(tmp_path):
    # loads and validates, but with alpha = 0 the loop denominator vanishes
    # at every frequency, so no certificate can be computed
    p = tmp_path / "undamped.cfg"
    p.write_text(
        _TEMPLATE.format(kp=1, kv=10, kd=2, period=0.006, alpha=0.0, duration=2.0)
        .replace("damping = 1.0", "damping = 0.0", 1)
    )
    return str(p)


def test_analyze_singular_loop_exit_code(tmp_path, capsys):
    code = cli_dispatch(["analyze", "--config", _no_master_damping_cfg(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "singular" in captured.err
    assert captured.out == ""


def test_max_period_singular_loop_exit_code(tmp_path, capsys):
    code = cli_dispatch(
        [
            "max-period",
            "--config", _no_master_damping_cfg(tmp_path),
            "--criterion", "small_gain",
            "--range", "0.001:0.01",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "singular" in captured.err


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs over a second of start-up; the CLI must not need it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    probe = "import sys, teleopstab.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
