"""Command line front end: exit codes, outputs, and error paths."""

import argparse
import csv
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from teleopstab import cli, load_run_settings, load_scenario, lti, read_report, sim, stability
from teleopstab.cli import _build_parser, cli_dispatch

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
    # the report names the grid the verdict was computed on
    assert rep["provenance"]["grid_points"] == 1024
    code = cli_dispatch(["analyze", "--config", SCENARIO_FILE, "--grid", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "grid_points must be an integer >= 2" in captured.err


def test_max_period_grid_override_matches_file_setting(tmp_path, capsys):
    cfg = _low_gain_cfg(tmp_path)
    argv = ["max-period", "--criterion", "small_gain", "--range", "0.4:0.5"]
    assert cli_dispatch([*argv, "--config", cfg, "--grid", "64"]) == 0
    by_flag = capsys.readouterr().out
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write("grid_points = 64\n")  # [run] is the last section
    assert cli_dispatch([*argv, "--config", cfg]) == 0
    assert capsys.readouterr().out == by_flag


@pytest.mark.parametrize("criterion", sorted(stability.CRITERIA))
def test_max_period_grid_below_two_is_a_usage_error(capsys, criterion):
    # one --grid check for every subcommand and criterion, before any work
    code = cli_dispatch(
        [
            "max-period",
            "--config", SCENARIO_FILE,
            "--criterion", criterion,
            "--range", "1e-3:0.1",
            "--grid", "1",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: grid_points must be an integer >= 2" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["max-period", "--criterion", "small_gain", "--range", "1e-3:0.1"]],
)
def test_grid_beyond_the_budget_is_a_usage_error(capsys, argv):
    # make_grid rejects the size before it allocates the grid
    code = cli_dispatch([*argv, "--config", SCENARIO_FILE, "--grid", "1000000000000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error:") and "grid budget" in line


def test_file_grid_beyond_the_budget_is_rejected_before_the_run(tmp_path, capsys, monkeypatch):
    cfg = _cfg(tmp_path)
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write("grid_points = 1000000000000\n")  # [run] is the last section
    runs = []
    real_run = cli.run_scenario

    def counted_run(*args, **kwargs):
        runs.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", counted_run)
    out = tmp_path / "run"
    assert cli_dispatch(["analyze", "--config", cfg]) == 2
    assert cli_dispatch(["simulate", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("error:") and "grid budget" in line for line in lines)
    # simulate judges the grid first: no trace, no output directory
    assert runs == []
    assert not out.exists()


def test_period_whose_nyquist_overflows_is_a_usage_error(tmp_path):
    # pi/T is inf at T = 1e-320: one error line naming T, and no numpy
    # warning, on the process's own stderr
    cfg = _cfg(tmp_path, period=1e-320)
    out = subprocess.run(
        [sys.executable, "-m", "teleopstab.cli", "analyze", "--config", cfg],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    (line,) = out.stderr.splitlines()
    assert line.startswith("error:") and "T = 1e-320" in line


@pytest.mark.parametrize("make_cfg", [_cfg, _low_gain_cfg])
def test_analyze_sweep_and_criterion_judge_a_period_alike(tmp_path, capsys, make_cfg):
    # analyze, the sweep row at the scenario's period and the small_gain
    # criterion there all judge the loop through one call
    cfg = make_cfg(tmp_path)
    code = cli_dispatch(["analyze", "--config", cfg])
    analyzed = json.loads(capsys.readouterr().out)["stability"]
    assert code == (0 if analyzed["small_gain_pass"] else 1)
    sc, run = load_scenario(cfg), load_run_settings(cfg)
    out = tmp_path / "sw"
    periods = repr(sc.channel.T)
    assert cli_dispatch(["sweep", "--config", cfg, "--periods", periods, "--out", str(out)]) == 0
    (row,) = read_report(out / "sweep.json")["sweep"]
    passes = stability.CRITERIA["small_gain"](sc.analysis_system(), sc.channel, run.grid_points)
    assert row["period"] == sc.channel.T
    assert row["small_gain_value"] == analyzed["small_gain_value"]
    assert row["small_gain_pass"] is analyzed["small_gain_pass"] is passes


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


def test_simulate_with_a_wall_never_engaged(tmp_path, capsys):
    # position = inf is the wall that is never engaged: F_e is -0.0 on
    # every row, the -wall_force of a slave short of the wall
    p = pathlib.Path(_cfg(tmp_path))
    p.write_text(p.read_text().replace("position = 4.0", "position = inf"))
    out = tmp_path / "run"
    code = cli_dispatch(["simulate", "--config", str(p), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    with open(out / "trace.csv", newline="") as fh:
        f_e = [float(row["F_e"]) for row in csv.DictReader(fh)]
    assert len(f_e) == 334 * 4 + 1
    assert all(f == 0.0 and math.copysign(1.0, f) < 0.0 for f in f_e)


def test_simulate_negative_seed_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli_dispatch(
        ["simulate", "--config", _cfg(tmp_path), "--out", str(out), "--seed", "-1"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error:") and "seed" in line
    assert not out.exists()


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


_FAILING_CHILD = """\
import os, sys
from teleopstab import _g17, cli
parent = os.getpid()
g17_csv = _g17._g17_csv
def g17_csv_in_parent(block):
    if os.getpid() != parent:
        raise RuntimeError("formatting failed in a child")
    return g17_csv(block)
_g17._g17_csv = g17_csv_in_parent
_g17._TRACE_SPLIT_ROWS = 1
os.sched_getaffinity = lambda pid: {0, 1, 2}
print("before the run")
sys.exit(cli.cli_dispatch(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the trace is formatted in one process")
def test_simulate_trace_writer_child_failure_is_one_error(tmp_path):
    # a trace range that fails in a forked child: exit 2, one error line, and
    # the line buffered on stdout when the children forked is printed once
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-c", _FAILING_CHILD, "simulate", "--config", _cfg(tmp_path),
         "--out", str(out)],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == "before the run\n"
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error:") and "exited with" in line
    assert os.listdir(out) == ["trace.csv"]  # no part file, no later output


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


def _short_wall_contact(tmp_path, extra_run=""):
    # the shortest run that still ends after the operator pulse, at 20 s
    text = pathlib.Path(SCENARIO_FILE).read_text(encoding="utf-8")
    p = tmp_path / "wall_contact.cfg"
    p.write_text(text.replace("duration = 80.0\n", "duration = 20.0\n") + extra_run)
    return str(p)


def test_sweep_error_rows_keep_the_header_width(tmp_path, capsys):
    # the budget message holds a comma; every row still parses to the header
    cfg = _short_wall_contact(tmp_path)
    out = tmp_path / "sw"
    argv = ["sweep", "--config", cfg, "--periods", "0.006,1e-12", "--out", str(out)]
    assert cli_dispatch(argv) == 0
    capsys.readouterr()
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert len(header) == 8 and header[-1] == "error"
    assert [len(row) for row in rows] == [8, 8]
    errors = {float(row[0]): row[-1] for row in rows}
    assert errors[0.006] == ""
    (err_row,) = [row for row in read_report(out / "sweep.json")["sweep"] if "error" in row]
    assert err_row["period"] == 1e-12
    assert "," in err_row["error"] and "budget" in err_row["error"]
    assert errors[1e-12] == err_row["error"]


def test_sweep_over_budget_grid_simulates_nothing(tmp_path, capsys, monkeypatch):
    cfg = _short_wall_contact(tmp_path, f"grid_points = {lti.MAX_GRID_POINTS + 1}\n")

    def no_run(*args, **kwargs):
        raise AssertionError("run_scenario called for an over-budget grid")

    monkeypatch.setattr(sim, "run_scenario", no_run)
    out = tmp_path / "sw"
    argv = ["sweep", "--config", cfg, "--periods", "0.001,0.006", "--out", str(out)]
    # no row succeeded, so the sweep fails, with one error line, after
    # writing every row's error
    assert cli_dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "grid budget" in err
    rows = read_report(out / "sweep.json")["sweep"]
    assert [row["period"] for row in rows] == [0.001, 0.006]
    assert all(set(row) == {"period", "error"} for row in rows)
    assert all("grid budget" in row["error"] for row in rows)
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        _, *csv_rows = csv.reader(fh)
    assert [row[-1] for row in csv_rows] == [row["error"] for row in rows]


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


@pytest.mark.parametrize("periods", ["inf", "nan", "inf,nan,0.006", "0.006,-inf"])
def test_sweep_non_finite_periods(tmp_path, capsys, periods):
    out = tmp_path / "o"
    code = cli_dispatch(
        ["sweep", "--config", _cfg(tmp_path), "--periods", periods, "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: --periods")
    assert not out.exists()


@pytest.mark.parametrize("bracket", ["1e-3:inf", "nan:0.1", "1e-3:nan", "inf:inf"])
def test_max_period_non_finite_range(tmp_path, capsys, bracket):
    code = cli_dispatch(
        ["max-period", "--config", _cfg(tmp_path), "--criterion", "small_gain",
         "--range", bracket]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --range")


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


def test_criterion_choices_are_the_criteria_table():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    max_period = sub.choices["max-period"]
    (criterion,) = [a for a in max_period._actions if a.dest == "criterion"]
    assert criterion.choices == tuple(stability.CRITERIA)


def test_cached_parser_carries_no_grid_override(tmp_path, capsys):
    # one parser serves every call in a process: --grid on one call must not
    # become the grid of the next
    cfg = _cfg(tmp_path)
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write("grid_points = 128\n")  # [run] is the last section
    cli_dispatch(["analyze", "--config", cfg, "--grid", "64"])
    assert json.loads(capsys.readouterr().out)["stability"]["grid_size"] == 64
    assert _build_parser() is _build_parser()
    cli_dispatch(["analyze", "--config", cfg])
    rep = json.loads(capsys.readouterr().out)
    assert rep["stability"]["grid_size"] == 128
    assert rep["provenance"]["grid_points"] == 128


def test_cached_parser_carries_no_seed_override(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write("seed = 3\n")  # [run] is the last section
    argv = ["simulate", "--config", cfg, "--out"]
    assert cli_dispatch([*argv, str(tmp_path / "flag"), "--seed", "5"]) == 0
    assert cli_dispatch([*argv, str(tmp_path / "file")]) == 0
    capsys.readouterr()
    assert read_report(tmp_path / "flag" / "report.json")["provenance"]["seed"] == 5
    assert read_report(tmp_path / "file" / "report.json")["provenance"]["seed"] == 3


def test_usage_errors(tmp_path, capsys):
    parser = _build_parser()  # the process's one parser, cached
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
    # --help and the usage errors leave the cached parser as it was
    assert _build_parser() is parser
    assert cli_dispatch(["analyze", "--config", cfg, "--grid", "64"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["stability"]["grid_size"] == 64


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


def _src_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy costs about 0.3 s of start-up; neither the package nor the CLI
    # may load any scipy module
    probe = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import teleopstab\n"
        "after_package = scipy_modules()\n"
        "import teleopstab.cli\n"
        "print(json.dumps([after_package, scipy_modules()]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_src_env(), capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert json.loads(out.stdout) == [[], []]


# runs cli_dispatch on each argv of argv[2] (JSON) and prints [[code, stdout], ...];
# with argv[1] == "block", every scipy import raises ModuleNotFoundError
_DISPATCH_PROBE = """\
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None
from teleopstab.cli import cli_dispatch
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_dispatch(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def test_cli_runs_without_scipy(tmp_path):
    # a lazy scipy import on the certificate path would fail the blocked run;
    # each run writes its sweep under its own working directory
    scenario = os.path.abspath(SCENARIO_FILE)
    calls = json.dumps([
        ["analyze", "--config", scenario],
        ["max-period", "--config", scenario, "--criterion", "small_gain",
         "--range", "1e-3:0.1"],
        ["sweep", "--config", scenario, "--periods", "0.001,0.006", "--out", "sweep"],
    ])
    procs = {}
    for mode in ("block", "normal"):
        (tmp_path / mode).mkdir()
        procs[mode] = subprocess.Popen(
            [sys.executable, "-c", _DISPATCH_PROBE, mode, calls], env=_src_env(),
            cwd=tmp_path / mode, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    results = {}
    for mode, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        results[mode] = json.loads(stdout)
    assert [code for code, _ in results["normal"]] == [1, 0, 0]
    assert results["block"] == results["normal"]
    for name in ("sweep.csv", "sweep.json"):
        blocked = (tmp_path / "block" / "sweep" / name).read_bytes()
        assert blocked == (tmp_path / "normal" / "sweep" / name).read_bytes()


_OVERFLOW_COMMANDS = {
    "analyze": ["analyze"],
    "max-period": ["max-period", "--criterion", "small_gain", "--range", "1e-3:0.1"],
    "simulate": ["simulate", "--out", "sim"],
}


@pytest.mark.parametrize(
    "change, command, named",
    [
        pytest.param({"period": 1e308}, "analyze", "1e+308", id="period-analyze"),
        *(
            pytest.param(change, command, "overflow", id=f"{next(iter(change))}-{command}")
            for change in ({"kp": 1e308}, {"kv": 1e308}, {"kd": 1e308}, {"mass": 5e-324})
            for command in _OVERFLOW_COMMANDS
        ),
    ],
)
def test_analyze_overflowing_period_exit_code(tmp_path, capsys, monkeypatch, change, command, named):
    # A*T overflows, a gain of 1e308 overflows the certificate's products,
    # and a master mass of 5e-324 the division into the plant's companion
    # form: one error line, and no numpy warning (pytest turns warnings
    # into errors)
    monkeypatch.chdir(tmp_path)
    gains = {k: v for k, v in change.items() if k != "mass"}
    cfg = pathlib.Path(_cfg(tmp_path, **gains))
    if "mass" in change:  # the master's, the first mass of the file
        cfg.write_text(cfg.read_text().replace("mass = 0.5", f"mass = {change['mass']}", 1))
    code = cli_dispatch([*_OVERFLOW_COMMANDS[command], "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and named in lines[0]
