"""Scenario files, run settings, canonical serialization, and reports."""

import codecs
import dataclasses
import hashlib
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleopstab import scenario
from teleopstab import (
    ChannelConfig,
    ControllerGains,
    ImpedanceModel,
    NonidealityConfig,
    OperatorForce,
    ParseError,
    RobotParams,
    RunSettings,
    SimScenario,
    SimVerdict,
    StabilityReport,
    ValidationError,
    WallModel,
    __version__,
    build_report,
    load_run_settings,
    load_scenario,
    read_report,
    save_scenario,
    scenario_hash,
    serialize_scenario,
    write_report,
)
from teleopstab.cli import cli_dispatch

SCENARIO_FILE = "scenarios/wall_contact.cfg"
FORMAT_DOC = "docs/scenario-format.md"

MINIMAL = """\
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
position = 2.0

[gains]
kp = 1.0
kv = 1.0
kd = 0.5
p_eps = 0.001

[channel]
period = 0.01
d1 = 0
d2 = 0
eps_min = 0.01
alpha = 0.0

[operator_force]
start = 0.5
stop = 1.0

[run]
duration = 2.0
substeps = 4
"""


def _load(tmp_path, text, name="case.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return load_scenario(p)


def test_shipped_scenario_values():
    sc = load_scenario(SCENARIO_FILE)
    assert sc.master == RobotParams(mass=0.5, damping=1.0)
    assert sc.slave == RobotParams(mass=0.5, damping=1.0)
    assert sc.human == ImpedanceModel(mass=0.0, damping=1.0, stiffness=10.0)
    assert sc.wall == WallModel(position=4.0, stiffness=1000.0, damping=1.0)
    assert sc.gains == ControllerGains(kp=1.0, kv=10.0, kd=2.0, p_eps=0.002)
    assert sc.channel == ChannelConfig(
        T=0.006, d1=0, d2=0, eps_min=0.006, alpha=0.0
    )
    assert sc.operator_force == OperatorForce(start=10.0, stop=20.0, magnitude=50.0)
    assert sc.duration == 80.0
    assert sc.integrator_substeps == 10
    assert sc.nonidealities is None
    assert sc.jitter_sampling is False


def test_shipped_run_settings_defaults():
    assert load_run_settings(SCENARIO_FILE) == RunSettings(
        seed=0, grid_points=512, position_bound=10.0, settle_window=5.0, settle_tol=0.01
    )


def test_minimal_defaults(tmp_path):
    sc = _load(tmp_path, MINIMAL)
    assert sc.wall.stiffness == 1000.0
    assert sc.wall.damping == 1.0
    assert sc.operator_force.magnitude == 1.0
    assert sc.nonidealities is None
    assert sc.jitter_sampling is False


def test_comments_and_inline_comments(tmp_path):
    text = "# leading comment\n" + MINIMAL.replace(
        "duration = 2.0", "duration = 2.0  # seconds"
    ).replace("substeps = 4", "substeps = 4 ; integrator")
    sc = _load(tmp_path, text)
    assert sc.duration == 2.0
    assert sc.integrator_substeps == 4


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    # some editors start a UTF-8 file with a byte-order mark
    bom = tmp_path / "bom.cfg"
    with open(SCENARIO_FILE, "rb") as fh:
        bom.write_bytes(codecs.BOM_UTF8 + fh.read())
    sc = load_scenario(SCENARIO_FILE)
    assert load_scenario(bom) == sc
    assert load_run_settings(bom) == load_run_settings(SCENARIO_FILE)
    assert scenario_hash(load_scenario(bom)) == scenario_hash(sc)
    outcomes = []
    for path in (SCENARIO_FILE, bom):
        code = cli_dispatch(["analyze", "--config", str(path)])
        outcomes.append((code, json.loads(capsys.readouterr().out)))
    assert outcomes[0][0] == 1
    assert outcomes[1] == outcomes[0]


def test_nonidealities_enabled_flag(tmp_path):
    # the section is the switch: leave it out to run the ideal loop
    on = MINIMAL + "\n[nonidealities]\nenabled = yes\nnoise_std = 0.02\n"
    with pytest.raises(ValidationError, match="nonidealities: unknown key 'enabled'"):
        _load(tmp_path, on)
    bare = MINIMAL + "\n[nonidealities]\n"
    assert _load(tmp_path, bare).nonidealities == NonidealityConfig()


def test_missing_section(tmp_path):
    text = MINIMAL.replace("[gains]\nkp = 1.0\nkv = 1.0\nkd = 0.5\np_eps = 0.001\n\n", "")
    with pytest.raises(ValidationError, match="gains: required"):
        _load(tmp_path, text)


def test_missing_key(tmp_path):
    text = MINIMAL.replace("kp = 1.0\n", "")
    with pytest.raises(ValidationError, match=r"gains\.kp: required"):
        _load(tmp_path, text)


def test_non_integer_delay(tmp_path):
    text = MINIMAL.replace("d1 = 0", "d1 = 1.5")
    with pytest.raises(ValidationError, match=r"channel\.d1: expected an integer"):
        _load(tmp_path, text)


def test_unknown_key(tmp_path):
    text = MINIMAL.replace("position = 2.0", "position = 2.0\nbounce = 3.0")
    with pytest.raises(ValidationError, match="wall: unknown key 'bounce'"):
        _load(tmp_path, text)


def test_unknown_section(tmp_path):
    with pytest.raises(ValidationError, match="unknown section 'extras'"):
        _load(tmp_path, MINIMAL + "\n[extras]\nfoo = 1\n")


def test_bad_number(tmp_path):
    text = MINIMAL.replace("mass = 0.5", "mass = heavy", 1)
    with pytest.raises(ValidationError, match=r"master\.mass: expected a number, got 'heavy'"):
        _load(tmp_path, text)


def test_non_finite_rejected(tmp_path):
    # the parser only converts the text; SimScenario refuses the value
    for value in ("inf", "nan"):
        text = MINIMAL.replace("duration = 2.0", f"duration = {value}")
        with pytest.raises(ValidationError, match=r"run: duration must be positive and finite"):
            _load(tmp_path, text)


def test_bad_boolean(tmp_path):
    text = MINIMAL.replace("substeps = 4", "substeps = 4\njitter = maybe")
    with pytest.raises(ValidationError, match=r"run\.jitter: expected a boolean"):
        _load(tmp_path, text)


def test_key_outside_section(tmp_path):
    with pytest.raises(ValidationError, match="keys are not allowed outside a section"):
        _load(tmp_path, "[DEFAULT]\nstray = 1\n" + MINIMAL)


def test_syntax_error_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        _load(tmp_path, "[master\nmass = 0.5\n")
    with pytest.raises(ParseError):
        _load(tmp_path, MINIMAL + "\n[master]\nmass = 0.5\ndamping = 1.0\n")  # duplicate


def test_model_violations_are_wrapped(tmp_path):
    text = MINIMAL.replace("mass = 0.5\ndamping = 1.0\n\n[slave]", "mass = -0.5\ndamping = 1.0\n\n[slave]")
    with pytest.raises(ValidationError, match="master: "):
        _load(tmp_path, text)
    text = MINIMAL.replace("stop = 1.0", "stop = 5.0")  # beyond duration
    with pytest.raises(ValidationError, match="run: operator force window"):
        _load(tmp_path, text)


def test_run_settings_validation(tmp_path):
    text = MINIMAL.replace("substeps = 4", "substeps = 4\ngrid_points = 1")
    p = tmp_path / "g.cfg"
    p.write_text(text)
    with pytest.raises(ValidationError, match="run: grid_points must be"):
        load_run_settings(p)
    text = MINIMAL.replace("substeps = 4", "substeps = 4\nsettle_tol = -0.01")
    p.write_text(text)
    with pytest.raises(ValidationError, match="must be positive"):
        load_run_settings(p)
    p.write_text(MINIMAL.replace("substeps = 4", "substeps = 4\nseed = -1"))
    with pytest.raises(ValidationError, match="run: seed must be"):
        load_run_settings(p)


@pytest.mark.parametrize(
    "bad",
    [
        {"grid_points": 1},
        {"grid_points": 2.5},
        {"position_bound": 0.0},
        {"settle_window": -1.0},
        {"settle_tol": float("inf")},
        {"settle_tol": float("nan")},
        {"seed": 1.5},
        {"seed": -1},
        {"seed": True},
    ],
)
def test_run_settings_reject_what_a_file_cannot_hold(bad):
    # a RunSettings that exists serializes to a file that loads back, so
    # the values the loader rejects cannot be constructed either
    with pytest.raises(ValueError):
        RunSettings(**bad)


@pytest.mark.parametrize("section, key", [("gains", "nu"), ("run", "extra_loop_latency")])
def test_removed_keys_are_unknown(tmp_path, section, key):
    # delays are whole periods on [channel] only, and a margin nothing read
    # is gone; a file that still sets either is rejected, not reinterpreted
    text = MINIMAL.replace(f"[{section}]\n", f"[{section}]\n{key} = 0.012\n")
    with pytest.raises(ValidationError, match=f"{section}: unknown key '{key}'"):
        _load(tmp_path, text)


def test_serialize_round_trip_shipped(tmp_path):
    sc = load_scenario(SCENARIO_FILE)
    p = tmp_path / "rt.cfg"
    p.write_text(serialize_scenario(sc))
    assert load_scenario(p) == sc
    assert load_run_settings(p) == RunSettings()


def test_serialize_round_trip_wall_never_engaged(tmp_path):
    # +inf is the one non-finite value a model takes: a wall never engaged
    sc = dataclasses.replace(load_scenario(SCENARIO_FILE), wall=WallModel(position=math.inf))
    p = tmp_path / "free.cfg"
    save_scenario(sc, p)
    assert "\nposition = inf\n" in p.read_text()
    assert load_scenario(p) == sc


def test_serialize_round_trip_full_featured(tmp_path):
    base = load_scenario(SCENARIO_FILE)
    sc = dataclasses.replace(
        base,
        gains=ControllerGains(kp=8.4, kv=0.0, kd=0.0005, p_eps=0.002),
        channel=dataclasses.replace(base.channel, d1=1, d2=2, alpha=1.0),
        nonidealities=NonidealityConfig(noise_std=0.01),
        duration=33.5,
    )
    run = RunSettings(
        seed=7, grid_points=256, position_bound=20.0, settle_window=3.0, settle_tol=0.005
    )
    p = tmp_path / "full.cfg"
    save_scenario(sc, p, run)
    assert load_scenario(p) == sc
    assert load_run_settings(p) == run


def _finite(lo=None, hi=None, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


_positive = _finite(0.0, 1e6, exclude_min=True)
_nonnegative = _finite(0.0, 1e6)


@st.composite
def _scenarios_and_runs(draw):
    T = draw(_finite(1e-6, 1.0))
    substeps = draw(st.integers(4, 64))
    eps_min = draw(_finite(0.0, T, exclude_min=True))
    duration = draw(_finite(1e-3, 1e4))
    start = draw(_finite(0.0, duration))
    noni = draw(
        st.none()
        | st.builds(
            NonidealityConfig,
            encoder_step=_positive,
            actuator_limit=_positive,
            force_to_volts=_positive,
            velocity_filter_cutoff=_positive,
            noise_std=_nonnegative,
        )
    )
    sc = SimScenario(
        master=RobotParams(draw(_positive), draw(_nonnegative)),
        slave=RobotParams(draw(_positive), draw(_nonnegative)),
        human=ImpedanceModel(draw(_nonnegative), draw(_nonnegative), draw(_nonnegative)),
        wall=WallModel(draw(_finite(-1e6, 1e6)), draw(_positive), draw(_nonnegative)),
        gains=ControllerGains(
            draw(_nonnegative), draw(_nonnegative), draw(_nonnegative),
            draw(_nonnegative),
        ),
        channel=ChannelConfig(
            T=T,
            d1=draw(st.integers(0, 50)),
            d2=draw(st.integers(0, 50)),
            eps_min=eps_min,
            alpha=draw(_nonnegative),
        ),
        operator_force=OperatorForce(
            start, draw(_finite(start, duration)), draw(_finite(-1e6, 1e6))
        ),
        duration=duration,
        integrator_substeps=substeps,
        nonidealities=noni,
        jitter_sampling=draw(st.booleans()) and eps_min * substeps >= T,
    )
    run = RunSettings(
        seed=draw(st.integers(0, 2**63)),
        grid_points=draw(st.integers(2, 1 << 20)),
        position_bound=draw(_positive),
        settle_window=draw(_positive),
        settle_tol=draw(_positive),
    )
    return sc, run


@settings(max_examples=200, deadline=None)
@given(_scenarios_and_runs())
def test_serialize_round_trip_property(tmp_path_factory, pair):
    sc, run = pair
    text = serialize_scenario(sc, run)
    p = tmp_path_factory.mktemp("rt") / "s.cfg"
    p.write_text(text)
    loaded, loaded_run = load_scenario(p), load_run_settings(p)
    assert loaded == sc
    assert loaded_run == run
    assert serialize_scenario(loaded, loaded_run) == text
    assert scenario_hash(loaded) == scenario_hash(sc)


def _documented_keys() -> set[tuple[str, str]]:
    # the first cell of each table row under a "### `[section]`" heading
    keys = set()
    sections: list[str] = []
    with open(FORMAT_DOC, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                sections = re.findall(r"`\[(\w+)\]`", line)
            elif m := re.match(r"\|\s*`(\w+)`\s*\|", line):
                keys.update((section, m.group(1)) for section in sections)
    return keys


def test_format_doc_tables_match_schema():
    schema = {(section, key) for section, spec in scenario._SCHEMA.items() for key in spec}
    assert _documented_keys() == schema


def test_scenario_hash_properties():
    sc = load_scenario(SCENARIO_FILE)
    h = scenario_hash(sc)
    assert len(h) == 64
    int(h, 16)  # hex digest
    assert h == scenario_hash(sc)
    assert h == hashlib.sha256(serialize_scenario(sc).encode()).hexdigest()
    assert h != scenario_hash(dataclasses.replace(sc, duration=81.0))


def test_build_report_minimal():
    sc = load_scenario(SCENARIO_FILE)
    run = RunSettings(seed=3)
    rep = build_report(sc, run)
    assert set(rep) == {"schema_version", "tool", "provenance", "units"}
    assert rep["schema_version"] == 1
    assert rep["tool"] == {"name": "teleopstab", "version": __version__}
    prov = rep["provenance"]
    assert prov["scenario_sha256"] == scenario_hash(sc)
    assert prov["seed"] == 3
    assert prov["grid_points"] == 512
    assert prov["period_s"] == 0.006
    assert prov["delays_periods"] == [0, 0]
    assert rep["units"] == {
        "position": "rad",
        "velocity": "rad/s",
        "force": "N*m",
        "time": "s",
        "frequency": "rad/s",
    }


def test_build_report_sections_and_round_trip(tmp_path):
    sc = load_scenario(SCENARIO_FILE)
    stab = StabilityReport(
        period=0.006,
        small_gain_value=1.1998712527884918,
        small_gain_pass=False,
        argmax_frequency=523.5987755982988,
        grid_size=512,
        excluded_points=0,
        damping_bound=-15.998,
        damping_pass_master=True,
        damping_pass_slave=True,
    )
    vd = SimVerdict(
        bounded=True,
        max_abs_position=4.96,
        settling_ok=True,
        final_velocity_max=3.1e-4,
        divergence_time=None,
    )
    rep = build_report(sc, RunSettings(), stability=stab, sim_verdict=vd)
    assert rep["stability"]["small_gain_value"] == stab.small_gain_value
    assert rep["stability"]["small_gain_pass"] is False
    assert rep["stability"]["damping_bound"] == -15.998
    assert rep["simulation"]["bounded"] is True
    assert rep["simulation"]["divergence_time_s"] is None
    p = tmp_path / "report.json"
    write_report(rep, p)
    assert read_report(p) == rep
