"""Hybrid time-domain simulator: traces, verdicts, nonidealities, sweeps."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleopstab import sim
from teleopstab import (
    ControllerGains,
    NonidealityConfig,
    OperatorForce,
    SimScenario,
    SimTrace,
    apply_nonidealities,
    clamp_force,
    induced_delay_gamma,
    load_scenario,
    run_scenario,
    small_gain_value,
    make_grid,
    sweep_period,
    verdict,
    write_events_csv,
    write_trace_csv,
    TeleopSystem,
    wall_force,
)

from oracles import second_order_step

SCENARIO_FILE = "scenarios/wall_contact.cfg"
ZERO_GAINS = ControllerGains(kp=0.0, kv=0.0, kd=0.0, p_eps=0.0)


@pytest.fixture(scope="module")
def reference_scenario():
    return load_scenario(SCENARIO_FILE)


@pytest.fixture(scope="module")
def golden_trace(reference_scenario):
    return run_scenario(reference_scenario, seed=0)


def _short(sc, **overrides):
    changes = dict(
        duration=3.0,
        operator_force=OperatorForce(start=0.5, stop=1.5, magnitude=5.0),
    )
    changes.update(overrides)
    return dataclasses.replace(sc, **changes)


def test_golden_run_probes(reference_scenario, golden_trace):
    v = verdict(golden_trace)
    assert v.bounded
    assert v.settling_ok
    assert len(golden_trace.t) == 133341  # ceil(80/0.006) periods * 10 + 1
    np.testing.assert_allclose(v.max_abs_position, 4.962411398830029, rtol=1e-6)
    assert v.final_velocity_max < 0.01
    np.testing.assert_allclose(v.final_velocity_max, 3.105447886964489e-4, rtol=1e-3)
    # slave crosses the wall threshold during the force window
    t = golden_trace.t
    window = (t >= 10.0) & (t <= 20.0)
    assert np.max(golden_trace.x_s[window]) > reference_scenario.wall.position
    np.testing.assert_allclose(np.max(golden_trace.x_s), 4.00247312463026, rtol=1e-6)
    i = int(np.searchsorted(t, 15.0))
    np.testing.assert_allclose(golden_trace.x_m[i], 4.918837068680043, rtol=1e-6)
    np.testing.assert_allclose(golden_trace.x_s[i], 4.000839426626869, rtol=1e-6)
    np.testing.assert_allclose(golden_trace.f_m[i], -0.8242438205420729, rtol=1e-4)


def test_trace_shape_invariants(golden_trace):
    arrays = (
        golden_trace.t,
        golden_trace.x_m,
        golden_trace.v_m,
        golden_trace.x_s,
        golden_trace.v_s,
        golden_trace.f_m,
        golden_trace.f_s,
        golden_trace.f_h,
        golden_trace.f_e,
    )
    n = len(golden_trace.t)
    assert all(len(a) == n for a in arrays)
    assert golden_trace.t[0] == 0.0
    # events stay inside the simulated horizon
    end = golden_trace.t[-1]
    for events in (
        golden_trace.sample_events,
        golden_trace.hold_events_m,
        golden_trace.hold_events_s,
    ):
        assert events[0] >= 0.0
        assert events[-1] <= end + 1e-12


def test_determinism_bit_identical(reference_scenario):
    sc = _short(reference_scenario)
    a = run_scenario(sc, seed=0)
    b = run_scenario(sc, seed=0)
    for name in ("t", "x_m", "v_m", "x_s", "v_s", "f_m", "f_s", "f_h", "f_e"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(a.sample_events, b.sample_events)
    assert np.array_equal(a.hold_events_m, b.hold_events_m)


def test_controller_outputs_constant_between_holds(reference_scenario):
    sc = _short(reference_scenario)
    tr = run_scenario(sc, seed=0)
    # zero delay, uniform sampling: holds land on period boundaries, so the
    # held torque must be constant inside every block of substeps
    nsub = sc.integrator_substeps
    for f in (tr.f_m, tr.f_s):
        blocks = f[:-1].reshape(-1, nsub)
        assert np.all(blocks == blocks[:, :1])
        assert np.unique(blocks[:, 0]).size > 10  # and it does move
    assert tr.f_m[-1] == tr.f_m[-2]


def test_delay_bookkeeping_two_period_delay(reference_scenario):
    # eps_min a hair under T: simulated intervals are k*T differences and may
    # sit one ulp below the nominal period
    ch = dataclasses.replace(reference_scenario.channel, d1=2, d2=2, eps_min=0.005)
    sc = _short(reference_scenario, channel=ch, duration=5.0)
    tr = run_scenario(sc, seed=0)
    T = ch.T
    n_s = len(tr.hold_events_s)
    n_m = len(tr.hold_events_m)
    assert n_s > 100
    # every hold is its source sample plus exactly two periods
    assert np.array_equal(tr.hold_events_s, tr.sample_events[:n_s] + 2 * T)
    assert np.array_equal(tr.hold_events_m, tr.sample_events[:n_m] + 2 * T)
    # measured worst-case hold age agrees with the analytic bound to within
    # one integration substep
    gamma = induced_delay_gamma(ch, np.diff(tr.sample_events))
    ages = tr.hold_events_s[1:] - tr.sample_events[: n_s - 1]
    h = T / sc.integrator_substeps
    assert abs(np.max(ages) - gamma) <= h + 1e-12


def test_energy_settles_for_certified_configuration(reference_scenario):
    # the low-gain variant passes the frequency-domain certificate at this
    # period; its trailing-window signal energy must be a vanishing fraction
    # of the active-window energy
    gains = ControllerGains(kp=1.0, kv=0.1, kd=0.2, p_eps=0.002)
    ch = dataclasses.replace(reference_scenario.channel, alpha=1.0)
    sys_ = TeleopSystem(reference_scenario.master, reference_scenario.slave, gains)
    certificate = small_gain_value(sys_, ch, make_grid(ch.T))
    assert certificate.small_gain_pass

    sc = dataclasses.replace(
        reference_scenario, gains=gains, channel=ch, duration=40.0
    )
    tr = run_scenario(sc, seed=0)
    v2 = tr.v_m**2 + tr.v_s**2
    t = tr.t
    f = sc.operator_force
    active = (t >= f.start) & (t <= f.stop)
    trailing = t >= t[-1] - 5.0
    e_active = np.trapezoid(v2[active], t[active])
    e_trailing = np.trapezoid(v2[trailing], t[trailing])
    assert e_trailing < 0.01 * e_active


def test_zero_gain_equilibrium(reference_scenario):
    sc = _short(
        reference_scenario,
        gains=ZERO_GAINS,
        operator_force=OperatorForce(0.5, 1.0, 0.0),
        duration=2.0,
    )
    tr = run_scenario(sc, seed=0)
    for name in ("x_m", "v_m", "x_s", "v_s", "f_m", "f_s", "f_h", "f_e"):
        assert np.all(getattr(tr, name) == 0.0), name
    v = verdict(tr)
    assert v.bounded and v.settling_ok
    assert v.max_abs_position == 0.0


def test_zero_gain_step_decouples_robots(reference_scenario):
    sc = dataclasses.replace(reference_scenario, gains=ZERO_GAINS, duration=30.0)
    tr = run_scenario(sc, seed=0)
    assert np.all(tr.x_s == 0.0)
    assert np.all(tr.f_s == 0.0)
    # master alone is the damped oscillator m x'' + (b + b_h) x' + k_h x = F
    m = sc.master.mass
    b = sc.master.damping + sc.human.damping
    k = sc.human.stiffness
    F = sc.operator_force.magnitude
    expected = second_order_step(m, b, k, F, tr.t - 10.0) - second_order_step(
        m, b, k, F, tr.t - 20.0
    )
    assert np.max(np.abs(tr.x_m - expected)) < 1e-9


def test_sampled_matches_continuous_controller_mode(reference_scenario):
    # short consistency probe; the fine-period full-length comparison runs
    # in the acceptance suite
    ch = dataclasses.replace(reference_scenario.channel, T=1e-3, eps_min=1e-3)
    sc = dataclasses.replace(
        reference_scenario,
        channel=ch,
        duration=8.0,
        integrator_substeps=4,
        operator_force=OperatorForce(1.0, 3.0, 50.0),
    )
    sampled = run_scenario(sc, seed=0, controller_mode="sampled")
    continuous = run_scenario(sc, seed=0, controller_mode="continuous")
    scale = np.max(np.abs(continuous.x_m))
    dev = max(
        np.max(np.abs(sampled.x_m - continuous.x_m)),
        np.max(np.abs(sampled.x_s - continuous.x_s)),
    )
    assert dev < 0.01 * scale


def test_step_halving_convergence(reference_scenario):
    sc = _short(reference_scenario, duration=6.0)
    coarse = run_scenario(sc, seed=0)
    fine = run_scenario(
        dataclasses.replace(sc, integrator_substeps=sc.integrator_substeps * 2), seed=0
    )
    assert abs(np.max(np.abs(coarse.x_m)) - np.max(np.abs(fine.x_m))) < 1e-6


def test_quantizer_examples():
    step = 2.0 * math.pi / 4096.0
    cfg = NonidealityConfig()
    assert cfg.encoder_step == step
    pos, _ = apply_nonidealities(
        np.array([0.0, 0.00165]), np.zeros(2), cfg, rng_seed=0, T=0.006
    )
    assert pos[0] == 0.0
    np.testing.assert_allclose(pos[1], 0.0015339807878856412, rtol=1e-15)
    assert pos[1] == math.floor(0.00165 / step) * step


def test_force_clamp_examples():
    cfg = NonidealityConfig()
    limit = 5.0 / 4.054
    assert clamp_force(2.0, cfg) == limit
    assert clamp_force(-2.0, cfg) == -limit
    assert clamp_force(0.5, cfg) == 0.5
    np.testing.assert_allclose(limit, 1.23334977799704, rtol=1e-14)


def test_velocity_filter_exact_recursion():
    T = 0.006
    cfg = NonidealityConfig()
    pole = math.exp(-2.0 * math.pi * cfg.velocity_filter_cutoff * T)
    np.testing.assert_allclose(pole, 0.15183580198064886, rtol=1e-15)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(40)
    _, filtered = apply_nonidealities(np.zeros(40), u, cfg, rng_seed=0, T=T)
    y = 0.0
    expected = []
    for sample in u:
        y = pole * y + (1.0 - pole) * sample
        expected.append(y)
    np.testing.assert_allclose(filtered, expected, rtol=1e-13)


def test_nonideality_noise_seeding():
    cfg = NonidealityConfig(noise_std=0.01)
    x = np.linspace(0.0, 0.1, 50)
    v = np.linspace(0.0, 1.0, 50)
    a1 = apply_nonidealities(x, v, cfg, rng_seed=9, T=0.006)
    a2 = apply_nonidealities(x, v, cfg, rng_seed=9, T=0.006)
    b = apply_nonidealities(x, v, cfg, rng_seed=10, T=0.006)
    assert np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])
    assert not np.array_equal(a1[0], b[0])


def test_noisy_run_bit_reproducible(reference_scenario):
    sc = _short(
        reference_scenario,
        duration=2.0,
        nonidealities=NonidealityConfig(noise_std=0.005),
    )
    a = run_scenario(sc, seed=3)
    b = run_scenario(sc, seed=3)
    c = run_scenario(sc, seed=4)
    assert np.array_equal(a.x_m, b.x_m)
    assert np.array_equal(a.f_m, b.f_m)
    assert not np.array_equal(a.x_m, c.x_m)


def test_actuator_clamp_active_in_loop(reference_scenario):
    sc = _short(
        reference_scenario,
        duration=3.0,
        nonidealities=NonidealityConfig(),
        operator_force=OperatorForce(0.2, 2.0, 50.0),
    )
    tr = run_scenario(sc, seed=0)
    limit = 5.0 / 4.054
    assert np.max(np.abs(tr.f_m)) <= limit + 1e-12
    assert np.max(np.abs(tr.f_s)) <= limit + 1e-12
    # the hard push saturates the master actuator at some point
    assert np.max(np.abs(tr.f_m)) == pytest.approx(limit, rel=1e-12)


def test_trace_wall_force_is_the_plants_wall_law(reference_scenario):
    sc = _short(reference_scenario, operator_force=OperatorForce(0.2, 1.0, 100.0))
    tr = run_scenario(sc, seed=0)
    expected = np.array(
        [-wall_force(x, v, sc.wall) for x, v in zip(tr.x_s, tr.v_s)]
    )
    assert np.any(expected < 0.0)  # the run reaches the wall
    assert np.array_equal(tr.f_e, expected)


def test_trace_budget_checked_before_allocation(reference_scenario, monkeypatch):
    # 0.06 s at T = 6 ms, 10 substeps: 101 rows of nine float64 columns
    sc = _short(
        reference_scenario, duration=0.06, operator_force=OperatorForce(0.0, 0.0)
    )
    monkeypatch.setattr(sim, "TRACE_BUDGET_BYTES", 9 * 8 * 101)
    assert len(run_scenario(sc).t) == 101
    monkeypatch.setattr(sim, "TRACE_BUDGET_BYTES", 9 * 8 * 101 - 1)
    with pytest.raises(ValueError, match="budget"):
        run_scenario(sc)
    monkeypatch.undo()
    # ~1.7e12 rows: rejected up front, recorded as the row's error
    rows = sweep_period(dataclasses.replace(sc, duration=1e9), [0.006])
    assert rows[0].verdict is None and "budget" in rows[0].error


def test_jitter_mode_keeps_assumptions(reference_scenario):
    ch = dataclasses.replace(reference_scenario.channel, eps_min=0.003)
    sc = _short(reference_scenario, channel=ch, jitter_sampling=True, duration=4.0)
    a = run_scenario(sc, seed=11)
    b = run_scenario(sc, seed=11)
    assert np.array_equal(a.sample_events, b.sample_events)
    intervals = np.diff(a.sample_events)
    assert np.all(intervals >= ch.eps_min - 1e-12)
    assert np.all(intervals <= ch.T + 1e-12)
    assert intervals.min() < ch.T - 1e-9  # jitter actually moves instants
    # holds still pair with their samples exactly
    n = len(a.hold_events_s)
    assert np.array_equal(a.hold_events_s, a.sample_events[:n] + ch.d1 * ch.T)


def test_extra_loop_latency_shifts_holds(reference_scenario):
    sc = _short(reference_scenario, extra_loop_latency=0.012, duration=4.0)
    tr = run_scenario(sc, seed=0)
    T = sc.channel.T
    n = len(tr.hold_events_s)
    assert np.array_equal(tr.hold_events_s, tr.sample_events[:n] + 2 * T)


_COLUMNS = ("t", "x_m", "v_m", "x_s", "v_s", "f_m", "f_s", "f_h", "f_e")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    d1=st.integers(0, 3),
    d2=st.integers(0, 3),
    extra=st.integers(0, 2),
    jitter=st.booleans(),
    noise=st.none() | st.floats(0.0, 0.05),
)
def test_run_determinism_and_hold_timing_property(
    reference_scenario, seed, d1, d2, extra, jitter, noise
):
    T = reference_scenario.channel.T
    ch = dataclasses.replace(reference_scenario.channel, d1=d1, d2=d2, eps_min=T / 2)
    sc = _short(
        reference_scenario,
        channel=ch,
        duration=0.3,
        integrator_substeps=4,
        operator_force=OperatorForce(0.05, 0.2, 5.0),
        extra_loop_latency=extra * T,
        jitter_sampling=jitter,
        nonidealities=None if noise is None else NonidealityConfig(noise_std=noise),
    )
    a = run_scenario(sc, seed=seed)
    b = run_scenario(sc, seed=seed)
    for name in _COLUMNS + ("sample_events", "hold_events_m", "hold_events_s"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.divergence_time == b.divergence_time
    # hold i delivers the packet sampled at sample_events[i], one delay later
    for holds, delay in ((a.hold_events_s, d1), (a.hold_events_m, d2)):
        n = len(holds)
        assert 0 < n <= len(a.sample_events)
        assert np.array_equal(holds, a.sample_events[:n] + (delay + extra) * T)


def test_sample_bookkeeping_memory_is_bounded(reference_scenario):
    # a fine period makes samples dense; only the packets still in flight and
    # the three event arrays may grow with the run, not every measurement
    ch = dataclasses.replace(reference_scenario.channel, T=1e-3, eps_min=1e-3, d1=2, d2=2)
    sc = _short(
        reference_scenario,
        channel=ch,
        duration=1.0,
        integrator_substeps=4,
        operator_force=OperatorForce(0.1, 0.5, 5.0),
        nonidealities=NonidealityConfig(noise_std=0.001),
    )
    tracemalloc.start()
    try:
        tr = run_scenario(sc, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_samples = len(tr.sample_events)
    assert n_samples == 1000
    extra_per_sample = (peak - 9 * 8 * len(tr.t)) / n_samples
    # three float64 event arrays are 24 B a sample, 48 B while they are copied
    # out; keeping every measurement and instant cost about 370 B a sample
    assert extra_per_sample < 150.0


def test_scenario_validation():
    sc = load_scenario(SCENARIO_FILE)
    with pytest.raises(ValueError):
        dataclasses.replace(sc, duration=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(sc, integrator_substeps=3)
    with pytest.raises(ValueError):
        dataclasses.replace(sc, duration=15.0)  # force window ends at 20
    with pytest.raises(ValueError):
        dataclasses.replace(sc, extra_loop_latency=0.010)  # not a multiple of T
    with pytest.raises(ValueError):
        # jitter draws need room below T on the substep grid
        dataclasses.replace(
            sc,
            jitter_sampling=True,
            channel=dataclasses.replace(sc.channel, eps_min=1e-5),
        )


def test_verdict_zero_trace():
    n = 11
    zeros = np.zeros(n)
    tr = SimTrace(
        t=np.arange(n) * 0.1,
        x_m=zeros,
        v_m=zeros,
        x_s=zeros,
        v_s=zeros,
        f_m=zeros,
        f_s=zeros,
        f_h=zeros,
        f_e=zeros,
        sample_events=np.array([0.0]),
        hold_events_m=np.array([0.0]),
        hold_events_s=np.array([0.0]),
        period=0.1,
        substep=0.1,
        divergence_time=None,
    )
    v = verdict(tr)
    assert v.bounded and v.settling_ok
    assert v.divergence_time is None


def test_verdict_non_finite_sample():
    n = 60
    zeros = np.zeros(n)
    x_m = zeros.copy()
    x_m[32] = np.inf  # t = 3.2
    tr = SimTrace(
        t=np.arange(n) * 0.1,
        x_m=x_m,
        v_m=zeros,
        x_s=zeros,
        v_s=zeros,
        f_m=zeros,
        f_s=zeros,
        f_h=zeros,
        f_e=zeros,
        sample_events=np.array([0.0]),
        hold_events_m=np.array([0.0]),
        hold_events_s=np.array([0.0]),
        period=0.1,
        substep=0.1,
        divergence_time=None,
    )
    v = verdict(tr)
    assert not v.bounded
    assert v.divergence_time == 3.2


def test_verdict_position_bound():
    n = 30
    zeros = np.zeros(n)
    x_m = zeros.copy()
    x_m[10] = 25.0
    tr = SimTrace(
        t=np.arange(n) * 0.1,
        x_m=x_m,
        v_m=zeros,
        x_s=zeros,
        v_s=zeros,
        f_m=zeros,
        f_s=zeros,
        f_h=zeros,
        f_e=zeros,
        sample_events=np.array([0.0]),
        hold_events_m=np.array([0.0]),
        hold_events_s=np.array([0.0]),
        period=0.1,
        substep=0.1,
        divergence_time=None,
    )
    v = verdict(tr, position_bound=10.0)
    assert not v.bounded
    assert v.max_abs_position == 25.0
    assert v.divergence_time is None


def test_divergent_run_truncates_with_divergence_time(reference_scenario):
    # stiff position gain at a slow period overflows quickly; the run must
    # stop at the first non-finite state and stamp its time
    ch = dataclasses.replace(reference_scenario.channel, T=0.2, eps_min=0.2)
    sc = dataclasses.replace(
        reference_scenario,
        channel=ch,
        duration=40.0,
        gains=ControllerGains(kp=1e6, kv=0.1, kd=0.2, p_eps=0.002),
    )
    tr = run_scenario(sc, seed=0)
    assert tr.divergence_time is not None
    assert tr.t[-1] == tr.divergence_time
    assert len(tr.t) < 40.0 / tr.substep + 1
    assert np.all(np.isfinite(tr.x_m[:-1]))
    v = verdict(tr)
    assert not v.bounded
    assert not v.settling_ok
    # the torque signal can overflow a row before the state does, so the
    # verdict may flag divergence slightly earlier than the engine stamp
    assert v.divergence_time is not None
    assert v.divergence_time <= tr.divergence_time


def test_sweep_reference_trend(reference_scenario):
    # coarser integrator and shorter horizon keep this quick; the verdict
    # flags are far from their thresholds either way
    template = dataclasses.replace(
        reference_scenario, duration=40.0, integrator_substeps=4
    )
    rows = sweep_period(template, [0.2, 0.001, 0.05, 0.006])
    assert [r.period for r in rows] == [0.001, 0.006, 0.05, 0.2]
    assert all(r.error is None for r in rows)
    # archived trend: stable at fast sampling, divergent at slow sampling,
    # while the conservative frequency-domain certificate fails throughout
    assert [r.verdict.bounded for r in rows] == [True, True, False, False]
    assert [r.verdict.settling_ok for r in rows] == [True, True, False, False]
    assert all(not r.stability.small_gain_pass for r in rows)
    assert all(r.stability.excluded_points == 0 for r in rows)


def test_sweep_single_period_matches_components(reference_scenario):
    sc = _short(reference_scenario, duration=4.0)
    rows = sweep_period(sc, [sc.channel.T])
    assert len(rows) == 1
    row = rows[0]
    direct = verdict(run_scenario(sc, seed=0))
    assert row.verdict.max_abs_position == direct.max_abs_position
    assert row.verdict.bounded == direct.bounded
    sys_ = TeleopSystem(sc.master, sc.slave, sc.gains)
    ref = small_gain_value(sys_, sc.channel, make_grid(sc.channel.T))
    assert row.stability.small_gain_value == ref.small_gain_value


def test_sweep_isolates_row_errors(reference_scenario):
    sc = _short(reference_scenario, duration=2.0)
    rows = sweep_period(sc, [-1.0, sc.channel.T])
    assert rows[0].error is not None
    assert rows[0].verdict is None
    assert rows[1].error is None


def test_sweep_propagates_programming_errors(reference_scenario, monkeypatch):
    # only domain errors become error rows; a bug in the certificate core
    # must surface
    def broken(*args, **kwargs):
        raise TypeError("broken certificate core")

    monkeypatch.setattr("teleopstab.sim.small_gain_value", broken)
    sc = _short(reference_scenario, duration=2.0)
    with pytest.raises(TypeError, match="broken certificate core"):
        sweep_period(sc, [sc.channel.T])


def test_sweep_empty():
    sc = load_scenario(SCENARIO_FILE)
    assert sweep_period(sc, []) == []


def test_trace_csv_round_trip(tmp_path, reference_scenario):
    sc = _short(reference_scenario, duration=2.0)
    tr = run_scenario(sc, seed=0)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x_m,v_m,x_s,v_s,F_m,F_s,F_h,F_e"
    assert len(lines) == len(tr.t) + 1
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 0], tr.t, rtol=0, atol=0)
    np.testing.assert_allclose(data[:, 5], tr.f_m, rtol=0, atol=0)


def test_events_csv(tmp_path, reference_scenario):
    sc = _short(reference_scenario, duration=2.0)
    tr = run_scenario(sc, seed=0)
    path = tmp_path / "events.csv"
    write_events_csv(tr, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,t"
    kinds = {line.split(",")[0] for line in lines[1:]}
    assert kinds == {"sample", "hold_m", "hold_s"}
    times = [float(line.split(",")[1]) for line in lines[1:]]
    assert times == sorted(times)
