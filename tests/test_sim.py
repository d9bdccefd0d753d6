"""Hybrid time-domain simulator: traces, verdicts, nonidealities, sweeps."""

import ast
import dataclasses
import errno
import hashlib
import logging
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from teleopstab import _g17, _rk4, control, plants, sim
from teleopstab import (
    FREE,
    ChannelConfig,
    ControllerGains,
    ImpedanceModel,
    NoBracket,
    NonidealityConfig,
    OperatorForce,
    RobotParams,
    RunSettings,
    SimScenario,
    SimTrace,
    alpha_zero_condition,
    apply_nonidealities,
    clamp_force,
    control_continuous,
    induced_delay_gamma,
    load_scenario,
    max_stable_period,
    run_scenario,
    small_gain_value,
    make_grid,
    sweep_period,
    verdict,
    write_events_csv,
    write_trace_csv,
    TeleopSystem,
    WallModel,
    wall_force,
)

from oracles import (
    events_csv,
    savetxt_trace,
    second_order_step,
    stage_rk4,
    stagewise_run_scenario,
    trace_row_forces,
)

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


# sha256 of every trace column, the three event arrays and divergence_time of
# the all-stage oracle, oracles.stagewise_run_scenario, for short runs covering
# each path of the substep loop (pulse edges, wall branch changes, noise,
# clamp, jitter, delays, divergence); any change of rounding, branch handling
# or random-draw order in the oracle or the package helpers it shares moves a
# digest.  run_scenario is held to the oracle by
# test_run_scenario_matches_the_stagewise_oracle
_PINNED_DIGESTS = {
    "reference": "ec87a37e9d83438a5ced8d6fc16cbdd2bdd451f4d1fd77a64be4d9e945d21864",
    "continuous": "b2168ddd06a00a10d4c25717c49d683416e200510dc43579fac931561b6a1cad",
    "noise_clamp": "0dbfe2ff096e1ffb8b0fb3df5672720acd80967440d179e1dba18d579a95635a",
    "jitter_delays_latency": "e193506c715cc5eab7bbe9b6c6899b07411a7b97219115a29c70b0a23888b6cb",
    "fine_period_nonideal": "a6d3c35b5c1afd9e676bba48266344e0eecf63855ee9972fd9d351fe7ecb312e",
    "pulse_edge_inside_substep": "a8eeaa40e1266be64417a37c8922989624a82b0a8933afbdce113a271c3363fc",
    "wall_entry_exit": "20da28dc8b8e14adc6f3fe40380f60036f4d1e29ecbb58559e582463c164fabc",
    "wall_entry_exit_continuous": "d3d18c23dee2ee39db064ad13726a636af169a6648a4b9ce4a993cc59de58b75",
    "diverging": "d89412286716446cd73aef822e2f443f6f8f4f58ceff4ff0225f0624e2eaad7a",
    "pulse_inside_one_substep": "4ad15c0b537ee2a5f8cf5cb9a78e1f3d7347b9d1fedb49d624642c1f0b683fcc",
    "diverging_jittered": "680f6e266a05bb2c96d9d9ead9c7c903387aff76b0b72c718bae384184d3dc68",
    "pulse_edge_inside_contact": "66a07695dd88973535e70681cc49010f01c042e942205fd0588d6e43b94d4dc3",
    "fast_slave_free": "c08bba709fad28ed1db912e2d5f00b4c650c552033589bcc654394b4d5128f17",
    "fast_slave_in_contact": "7cbe94896a79cc6fa282ea060e53c2d3b9d30ecbaaf626fe2de93e3d69b5fd21",
    "pulse_edge_inside_jittered_run": "a9ff23432a4957b39dc877ae2ded84b308ea1dffbb7790d106029b9a2ece6f81",
}


def _pinned_cases(ref):
    ch = ref.channel
    fine = dataclasses.replace(ch, T=2e-4, eps_min=2e-4, d1=1, d2=2)
    wall_near = WallModel(position=0.2)
    h = ch.T / ref.integrator_substeps
    fast_slave = RobotParams(mass=0.01, damping=1.2 * 0.01 / h)
    return {
        "reference": (_short(ref), 0, "sampled"),
        "continuous": (_short(ref), 0, "continuous"),
        "noise_clamp": (
            _short(
                ref,
                nonidealities=NonidealityConfig(noise_std=0.005),
                operator_force=OperatorForce(0.2, 2.0, 50.0),
            ),
            3,
            "sampled",
        ),
        "jitter_delays_latency": (
            _short(
                ref,
                # delays of 1 and 2 periods, each plus 2 periods of loop latency
                channel=dataclasses.replace(ch, d1=3, d2=4, eps_min=0.003),
                jitter_sampling=True,
                nonidealities=NonidealityConfig(noise_std=0.002),
            ),
            7,
            "sampled",
        ),
        "fine_period_nonideal": (
            _short(
                ref,
                channel=fine,
                duration=0.6,
                operator_force=OperatorForce(0.1, 0.4, 20.0),
                nonidealities=NonidealityConfig(noise_std=0.005),
            ),
            5,
            "sampled",
        ),
        "pulse_edge_inside_substep": (
            _short(ref, operator_force=OperatorForce(0.50031, 1.20017, 5.0)),
            0,
            "sampled",
        ),
        "wall_entry_exit": (_short(ref, wall=wall_near), 0, "sampled"),
        "wall_entry_exit_continuous": (_short(ref, wall=wall_near), 0, "continuous"),
        "diverging": (
            _short(
                ref,
                channel=dataclasses.replace(ch, T=0.2, eps_min=0.2),
                duration=20.0,
                gains=ControllerGains(kp=1e6, kv=0.1, kd=0.2, p_eps=0.002),
            ),
            0,
            "sampled",
        ),
        # both pulse edges inside substep 500 (h = 6e-4): three smooth pieces
        "pulse_inside_one_substep": (
            _short(ref, operator_force=OperatorForce(0.30011, 0.30031, 5.0)),
            0,
            "sampled",
        ),
        # diverges at 10.62 s (row 531), inside an irregular hold interval
        "diverging_jittered": (
            _short(
                ref,
                channel=dataclasses.replace(ch, T=0.2, eps_min=0.1),
                jitter_sampling=True,
                duration=20.0,
                gains=ControllerGains(kp=1e6, kv=0.1, kd=0.2, p_eps=0.002),
            ),
            0,
            "sampled",
        ),
        # h = 5 ms; the pulse stops 0.37 of the way into substep 265, while
        # the slave presses the wall (rows 242-274): each side of the edge is
        # a piece of its own for both robots, or the run is ~1e-7 off
        "pulse_edge_inside_contact": (
            _short(
                ref,
                wall=wall_near,
                channel=dataclasses.replace(ch, T=0.02, eps_min=0.02),
                integrator_substeps=4,
                operator_force=OperatorForce(0.5, (265 + 0.37) * 0.005, 5.0),
            ),
            0,
            "sampled",
        ),
        # a slave so fast against its substep (damping over mass 1.2/h at h =
        # 6e-4 s) that the run bound admits no run: every substep takes the
        # slow path, free and pressing the wall
        "fast_slave_free": (_short(ref, slave=fast_slave, wall=wall_near), 0, "sampled"),
        "fast_slave_in_contact": (
            _short(ref, slave=fast_slave, wall=WallModel(position=0.05)),
            0,
            "sampled",
        ),
        # the hardware sweep's shape: jittered sampling (5 to 10 substeps an
        # interval), delays of 1 and 2 periods and noise; the pulse starts
        # 0.85 of the way into substep 833, inside the run of rows 831-835,
        # and stops 0.28 of the way into substep 2000, its run's last
        "pulse_edge_inside_jittered_run": (
            _short(
                ref,
                channel=dataclasses.replace(ch, d1=1, d2=2, eps_min=0.003),
                jitter_sampling=True,
                nonidealities=NonidealityConfig(noise_std=0.002),
                operator_force=OperatorForce(0.50031, 1.20017, 5.0),
            ),
            11,
            "sampled",
        ),
    }


def _trace_digest(tr):
    # every NaN hashes as 0xfff8000000000000: the sign bit of a NaN made from
    # infinities is chosen by the interpreter's compiled float code, not by the
    # simulator, and a diverged run's x_s and v_s flip it under a line tracer
    h = hashlib.sha256()
    for name in _COLUMNS + ("sample_events", "hold_events_m", "hold_events_s"):
        h.update(name.encode())
        a = np.array(getattr(tr, name), dtype="<f8")
        bits = a.view("<u8")
        bits[np.isnan(a)] = 0xFFF8000000000000
        h.update(bits.tobytes())
    h.update(repr(tr.divergence_time).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def oracle_traces(reference_scenario):
    return {
        name: stagewise_run_scenario(sc, seed=seed, controller_mode=mode)
        for name, (sc, seed, mode) in _pinned_cases(reference_scenario).items()
    }


def test_trace_bits_match_pinned_digests(oracle_traces):
    assert oracle_traces.keys() == _PINNED_DIGESTS.keys()
    digests = {name: _trace_digest(tr) for name, tr in oracle_traces.items()}
    assert digests == _PINNED_DIGESTS


# the same digests of run_scenario's own traces for the same cases, so a
# change of how the loop or the pass after it forms a value, which the oracle
# comparison forgives up to 1e-9 of the column's scale, moves one too
_RUN_DIGESTS = {
    "reference": "019570b82c8cf3e2930040820fd4250e483aa69a0aff05904b74348221b5b311",
    "continuous": "302a9cd4b2bd0281d760ff85a2310bc3cdd244a258eb9ea44c642aa8a9c9fd26",
    "noise_clamp": "c1b779b4f106e5707c63ffbca1f316c0974579fcd845d807fa7290d63d2d4312",
    "jitter_delays_latency": "970b7d6657f0f8c6e1c66e388d78680335a7ed7646ea3de64599b8430f6164ec",
    "fine_period_nonideal": "deb3a6f241c36b0c60fa11fc70892318355a855d18fcedf688e98bdb1d5ae0fc",
    "pulse_edge_inside_substep": "a7adad5dfb96ffc8b2b2bd2e0e9c2e3255d420c2607eb33893c4e7ec45b37cf7",
    "wall_entry_exit": "9cdacd757e1443527e258962babb5e0e775c3deb629e1ce4a26e2e8f76827d65",
    "wall_entry_exit_continuous": "8cedb707caf654bd4b62f2bcd7844d63f92805c0bf89cdd3a8f1e658657f3643",
    "diverging": "e8b29c9191a2ddf8c524f51d22672d931bc1f855ae225302d56e34e46c86364f",
    "pulse_inside_one_substep": "d3c7364b8b698160c4d69331a1ff082b29f8dd9e941dd337fd40bd5830f85026",
    "diverging_jittered": "b34421fe6bfd39ab602dd1db293a0087b1213406522759e9e07f290cb6365527",
    "pulse_edge_inside_contact": "5cdb226163622e80b15a8dd3aba813d91770a4454ea6ff18e6bceb8baa10fe68",
    "fast_slave_free": "b68c00ab9837885e4a2e1c01f0ba3a381ca83809e646f33171e87b4aaa5281ff",
    "fast_slave_in_contact": "513627c506ad84c6b037b28d3faf142d83175976a762b7311522e44d0b5913d6",
    "pulse_edge_inside_jittered_run": "7f3018a23f38cbe2e71d406264e88c63bdfb3f6457fe081664218f225019c8ac",
}


def test_run_scenario_bits_match_pinned_digests(reference_scenario):
    cases = _pinned_cases(reference_scenario)
    assert cases.keys() == _RUN_DIGESTS.keys()
    digests = {
        name: _trace_digest(run_scenario(sc, seed=seed, controller_mode=mode))
        for name, (sc, seed, mode) in cases.items()
    }
    assert digests == _RUN_DIGESTS


def _assert_matches_the_oracle(got, want, name):
    # the transition maps change only rounding: the same rows, events and
    # divergence time, the same non-finite entries, and every finite entry
    # within 1e-9 of its column's largest finite magnitude (about 3e-11 is
    # seen, on fine_period_nonideal)
    assert len(got.t) == len(want.t), name
    assert got.divergence_time == want.divergence_time, name
    for events in ("sample_events", "hold_events_m", "hold_events_s"):
        assert np.array_equal(getattr(got, events), getattr(want, events)), (name, events)
    for col in _COLUMNS:
        a, b = getattr(got, col), getattr(want, col)
        finite = np.isfinite(b)
        assert np.array_equal(np.isfinite(a), finite), (name, col)
        scale = np.abs(b[finite]).max(initial=0.0)
        assert np.abs(a[finite] - b[finite]).max(initial=0.0) <= 1e-9 * scale, (name, col)


def test_run_scenario_matches_the_stagewise_oracle(reference_scenario, oracle_traces, caplog):
    caplog.set_level(logging.WARNING, logger="teleopstab")
    for name, (sc, seed, mode) in _pinned_cases(reference_scenario).items():
        got = run_scenario(sc, seed=seed, controller_mode=mode)
        _assert_matches_the_oracle(got, oracle_traces[name], name)
    # no pinned case has a decaying mode that RK4 amplifies
    assert not caplog.records


def test_run_bound_admits_no_run_of_a_slave_with_h_c_over_1(reference_scenario, oracle_traces):
    # at h*c >= 1 every bound from k = 1 on is a Python inf, never a numpy
    # one: the loop's reach test multiplies it by |F_s|, which is 0.0 on
    # the startup latch, and a numpy inf times 0.0 warns (an error here)
    sc = _pinned_cases(reference_scenario)["fast_slave_free"][0]
    h = sc.channel.T / sc.integrator_substeps
    a, b = plants._robot_blocks(sc.slave, FREE)
    assert -h * a[1, 1] >= 1.0
    run_v, run_f, _ = _slave_reach((a, b), h, sc.integrator_substeps)
    for c in (*run_v[1:], *run_f[1:]):
        assert type(c) is float and c == math.inf
    # the two pinned cases run free and pressing the wall (1010 rows of
    # wall force); test_run_scenario_matches_the_stagewise_oracle holds them
    # to the oracle
    assert not oracle_traces["fast_slave_free"].f_e.any()
    assert np.count_nonzero(oracle_traces["fast_slave_in_contact"].f_e) > 1000


# an edge on a substep's start, its midpoint or between, nudged by up to
# three ulps either way
_EDGE = st.tuples(
    st.integers(0, 60), st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0), st.integers(-3, 3)
)


def _nudged(e, ulps):
    for _ in range(abs(ulps)):
        e = math.nextafter(e, math.copysign(math.inf, ulps))
    return max(e, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    h=st.floats(1e-7, 1e-2) | st.sampled_from([1e-5, 2e-5, 6e-4, 0.1 / 3]),
    edges=st.tuples(_EDGE, _EDGE),
)
def test_pulse_rows_are_the_float_tests(h, edges):
    # the propagator compares a run's rows with _pulse_rows' bounds in place
    # of its float time tests: on every run of up to 12 substeps over 80
    # rows, each answer is the float test's own
    f_start, f_stop = sorted(_nudged((m + frac) * h, ulps) for m, frac, ulps in edges)
    n = 80
    on, off, *edge_rows = _rk4._pulse_rows(h, n, f_start, f_stop)
    start_before, start_after, stop_before, stop_after = edge_rows
    for j in range(n):
        t0 = j * h
        t1 = t0 + h
        assert (f_start <= 0.5 * (t0 + t1) < f_stop) == (on <= j < off), j
        for stop in range(j + 1, min(j + 12, n) + 1):
            t_end = (stop + 1) * h
            for e, before, after in (
                (f_start, start_before, start_after),
                (f_stop, stop_before, stop_after),
            ):
                assert (t0 - h < e < t_end) == (j < before and stop >= after), (j, stop, e)


# a pulse edge as (substep, fraction of it): on the grid row or inside
_EDGE_FRACTION = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@settings(max_examples=40, deadline=None)
@given(
    start=st.tuples(st.integers(0, 120), _EDGE_FRACTION),
    length=st.tuples(st.integers(0, 180), _EDGE_FRACTION),
)
@example(start=(0, 0.0), length=(60, 0.5))  # an edge at t = 0
@example(start=(37, 0.4), length=(0, 0.4))  # a zero-length pulse inside a substep
def test_pulse_edges_match_the_stagewise_oracle(reference_scenario, start, length):
    # h = 5 ms and the wall at 0.2 rad, as in pulse_edge_inside_contact: a
    # pulse that lasts about 0.3 s presses the slave into the wall, so edges
    # fall in free flight, in contact, on a grid row, or both in one substep
    # (a length of 0 substeps and a fraction)
    h = 0.005
    edges = sorted([(start[0] + start[1]) * h, (start[0] + length[0] + length[1]) * h])
    sc = _short(
        reference_scenario,
        wall=WallModel(position=0.2),
        channel=dataclasses.replace(reference_scenario.channel, T=0.02, eps_min=0.02),
        integrator_substeps=4,
        duration=1.5,
        operator_force=OperatorForce(*edges, 20.0),
    )
    got = run_scenario(sc, seed=0)
    _assert_matches_the_oracle(got, stagewise_run_scenario(sc, seed=0), edges)


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


_SIGNAL = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@given(
    q=_SIGNAL, dq=_SIGNAL, qr=_SIGNAL, dqr=_SIGNAL,
    limit=st.floats(0.0, 1e4) | st.just(math.inf),
)
@example(q=1.0, dq=0.0, qr=0.0, dqr=0.0, limit=1.0)  # the law's value is the limit
@example(q=0.0, dq=0.0, qr=0.0, dqr=0.0, limit=0.0)
def test_held_torque_is_the_clamped_law(q, dq, qr, dqr, limit):
    # the run builds the law once, clipped at the actuator's limit; its
    # torque is _saturate of control_continuous bit for bit, a NaN included
    g = ControllerGains(kp=1.0, kv=10.0, kd=2.0, p_eps=0.002)
    got = control._control_law(g, limit)((q, dq), (qr, dqr))
    want = sim._saturate(control_continuous(g, (q, dq), (qr, dqr)), limit)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


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


@pytest.mark.parametrize("noise_std", [0.0, 0.01])
@pytest.mark.parametrize("n", [127, 128, 129, 300])
def test_sensor_stream_matches_one_draw_at_a_time(n, noise_std):
    # the pipeline draws its normals 256 at a time, a block of 128 samples,
    # and takes them in (x, v) pairs: drawn one scalar at a time, noise,
    # encoder floor and filter give the same bits on either side of a block
    T = 0.001
    cfg = NonidealityConfig(noise_std=noise_std)
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, n)
    v = rng.uniform(-5.0, 5.0, n)
    got_x, got_v = apply_nonidealities(x, v, cfg, rng_seed=[7, 1], T=T)
    draws = np.random.default_rng([7, 1])
    pole = math.exp(-2.0 * math.pi * cfg.velocity_filter_cutoff * T)
    lag = 0.0
    want_x, want_v = [], []
    for xi, vi in zip(x.tolist(), v.tolist()):
        if noise_std > 0.0:
            xi = xi + noise_std * draws.standard_normal()
            vi = vi + noise_std * draws.standard_normal()
        want_x.append(math.floor(xi / cfg.encoder_step) * cfg.encoder_step)
        lag = pole * lag + (1.0 - pole) * vi
        want_v.append(lag)
    assert got_x.tobytes() == np.array(want_x).tobytes()
    assert got_v.tobytes() == np.array(want_v).tobytes()


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


@pytest.mark.parametrize(
    "case", ["reference", "wall_entry_exit", "continuous", "diverging"]
)
def test_trace_forces_match_the_row_formulas(reference_scenario, case):
    # F_h and F_e are derived from the state columns after the loop; they
    # must carry the bits the per-row formulas give, signed zeros included
    sc, seed, mode = _pinned_cases(reference_scenario)[case]
    tr = run_scenario(sc, seed=seed, controller_mode=mode)
    f_h, f_e = trace_row_forces(tr, sc)
    assert np.array_equal(tr.f_h.view(np.uint64), f_h.view(np.uint64))
    assert np.array_equal(tr.f_e.view(np.uint64), f_e.view(np.uint64))


@pytest.mark.parametrize("case", ["continuous", "wall_entry_exit_continuous", "clamped"])
def test_continuous_mode_holds_the_law_of_each_rows_true_state(reference_scenario, case):
    # continuous mode samples the true state on every row and holds it on
    # both sides at once: row j's torques are the clamped law of row j's
    # state, and the last row, which starts no substep, repeats the one
    # before.  "clamped" pushes the master through the actuator limit
    if case == "clamped":
        sc = _short(
            reference_scenario,
            nonidealities=NonidealityConfig(),
            operator_force=OperatorForce(0.2, 1.0, 100.0),
        )
    else:
        sc = _pinned_cases(reference_scenario)[case][0]
    tr = run_scenario(sc, seed=0, controller_mode="continuous")
    cfg = sc.nonidealities

    def held(own, remote):
        f = control_continuous(sc.gains, own, remote)
        return f if cfg is None else clamp_force(f, cfg)

    rows = list(zip(tr.x_m.tolist(), tr.v_m.tolist(), tr.x_s.tolist(), tr.v_s.tolist()))[:-1]
    f_m = np.array([held((xm, vm), (xs, vs)) for xm, vm, xs, vs in rows])
    f_s = np.array([held((xs, vs), (xm, vm)) for xm, vm, xs, vs in rows])
    if case == "clamped":
        assert (np.abs(f_m) == clamp_force(math.inf, cfg)).any()
    for got, want in ((tr.f_m, f_m), (tr.f_s, f_s)):
        assert np.array_equal(got[:-1].view(np.uint64), want.view(np.uint64))
        assert got[-1:].view(np.uint64) == got[-2:-1].view(np.uint64)


def test_trace_budget_checked_before_allocation(reference_scenario, monkeypatch):
    # 0.06 s at T = 6 ms, 10 substeps: 101 rows of nine float64 columns,
    # and the propagator's tables for 10 substeps
    sc = _short(
        reference_scenario, duration=0.06, operator_force=OperatorForce(0.0, 0.0)
    )
    need = 9 * 8 * 101 + _rk4._TABLE_BYTES_PER_SUBSTEP * 10
    monkeypatch.setattr(sim, "TRACE_BUDGET_BYTES", need)
    assert len(run_scenario(sc).t) == 101
    monkeypatch.setattr(sim, "TRACE_BUDGET_BYTES", need - 1)
    with pytest.raises(ValueError, match="budget"):
        run_scenario(sc)
    monkeypatch.undo()
    # one period of 3 M substeps: its trace is 216 MB, but the tables of
    # its substeps would take over 2 GB more; rejected before allocating
    fine = dataclasses.replace(sc, duration=0.006, integrator_substeps=3_000_000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            run_scenario(fine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
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


_COLUMNS = ("t", "x_m", "v_m", "x_s", "v_s", "f_m", "f_s", "f_h", "f_e")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    d1=st.integers(0, 3),
    d2=st.integers(0, 3),
    jitter=st.booleans(),
    noise=st.none() | st.floats(0.0, 0.05),
)
def test_run_determinism_and_hold_timing_property(
    reference_scenario, seed, d1, d2, jitter, noise
):
    T = reference_scenario.channel.T
    ch = dataclasses.replace(reference_scenario.channel, d1=d1, d2=d2, eps_min=T / 2)
    sc = _short(
        reference_scenario,
        channel=ch,
        duration=0.3,
        integrator_substeps=4,
        operator_force=OperatorForce(0.05, 0.2, 5.0),
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
        assert np.array_equal(holds, a.sample_events[:n] + delay * T)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    d1=st.integers(0, 3),
    d2=st.integers(0, 3),
    jitter=st.booleans(),
    noise=st.none() | st.floats(0.0, 0.05),
    substeps=st.sampled_from([4, 200]),
)
def test_event_schedule_matches_the_stagewise_oracle(
    reference_scenario, seed, d1, d2, jitter, noise, substeps
):
    # the drawn scenarios of test_run_determinism_and_hold_timing_property,
    # with the wall close enough that the pulse presses the slave into it:
    # the schedule's samples and holds are the oracle's row for row, and
    # the runs between them, jumped or stepped, agree to rounding.  At 200
    # substeps a window of the schedule holds 20 samples, so the 50 or more
    # samples span three windows or more, and holds cross their edges
    T = reference_scenario.channel.T
    ch = dataclasses.replace(reference_scenario.channel, d1=d1, d2=d2, eps_min=T / 2)
    sc = _short(
        reference_scenario,
        channel=ch,
        duration=0.3,
        integrator_substeps=substeps,
        operator_force=OperatorForce(0.05, 0.2, 5.0),
        jitter_sampling=jitter,
        nonidealities=None if noise is None else NonidealityConfig(noise_std=noise),
        wall=WallModel(position=0.02),
    )
    want = stagewise_run_scenario(sc, seed=seed)
    assert (want.x_s > 0.02).any()
    got = run_scenario(sc, seed=seed)
    _assert_matches_the_oracle(got, want, (seed, d1, d2, jitter, noise, substeps))


def test_sample_bookkeeping_memory_is_bounded(reference_scenario):
    # a fine period makes samples dense; only the packets still in flight and
    # the three event arrays may grow with the run, not every measurement.
    # Periodic sampling with equal delays, then jittered intervals drawn as
    # the schedule needs them, with unequal delays that put each side's
    # holds on rows of their own
    T = 1e-3
    for jitter, d1, d2 in ((False, 2, 2), (True, 1, 3)):
        ch = dataclasses.replace(
            reference_scenario.channel, T=T, eps_min=T / 2 if jitter else T, d1=d1, d2=d2
        )
        sc = _short(
            reference_scenario,
            channel=ch,
            duration=1.0,
            integrator_substeps=4,
            operator_force=OperatorForce(0.1, 0.5, 5.0),
            nonidealities=NonidealityConfig(noise_std=0.001),
            jitter_sampling=jitter,
        )

        def run_peak(mode):
            tracemalloc.start()
            try:
                tr = run_scenario(sc, seed=0, controller_mode=mode)
                return tr, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        tr, peak = run_peak("sampled")
        n_samples = len(tr.sample_events)
        if jitter:  # intervals between T/2 and T
            assert 1000 < n_samples <= 2000
        else:
            assert n_samples == 1000
        extra_per_sample = (peak - 9 * 8 * len(tr.t)) / n_samples
        # three float64 event arrays are 24 B a sample; keeping every
        # measurement and instant cost about 370 B a sample
        assert extra_per_sample < 150.0, (jitter, extra_per_sample)
        # continuous mode holds anew on every row, so it may keep nothing per
        # hold beyond the row's own torques: a (row, torque) record per hold
        # and side would add 32 B a row
        tr, peak = run_peak("continuous")
        assert (peak - 9 * 8 * len(tr.t)) / len(tr.t) < 8.0


def test_scenario_validation():
    sc = load_scenario(SCENARIO_FILE)
    with pytest.raises(ValueError):
        dataclasses.replace(sc, duration=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(sc, integrator_substeps=3)
    with pytest.raises(ValueError):
        dataclasses.replace(sc, duration=15.0)  # force window ends at 20
    with pytest.raises(ValueError):
        # jitter draws need room below T on the substep grid
        dataclasses.replace(
            sc,
            jitter_sampling=True,
            channel=dataclasses.replace(sc.channel, eps_min=1e-5),
        )


# a valid instance of each model class; SimScenario's is the reference
_VALID_MODELS = (
    RobotParams(mass=0.5, damping=1.0),
    ImpedanceModel(mass=0.1, damping=0.2, stiffness=3.0),
    WallModel(position=4.0),
    ControllerGains(kp=1.0, kv=10.0, kd=2.0, p_eps=0.002),
    ChannelConfig(T=0.006, d1=0, d2=0, eps_min=0.006),
    NonidealityConfig(),
    OperatorForce(start=1.0, stop=2.0),
    RunSettings(),
    SimScenario,
)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "model, name",
    [(m, f.name) for m in _VALID_MODELS for f in dataclasses.fields(m) if f.type == "float"],
    ids=lambda x: x if isinstance(x, str) else getattr(x, "__name__", type(x).__name__),
)
def test_model_fields_reject_non_finite_values(reference_scenario, model, name, value):
    # the one check of a scenario's values, for the file format too, as the
    # parser only converts text: a NaN or infinite field is refused where
    # the model is built, not read as a run that diverges, never moves or
    # never meets its wall
    valid = reference_scenario if model is SimScenario else model
    if isinstance(valid, WallModel) and name == "position" and value == math.inf:
        # +inf is the wall that is never engaged
        assert dataclasses.replace(valid, position=value).position == math.inf
        return
    with pytest.raises(ValueError):
        dataclasses.replace(valid, **{name: value})


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


def _row_mask_verdict(trace, run=RunSettings()):
    # verdict as it read every trace: a finiteness mask over all the rows
    finite_rows = np.ones(len(trace.t), dtype=bool)
    for name in ("x_m", "v_m", "x_s", "v_s", "f_m", "f_s", "f_h", "f_e"):
        finite_rows &= np.isfinite(getattr(trace, name))
    n_ok = len(trace.t) if finite_rows.all() else int(np.argmin(finite_rows))
    div_time = trace.divergence_time if finite_rows.all() else float(trace.t[n_ok])
    if n_ok == 0:
        return sim.SimVerdict(False, math.inf, False, math.inf, div_time)
    t_ok = trace.t[:n_ok]
    settle = int(np.searchsorted(t_ok, t_ok[-1] - run.settle_window))
    max_abs = float(np.max(np.abs(np.concatenate([trace.x_m[:n_ok], trace.x_s[:n_ok]]))))
    vmax = float(np.max(np.abs(np.concatenate([trace.v_m[settle:n_ok], trace.v_s[settle:n_ok]]))))
    diverged = div_time is not None
    return sim.SimVerdict(
        (not diverged) and max_abs <= run.position_bound, max_abs,
        (not diverged) and vmax < run.settle_tol, vmax, div_time,
    )


def test_verdict_matches_the_row_mask(reference_scenario):
    # verdict tests each column whole and masks rows only when one holds a
    # non-finite value: the verdicts are the row mask's, for a finite run, a
    # diverged one, and a NaN or inf put into each column at a time
    finite = run_scenario(_short(reference_scenario, duration=6.0), seed=0)
    ch = dataclasses.replace(reference_scenario.channel, T=0.2, eps_min=0.2)
    stiff = ControllerGains(kp=1e6, kv=0.1, kd=0.2, p_eps=0.002)
    diverged = run_scenario(_short(reference_scenario, channel=ch, duration=20.0, gains=stiff))
    assert diverged.divergence_time is not None
    traces = [finite, diverged]
    for k, name in enumerate(_COLUMNS[1:]):
        for row, bad in ((0, math.nan), (len(finite.t) // (k + 2), math.inf), (-1, -math.inf)):
            col = getattr(finite, name).copy()
            col[row] = bad
            traces.append(dataclasses.replace(finite, **{name: col}))
    for tr in traces:
        for run in (RunSettings(), RunSettings(settle_window=0.5, settle_tol=1.0)):
            assert verdict(tr, run) == _row_mask_verdict(tr, run)


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
    v = verdict(tr, RunSettings(position_bound=10.0))
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


def test_divergence_inside_a_run_of_plain_substeps(reference_scenario, caplog):
    # a stiff operator spring makes RK4 unstable at h = 6e-4 s: the master's
    # state grows every substep from the pulse on and overflows between two
    # samples, so the run's end state is non-finite and the trace must end at
    # the first non-finite row inside that run
    human = ImpedanceModel(mass=0.0, damping=1.0, stiffness=1e8)
    with caplog.at_level(logging.WARNING, logger="teleopstab"):
        tr = run_scenario(_short(reference_scenario, human=human), seed=0)
    # the run warns once, for the master's mode only: RK4's growth factor
    # there exceeds 1 though the mode decays
    (record,) = caplog.records
    assert record.name == "teleopstab" and record.levelno == logging.WARNING
    message = record.getMessage()
    assert "master with the operator" in message and "h = 0.0006 s" in message
    nsub = round(reference_scenario.channel.T / tr.substep)
    last = len(tr.t) - 1
    # the run holding the divergence started at a sample row before last - 1
    assert last % nsub >= 2
    state = np.column_stack([tr.x_m, tr.v_m, tr.x_s, tr.v_s])
    assert np.isfinite(state[:-1]).all()
    assert not np.isfinite(state[-1]).all()
    assert tr.divergence_time == tr.t[-1]


@pytest.mark.parametrize(
    "part, change",
    [("master", RobotParams(mass=1e-300, damping=1.0)), ("human", ImpedanceModel(damping=1e300))],
    ids=["master_mass", "human_damping"],
)
def test_rk4_warning_counts_an_overflowing_mode(reference_scenario, caplog, part, change):
    # the master's mode is so fast that R(h*lambda) overflows to a NaN, and
    # its transition maps overflow too: the mode counts as amplified, and the
    # overflow raises no numpy warning (the suite turns warnings into errors)
    sc = _short(
        reference_scenario,
        duration=1.0,
        operator_force=OperatorForce(0.2, 0.5, 50.0),
        **{part: change},
    )
    with caplog.at_level(logging.WARNING, logger="teleopstab"):
        tr = run_scenario(sc, seed=0)
    (record,) = caplog.records
    assert record.name == "teleopstab" and record.levelno == logging.WARNING
    assert "master with the operator" in record.getMessage()
    assert tr.divergence_time is not None


def test_table_memory_is_within_the_budget(reference_scenario):
    # at rest every run is one period-long jump, so beyond the trace the run
    # takes the propagator's tables and the fill of the jumped rows, which
    # the budget charges at _TABLE_BYTES_PER_SUBSTEP a substep of a period
    nsub = 5_000
    for periods in (1, 3):
        sc = _short(
            reference_scenario,
            duration=periods * reference_scenario.channel.T,
            integrator_substeps=nsub,
            operator_force=OperatorForce(0.0, 0.0),
        )
        tracemalloc.start()
        try:
            tr = run_scenario(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - 9 * 8 * len(tr.t)) / nsub <= _rk4._TABLE_BYTES_PER_SUBSTEP, periods
    # the fill writes a long run's inner rows a block of _FILL_ROWS rows at
    # a time, so its temporaries stay a few tens of KiB however long the
    # run; all its rows at once took about 190 B a row
    k = 100_000
    columns = [np.zeros(k + 1) for _ in sim._TRACE_COLUMNS]
    columns[1][0] = 1.0  # x_m on the run's first row
    columns[1][1:k] = np.nan  # the inner rows, which advance did not reach
    tables = np.ones((10, k + 1))
    tracemalloc.start()
    try:
        start = 0
        for a in range(0, k, _rk4._FILL_ROWS):
            b = min(a + _rk4._FILL_ROWS, k)
            start = _rk4._fill_jumps(columns, tables, (0, 0, 0.0), a, b, start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**18
    assert start == 0
    assert (columns[1][1:k] == 1.0).all()  # every inner row written


def test_held_torque_fill_memory_is_within_the_budget(reference_scenario):
    # at 5 000 substeps a period, 128 holds span 640 000 rows: the
    # propagator writes the held torques as it goes, and its fill works a
    # block of _FILL_ROWS rows at a time, so a 1 s run at rest stays within
    # the tables' charge beyond its trace (filling 128 holds a pass once
    # peaked at 7.47 MB against the 3.60 MB charged)
    nsub = 5_000
    sc = _short(
        reference_scenario,
        duration=1.0,
        integrator_substeps=nsub,
        operator_force=OperatorForce(0.0, 0.0),
    )
    tracemalloc.start()
    try:
        tr = run_scenario(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tr.t) == 835_001
    assert peak - 9 * 8 * len(tr.t) <= _rk4._TABLE_BYTES_PER_SUBSTEP * nsub


def _jumped_columns(ks, rng):
    # trace columns whose runs of ks substeps were each jumped: the rows
    # advance reached, each run's first row and the last run's end row,
    # hold their state, F_m and F_s; the inner rows, and F_h and F_e, are
    # unwritten NaN, and a NaN x_m is what tells an unreached row
    starts = np.concatenate([[0], np.cumsum(ks)])
    n = int(sum(ks)) + 1
    columns = [np.full(n, np.nan) for _ in sim._TRACE_COLUMNS]
    for c in (1, 2, 3, 4, 5, 6):
        columns[c][starts] = rng.uniform(-1.0, 1.0, len(starts))
    return columns, starts[:-1]


def test_fill_bits_do_not_depend_on_the_pass_size(monkeypatch, reference_scenario):
    # runs of mixed length, k = 1 included, cross the block boundaries of
    # 1, 7 and the default size, and so does the pulse; each inner row is
    # the row formula of its run's start, with the master's input that
    # advance forms there, and holds its start's torques, bit for bit, at
    # every size; F_h and F_e are left to the forces
    rng = np.random.default_rng(3)
    ks = [2, 1, 9, 3, 1, 1, 20, 5, 2, 7, 8, 1, 13] * 30
    assert sum(ks) > _rk4._FILL_ROWS
    pulse = on, off, f_mag = 500, 2100, 5.0
    tables = rng.uniform(-2.0, 2.0, (10, max(ks) + 1))
    base, starts = _jumped_columns(ks, rng)
    want = [c.copy() for c in base]
    p00, p10, p01, p11, q0, q1, r01, r11, r0, r1 = tables.tolist()
    x_m, v_m, x_s, v_s, f_m, f_s = (want[c] for c in (1, 2, 3, 4, 5, 6))
    for j, k in zip(starts.tolist(), ks):
        u_m = (f_mag if on <= j < off else 0.0) + f_m[j]
        for i in range(1, k):
            x_m[j + i] = p00[i] * x_m[j] + p01[i] * v_m[j] + q0[i] * u_m
            v_m[j + i] = p10[i] * x_m[j] + p11[i] * v_m[j] + q1[i] * u_m
            x_s[j + i] = x_s[j] + r01[i] * v_s[j] + r0[i] * f_s[j]
            v_s[j + i] = r11[i] * v_s[j] + r1[i] * f_s[j]
            f_m[j + i] = f_m[j]
            f_s[j + i] = f_s[j]
    last = len(base[0]) - 1
    for size in (1, 7, _rk4._FILL_ROWS):
        monkeypatch.setattr(_rk4, "_FILL_ROWS", size)
        got = [c.copy() for c in base]
        start = 0
        for a in range(0, last, size):
            start = _rk4._fill_jumps(got, tables, pulse, a, min(a + size, last), start)
        assert start == starts[-1]  # the last run's first row
        for c in range(9):
            assert got[c].tobytes() == want[c].tobytes(), (size, c)
    # and whole runs, where every block of the fill, which writes the jumped
    # rows and the forces, and so every pass of _fill_jumps, is of the
    # patched size
    sc, seed, _ = _pinned_cases(reference_scenario)["pulse_edge_inside_jittered_run"]
    traces = []
    for size in (1, 7, _rk4._FILL_ROWS):
        monkeypatch.setattr(_rk4, "_FILL_ROWS", size)
        traces.append(run_scenario(sc, seed=seed))
    for tr in traces[1:]:
        assert _trace_digest(tr) == _trace_digest(traces[0])


def test_side_with_no_hold_keeps_the_startup_latch(reference_scenario):
    # packets land two periods after their sample, so a run of one period
    # ends before either side's first hold; the pulse moves the master, yet
    # both torques stay at the latch taken from the zero initial state.  A
    # delay of 1e20 periods, whose rows no int64 holds, delivers nothing
    # either, and gives the same trace
    traces = []
    for d in (2, 10**20):
        ch = dataclasses.replace(reference_scenario.channel, d1=d, d2=d)
        sc = _short(
            reference_scenario,
            channel=ch,
            duration=ch.T,
            operator_force=OperatorForce(0.001, 0.004, 5.0),
        )
        tr = run_scenario(sc, seed=0)
        assert tr.x_m[-1] != 0.0
        latch = control_continuous(sc.gains, (0.0, 0.0), (0.0, 0.0))
        for col in (tr.f_m, tr.f_s):
            assert col.tobytes() == np.full(len(tr.t), latch).tobytes()
        assert len(tr.hold_events_m) == 0
        assert len(tr.hold_events_s) == 0
        traces.append(tr)
    for name in _COLUMNS + ("sample_events",):
        assert getattr(traces[0], name).tobytes() == getattr(traces[1], name).tobytes(), name


_MASS = st.floats(0.1, 3.0)
_DAMPING = st.floats(0.1, 10.0)
_STIFFNESS = st.floats(0.0, 1e3)
_SUBSTEP = st.floats(1e-5, 1e-2)
_STATE = st.floats(-10.0, 10.0)
_FORCE = st.floats(-100.0, 100.0)


def _robots(sc, m, b, k, wall=math.inf):
    """sc with both robots (m, b), an operator spring k and the wall at ``wall``."""
    robot = RobotParams(mass=m, damping=b)
    return dataclasses.replace(
        sc, master=robot, slave=robot, human=ImpedanceModel(stiffness=k),
        wall=WallModel(position=wall),
    )


def _abs_rk4_map(a, b, h):
    """RK4's (M, N) at width h with every term of its series taken in
    absolute value: each product and sum either evaluation order forms is
    bounded by these entries times |y| and |u|."""
    z = np.abs(h * np.asarray(a))
    eye = np.eye(2)
    s = eye + z / 2 + z @ z / 6 + z @ z @ z / 24
    return eye + z @ s, h * s @ np.abs(b)


def _slave_reach(slave, h, runs):
    """_slave_run_reach of the free slave's blocks, read off its k-step maps
    for k = 0 .. runs as the propagator reads its tables."""
    rows = _rk4._rk4_runs(*_rk4._rk4_map(*slave, h), runs)
    return _rk4._slave_run_reach(*slave, h, ((p01, p11, q0, q1) for _, p01, _, p11, q0, q1 in rows))


@settings(max_examples=300, deadline=None)
@given(
    m=_MASS, b=_DAMPING, k=_STIFFNESS, h=_SUBSTEP,
    state=st.tuples(_STATE, _STATE, _STATE, _STATE),
    forces=st.tuples(_FORCE, _FORCE, _FORCE),
)
# the slave's position differs by one subnormal, 5e-324, where the relative
# term of the bound underflows to 0.0
@example(
    m=0.5, b=0.5, k=0.0, h=2**-7, state=(0.0, 0.0, 0.0, -1.11e-308), forces=(0.0, 0.0, 2.23e-308)
)
def test_one_map_step_is_one_rk4_step(reference_scenario, m, b, k, h, state, forces):
    # the map and the oracle's four stages evaluate the same polynomial in
    # h*A in different orders, so they differ by rounding only: at most 64
    # ulps of the series with every term made positive, and as many of the
    # smallest subnormal, the rounding unit below the normal range
    sc = _robots(reference_scenario, m, b, k)
    xm, vm, xs, vs = state
    fstar, fm, fs = forces
    staged = stage_rk4(sc)(xm, vm, xs, vs, h, fstar, fm, fs)
    # the simulator's slave stages are the oracle's slave half, bit for bit
    assert _rk4._stage_rk4(sc)(xs, vs, h, fs) == staged[2:]
    sides = (
        (plants._robot_blocks(sc.master, sc.human), (xm, vm), fstar + fm, abs(fstar) + abs(fm)),
        (plants._robot_blocks(sc.slave, FREE), (xs, vs), fs, abs(fs)),
    )
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    for side, ((a, bb), y, u, u_abs) in enumerate(sides):
        mm, nn = _rk4._rk4_map(a, bb, h)
        mapped = [row[0] * y[0] + row[1] * y[1] + n * u for row, n in zip(mm, nn)]
        m_abs, n_abs = _abs_rk4_map(a, bb, h)
        bound = 64 * (eps * (m_abs @ np.abs(y) + n_abs * u_abs) + tiny)
        assert np.all(np.abs(np.subtract(mapped, staged[2 * side : 2 * side + 2])) <= bound)


def _free_stages(m, b, h, xs, vs, fs):
    """The four stage positions of one RK4 substep of the slave short of the
    wall, as rk4 forms them (the wall's reaction being 0.0 there)."""
    inv_ms = 1.0 / m
    h2 = 0.5 * h
    k1u = (-0.0 - b * vs + fs) * inv_ms
    v2s = vs + h2 * k1u
    k2u = (-0.0 - b * v2s + fs) * inv_ms
    v3s = vs + h2 * k2u
    return xs, xs + h2 * vs, xs + h2 * v2s, xs + h * v3s


@settings(max_examples=300, deadline=None)
@given(
    m=_MASS, b=_DAMPING, h=_SUBSTEP, xs=_STATE, vs=st.floats(-100.0, 100.0), fs=_FORCE,
    gap=st.floats(0.0, 3.0),
)
def test_wall_bound_keeps_every_rk4_stage_short_of_the_wall(
    reference_scenario, m, b, h, xs, vs, fs, gap
):
    # a wall placed near the bound's reach; wherever the bound admits the
    # substep, each stage position (as rk4 forms it, the wall's reaction
    # being 0.0 short of it) and the end position stay at or short of it
    slave = plants._robot_blocks(RobotParams(mass=m, damping=b), FREE)
    (_, reach_v, _), (_, reach_f, _), _ = _slave_reach(slave, h, 1)
    x_wall = xs + gap * (reach_v * abs(vs) + reach_f * abs(fs))
    assume(xs + reach_v * abs(vs) <= x_wall - reach_f * abs(fs))
    assert max(_free_stages(m, b, h, xs, vs, fs)) <= x_wall
    # the wall never engaged: rk4 gives the bits it gives with no wall
    walled = _rk4._stage_rk4(_robots(reference_scenario, m, b, 0.0, wall=x_wall))
    free = _rk4._stage_rk4(_robots(reference_scenario, m, b, 0.0))
    end = walled(xs, vs, h, fs)
    assert end == free(xs, vs, h, fs)
    assert end[0] <= x_wall


@settings(max_examples=300, deadline=None)
@given(
    m=_MASS, b=_DAMPING, h=_SUBSTEP, k=st.integers(1, 16), xs=_STATE,
    vs=st.floats(-100.0, 100.0), fs=_FORCE, gap=st.floats(0.0, 3.0),
)
# each of the 16 substeps moves the slave by 0.55 ulp of x_s and rounds up a
# whole ulp: without the c_x term a stage ends a few ulps past the wall
@example(m=1.0, b=0.1, h=1e-2, k=16, xs=4.0, vs=0.55 * math.ulp(4.0) / 1e-2, fs=0.0, gap=1.0)
def test_run_bound_keeps_every_rk4_stage_of_the_run_short_of_the_wall(
    reference_scenario, m, b, h, k, xs, vs, fs, gap
):
    # the loop jumps a run of k substeps when x_s + c_x[k]*|x_s| +
    # c_v[k]*|v_s| <= x_wall - c_f[k]*|F_s|; with a wall placed near that
    # reach, wherever the test admits the run, every stage and end position
    # of each substep, stepped one at a time by the oracle's stages, stays
    # at or short of the wall
    slave = plants._robot_blocks(RobotParams(mass=m, damping=b), FREE)
    run_v, run_f, run_x = _slave_reach(slave, h, 16)
    # Python floats, which the loop's reach test takes faster than numpy's
    assert all(type(c) is float for c in (*run_v[1:], *run_f[1:]))
    # at k = 1 the bound is the one-substep closed form c_v = 2h/(1 - h*c),
    # c_f = c_v*h*beta, and inf from h*c = 1 on (h = 1e-2, c = 100)
    hc = h * -slave[0][1, 1]
    if hc < 1.0:
        assert run_v[1] == 2.0 * h / (1.0 - hc)
        assert run_f[1] == run_v[1] * h * slave[1][1]
    else:
        assert run_v[1] == run_f[1] == math.inf
    x_wall = xs + gap * (run_x[k] * abs(xs) + run_v[k] * abs(vs) + run_f[k] * abs(fs))
    assume(xs + run_x[k] * abs(xs) + run_v[k] * abs(vs) <= x_wall - run_f[k] * abs(fs))
    walled = stage_rk4(_robots(reference_scenario, m, b, 0.0, wall=x_wall))
    free = stage_rk4(_robots(reference_scenario, m, b, 0.0))
    x, v = xs, vs
    for _ in range(k):
        assert max(_free_stages(m, b, h, x, v, fs)) <= x_wall
        # the wall never engaged: the oracle's bits with no wall
        end = walled(0.0, 0.0, x, v, h, 0.0, 0.0, fs)
        assert end == free(0.0, 0.0, x, v, h, 0.0, 0.0, fs)
        x, v = end[2:]
        assert x <= x_wall


@settings(max_examples=200, deadline=None)
@given(
    m=_MASS, b=_DAMPING, k=_STIFFNESS, h=_SUBSTEP,
    state=st.tuples(_STATE, _STATE), u=_FORCE,
)
# a subnormal start velocity: the master's |M| has an entry of 63, so the
# subnormal roundings carried through it reach 129 of the smallest
# subnormal at step 8, past the 128 that 16*steps of them allowed
@example(m=0.125, b=0.25, k=934.0, h=0.0078125, state=(0.0, 2.225073858507e-311), u=0.0)
def test_k_step_tables_are_k_map_steps(reference_scenario, m, b, k, h, state, u):
    # one jump P_k y + Q_k u against k steps of the map, for each robot: the
    # same series in another order, so they differ by rounding only.  A
    # rounding is relative, at most eps/2 of its result, where the result
    # is normal, and absolute, at most half the smallest subnormal, where it
    # is subnormal.  The relative roundings stay within 16*k ulps of the
    # k-step series with every term made positive.  A map step forms each
    # entry by three products and two sums, which add at most 5/2 of the
    # smallest subnormal to it; later steps carry that error through |M|,
    # so after k steps the map is off by 5/2 of it times s_k = sum_{i<k}
    # |M|^i 1, and the jump, one such step, by 5/2 of it.  Half of it more
    # on each side covers the bound's own underflow: as s_k + 1 >= 2, a
    # bound of 3*(s_k + 1) of the smallest subnormal.  A one-step jump is
    # the map step bit for bit
    sc = _robots(reference_scenario, m, b, k)
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    for a, bb in (plants._robot_blocks(sc.master, sc.human), plants._robot_blocks(sc.slave, FREE)):
        mm, nn = _rk4._rk4_map(a, bb, h)
        tables = list(_rk4._rk4_runs(mm, nn, 16))
        assert tables[0] == (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        (m00, m01), (m10, m11) = mm
        n0, n1 = nn
        m_abs, n_abs = _abs_rk4_map(a, bb, h)
        a_k, b_k, s_k = np.eye(2), np.zeros(2), np.zeros(2)
        x, v = state
        for steps, (p00, p01, p10, p11, q0, q1) in enumerate(tables[1:], 1):
            x, v = m00 * x + m01 * v + n0 * u, m10 * x + m11 * v + n1 * u
            a_k, b_k, s_k = m_abs @ a_k, m_abs @ b_k + n_abs, m_abs @ s_k + 1.0
            jump = (p00 * state[0] + p01 * state[1] + q0 * u, p10 * state[0] + p11 * state[1] + q1 * u)
            if steps == 1:
                assert jump == (x, v)
            bound = 16 * steps * eps * (a_k @ np.abs(state) + b_k * abs(u)) + 3 * tiny * (s_k + 1.0)
            assert np.all(np.abs(np.subtract(jump, (x, v))) <= bound), steps
    # the free slave's first column stays (1, 0) exactly, which the loop's
    # slave jump x_s + p01*v_s + q0*F_s takes for granted
    assert all(t[0] == 1.0 and t[2] == 0.0 for t in tables)


@settings(max_examples=100, deadline=None)
@given(m_s=_MASS, b_s=_DAMPING)
def test_rk4_constants_are_the_blocks(reference_scenario, m_s, b_s):
    sc = dataclasses.replace(reference_scenario, slave=RobotParams(mass=m_s, damping=b_s))
    # the constants the slave's rk4 evaluates its stages with, read from its
    # closure; the master has none, as it steps only by its blocks' maps
    rk4 = _rk4._stage_rk4(sc)
    hoisted = dict(zip(rk4.__code__.co_freevars, (c.cell_contents for c in rk4.__closure__)))
    a_s, b_sv = plants._robot_blocks(sc.slave, FREE)
    assert b_sv[1] == hoisted["inv_ms"]
    assert a_s[1, 0] == 0.0
    assert a_s[1, 1] == -(hoisted["b_s"] * hoisted["inv_ms"])
    assert a_s[0].tolist() == [0.0, 1.0] and b_sv[0] == 0.0


def _package_trees():
    """The parsed source of each module of the package, by module name."""
    folder = os.path.dirname(sim.__file__)
    trees = {}
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                trees[name[:-3]] = ast.parse(fh.read())
    return trees


def _names(tree):
    """Every name a module defines, binds, reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            yield node.asname


def _imports(tree):
    """(module, name) for each import of a module, the package's modules
    named without the package; name is None where a module is imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("teleopstab").lstrip(".")
            for alias in node.names:
                yield (module, alias.name) if module else (alias.name, None)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.removeprefix("teleopstab."), None


def test_rk4_helpers_live_in_one_module_and_the_writers_stand_alone():
    # replacing RK4 is a change to _rk4 alone: no other module defines or
    # names its helpers, and sim reaches it only through the propagator and
    # the constant it charges the tables by.  sim leaves the forces to the
    # propagator's fill, so it never names the wall law.  _g17, the
    # writers' module, imports nothing from the simulator
    trees = _package_trees()
    helper = re.compile(r"_rk4_\w+|_stage_rk4|_slave_run_reach|_pulse_rows|_fill_jumps")
    named = {mod: {n for n in _names(t) if n and helper.fullmatch(n)} for mod, t in trees.items()}
    assert {"_rk4_map", "_rk4_gain", "_rk4_runs", "_stage_rk4", "_fill_jumps"} <= named.pop("_rk4")
    assert not any(named.values()), named
    from_rk4 = {name for mod, name in _imports(trees["sim"]) if mod == "_rk4"}
    assert from_rk4 == {"_propagator", "_TABLE_BYTES_PER_SUBSTEP"}
    assert "wall_force" not in set(_names(trees["sim"]))
    assert not {mod for mod, _ in _imports(trees["_g17"])} & {"sim", "_rk4"}


def _propagated(sc, start, state, forces, stops):
    """(end state, state rows from ``start`` on, torque rows (F_m, F_s) from
    ``start`` on, whether the first run jumped): ``sc``'s propagator
    advances ``state`` from row ``start`` through the runs that end on
    ``stops`` at the held torques ``forces`` (F_m, F_s), then fills every
    row up to the last stop."""
    columns = [np.zeros(stops[-1] + 1) for _ in _COLUMNS]
    advance, fill = _rk4._propagator(sc, sc.channel.T / sc.integrator_substeps, columns)
    for col, y in zip(columns[1:5], state):
        col[start] = y
    columns[1][:start] = 0.0  # rows that earlier runs reached
    j = start
    for stop in stops:
        state = advance(j, stop, *state, *forces)
        j = stop
    jumped = np.isnan(columns[1][start + 1])  # a row advance did not reach
    fill(stops[-1] + 1)
    rows = np.array([c[start:] for c in columns[1:5]])
    return np.array(state), rows, np.array([c[start:] for c in columns[5:7]]), jumped


@settings(max_examples=100, deadline=None)
@given(
    case=st.sampled_from(["free", "contact", "edge"]),
    start=st.integers(1, 60),
    k=st.integers(2, 40),
    split=st.integers(0, 38),
    edge=st.floats(0.0, 1.0, exclude_max=True),
    state=st.tuples(
        st.floats(-0.5, 0.5), st.floats(-5.0, 5.0), st.floats(1e-3, 0.05), st.floats(-5.0, 5.0)
    ),
    forces=st.tuples(st.floats(-10.0, 10.0), st.floats(0.0, 50.0)),
)
def test_splitting_a_run_moves_the_propagated_state_by_rounding(
    reference_scenario, case, start, k, split, edge, state, forces
):
    # the propagator's contract, which an exact propagator must keep too:
    # substeps start .. start + k - 1 taken in one call, or in two split at
    # an inner row, reach the same end state and fill the same rows to
    # within 1e-9 of the state's scale, and leave the held torques on every
    # row from start to stop.  In free flight the whole run is one
    # jump; with the slave past the wall (at 0) and pushing in, it takes the
    # slow path; with a pulse edge inside it the jump is refused, and a
    # split run may jump one part and step the other
    h = 5e-4
    stop = start + k
    mid = start + 1 + split % (k - 1)
    sc = _short(
        reference_scenario,
        channel=dataclasses.replace(reference_scenario.channel, T=40 * h, eps_min=40 * h),
        integrator_substeps=40,
        duration=0.1,
        wall=WallModel(position=0.0 if case == "contact" else 1e3),
        operator_force=OperatorForce((start + edge * k) * h if case == "edge" else 0.0, 0.1, 20.0),
    )
    end, rows, torques, jumped = _propagated(sc, start, state, forces, [stop])
    split_end, split_rows, split_torques, _ = _propagated(sc, start, state, forces, [mid, stop])
    assert jumped == (case == "free")
    scale = np.abs(rows).max()
    assert np.abs(split_end - end).max() <= 1e-9 * scale
    assert np.abs(split_rows - rows).max() <= 1e-9 * scale
    # every row of the run, jumped, stepped or filled, carries the held
    # torques bit for bit
    held = np.repeat(np.array(forces, float)[:, None], k + 1, axis=1)
    assert torques.tobytes() == split_torques.tobytes() == held.tobytes()


def test_fill_leaves_the_last_row_as_advance_wrote_it(reference_scenario):
    # a diverged run's last row may hold the NaN x_m that advance wrote,
    # after a finite row: fill must leave it as written, and not derive it
    # from the row before as the one-step jump of an unreached row
    sc = _short(reference_scenario, duration=1.0, operator_force=OperatorForce(0.0, 0.0))
    columns = [np.zeros(5) for _ in _COLUMNS]
    advance, fill = _rk4._propagator(sc, sc.channel.T / sc.integrator_substeps, columns)
    x_m, v_m, x_s, v_s = advance(0, 3, 0.01, 0.0, 0.0, 0.0, 1.0, 2.0)
    advance(3, 4, math.nan, v_m, x_s, v_s, 1.0, 2.0)
    assert math.isfinite(columns[1][3]) and math.isnan(columns[1][4])
    written = [c[3:].tobytes() for c in columns[1:7]]
    fill(5)
    assert [c[3:].tobytes() for c in columns[1:7]] == written


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

    monkeypatch.setattr("teleopstab.stability.small_gain_value", broken)
    sc = _short(reference_scenario, duration=2.0)
    with pytest.raises(TypeError, match="broken certificate core"):
        sweep_period(sc, [sc.channel.T])


def test_damping_bound_passes_where_the_loop_diverges(reference_scenario):
    """Pins a known defect: damping_bound is not a stability certificate.

    On the shipped scenario it passes on all of [1e-4, 0.1] s, yet the run at
    T = 0.05 s diverges; small_gain, which is sound, fails there.  The fix
    belongs to damping_bound (ROADMAP item 1: check the bound against the
    paper, or document it as a necessary condition only).  Until then this
    test states today's behaviour; it must not be weakened to pass.
    """
    sc = reference_scenario
    res = max_stable_period(sc.analysis_system(), sc.channel, "damping_bound", (1e-4, 0.1))
    assert res.status == "always_pass"
    (row,) = sweep_period(reference_scenario, [0.05])
    assert row.error is None
    assert row.verdict.bounded is False
    assert row.verdict.max_abs_position > 1e100
    assert row.stability.small_gain_pass is False


def test_small_gain_passes_where_the_loop_diverges(reference_scenario):
    """Pins a known defect: small_gain passes on a loop that diverges.

    With two periods of delay each way, light master damping and a heavily
    damped light slave, the test value peaks at the grid floor just below
    one, so small_gain passes at T = 0.072 s on both grid sizes; yet the run
    diverges, and max_stable_period finds no bracket on [1e-3, 0.1] because
    the criterion fails at the short end and passes at the long one.  The fix
    belongs to the certificate (ROADMAP item 1).  Until then this test states
    today's behaviour; it must not be weakened to pass.
    """
    sc = SimScenario(
        master=RobotParams(mass=1.19, damping=0.217),
        slave=RobotParams(mass=0.117, damping=7.0),
        human=ImpedanceModel(),
        wall=WallModel(position=1e6),
        gains=ControllerGains(kp=1.54, kv=0.453, kd=6.58, p_eps=0.345),
        channel=ChannelConfig(T=0.072, d1=2, d2=2, eps_min=0.072, alpha=0.0),
        operator_force=reference_scenario.operator_force,
        duration=60.0,
    )
    system = sc.analysis_system()
    for n in (512, 8192):
        grid = make_grid(sc.channel.T, n)
        report = small_gain_value(system, sc.channel, grid)
        assert report.small_gain_pass is True
        assert report.small_gain_value == pytest.approx(0.99999983903, abs=1e-10)
        assert report.excluded_points == 0
        assert abs(report.argmax_frequency - grid.points[0]) <= 1e-9
    v = verdict(run_scenario(sc, seed=0))
    assert v.bounded is False
    assert v.max_abs_position > 1e6
    with pytest.raises(NoBracket):
        max_stable_period(system, sc.channel, "small_gain", (1e-3, 0.1))


def test_alpha_zero_condition_passes_where_the_loop_diverges(reference_scenario):
    """Pins a known defect: alpha_zero_condition passes on a diverging loop.

    On the shipped scenario at T = 0.05 s its ratio stays below one over the
    whole 512-point grid, peaking at the floor, yet the run diverges.  The
    fix belongs to the condition (ROADMAP item 1).  Until then this test
    states today's behaviour; it must not be weakened to pass.
    """
    sc = reference_scenario
    ch = sc.channel.at_period(0.05)
    system = sc.analysis_system()
    ratios = [alpha_zero_condition(system, ch, w) for w in make_grid(0.05, 512).points]
    assert int(np.argmax(ratios)) == 0
    assert max(ratios) == pytest.approx(0.99999938, abs=1e-8)
    (row,) = sweep_period(sc, [0.05])
    assert row.error is None
    assert row.verdict.bounded is False


def test_analysis_system_is_the_bare_robots(reference_scenario):
    # the certificates quantify over passive terminations: no human, no wall
    system = reference_scenario.analysis_system()
    assert system == TeleopSystem(
        reference_scenario.master, reference_scenario.slave, reference_scenario.gains
    )


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


_EDGE_VALUES = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, -1e308, 0.1)


def _synthetic_trace(n_rows, rng, events=(0, 0, 0)):
    cols = []
    for k in range(len(_COLUMNS)):
        c = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
        edges = np.resize(np.array(_EDGE_VALUES), n_rows)
        cols.append(np.where(np.arange(n_rows) % 3 == k % 3, edges, c))
    ev = [np.sort(rng.integers(0, 50, n) * 0.001) for n in events]
    return SimTrace(*cols, *ev, period=0.006, substep=0.0006)


_TRACE_CHUNK_ROWS = _g17._CSV_CHUNK_FIELDS // len(_COLUMNS)


# where os.fork or os.sched_getaffinity is missing (Windows, macOS) the
# trace is formatted in one process
_SPLITS = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
_needs_split = pytest.mark.skipif(not _SPLITS, reason="no os.fork or os.sched_getaffinity")


def _split_trace_csv(monkeypatch, cpus, least_rows=1):
    """Let write_trace_csv see ``cpus`` allowed CPUs and cut the rows in two
    halves of ``least_rows`` rows or more; returns the list of the children
    it forks.  Where it cannot split, nothing is patched."""
    children = []
    if not _SPLITS:
        return children
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(_g17, "_TRACE_SPLIT_ROWS", least_rows)
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return children


def _assert_nothing_left(folder):
    """No child of this process is left, and ``folder`` holds only trace.csv."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(folder) == ["trace.csv"]


@pytest.mark.parametrize(
    "extra",
    [-_TRACE_CHUNK_ROWS, 1 - _TRACE_CHUNK_ROWS, 0, 1, _TRACE_CHUNK_ROWS + 5]
    + [-256, -255, 261],
)
def test_trace_csv_bytes_match_savetxt(tmp_path, monkeypatch, extra):
    # 0 rows, 1 row, one chunk, one chunk + 1 and two chunks + 5, each with
    # every edge value, cut into 1 and 2 ranges where the platform splits;
    # 301 and 605 rows divide by neither the range count nor the chunk. The
    # fixed offsets -256, -255 and 261 give row counts off the chunk edges
    # (44, 45 and 561 rows at 300 rows a chunk).
    n_rows = _TRACE_CHUNK_ROWS + extra
    tr = _synthetic_trace(n_rows, np.random.default_rng(n_rows))
    savetxt_trace(tr, tmp_path / "ref.csv")
    want = (tmp_path / "ref.csv").read_bytes()
    for parts in (1, 2) if _SPLITS else (1,):
        children = _split_trace_csv(monkeypatch, parts)
        out = tmp_path / f"parts{parts}"
        out.mkdir()
        write_trace_csv(tr, out / "trace.csv")
        assert len(children) == min(parts, max(n_rows, 1)) - 1
        _assert_nothing_left(out)
        assert (out / "trace.csv").read_bytes() == want


@_needs_split
def test_trace_csv_split_survives_a_failed_fork(tmp_path, monkeypatch):
    # with no process or memory left for a child (EAGAIN), the caller
    # formats the half that got none, to the same bytes
    tr = _synthetic_trace(2 * _TRACE_CHUNK_ROWS + 5, np.random.default_rng(9))
    savetxt_trace(tr, tmp_path / "ref.csv")
    children = _split_trace_csv(monkeypatch, 2)
    calls = []

    def refused_fork():
        calls.append(None)
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refused_fork)
    out = tmp_path / "out"
    out.mkdir()
    write_trace_csv(tr, out / "trace.csv")
    assert len(calls) == 1
    assert children == []
    _assert_nothing_left(out)
    assert (out / "trace.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@_needs_split
def test_trace_csv_child_failure_raises_and_leaves_nothing(tmp_path, monkeypatch):
    # a range that fails in a child fails the write; every child is reaped
    # and no part file is left
    parent = os.getpid()
    g17_csv = _g17._g17_csv

    def g17_csv_in_parent(block):
        if os.getpid() != parent:
            raise RuntimeError("formatting failed in a child")
        return g17_csv(block)

    monkeypatch.setattr(_g17, "_g17_csv", g17_csv_in_parent)
    children = _split_trace_csv(monkeypatch, 2)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(OSError, match="exited with"):
        write_trace_csv(_synthetic_trace(600, np.random.default_rng(2)), out / "trace.csv")
    assert len(children) == 1
    _assert_nothing_left(out)


def test_trace_csv_is_formatted_in_one_process_when_the_caller_has_threads(tmp_path, monkeypatch):
    # forking a threaded process can deadlock the child
    children = _split_trace_csv(monkeypatch, 3)
    tr = _synthetic_trace(600, np.random.default_rng(4))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        write_trace_csv(tr, tmp_path / "trace.csv")
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert children == []
    savetxt_trace(tr, tmp_path / "ref.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _tied_events_trace():
    """Every kind at each time, as at a delay of 0, then one run of 1 200
    equal times across the first block boundary; -0.0 and 0.0 tie but are
    formatted apart."""
    times = np.concatenate([[-0.0, 0.0], np.arange(1, 699) * 0.001, np.full(400, 0.7)])
    assert 3 * 700 < _g17._CSV_CHUNK_FIELDS < 3 * len(times)
    tr = _synthetic_trace(1, np.random.default_rng(0))
    return dataclasses.replace(
        tr, sample_events=times, hold_events_m=times.copy(), hold_events_s=times.copy()
    )


@pytest.mark.parametrize("events", [(0, 0, 0), (3, 1, 2), (2000, 1500, 1200), "ties"])
def test_events_csv_bytes_match_tuple_sort(tmp_path, events):
    # times on a 50-point lattice, so all three kinds tie many times over;
    # the largest case spans more than one chunk
    if events == "ties":
        tr = _tied_events_trace()
    else:
        tr = _synthetic_trace(1, np.random.default_rng(sum(events)), events)
    write_events_csv(tr, tmp_path / "fast.csv")
    events_csv(tr, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _g17_lines(values):
    """``_g17._g17_csv`` on a 1-D array, one field a line, a chunk at a time."""
    step = _g17._CSV_CHUNK_FIELDS
    text = b"".join(_g17._g17_csv(values[a : a + step, None]) for a in range(0, len(values), step))
    return text.split(b"\n")[:-1]


def _assert_g17_matches_percent(values):
    values = np.asarray(values, dtype=np.float64)
    got = _g17_lines(values)
    want = [b"%.17g" % x for x in values.tolist()]
    assert len(got) == len(want)
    wrong = [(x, g, w) for x, g, w in zip(values.tolist(), got, want) if g != w]
    assert not wrong, wrong[:5]


def test_g17_matches_percent_on_random_bit_patterns():
    # every exponent, subnormals and NaN payloads, in proportion to their bits
    bits = np.random.default_rng(20261018).integers(0, 2**64, 10**6, dtype=np.uint64)
    _assert_g17_matches_percent(bits.view(np.float64))


def _powers_of_ten(k_max):
    """10**k for |k| <= k_max and their neighbours one ulp either side."""
    powers = np.array([float(f"1e{k}") for k in range(-k_max, k_max + 1)])
    return np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])


def test_g17_matches_percent_at_powers_of_ten():
    # 13 of these powers round up to "1e+k" at 17 digits (the digits carry)
    values = _powers_of_ten(300)
    _assert_g17_matches_percent(np.concatenate([values, -values]))


@pytest.mark.parametrize("shift", [-1e-9, 1e-9])
def test_g17_survives_an_exponent_guess_off_by_one(monkeypatch, shift):
    # near a power of ten floor(log10|x|) can come out one off; the integer
    # part then has 16 or 18 digits and the value must go to "%"
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    _assert_g17_matches_percent(_powers_of_ten(280))


def test_g17_matches_percent_at_notation_boundaries():
    # 1e-5 / 1e-4 switch between "e" and "0.000ddd", 1e16 / 1e17 between
    # plain digits and "e"; [2**54, 2**57) holds integers on both sides of
    # 1e17, each a multiple of its ulp (none is a 17-digit tie: above 1e17
    # they are multiples of 16)
    edges = np.array([1e-5, 1e-4, 1e16, 1e17, 2.0**54, 2.0**57])
    near = (edges[:, None] + np.arange(-8, 9) * np.spacing(edges)[:, None]).ravel()
    rng = np.random.default_rng(7)
    ints = np.ldexp(rng.integers(2**52, 2**53, 20000).astype(np.float64), rng.integers(2, 5, 20000))
    _assert_g17_matches_percent(np.concatenate([near, ints, -ints]))


def test_g17_matches_percent_on_exact_ties():
    # x = M / 2**(k+1) with M odd: x*10**k = M*5**k / 2 is a half-integer,
    # and with M*5**k in [2e16, 2e17) its 18th significant digit is an exact
    # 5, so "%" rounds the 17 digits half to even.  M < 2**53 leaves
    # k = 1..24, and no other double is a tie at 17 digits.
    rng = np.random.default_rng(11)
    ties = []
    for k in range(1, 25):
        lo = -(-2 * 10**16 // 5**k)
        hi = min(2 * 10**17 // 5**k, 2**53)
        for m in {lo | 1, (hi - 1) | 1, *(int(v) | 1 for v in rng.integers(lo, hi, 200))}:
            if m < hi:
                ties.append(math.ldexp(m, -(k + 1)))
    assert len(ties) > 4000
    _assert_g17_matches_percent(np.concatenate([ties, np.negative(ties)]))


def test_g17_matches_percent_at_special_values():
    nan_payloads = np.array([0x7FF8000000000001, 0xFFF0000000000123], np.uint64).view(np.float64)
    values = [
        0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, *nan_payloads,
        5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        1e308, -1e308, 1e-280, 1e280, 0.1, -0.5, 1.0, 123.0, 100.0,
    ]
    values += [np.nextafter(v, d) for v in (1e-280, 1e280) for d in (0.0, np.inf)]
    _assert_g17_matches_percent(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_g17_matches_percent_property(values):
    _assert_g17_matches_percent(values)


# a small pool of doubles, so that equal bit patterns run down columns:
# 0.0 next to -0.0, two NaN payloads, +-inf, a subnormal, a 17-digit tie
# (10**15 + 0.25, whose 18th digit is an exact 5) and ordinary values
_G17_POOL = np.concatenate([
    np.array([0x7FF8000000000001, 0xFFF0000000000123], np.uint64).view(np.float64),
    [0.0, -0.0, math.inf, -math.inf, 5e-324, 1000000000000000.25, 0.1, -2.5, 1e-5, 123456.789],
])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_g17_formats_runs_across_rows_columns_and_blocks(data):
    # each field repeats the one above it (-1) or draws from the pool, so
    # runs cross rows and columns; the block is cut in two at a drawn row,
    # as the writers cut theirs, and laid out by rows or by columns
    cols = data.draw(st.integers(1, 9))
    rows = data.draw(st.integers(1, 30))
    picks = data.draw(
        st.lists(st.integers(-1, len(_G17_POOL) - 1), min_size=rows * cols, max_size=rows * cols)
    )
    index = np.zeros((rows, cols), np.intp)
    for k, pick in enumerate(picks):
        r, c = divmod(k, cols)
        index[r, c] = index[r - 1, c] if pick < 0 else pick
    block = _G17_POOL[index]
    if data.draw(st.booleans()):
        block = np.stack(list(block.T)).T  # column-major, as the trace writer stacks
    cut = data.draw(st.integers(0, rows))
    got = _g17._g17_csv(block[:cut]) + _g17._g17_csv(block[cut:])
    want = [[b"%.17g" % x for x in row] for row in block.tolist()]
    assert [line.split(b",") for line in got.split(b"\n")[:-1]] == want
    assert got.endswith(b"\n")


def test_trace_csv_of_the_shipped_run_matches_savetxt(golden_trace, tmp_path, monkeypatch):
    # the shipped 80 s run, whose held torques and resting states repeat
    # for many rows, in one range and, where the platform splits, in two
    savetxt_trace(golden_trace, tmp_path / "ref.csv")
    want = (tmp_path / "ref.csv").read_bytes()
    for parts in (1, 2) if _SPLITS else (1,):
        children = _split_trace_csv(monkeypatch, parts, _g17._TRACE_SPLIT_ROWS)
        out = tmp_path / f"parts{parts}"
        out.mkdir()
        write_trace_csv(golden_trace, out / "trace.csv")
        assert len(children) == parts - 1
        _assert_nothing_left(out)
        assert (out / "trace.csv").read_bytes() == want


def test_trace_csv_memory_is_bounded(tmp_path, monkeypatch):
    # formatting works a chunk at a time: no whole-trace copy, no per-value
    # Python object kept.  Where the platform splits, the trace is cut into
    # two ranges at the shipped row floor, and the parent copies the child's
    # part back through a 64 KiB buffer
    children = _split_trace_csv(monkeypatch, 2, _g17._TRACE_SPLIT_ROWS)
    rng = np.random.default_rng(5)
    n_rows = 100_000
    columns = [rng.standard_normal(n_rows) * 10.0 ** rng.integers(-8, 8, n_rows) for _ in _COLUMNS]
    tr = SimTrace(*columns, np.empty(0), np.empty(0), np.empty(0), period=0.006, substep=0.0006)
    _g17._g17_tables()  # built once per process, not per write
    tracemalloc.start()
    try:
        write_trace_csv(tr, tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(children) == (1 if _SPLITS else 0)
    assert peak < 1024**2


def test_trace_block_arrays_stay_under_the_mmap_threshold():
    # a trace block's largest arrays are its gathered slots and their bytes,
    # a 48-byte slot a field; the digit arrays take 32 bytes a value or
    # less.  Under glibc's default 128 KiB mmap threshold they reuse heap
    # pages; blocks of 4 608 fields each mapped and faulted in their own,
    # about 42 000 minor faults a write of the shipped trace in a fresh
    # process
    assert _g17._CSV_CHUNK_FIELDS * _g17._G17_SLOT + 64 < 128 * 1024


def test_events_csv_memory_is_bounded(tmp_path):
    # only the times, a byte of kind and the sort order span the run; the
    # rows are gathered, formatted and joined a block at a time.  A
    # whole-run sorted copy, kind list and prefix list cost about 52 B an
    # event, this writer about 31
    tr = _synthetic_trace(1, np.random.default_rng(3), (20_000, 20_000, 20_000))
    _g17._g17_tables()  # built once per process, not per write
    tracemalloc.start()
    try:
        write_events_csv(tr, tmp_path / "events.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 60_000 < 40.0
