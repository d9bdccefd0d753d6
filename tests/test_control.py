"""Coordination controller: continuous, held on samples, z-domain."""

import cmath
import math

import numpy as np
import pytest

from teleopstab import (
    ControllerGains,
    control_continuous,
    controller_z_tf,
    eval_tf,
)

REF = ControllerGains(kp=1.0, kv=10.0, kd=2.0, p_eps=0.002)


def test_control_continuous_zero_at_coordination():
    assert control_continuous(REF, (0.3, 0.0), (0.3, 0.0)) == 0


def test_control_continuous_pure_proportional():
    g = ControllerGains(kp=1.0, kv=0.0, kd=0.0, p_eps=0.0)
    assert control_continuous(g, (2.0, 0.0), (1.0, 0.0)) == -1


def test_control_continuous_hand_value():
    # -10(0.5) - 2.002(0.5) - 1(1) = -7.001
    got = control_continuous(REF, (1.0, 0.5), (0.0, 0.0))
    np.testing.assert_allclose(got, -7.001, rtol=1e-14)


def test_controller_gains_invariants():
    with pytest.raises(ValueError):
        ControllerGains(kp=-1.0, kv=0.0, kd=0.0, p_eps=0.0)
    with pytest.raises(ValueError):
        ControllerGains(kp=1.0, kv=-0.1, kd=0.0, p_eps=0.0)
    # zero gains are a valid degeneration (used by the analysis identities)
    ControllerGains(kp=0.0, kv=0.0, kd=0.0, p_eps=0.0)


def test_controller_z_tf_dc_gain_is_proportional():
    # num(1) recovers kp*T by cancelling the stored (K + kp*T) coefficient
    # against -K, which amplifies its rounding by roughly K/(kp*T)
    for T in (0.001, 0.006, 0.1):
        c = controller_z_tf(REF, T)
        np.testing.assert_allclose(eval_tf(c, 1 + 0j), REF.kp, rtol=1e-11)


def test_controller_z_tf_half_sample_value():
    c = controller_z_tf(REF, 0.006)
    expected = (10.0 + 2.0 + 0.002) * 2.0 / 0.006 + 1.0  # 4001.67
    np.testing.assert_allclose(eval_tf(c, -1 + 0j), expected, rtol=1e-13)
    assert abs(expected - 4001.6666666666665) < 1e-9


def test_controller_z_tf_pure_proportional_is_constant():
    g = ControllerGains(kp=5.0, kv=0.0, kd=0.0, p_eps=0.0)
    c = controller_z_tf(g, 0.01)
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = cmath.exp(1j * float(rng.uniform(0.01, math.pi)))
        np.testing.assert_allclose(eval_tf(c, z), 5.0, rtol=1e-13)


def test_controller_z_tf_approaches_continuous_response():
    T = 1e-3
    w = 1.0  # wT = 1e-3
    z = cmath.exp(1j * w * T)
    got = eval_tf(controller_z_tf(REF, T), z)
    expected = (REF.kv + REF.kd + REF.p_eps) * 1j * w + REF.kp
    assert abs(got - expected) < 0.01 * abs(expected)


def test_sampled_tracks_continuous_with_first_order_slope():
    # the torque computed on the samples at tk and held over [tk, tk + T), as
    # run_scenario holds it, deviates from the continuous law by O(T) over one
    # second of a sinusoidal trajectory
    def own(t):
        return math.sin(2 * math.pi * t), 2 * math.pi * math.cos(2 * math.pi * t)

    def remote(t):
        return 0.5 * math.sin(2 * math.pi * t + 0.3), math.pi * math.cos(
            2 * math.pi * t + 0.3
        )

    deviations = {}
    for T in (1e-2, 1e-3, 1e-4):
        worst = 0.0
        n = int(round(1.0 / T))
        probes = 7
        for k in range(n):
            tk = k * T
            held = control_continuous(REF, own(tk), remote(tk))
            for j in range(probes):
                t = tk + (j / probes) * T
                worst = max(worst, abs(held - control_continuous(REF, own(t), remote(t))))
        deviations[T] = worst
    # one decade of T buys roughly one decade of accuracy
    assert 5.0 < deviations[1e-2] / deviations[1e-3] < 20.0
    assert 5.0 < deviations[1e-3] / deviations[1e-4] < 20.0


def test_control_output_odd_in_coordination_error():
    rng = np.random.default_rng(17)
    for _ in range(50):
        e, ev, r, rv = rng.standard_normal(4)
        plus = control_continuous(REF, (e, ev), (r, rv))
        minus = control_continuous(REF, (-e, -ev), (-r, -rv))
        np.testing.assert_allclose(minus, -plus, rtol=1e-12, atol=1e-12)

