"""Robot/operator/environment models, ZOH discretization, hybrid matrix."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleopstab import (
    FREE,
    DegenerateModel,
    ImpedanceModel,
    ImproperPlant,
    RationalTF,
    RobotParams,
    SingularSlaveLoop,
    WallModel,
    eval_tf,
    hybrid_at,
    make_grid,
    plant_position_tf,
    robot_impedance,
    sampled_plant_tf,
    transparency_error,
    wall_force,
    zoh_pair,
)

from oracles import (
    rk4_step_response,
    tf_step_sequence,
    zoh_cont2discrete,
    zoh_pair_mp,
    zoh_response_mp,
)


def test_robot_impedance_examples():
    assert robot_impedance(RobotParams(mass=0.5, damping=1.0)) == RationalTF(
        (1.0, 0.5), (1.0,)
    )
    # pure damper
    assert robot_impedance(RobotParams(mass=1e-12, damping=1.0)).num[0] == 1.0
    # motor-plate constants
    z = robot_impedance(RobotParams(mass=23.54, damping=0.0517))
    assert z.num == (0.0517, 23.54)
    assert z.den == (1.0,)


def test_robot_params_invariants():
    with pytest.raises(ValueError):
        RobotParams(mass=0.0, damping=1.0)
    with pytest.raises(ValueError):
        RobotParams(mass=1.0, damping=-0.1)


def test_plant_position_tf_double_integrator():
    tf = plant_position_tf(RobotParams(mass=1.0, damping=0.0), FREE)
    assert tf.num == (1.0,)
    assert tf.den == (0.0, 0.0, 1.0)


def test_plant_position_tf_free_robot():
    # 1/(0.5 s^2 + s) = 2/(s(s+2))
    tf = plant_position_tf(RobotParams(mass=0.5, damping=1.0), FREE)
    assert tf.den == (0.0, 1.0, 0.5)
    np.testing.assert_allclose(eval_tf(tf, 1j), 2.0 / (1j * (1j + 2.0)), rtol=1e-14)


def test_plant_position_tf_with_termination():
    human = ImpedanceModel(mass=0.0, damping=1.0, stiffness=10.0)
    tf = plant_position_tf(RobotParams(mass=1.0, damping=1.0), human)
    assert tf.den == (10.0, 2.0, 1.0)


def test_plant_position_tf_degenerate():
    # valid RobotParams cannot produce an all-zero denominator, so exercise
    # the guard with a bare parameter carrier
    from types import SimpleNamespace

    with pytest.raises(DegenerateModel):
        plant_position_tf(SimpleNamespace(mass=0.0, damping=0.0), FREE)


def test_plant_denominator_consistency_oracle():
    # denominator must equal the expanded (m+m')s^2 + (b+b')s + k
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = float(rng.uniform(0.1, 5.0))
        b = float(rng.uniform(0.0, 5.0))
        mp_ = float(rng.uniform(0.0, 5.0))
        bp = float(rng.uniform(0.0, 5.0))
        k = float(rng.uniform(0.0, 50.0))
        tf = plant_position_tf(
            RobotParams(mass=m, damping=b),
            ImpedanceModel(mass=mp_, damping=bp, stiffness=k),
        )
        expected = (k, b + bp, m + mp_)
        np.testing.assert_allclose(tf.den, expected, rtol=1e-15, atol=0.0)
        assert tf.num == (1.0,)


def test_sampled_plant_tf_integrator():
    # 1/s with T=1 -> 1/(z-1)
    tf = sampled_plant_tf(RationalTF((1.0,), (0.0, 1.0)), 1.0)
    lead = tf.den[-1]
    np.testing.assert_allclose(np.array(tf.num) / lead, [1.0], atol=1e-12)
    np.testing.assert_allclose(np.array(tf.den) / lead, [-1.0, 1.0], atol=1e-12)


def test_sampled_plant_tf_first_order_lag():
    # 1/(s+1) with T=ln2 -> 0.5/(z - 0.5)
    T = math.log(2.0)
    tf = sampled_plant_tf(RationalTF((1.0,), (1.0, 1.0)), T)
    lead = tf.den[-1]
    np.testing.assert_allclose(np.array(tf.num) / lead, [0.5], atol=1e-12)
    np.testing.assert_allclose(np.array(tf.den) / lead, [-0.5, 1.0], atol=1e-12)


def test_sampled_plant_tf_matches_step_response_oracle():
    # 2/(s(s+2)) is the free robot plant; brute-force fine-step integration
    # of the unit step, sampled at T, must match the difference equation of
    # the discretized transfer function
    T = 0.006
    plant = plant_position_tf(RobotParams(mass=0.5, damping=1.0), FREE)
    ztf = sampled_plant_tf(plant, T)
    predicted = tf_step_sequence(ztf, 50)
    reference = rk4_step_response(0.5, 1.0, T, 50)
    assert np.max(np.abs(predicted - reference)) < 1e-9


def test_sampled_plant_tf_converges_to_continuous():
    plant = plant_position_tf(RobotParams(mass=0.5, damping=1.0), FREE)
    T = 1e-4
    for w in (1.0, 10.0, 50.0, 100.0):  # wT <= 0.01
        z = cmath.exp(1j * w * T)
        discrete = eval_tf(sampled_plant_tf(plant, T), z)
        continuous = eval_tf(plant, 1j * w)
        assert abs(discrete - continuous) < 0.01 * abs(continuous)


@pytest.mark.parametrize("T", [1e-4, 0.006, 0.1, 1.0])
@pytest.mark.parametrize(
    "plant",
    [
        RationalTF((1.0,), (0.0, 1.0)),
        RationalTF((3.0,), (1.0, 2.0)),
        RationalTF((1.0, 0.5), (2.0, 3.0, 1.0)),
        plant_position_tf(RobotParams(mass=0.5, damping=1.0), FREE),
        plant_position_tf(RobotParams(mass=0.5, damping=0.0), FREE),
        plant_position_tf(RobotParams(mass=23.54, damping=0.0517), FREE),
        plant_position_tf(RobotParams(mass=0.5, damping=1.0), ImpedanceModel(0.0, 1.0, 10.0)),
        plant_position_tf(RobotParams(mass=0.8, damping=1.3), ImpedanceModel(0.2, 0.0, 1000.0)),
    ],
)
def test_sampled_plant_tf_matches_cont2discrete(plant, T):
    # degree 1 and 2, free and terminated: coefficients agree with scipy's
    # tf -> ss -> c2d -> tf route to 1e-12 of the largest coefficient
    num, den = zoh_cont2discrete(plant.num, plant.den, T)
    tf = sampled_plant_tf(plant, T)
    scale = max(np.max(np.abs(num)), np.max(np.abs(den)))
    got_num = np.zeros(len(num))
    got_num[: len(tf.num)] = tf.num
    np.testing.assert_allclose(got_num, num, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(tf.den, den, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("T", [1e-3, 1e-4, 1e-5, 1e-6, 3e-7, 1e-7])
@pytest.mark.parametrize(
    "plant",
    [
        plant_position_tf(RobotParams(mass=0.5, damping=1.0), FREE),
        plant_position_tf(RobotParams(mass=4.14, damping=0.103), FREE),
        plant_position_tf(RobotParams(mass=0.5, damping=1.0), ImpedanceModel(0.0, 1.0, 10.0)),
        plant_position_tf(RobotParams(mass=0.8, damping=1.3), ImpedanceModel(0.2, 0.0, 1000.0)),
    ],
)
def test_sampled_plant_tf_response_matches_50_digit_oracle(plant, T):
    # G(z) within 1e-11 of C (zI - Phi)^-1 Gamma from a 50-digit exponential,
    # low in the band, mid-band and next to Nyquist; the numerator's top
    # coefficient C Gamma ~ T^2/(2m) must survive as T -> 0
    tf = sampled_plant_tf(plant, T)
    for theta in (0.01 * math.pi, 0.3 * math.pi, 0.999 * math.pi):
        z = cmath.exp(1j * theta)
        want = zoh_response_mp(plant.num, plant.den, T, z)
        assert abs(eval_tf(tf, z) - want) <= 1e-11 * abs(want)


# a single state x' = -a x + u, or a robot m x'' + b x' + k x = u in companion
# form, with its characteristic roots chosen by kind
_ROOT_KINDS = ("integrator", "repeated", "real", "complex", "wall")


@st.composite
def _held_systems(draw):
    if draw(st.booleans()):
        a = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
        return np.array([[-a]]), np.array([1.0])
    kind = draw(st.sampled_from(_ROOT_KINDS))
    m = draw(st.floats(1e-2, 50.0))
    b = draw(st.floats(0.0, 50.0))
    critical = b * b / (4.0 * m)  # k at which the two roots coincide
    k = {
        "integrator": 0.0,
        "repeated": critical,
        "real": critical * draw(st.floats(0.01, 0.99)),
        "complex": critical + draw(st.floats(0.1, 1e3)),
        "wall": 1000.0,
    }[kind]
    return np.array([[0.0, 1.0], [-k / m, -b / m]]), np.array([0.0, 1.0])


@settings(max_examples=200, deadline=None)
@given(system=_held_systems(), log_T=st.floats(-5.0, 1.0))
def test_zoh_pair_matches_mpmath_oracle_property(system, log_T):
    # every entry of (Phi, Gamma) within 4 eps of the block's 1-norm (at
    # least 1) times the largest entry (at least 1) of the 50-digit result
    A, B = system
    T = 10.0**log_T
    phi, gamma = zoh_pair(A, B, T)
    phi_mp, gamma_mp = zoh_pair_mp(A, B, T)
    block_norm = T * max(np.abs(A).sum(axis=0).max(), np.abs(B).sum())
    largest = max(1.0, np.abs(phi_mp).max(), np.abs(gamma_mp).max())
    bound = 4 * np.finfo(float).eps * max(1.0, block_norm) * largest
    assert np.abs(phi - phi_mp).max() <= bound
    assert np.abs(gamma - gamma_mp).max() <= bound


@pytest.mark.parametrize(
    "A, T",
    [
        ([[0.0, 1.0], [-20.0, -4.0]], 1e308),  # A*T overflows
        ([[0.0, 1.0], [-20.0, -4.0]], math.inf),
        ([[1.0]], 1e3),  # A*T is finite, e^{AT} is not
    ],
)
def test_zoh_pair_overflow_names_the_period(A, T):
    # ArithmeticError that names T, and no numpy warning (pytest turns
    # warnings into errors)
    A = np.array(A)
    with pytest.raises(ArithmeticError, match=re.escape(f"T = {T!r}")):
        zoh_pair(A, np.eye(len(A))[-1], T)


def test_zoh_pair_free_robot_exact_at_long_periods():
    # the free robot's integrator mode stays exact however many squarings:
    # Phi = [[1, (1 - e^{-aT})/a], [0, e^{-aT}]], Gamma[1] = (1 - e^{-aT})/a
    a = 2.0
    for T in (1e3, 1e5, 1e10, 1e20):
        phi, gamma = zoh_pair(np.array([[0.0, 1.0], [0.0, -a]]), np.array([0.0, 1.0]), T)
        np.testing.assert_allclose(phi, [[1.0, 1.0 / a], [0.0, 0.0]], rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(gamma, [T / a - 1.0 / a**2, 1.0 / a], rtol=1e-12)


def test_sampled_plant_tf_rejects_improper():
    with pytest.raises(ImproperPlant):
        sampled_plant_tf(RationalTF((1.0, 1.0), (1.0, 1.0)), 0.01)
    with pytest.raises(ImproperPlant):
        sampled_plant_tf(robot_impedance(RobotParams(1.0, 1.0)), 0.01)


def _const(value):
    return RationalTF((value,), (1.0,))


def test_hybrid_zero_master_controller():
    zm = robot_impedance(RobotParams(1.0, 1.0))  # s + 1
    zs = robot_impedance(RobotParams(1.0, 1.0))
    for w in (0.5, 1.0, 10.0):
        h = hybrid_at(zm, zs, _const(0.0), _const(10.0), w)
        assert h.h11 == eval_tf(zm, 1j * w)
        assert h.h12 == 0
        assert h.frequency == w


def test_hybrid_stiff_slave_controller_limit():
    zm = robot_impedance(RobotParams(0.5, 1.0))
    zs = robot_impedance(RobotParams(0.5, 1.0))
    big = _const(1e9)
    for w in make_grid(0.006).points:
        h = hybrid_at(zm, zs, _const(10.0), big, w)
        assert abs(h.h21 + 1.0) < 1e-6
        assert abs(h.h22) < 1e-6


def test_hybrid_hand_value():
    z = robot_impedance(RobotParams(1.0, 1.0))  # s + 1
    h = hybrid_at(z, z, _const(10.0), _const(10.0), 1.0)
    np.testing.assert_allclose(h.h21, -10.0 / (11 + 1j), rtol=1e-14)
    np.testing.assert_allclose(abs(h.h21), 10.0 / math.sqrt(122.0), rtol=1e-14)
    np.testing.assert_allclose(h.h22, 1.0 / (11 + 1j), rtol=1e-14)


def test_hybrid_zero_controllers_degeneration():
    zm = robot_impedance(RobotParams(0.5, 2.0))
    zs = robot_impedance(RobotParams(1.5, 0.5))
    zero = _const(0.0)
    for w in (0.2, 1.0, 40.0):
        h = hybrid_at(zm, zs, zero, zero, w)
        assert h.h11 == eval_tf(zm, 1j * w)
        assert h.h12 == 0
        assert h.h21 == 0
        np.testing.assert_allclose(h.h22, 1.0 / eval_tf(zs, 1j * w), rtol=1e-14)


def test_hybrid_singular_slave_loop():
    # Cs = -Zs makes the slave loop denominator vanish identically
    zs = robot_impedance(RobotParams(1.0, 1.0))
    cs = RationalTF((-1.0, -1.0), (1.0,))
    with pytest.raises(SingularSlaveLoop):
        hybrid_at(zs, zs, _const(1.0), cs, 2.0)


def test_transparency_error_examples():
    from teleopstab import HybridMatrix

    assert transparency_error(HybridMatrix(0j, 1 + 0j, -1 + 0j, 0j, 1.0)) == 0
    assert transparency_error(HybridMatrix(1 + 0j, 1 + 0j, -1 + 0j, 0j, 1.0)) == 1


def test_transparency_error_composite():
    z = robot_impedance(RobotParams(1.0, 1.0))
    h = hybrid_at(z, z, _const(0.0), _const(10.0), 1.0)
    expected = abs(1 + 1j) + 1.0 + abs(-10 / (11 + 1j) + 1) + abs(1 / (11 + 1j))
    np.testing.assert_allclose(transparency_error(h), expected, rtol=1e-14)
    np.testing.assert_allclose(transparency_error(h), 2.6327861883485095, rtol=1e-12)


def test_wall_force_examples():
    wall = WallModel(position=4.0, stiffness=1000.0, damping=1.0)
    assert wall_force(3.9, 0.0, wall) == 0
    assert wall_force(4.1, 0.0, wall) == pytest.approx(100.0, rel=1e-12)
    # pulling away faster than the spring pushes: clamped to zero
    assert wall_force(4.1, -200.0, wall) == 0
    # a diverging state: a NaN reaction past the threshold passes through
    assert math.isnan(wall_force(4.1, math.nan, wall))
    assert wall_force(math.nan, 0.0, wall) == 0


def test_wall_force_continuous_at_engagement():
    wall = WallModel(position=4.0, stiffness=1000.0, damping=1.0)
    eps = 1e-12
    assert wall_force(4.0, 0.0, wall) == 0
    assert wall_force(4.0 + eps, 0.0, wall) < 1e-8
    assert wall_force(4.0 - eps, 5.0, wall) == 0


def test_wall_model_invariants():
    with pytest.raises(ValueError):
        WallModel(position=4.0, stiffness=0.0)
    with pytest.raises(ValueError):
        WallModel(position=4.0, stiffness=10.0, damping=-1.0)


def test_impedance_model_free_marker():
    assert FREE.is_free()
    assert not ImpedanceModel(0.0, 1.0, 0.0).is_free()
    with pytest.raises(ValueError):
        ImpedanceModel(-1.0, 0.0, 0.0)
