"""Hold kernel, loop terms, small-gain test, damping bound, period search."""

import cmath
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleopstab import plants, stability
from teleopstab import (
    AssumptionViolated,
    ChannelConfig,
    ControllerGains,
    ImpedanceModel,
    KernelSingular,
    NoBracket,
    PoleHit,
    RationalTF,
    RobotParams,
    SingularDenominator,
    TeleopSystem,
    alpha_zero_condition,
    controller_z_tf,
    damping_bound,
    eval_tf,
    induced_delay_gamma,
    load_scenario,
    make_grid,
    max_stable_period,
    mn_terms,
    r_kernel,
    small_gain_value,
)
from teleopstab.stability import _context, _small_gain_at, _small_gain_curve

from oracles import r_kernel_mp, small_gain_dense, zoh_pair_mp

ROBOT = RobotParams(mass=0.5, damping=1.0)
REF_GAINS = ControllerGains(kp=1.0, kv=10.0, kd=2.0, p_eps=0.002)
REF_SYSTEM = TeleopSystem(ROBOT, ROBOT, REF_GAINS)
REF_CHANNEL = ChannelConfig(T=0.006, d1=0, d2=0, eps_min=0.006, alpha=0.0)

LOW_GAINS = ControllerGains(kp=1.0, kv=0.1, kd=0.2, p_eps=0.002)
LOW_SYSTEM = TeleopSystem(ROBOT, ROBOT, LOW_GAINS)


def test_r_kernel_matches_high_precision_oracle():
    rng = np.random.default_rng(23)
    for _ in range(100):
        T = float(10 ** rng.uniform(-4, 0))
        w = float(rng.uniform(1e-6, 1.0)) * math.pi / T
        expected = r_kernel_mp(w, T)
        got = r_kernel(w, T)
        assert abs(got - expected) <= 1e-12 * abs(expected)


def test_r_kernel_half_sample_endpoint():
    for T in (0.001, 0.006, 0.1):
        assert abs(r_kernel(math.pi / T, T) - (-T / 2.0)) <= 1e-12


def test_r_kernel_quarter_sample_value():
    np.testing.assert_allclose(r_kernel(math.pi / 2.0, 1.0), -0.5 - 0.5j, rtol=1e-14)


def test_r_kernel_low_frequency_expansion():
    T = 0.006
    w = 0.001 / T
    got = r_kernel(w, T)
    approx = -1j / w - T / 2.0
    assert abs(got - approx) < 1e-3 * abs(got)
    assert abs(abs(got) - 1.0 / w) < 2e-3 * (1.0 / w)


def test_r_kernel_conjugate_symmetry():
    T = 0.006
    for w in make_grid(T).points:
        assert r_kernel(-w, T) == r_kernel(w, T).conjugate()


def test_r_kernel_singular_at_full_sample_multiples():
    T = 0.01
    for n in (1, 2, 3):
        with pytest.raises(KernelSingular):
            r_kernel(2.0 * math.pi * n / T, T)


def test_mn_terms_zero_controller():
    zero = TeleopSystem(ROBOT, ROBOT, ControllerGains(0.0, 0.0, 0.0, 0.0))
    ch = dataclasses.replace(REF_CHANNEL, alpha=1.0)
    for w in (1.0, 100.0, 500.0):
        m_m, m_s, n_m, n_s = mn_terms(zero, ch, w)
        assert n_m == 0
        assert n_s == 0
        # M terms keep their plant part: -1 + (2b/r) G*
        assert m_m != -1.0


def test_mn_terms_alpha_zero_kills_master_numerator():
    for w in (0.5, 50.0, 500.0):
        _, _, n_m, n_s = mn_terms(REF_SYSTEM, REF_CHANNEL, w)
        assert n_m == 0
        assert n_s != 0


def test_mn_terms_symmetric_system():
    ch = dataclasses.replace(REF_CHANNEL, alpha=1.0)
    for w in make_grid(0.006, 64).points:
        m_m, m_s, n_m, n_s = mn_terms(LOW_SYSTEM, ch, w)
        assert abs(m_m - m_s) <= 1e-10 * max(1.0, abs(m_m))
        assert abs(n_m - n_s) <= 1e-10 * max(1.0, abs(n_m))


def test_mn_terms_match_independent_assembly():
    # rebuild every factor from its printed formula and compare
    ch = dataclasses.replace(REF_CHANNEL, alpha=1.0)
    T = ch.T
    g = LOW_GAINS
    for w in (0.7, 30.0, 400.0):
        z = cmath.exp(1j * w * T)
        r = (T / 2.0) * (cmath.exp(-1j * w * T) - 1.0) / (1.0 - math.cos(w * T))
        c = (g.kv + g.kd + g.p_eps) * (z - 1.0) / (T * z) + g.kp
        d = 2.0 * 1.0 * 1.0 + 1.0 * c * r + 1.0 * c * r
        m_m, m_s, n_m, n_s = mn_terms(LOW_SYSTEM, ch, w)
        np.testing.assert_allclose(n_m, c * r / d, rtol=1e-9)
        np.testing.assert_allclose(n_s, c * r / d, rtol=1e-9)


def test_small_gain_reference_configuration():
    report = small_gain_value(REF_SYSTEM, REF_CHANNEL, make_grid(0.006))
    # ground truth from the dense independent oracle: this gain set fails
    # the frequency-domain test, with the peak at the grid endpoint
    assert not report.small_gain_pass
    np.testing.assert_allclose(report.small_gain_value, 1.1998712527884918, rtol=1e-9)
    np.testing.assert_allclose(report.argmax_frequency, math.pi / 0.006, rtol=1e-12)
    assert report.excluded_points == 0
    assert report.grid_size == 512

    dense_sup, dense_w = small_gain_dense(REF_SYSTEM, 0.006, alpha=0.0)
    assert abs(report.small_gain_value - dense_sup) < 1e-3 * dense_sup
    assert dense_sup >= 1.0  # oracle agrees on the verdict


@pytest.mark.parametrize("T", [1e-4, 2e-4, 1e-3, 6e-3])
@pytest.mark.parametrize(
    "system, ch",
    [
        (REF_SYSTEM, REF_CHANNEL),
        (LOW_SYSTEM, ChannelConfig(T=0.006, d1=0, d2=2, eps_min=0.006, alpha=1.0)),
    ],
    ids=["reference", "low_gain_delayed"],
)
def test_small_gain_value_matches_50_digit_zoh_pair(system, ch, T, monkeypatch):
    # the certificate is no more accurate than the held-input pair it is
    # built from: the package's pair keeps it within 1e-10 of the value
    # computed from the 50-digit pair
    ch = ch.at_period(T)
    grid = make_grid(T, 8192)
    got = small_gain_value(system, ch, grid).small_gain_value
    monkeypatch.setattr(plants, "zoh_pair", zoh_pair_mp)
    want = small_gain_value(system, ch, grid).small_gain_value
    assert abs(got - want) <= 1e-10 * want


def test_small_gain_refine_finds_an_interior_peak():
    # lightly damped robots with a high k_p: the test value peaks between two
    # points of the 512-point grid, and the golden refine lifts the reported
    # sup above the grid maximum to the peak of the bracketing interval
    system = TeleopSystem(
        RobotParams(mass=4.14, damping=0.103),
        RobotParams(mass=3.04, damping=0.0533),
        ControllerGains(kp=3.25, kv=6.7e-4, kd=1.19e-3, p_eps=0.0214),
    )
    ch = ChannelConfig(T=1.22e-3, d1=1, d2=1, eps_min=1.22e-3, alpha=1.0)
    grid = make_grid(ch.T, 512)
    coarse = small_gain_value(system, ch, grid).small_gain_value
    fine = small_gain_value(system, ch, make_grid(ch.T, 8192)).small_gain_value
    assert abs(coarse - fine) <= 1e-12
    ctx = _context(system, ch)
    values, _ = _small_gain_curve(ctx, np.asarray(grid.points))
    i = int(np.nanargmax(values))
    assert 0 < i < len(values) - 1
    assert coarse > values[i] + 1e-9
    dense, _ = _small_gain_curve(ctx, np.linspace(grid.points[i - 1], grid.points[i + 1], 200_001))
    assert abs(coarse - np.nanmax(dense)) <= 1e-12


def test_small_gain_grid_convergence():
    r512 = small_gain_value(REF_SYSTEM, REF_CHANNEL, make_grid(0.006, 512))
    r8192 = small_gain_value(REF_SYSTEM, REF_CHANNEL, make_grid(0.006, 8192))
    assert abs(r512.small_gain_value - r8192.small_gain_value) < 0.005 * r8192.small_gain_value


def test_small_gain_zero_controller_passes_at_zero():
    zero = TeleopSystem(ROBOT, ROBOT, ControllerGains(0.0, 0.0, 0.0, 0.0))
    report = small_gain_value(zero, REF_CHANNEL, make_grid(0.006))
    assert report.small_gain_value == 0
    assert report.small_gain_pass


def test_small_gain_swap_invariance_when_symmetric():
    ch = dataclasses.replace(REF_CHANNEL, alpha=1.0)
    grid = make_grid(0.006)
    a = small_gain_value(TeleopSystem(ROBOT, ROBOT, LOW_GAINS), ch, grid)
    b = small_gain_value(TeleopSystem(ROBOT, ROBOT, LOW_GAINS), ch, grid)
    assert a.small_gain_value == b.small_gain_value  # deterministic
    # asymmetric robots, swapped: master/slave exchange leaves the sup alone
    r1 = RobotParams(mass=0.5, damping=1.0)
    r2 = RobotParams(mass=0.8, damping=1.3)
    fwd = small_gain_value(TeleopSystem(r1, r2, LOW_GAINS), ch, grid)
    rev = small_gain_value(TeleopSystem(r2, r1, LOW_GAINS), ch, grid)
    assert abs(fwd.small_gain_value - rev.small_gain_value) <= 1e-10
    assert abs(fwd.argmax_frequency - rev.argmax_frequency) <= 1e-10 * fwd.argmax_frequency


def test_passing_report_has_no_exclusions():
    ch = dataclasses.replace(REF_CHANNEL, alpha=1.0)
    report = small_gain_value(LOW_SYSTEM, ch, make_grid(0.006))
    assert report.small_gain_pass
    assert report.excluded_points == 0


def test_alpha_zero_condition_zero_delay_reduction():
    # with T1 = T2 = 0 the delay term vanishes and the ratio reduces to
    # (|bs Cm r| + |bm Cs r|) / |2 bm bs Cm Cs + bs Cm^2 Cs r + bm Cs^2 Cm r|
    ch = REF_CHANNEL
    T = ch.T
    g = REF_GAINS
    for w in (5.0, 100.0, 450.0):
        z = cmath.exp(1j * w * T)
        r = r_kernel(w, T)
        c = eval_tf(controller_z_tf(g, T), z)
        num = abs(c * r) + abs(c * r)
        den = abs(2.0 * c * c + c * c * c * r + c * c * c * r)
        np.testing.assert_allclose(
            alpha_zero_condition(REF_SYSTEM, ch, w), num / den, rtol=1e-12
        )


def test_alpha_zero_condition_delay_term_periodicity():
    # at (T1+T2) w = 2 pi the delay factor 1 - e^{-j(T1+T2)w} vanishes,
    # so the value equals the zero-delay reduction at that frequency
    ch = dataclasses.replace(REF_CHANNEL, d1=1, d2=1)
    w = 2.0 * math.pi / (ch.t1 + ch.t2)
    with_delay = alpha_zero_condition(REF_SYSTEM, ch, w)
    without = alpha_zero_condition(REF_SYSTEM, REF_CHANNEL, w)
    np.testing.assert_allclose(with_delay, without, rtol=1e-10)


def test_alpha_zero_condition_builds_no_sampled_plant(monkeypatch):
    # the ratio reads r, C(z) and the dampings only; the ZOH plants of the
    # small-gain context are never part of it
    calls = []
    zoh = stability.sampled_plant_tf
    monkeypatch.setattr(stability, "sampled_plant_tf", lambda *a: calls.append(a) or zoh(*a))
    ch = dataclasses.replace(REF_CHANNEL, d1=1, d2=1)
    for w in (5.0, 100.0, 450.0):
        alpha_zero_condition(REF_SYSTEM, ch, w)
    assert calls == []


def test_alpha_zero_condition_matches_independent_evaluation():
    ch = dataclasses.replace(REF_CHANNEL, d1=1, d2=1)
    T = ch.T
    g = REF_GAINS
    bm = bs = 1.0
    for w in (100.0, 37.0, 350.0):
        s = 1j * w
        z = cmath.exp(1j * w * T)
        r = (T / 2.0) * (cmath.exp(-1j * w * T) - 1.0) / (1.0 - math.cos(w * T))
        c = (g.kv + g.kd + g.p_eps) * (z - 1.0) / (T * z) + g.kp
        d_term = r * r * (1.0 - cmath.exp(-(ch.t1 + ch.t2) * s)) / 2.0
        num = abs(d_term + bs * c * r) + abs(d_term + bm * c * r) + abs(d_term)
        den = abs(
            2.0 * bm * bs * c * c
            + bs * c * c * c * r
            + bm * c * c * c * r
            + d_term
        )
        np.testing.assert_allclose(
            alpha_zero_condition(REF_SYSTEM, ch, w), num / den, rtol=1e-12
        )
    # archived spot value for the reference gains at w = 100
    np.testing.assert_allclose(
        alpha_zero_condition(REF_SYSTEM, ch, 100.0), 6.684390804145208e-07, rtol=1e-9
    )


def test_damping_bound_examples():
    assert damping_bound(ControllerGains(0.0, 0.0, 0.0, 0.0), 0.05) == 0
    assert abs(damping_bound(REF_GAINS, 0.006) - (-15.998)) <= 1e-12
    g5 = ControllerGains(kp=8.4, kv=0.0, kd=0.0005, p_eps=0.002)
    assert abs(damping_bound(g5, 0.006) - 0.0474) <= 1e-12


def test_damping_bound_exactly_affine_in_period():
    # slope is exactly kp when the constant part vanishes
    g = ControllerGains(kp=3.7, kv=0.0, kd=0.0, p_eps=0.0)
    for t1, t2 in ((0.001, 0.002), (0.01, 0.5), (1e-4, 1e-3)):
        assert damping_bound(g, t2) - damping_bound(g, t1) == g.kp * t2 - g.kp * t1
    rng = np.random.default_rng(31)
    for _ in range(30):
        kp, kv, kd, pe = rng.uniform(0.0, 10.0, 4)
        g = ControllerGains(kp=kp, kv=kv, kd=kd, p_eps=pe)
        t1, t2 = sorted(rng.uniform(1e-4, 1.0, 2))
        diff = damping_bound(g, t2) - damping_bound(g, t1)
        assert abs(diff - kp * (t2 - t1)) <= 1e-12


def test_max_stable_period_closed_form_crossing():
    g = ControllerGains(kp=100.0, kv=0.0, kd=0.3, p_eps=0.0)
    system = TeleopSystem(ROBOT, ROBOT, g)
    res = max_stable_period(system, REF_CHANNEL, "damping_bound", (1e-4, 0.1))
    assert res.status == "bracketed"
    assert res.pass_lo and not res.pass_hi
    # bound(T) = 100 T + 0.6 crosses the damping b = 1 at T = 0.004
    assert abs(res.period - 0.004) <= 4e-7


def test_max_stable_period_reference_damping_always_passes():
    res = max_stable_period(REF_SYSTEM, REF_CHANNEL, "damping_bound", (1e-4, 0.1))
    assert res.status == "always_pass"
    assert res.period == 0.1
    assert res.pass_lo and res.pass_hi


def test_max_stable_period_reference_small_gain_always_fails():
    res = max_stable_period(REF_SYSTEM, REF_CHANNEL, "small_gain", (1e-4, 0.1))
    assert res.status == "always_fail"
    assert res.period == 1e-4
    assert not res.pass_lo and not res.pass_hi


def test_max_stable_period_small_gain_bracketed_matches_dense_oracle():
    ch = dataclasses.replace(REF_CHANNEL, alpha=1.0)
    res = max_stable_period(LOW_SYSTEM, ch, "small_gain", (0.4, 0.5))
    assert res.status == "bracketed"

    # dense oracle: plain interval halving on fresh 1024-point evaluations
    def passes(T):
        chT = dataclasses.replace(ch, T=T, eps_min=min(ch.eps_min, T))
        return small_gain_value(LOW_SYSTEM, chT, make_grid(T, 1024)).small_gain_pass

    lo, hi = 0.4, 0.5
    assert passes(lo) and not passes(hi)
    for _ in range(18):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    assert abs(res.period - crossing) <= 1e-4 * crossing


def test_max_stable_period_no_bracket_when_inverted():
    # this configuration fails at T = 1 but passes again at T = 2: the
    # half-sample peak leaves the unit disk and comes back below one
    ch = dataclasses.replace(REF_CHANNEL, alpha=1.0)
    with pytest.raises(NoBracket):
        max_stable_period(LOW_SYSTEM, ch, "small_gain", (1.0, 2.0))


def test_max_stable_period_rejects_unknown_criterion(monkeypatch):
    # the name is looked up before any criterion is evaluated
    def evaluated(*args, **kwargs):
        pytest.fail("a criterion was evaluated for an unknown name")

    monkeypatch.setattr(stability, "small_gain_value", evaluated)
    monkeypatch.setattr(stability, "damping_bound", evaluated)
    with pytest.raises(ValueError, match="unknown criterion 'spectral'"):
        max_stable_period(REF_SYSTEM, REF_CHANNEL, "spectral", (1e-4, 0.1))


def test_criteria_look_up_module_functions_at_call_time(monkeypatch):
    # a wrapper bound over stability.small_gain_value / make_grid /
    # damping_bound must see every evaluation the period search makes
    seen = []

    def recorder(name):
        real = getattr(stability, name)

        def wrapped(*args):
            seen.append(name)
            return real(*args)

        return wrapped

    for name in ("small_gain_value", "make_grid", "damping_bound"):
        monkeypatch.setattr(stability, name, recorder(name))
    max_stable_period(REF_SYSTEM, REF_CHANNEL, "damping_bound", (1e-4, 0.1))
    assert seen == ["damping_bound"] * 2
    seen.clear()
    max_stable_period(REF_SYSTEM, REF_CHANNEL, "small_gain", (1e-4, 0.1))
    # small_gain_value calls damping_bound itself, so count only these two
    assert seen.count("small_gain_value") == 2
    assert seen.count("make_grid") == 2


def test_channel_at_period_keeps_integer_delays():
    ch = ChannelConfig(T=0.006, d1=2, d2=3, eps_min=0.004, alpha=0.5)
    slow = ChannelConfig(T=0.05, d1=2, d2=3, eps_min=0.004, alpha=0.5)
    fast = ChannelConfig(T=0.001, d1=2, d2=3, eps_min=0.001, alpha=0.5)
    assert ch.at_period(0.05) == slow
    assert ch.at_period(0.001) == fast


def test_induced_delay_gamma_uniform():
    ch = ChannelConfig(T=0.006, d1=2, d2=0, eps_min=0.005, alpha=0.0)
    intervals = [0.006] * 10
    np.testing.assert_allclose(
        induced_delay_gamma(ch, intervals), 0.006 + 2 * 0.006, rtol=1e-15
    )


def test_induced_delay_gamma_example():
    ch = ChannelConfig(T=0.006, d1=2, d2=0, eps_min=0.005, alpha=0.0)
    got = induced_delay_gamma(ch, [0.006, 0.007, 0.0055])
    np.testing.assert_allclose(got, 0.019, rtol=1e-15)


def test_induced_delay_gamma_rejects_short_intervals():
    ch = ChannelConfig(T=0.006, d1=0, d2=0, eps_min=0.005, alpha=0.0)
    with pytest.raises(AssumptionViolated):
        induced_delay_gamma(ch, [0.006, 0.0])
    with pytest.raises(AssumptionViolated):
        induced_delay_gamma(ch, [0.006, 0.004])
    # a NaN interval is refused wherever it sits: max kept it first and
    # dropped it last
    for intervals in ([math.nan, 0.01], [0.01, math.nan]):
        with pytest.raises(ValueError, match="interval nan "):
            induced_delay_gamma(ch, intervals)


def test_channel_config_invariants():
    with pytest.raises(ValueError):
        ChannelConfig(T=0.0, d1=0, d2=0, eps_min=0.001, alpha=0.0)
    with pytest.raises(ValueError):
        ChannelConfig(T=0.006, d1=-1, d2=0, eps_min=0.006, alpha=0.0)
    with pytest.raises(ValueError):
        ChannelConfig(T=0.006, d1=0, d2=0, eps_min=0.007, alpha=0.0)
    with pytest.raises(ValueError):
        ChannelConfig(T=0.006, d1=0, d2=0, eps_min=0.006, alpha=-0.5)
    ch = ChannelConfig(T=0.006, d1=2, d2=3, eps_min=0.006, alpha=1.0)
    assert ch.t1 == 2 * 0.006
    assert ch.t2 == 3 * 0.006


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


_gain = st.one_of(st.just(0.0), _log_uniform(-3, 2))
_mass = _log_uniform(-2, 1.5)
# light damping puts a near-double pole at z = 1, where Horner cancels most
_damping = st.one_of(st.just(0.0), _log_uniform(-3, 2))


@settings(max_examples=300, deadline=None)
@given(
    T=_log_uniform(-5, 1),
    wT=st.one_of(st.just(math.pi), _log_uniform(-8, math.log10(math.pi))),
)
def test_r_kernel_matches_high_precision_oracle_property(T, wT):
    # over wT in (0, pi]: the kernel is excluded only below its floor on
    # 1 - cos(wT), and elsewhere agrees with the raw quotient to 16 eps
    w = wT / T
    try:
        got = r_kernel(w, T)
    except KernelSingular:
        with mpmath.workdps(50):
            one_minus_cos = 1 - mpmath.cos(mpmath.mpf(w) * mpmath.mpf(T))
        assert one_minus_cos < 1e-14 * (1 + 1e-9)
        return
    expected = r_kernel_mp(w, T)
    assert abs(got - expected) <= 16 * np.finfo(float).eps * abs(expected)


@settings(max_examples=200, deadline=None)
@given(
    gains=st.builds(ControllerGains, _gain, _gain, _gain, _gain),
    master=st.builds(RobotParams, _mass, _damping),
    slave=st.builds(RobotParams, _mass, _damping),
    alpha=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    d1=st.integers(0, 4),
    d2=st.integers(0, 4),
    T=_log_uniform(-4, 0),
)
def test_small_gain_curve_matches_scalar_path(gains, master, slave, alpha, d1, d2, T):
    # the whole-grid scan against the per-frequency path, point by point;
    # the two extra points are full-sample multiples the kernel excludes
    ch = ChannelConfig(T=T, d1=d1, d2=d2, eps_min=T, alpha=alpha)
    ctx = _context(TeleopSystem(master, slave, gains), ch)
    omegas = np.array(make_grid(T, 64).points + (2.0 * math.pi / T, 4.0 * math.pi / T))
    values, excluded = _small_gain_curve(ctx, omegas)
    scalar_excluded = 0
    for w, v, ex in zip(omegas, values, excluded):
        try:
            ref = _small_gain_at(ctx, float(w))
        except (SingularDenominator, KernelSingular):
            scalar_excluded += 1
            assert ex and math.isnan(v)
            continue
        assert not ex
        assert abs(v - ref) <= 1e-12 * abs(ref)
    assert int(np.count_nonzero(excluded)) == scalar_excluded


def test_small_gain_curve_pole_hit_propagates_unless_kernel_excluded():
    T = REF_CHANNEL.T
    ctx = _context(REF_SYSTEM, REF_CHANNEL)
    # poles at z = +-j, i.e. w = pi/(2T), a point the kernel test keeps
    on_circle = dataclasses.replace(ctx, gm_tf=RationalTF((1.0,), (1.0, 0.0, 1.0)))
    omegas = np.array([math.pi / (4.0 * T), math.pi / (2.0 * T), math.pi / T])
    with pytest.raises(PoleHit):
        _small_gain_at(on_circle, math.pi / (2.0 * T))
    with pytest.raises(PoleHit):
        _small_gain_curve(on_circle, omegas)
    # pole at z = 1, i.e. w = 2 pi/T, where the kernel test excludes first
    at_one = dataclasses.replace(ctx, gm_tf=RationalTF((1.0,), (-1.0, 1.0)))
    omegas = np.array([math.pi / (2.0 * T), 2.0 * math.pi / T])
    values, excluded = _small_gain_curve(at_one, omegas)
    assert excluded.tolist() == [False, True]
    assert math.isfinite(values[0]) and math.isnan(values[1])


def test_small_gain_every_point_excluded_raises():
    # zero master damping with alpha = 0 zeroes the shared denominator
    no_damping = TeleopSystem(RobotParams(mass=0.5, damping=0.0), ROBOT, REF_GAINS)
    ctx = _context(no_damping, REF_CHANNEL)
    _, excluded = _small_gain_curve(ctx, np.array(make_grid(REF_CHANNEL.T, 64).points))
    assert excluded.all()
    with pytest.raises(SingularDenominator):
        small_gain_value(no_damping, REF_CHANNEL, make_grid(REF_CHANNEL.T))


def test_small_gain_argmax_is_first_maximum():
    # a zero controller gives the value 0 at every point: the first wins
    zero = TeleopSystem(ROBOT, ROBOT, ControllerGains(0.0, 0.0, 0.0, 0.0))
    grid = make_grid(0.006)
    report = small_gain_value(zero, REF_CHANNEL, grid)
    assert report.argmax_frequency == grid.points[0]


# Systems shaped like the benchmark's certify pool: alpha = 1 and low gains,
# delays of 1 and 3 periods (the small-gain test reads no delay)
_POOL_GAINS = ControllerGains(kp=1.0, kv=0.1, kd=0.2, p_eps=0.002)
_POOL_HUMAN = ImpedanceModel(mass=0.0, damping=1.0, stiffness=10.0)
_POOL_SYSTEMS = {
    "pool_d1": (
        TeleopSystem(RobotParams(0.53, 0.97), RobotParams(0.49, 0.92), _POOL_GAINS, _POOL_HUMAN),
        ChannelConfig(T=0.0049, d1=1, d2=1, eps_min=0.0049, alpha=1.0),
    ),
    "pool_d3": (
        TeleopSystem(RobotParams(0.47, 1.03), RobotParams(0.54, 0.96), _POOL_GAINS, _POOL_HUMAN),
        ChannelConfig(T=0.006, d1=3, d2=3, eps_min=0.006, alpha=1.0),
    ),
}

# repr of (small_gain_value, argmax_frequency, excluded_points), recorded
# before the per-call overhead of small_gain_value was cut
_PINNED_CERTIFICATES = {
    ("wall_contact", 512): "(1.1998712527884925, 523.5987755982989, 0)",
    ("wall_contact", 8192): "(1.1998712527884925, 523.5987755982989, 0)",
    ("pool_d1", 512): "(0.4757761736995185, 641.141357875468, 0)",
    ("pool_d1", 8192): "(0.4757761736995186, 641.1413529552843, 0)",
    ("pool_d3", 512): "(0.44280262113752483, 523.5987732480364, 0)",
    ("pool_d3", 8192): "(0.44280262113752467, 523.5987755982989, 0)",
}


@pytest.mark.parametrize("case", sorted(_PINNED_CERTIFICATES))
def test_small_gain_value_is_pinned_bit_for_bit(case):
    name, n_points = case
    if name == "wall_contact":
        sc = load_scenario("scenarios/wall_contact.cfg")
        system, ch = sc.analysis_system(), sc.channel
    else:
        system, ch = _POOL_SYSTEMS[name]
    rep = small_gain_value(system, ch, make_grid(ch.T, n_points))
    got = (rep.small_gain_value, rep.argmax_frequency, rep.excluded_points)
    assert repr(got) == _PINNED_CERTIFICATES[case]


def test_max_stable_period_is_pinned_bit_for_bit():
    system, ch = _POOL_SYSTEMS["pool_d1"]
    result = max_stable_period(system, ch, "small_gain", (1e-4, 1.0))
    assert result.status == "bracketed"
    assert repr(result.period) == "0.5030556808471679"
