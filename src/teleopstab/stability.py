"""Absolute-stability tests for the sampled-data teleoperation loop.

The loop with samplers, holds, and integer-period network delays reduces to a
scattering-style small-gain condition

    sup_w | M_m(w) N_m(w) + M_s(w) N_s(w) | < 1

built from the hold kernel r(jw) = (T/2)(e^(-jwT) - 1)/(1 - cos wT), the
z-domain controllers, and the ZOH-discretized robot plants.  A closed-form
damping bound and a delay-robust ratio condition for the unscaled (alpha = 0)
architecture sit next to it.  tests/test_sim.py pins each of the three passing
on a loop that diverges, so none is a stability certificate.  The plants
default to the bare robots; termination impedances can be folded in.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .control import ControllerGains, controller_z_tf
from .lti import (
    _NOISE_RTOL, FrequencyGrid, RationalTF, _tf_at, cdiv, cmul, eval_tf, eval_tf_grid,
    make_grid,
)
from .plants import FREE, ImpedanceModel, RobotParams, plant_position_tf, sampled_plant_tf

__all__ = [
    "CRITERIA",
    "ChannelConfig",
    "TeleopSystem",
    "StabilityReport",
    "MaxPeriodResult",
    "KernelSingular",
    "SingularDenominator",
    "NoBracket",
    "AssumptionViolated",
    "r_kernel",
    "mn_terms",
    "small_gain_value",
    "small_gain_at_period",
    "alpha_zero_condition",
    "damping_bound",
    "max_stable_period",
    "induced_delay_gamma",
]

_KERNEL_FLOOR = 1e-14  # on 1 - cos(wT)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BISECT_REL_WIDTH = 1e-4


class KernelSingular(ArithmeticError):
    """Hold kernel r(jw) evaluated where 1 - cos(wT) vanishes."""


class SingularDenominator(ArithmeticError):
    """Shared loop denominator vanished at the requested frequency."""


class NoBracket(ValueError):
    """Criterion fails at T_lo but passes at T_hi; no first flip exists."""


class AssumptionViolated(ValueError):
    """Observed sampling intervals violate the minimum-interval assumption."""


@dataclass(frozen=True)
class ChannelConfig:
    """Sampling period, integer-period delays, and position scaling.

    alpha scales the transmitted position signal in the frequency-domain test
    terms; the time-domain control law is independent of it.
    """

    T: float  # s
    d1: int  # forward (master -> slave) delay, periods
    d2: int  # backward (slave -> master) delay, periods
    eps_min: float  # s, minimum admissible sampling interval
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.T < math.inf:
            raise ValueError("sampling period must be positive and finite")
        for name in ("d1", "d2"):
            d = getattr(self, name)
            if isinstance(d, bool) or not isinstance(d, int) or d < 0:
                raise ValueError(f"{name} must be a nonnegative integer (periods)")
        if not (0.0 < self.eps_min <= self.T):
            raise ValueError("eps_min must satisfy 0 < eps_min <= T")
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError("alpha must be nonnegative and finite")

    @property
    def t1(self) -> float:
        """Forward delay in seconds."""
        return self.d1 * self.T

    @property
    def t2(self) -> float:
        """Backward delay in seconds."""
        return self.d2 * self.T

    def at_period(self, T: float) -> ChannelConfig:
        """The same channel sampled at period T.

        The delays stay the same integer numbers of periods, so their times
        scale with T; eps_min is lowered to min(eps_min, T).
        """
        return replace(self, T=T, eps_min=min(self.eps_min, T))


@dataclass(frozen=True)
class TeleopSystem:
    """Robots, shared gains, and optional termination impedances for analysis."""

    master: RobotParams
    slave: RobotParams
    gains: ControllerGains
    human: ImpedanceModel = FREE
    env: ImpedanceModel = FREE


@dataclass(frozen=True)
class StabilityReport:
    """Joint outcome of the frequency-domain test and the damping bound."""

    period: float
    small_gain_value: float
    small_gain_pass: bool
    # the first grid maximum after the golden-section refine of its bracket;
    # not determined where the curve is flat at its sup, as rounding picks it
    argmax_frequency: float  # rad/s
    grid_size: int
    excluded_points: int
    damping_bound: float
    damping_pass_master: bool
    damping_pass_slave: bool


@dataclass(frozen=True)
class MaxPeriodResult:
    """Largest period passing a criterion plus both endpoint evaluations.

    Neither criterion is a stability certificate; see max_stable_period.

    status is "bracketed" when the criterion flipped inside the range,
    "always_pass"/"always_fail" when it never did (period is then the
    corresponding endpoint).
    """

    period: float
    status: str
    criterion: str
    t_lo: float
    t_hi: float
    pass_lo: bool
    pass_hi: bool


def r_kernel(omega: float, T: float) -> complex:
    """Hold kernel r(jw) = (T/2)(e^(-jwT) - 1)/(1 - cos wT).

    Evaluated through the identity r = -(T/2)(1 + j*cot(wT/2)), which is the
    same function without the 1 - cos cancellation (about five digits are
    lost near the grid floor otherwise).  Equivalently r = T/(e^(jwT) - 1).
    """
    if not T > 0.0:
        raise ValueError("sampling period must be positive")
    half = 0.5 * omega * T
    sin_half = math.sin(half)
    if 2.0 * sin_half * sin_half < _KERNEL_FLOOR:
        raise KernelSingular(f"1 - cos(wT) ~ 0 at omega = {omega}, T = {T}")
    return complex(-0.5 * T, -0.5 * T * (math.cos(half) / sin_half))


@dataclass(frozen=True)
class _LoopContext:
    """Frequency-independent pieces of the loop, prepared once per (sys, ch)."""

    T: float
    alpha: float
    b_m: float
    b_s: float
    c_tf: RationalTF  # z-domain controller, shared by both robots
    gm_tf: RationalTF  # ZOH-discretized plants, z-domain
    gs_tf: RationalTF

    @cached_property
    def mn(self):
        """The scattering terms (M_m, M_s, N_m, N_s) at one frequency, as a
        function of omega; see mn_terms.

        Built on first use with the coefficient tuples and constant products
        hoisted.  Each term takes Python's complex operations in the order
        of its formula, so the hoisting changes no bit.
        """
        T = self.T
        ab_s = self.alpha * self.b_s
        b_m = self.b_m
        two_bmbs = 2.0 * self.b_m * self.b_s
        two_bm, two_bs = 2.0 * self.b_m, 2.0 * self.b_s
        c_at, gm_at, gs_at = _tf_at(self.c_tf), _tf_at(self.gm_tf), _tf_at(self.gs_tf)
        exp = cmath.exp

        def mn(omega: float):
            r = r_kernel(omega, T)
            z = exp(1j * omega * T)
            abs_z = abs(z)
            c = c_at(z, abs_z)  # C(z) = C_m(z) = C_s(z)
            gm = gm_at(z, abs_z)
            gs = gs_at(z, abs_z)
            t_alpha = ab_s * c * r
            t_slave = b_m * c * r
            den = two_bmbs + t_alpha + t_slave
            scale = two_bmbs + abs(t_alpha) + abs(t_slave)
            if abs(den) <= _NOISE_RTOL * scale:
                raise SingularDenominator(f"loop denominator ~ 0 at omega = {omega}")
            m_m = -1.0 + (two_bm / r) * gm
            m_s = -1.0 + (two_bs / r) * gs
            return m_m, m_s, t_alpha / den, t_slave / den

        return mn


def _context(system: TeleopSystem, ch: ChannelConfig) -> _LoopContext:
    return _LoopContext(
        T=ch.T,
        alpha=ch.alpha,
        b_m=system.master.damping,
        b_s=system.slave.damping,
        c_tf=controller_z_tf(system.gains, ch.T),
        gm_tf=sampled_plant_tf(plant_position_tf(system.master, system.human), ch.T),
        gs_tf=sampled_plant_tf(plant_position_tf(system.slave, system.env), ch.T),
    )


def mn_terms(system: TeleopSystem, ch: ChannelConfig, omega: float):
    """Scattering terms (M_m, M_s, N_m, N_s) of the loop at one frequency.

    N_m = alpha*b_s*C_m*r / D,  N_s = b_m*C_s*r / D  with the shared
    denominator D = 2*b_m*b_s + alpha*b_s*C_m*r + b_m*C_s*r;
    M_side = -1 + (2*b_side/r)*G_side(e^(jwT)), controllers and discretized
    plants evaluated at z = e^(jwT).
    """
    return _context(system, ch).mn(omega)


def _small_gain_at(ctx: _LoopContext, omega: float) -> float:
    m_m, m_s, n_m, n_s = ctx.mn(omega)
    return abs(m_m * n_m + m_s * n_s)


def _small_gain_curve(ctx: _LoopContext, omegas: np.ndarray):
    """Array form of _small_gain_at over the frequencies ``omegas``.

    Returns (values, excluded).  ``excluded`` marks the points where the
    scalar path raises KernelSingular or SingularDenominator, and ``values``
    is NaN there.  PoleHit propagates from any point the kernel test did not
    exclude, as it does from the scalar path.
    """
    T = ctx.T
    half = 0.5 * omegas * T
    sin_half = np.sin(half)
    excluded = 2.0 * sin_half * sin_half < _KERNEL_FLOOR
    some_excluded = bool(excluded.any())
    if some_excluded:
        kept = ~excluded
        half, sin_half, omegas = half[kept], sin_half[kept], omegas[kept]
    r = -0.5 * T + 1j * (-0.5 * T * (np.cos(half) / sin_half))
    z = np.exp(1j * omegas * T)
    c = eval_tf_grid(ctx.c_tf, z)
    gm = eval_tf_grid(ctx.gm_tf, z)
    gs = eval_tf_grid(ctx.gs_tf, z)
    # the same operations as _LoopContext.mn, with Python's complex rounding
    t_alpha = cmul(ctx.alpha * ctx.b_s * c, r)
    t_slave = cmul(ctx.b_m * c, r)
    den = 2.0 * ctx.b_m * ctx.b_s + t_alpha + t_slave
    scale = 2.0 * ctx.b_m * ctx.b_s + np.abs(t_alpha) + np.abs(t_slave)
    singular = np.abs(den) <= _NOISE_RTOL * scale
    n_m = cdiv(t_alpha, den)
    n_s = cdiv(t_slave, den)
    m_m = -1.0 + cmul(cdiv(2.0 * ctx.b_m, r), gm)
    m_s = -1.0 + cmul(cdiv(2.0 * ctx.b_s, r), gs)
    curve = np.where(singular, np.nan, np.abs(cmul(m_m, n_m) + cmul(m_s, n_s)))
    if not some_excluded:
        return curve, singular
    values = np.full(excluded.shape, np.nan)
    values[kept] = curve
    excluded[kept] = singular
    return values, excluded


def _golden_refine(ctx: _LoopContext, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization of the test value on [lo, hi]."""

    def f(w: float) -> float:
        try:
            return _small_gain_at(ctx, w)
        except (SingularDenominator, KernelSingular):
            return -math.inf

    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    best_w, best_v = (x1, f1) if f1 >= f2 else (x2, f2)
    for _ in range(200):
        if (b - a) <= 1e-9 * b:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        if f1 >= best_v:
            best_w, best_v = x1, f1
        if f2 >= best_v:
            best_w, best_v = x2, f2
    return best_w, best_v


def small_gain_value(
    system: TeleopSystem, ch: ChannelConfig, grid: FrequencyGrid
) -> StabilityReport:
    """Estimate sup_w |M_m N_m + M_s N_s| over the grid and judge the loop.

    The loop context (controllers and ZOH plants) is built once per call and
    the test value is evaluated over the whole grid as numpy arrays.  The
    first grid maximum is refined by a scalar golden-section pass over its
    bracketing interval.  Frequencies where the hold kernel or the shared
    denominator is numerically singular are excluded and counted; a passing
    verdict requires the value below one *and* zero exclusions.  PoleHit
    propagates from a point that is not excluded, and SingularDenominator is
    raised when no grid point yields a value.

    The value tends to 1 from below as w -> 0 for position-coordinating
    loops, so the reported sup depends on the grid floor; comparisons across
    grid sizes are meaningful because every grid shares the same floor.

    Cost on scenarios/wall_contact.cfg (2-vCPU Xeon, numpy 2.4, the host's
    faster spells): about 0.8 ms a call at 512 points, of which the context
    takes 0.14 ms (two ZOH discretizations), the curve 0.35 ms and the
    refine, some 37 scalar evaluations at 3 to 4 us each, 0.15 ms.  At
    8 192 points the curve takes 2.5 ms.  The curve's cost is mostly the
    fixed cost of its numpy calls, about 100 a call.
    """
    ctx = _context(system, ch)
    values, excluded = _small_gain_curve(ctx, grid._array)
    if np.isnan(values).all():
        raise SingularDenominator("every grid point was singular")
    best_i = int(np.nanargmax(values))  # first maximum; NaN never wins
    best_v = float(values[best_i])
    n_excluded = int(np.count_nonzero(excluded))
    lo = grid.points[max(best_i - 1, 0)]
    hi = grid.points[min(best_i + 1, len(grid.points) - 1)]
    best_w = grid.points[best_i]
    w_ref, v_ref = _golden_refine(ctx, lo, hi)
    if v_ref > best_v:
        best_v, best_w = v_ref, w_ref
    bound = damping_bound(system.gains, ch.T)
    return StabilityReport(
        period=ch.T,
        small_gain_value=best_v,
        small_gain_pass=(best_v < 1.0 and n_excluded == 0),
        argmax_frequency=best_w,
        grid_size=len(grid.points),
        excluded_points=n_excluded,
        damping_bound=bound,
        damping_pass_master=system.master.damping > bound,
        damping_pass_slave=system.slave.damping > bound,
    )


def alpha_zero_condition(system: TeleopSystem, ch: ChannelConfig, omega: float) -> float:
    """Delay-robust ratio test for the unscaled (alpha = 0) architecture.

    Returns (|D + b_s C_m r| + |D + b_m C_s r| + |D|) /
    |2 b_m b_s C_m C_s + b_s C_m^2 C_s r + b_m C_s^2 C_m r + D|
    with D = r^2 (1 - e^(-(T1+T2) s))/2 at s = j*omega, evaluated with the
    shared controller C_m = C_s = C; the loop passes at this frequency when
    the ratio is below one.  Periodic in (T1+T2)*omega with period 2*pi;
    reduces to the undelayed test at T1 = T2 = 0.
    """
    b_m = system.master.damping
    b_s = system.slave.damping
    r = r_kernel(omega, ch.T)
    c = eval_tf(controller_z_tf(system.gains, ch.T), cmath.exp(1j * omega * ch.T))
    d_term = r * r * (1.0 - cmath.exp(-(ch.t1 + ch.t2) * 1j * omega)) / 2.0
    num = abs(d_term + b_s * c * r) + abs(d_term + b_m * c * r) + abs(d_term)
    t0 = 2.0 * b_m * b_s * c * c
    t1 = b_s * c * c * c * r
    t2 = b_m * c * c * c * r
    den = t0 + t1 + t2 + d_term
    scale = abs(t0) + abs(t1) + abs(t2) + abs(d_term)
    if abs(den) <= _NOISE_RTOL * scale:
        raise SingularDenominator(f"ratio denominator ~ 0 at omega = {omega}")
    return num / abs(den)


def damping_bound(g: ControllerGains, T: float) -> float:
    """Closed-form damping bound K_p*T + 2*K_d - 2*P_eps - 2*K_v.

    A robot with damping strictly above this value passes.  Affine in T with
    slope K_p.
    """
    if not T > 0.0:
        raise ValueError("sampling period must be positive")
    return g.kp * T + 2.0 * g.kd - 2.0 * g.p_eps - 2.0 * g.kv


def small_gain_at_period(
    system: TeleopSystem, ch: ChannelConfig, grid_points: int
) -> StabilityReport:
    """small_gain_value on make_grid(ch.T, grid_points): the loop judged at ch's period."""
    return small_gain_value(system, ch, make_grid(ch.T, grid_points))


def _small_gain_passes(system: TeleopSystem, ch: ChannelConfig, grid_points: int) -> bool:
    return small_gain_at_period(system, ch, grid_points).small_gain_pass


def _damping_bound_passes(system: TeleopSystem, ch: ChannelConfig, grid_points: int) -> bool:
    bound = damping_bound(system.gains, ch.T)
    return min(system.master.damping, system.slave.damping) > bound


# Criterion name -> pass predicate (system, channel at the period, grid points).
# The predicates look small_gain_value, make_grid and damping_bound up in this
# module at call time, so a wrapper bound over those names sees every call.
CRITERIA = {
    "small_gain": _small_gain_passes,
    "damping_bound": _damping_bound_passes,
}


def max_stable_period(
    system: TeleopSystem,
    ch_template: ChannelConfig,
    criterion: str,
    t_range: tuple[float, float],
    grid_points: int = 512,
) -> MaxPeriodResult:
    """Largest sampling period on [T_lo, T_hi] that passes the chosen criterion.

    ``criterion`` names an entry of CRITERIA; an unknown name raises
    ValueError before anything is evaluated.  Bisects to a relative bracket
    width of 1e-4 when the criterion passes at T_lo and fails at T_hi.  If it
    never flips, the corresponding endpoint is returned with an always_pass /
    always_fail status.  An inverted bracket (fail at T_lo, pass at T_hi) has
    no first flip and raises NoBracket.

    Neither criterion is a stability certificate.  damping_bound passes on
    all of [1e-4, 0.1] s on scenarios/wall_contact.cfg, yet the simulated
    loop is bounded at T = 0.04 s and diverges at T = 0.05 s.  small_gain
    passes at T = 0.072 s on a delayed loop that diverges
    (tests/test_sim.py::test_small_gain_passes_where_the_loop_diverges),
    and on scenarios/wall_contact.cfg it fails at each of 1, 6, 50 and
    200 ms, though the runs at 1 and 6 ms are bounded.
    """
    t_lo, t_hi = t_range
    if not (0.0 < t_lo < t_hi):
        raise ValueError("need 0 < T_lo < T_hi")
    try:
        passes = CRITERIA[criterion]
    except KeyError:
        raise ValueError(f"unknown criterion {criterion!r}") from None

    def passes_at(T: float) -> bool:
        return passes(system, ch_template.at_period(T), grid_points)

    pass_lo = passes_at(t_lo)
    pass_hi = passes_at(t_hi)
    common = dict(
        criterion=criterion, t_lo=t_lo, t_hi=t_hi, pass_lo=pass_lo, pass_hi=pass_hi
    )
    if pass_lo and pass_hi:
        return MaxPeriodResult(period=t_hi, status="always_pass", **common)
    if not pass_lo and not pass_hi:
        return MaxPeriodResult(period=t_lo, status="always_fail", **common)
    if not pass_lo:
        raise NoBracket("criterion fails at T_lo but passes at T_hi")
    lo, hi = t_lo, t_hi
    while (hi - lo) > _BISECT_REL_WIDTH * hi:
        mid = 0.5 * (lo + hi)
        if passes_at(mid):
            lo = mid
        else:
            hi = mid
    return MaxPeriodResult(period=0.5 * (lo + hi), status="bracketed", **common)


def induced_delay_gamma(ch: ChannelConfig, observed_intervals) -> float:
    """Worst-case induced delay sup mu(t) from observed sampling intervals.

    gamma = max interval + forward network delay d1*T.  Every interval must
    respect the minimum-interval assumption (>= eps_min).  A NaN interval,
    which max keeps or drops by its place, raises ValueError.
    """
    intervals = [float(v) for v in observed_intervals]
    if not intervals:
        raise ValueError("need at least one observed interval")
    for iv in intervals:
        if iv != iv:
            raise ValueError(f"interval {iv} is not a number")
        if iv < ch.eps_min:
            raise AssumptionViolated(
                f"interval {iv} below the minimum admissible {ch.eps_min}"
            )
    return max(intervals) + ch.t1
