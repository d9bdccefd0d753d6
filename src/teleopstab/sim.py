"""Deterministic hybrid simulation of the sampled-data teleoperation loop.

Continuous robot dynamics are integrated with fixed-step classical RK4 at
T/substeps; samplers fire on the integration grid, network delays are integer
multiples of T, and the controller outputs are zero-order held between packet
arrivals.  Operator-force switches and wall contact transitions are localized
inside substeps by deterministic bisection so the integrator only ever sees
smooth pieces; sampling and hold instants stay exactly grid-aligned.

Identical scenario + seed reproduces bit-identical traces.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .control import ControllerGains, LatchedState, control_continuous, control_sampled
from .lti import make_grid
from .plants import ImpedanceModel, RobotParams, WallModel, wall_force
from .stability import ChannelConfig, StabilityReport, TeleopSystem, small_gain_value

__all__ = [
    "NonidealityConfig",
    "OperatorForce",
    "SimScenario",
    "SimTrace",
    "SimVerdict",
    "SweepRow",
    "run_scenario",
    "verdict",
    "sweep_period",
    "apply_nonidealities",
    "clamp_force",
    "write_trace_csv",
    "write_events_csv",
]

_CSV_HEADER = "t,x_m,v_m,x_s,v_s,F_m,F_s,F_h,F_e"

# Largest trace run_scenario will allocate: nine float64 columns of one row
# per substep.  A longer run is rejected before anything is allocated.
TRACE_BUDGET_BYTES = 2 * 1024**3


@dataclass(frozen=True)
class NonidealityConfig:
    """Hardware-path model: encoder, actuator saturation, velocity filter, noise.

    Defaults are the reference hardware constants (4096-step encoder, +/-5 V
    drive at 4.054 V per N*m, 50 Hz first-order velocity filter).  noise_std
    scales a standard-normal draw per sample; zero disables the draw.
    """

    encoder_step: float = 2.0 * math.pi / 4096.0  # rad
    actuator_limit: float = 5.0  # V
    force_to_volts: float = 4.054  # V per N*m
    velocity_filter_cutoff: float = 50.0  # Hz
    noise_std: float = 0.0  # sensor units

    def __post_init__(self) -> None:
        for name in ("encoder_step", "actuator_limit", "force_to_volts", "velocity_filter_cutoff"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be nonnegative")


@dataclass(frozen=True)
class OperatorForce:
    """Rectangular exogenous force: ``magnitude`` on [start, stop), else zero."""

    start: float  # s
    stop: float  # s
    magnitude: float = 1.0  # N*m

    def __post_init__(self) -> None:
        if not (0.0 <= self.start <= self.stop):
            raise ValueError("need 0 <= start <= stop")
        if not math.isfinite(self.magnitude):
            raise ValueError("magnitude must be finite")


@dataclass(frozen=True)
class SimScenario:
    """Everything a run needs except the seed.

    State starts at rest at the origin; startup latches freeze the remote
    signals at the local initial condition, so the coordination error is zero
    before the first packet arrives.
    """

    master: RobotParams
    slave: RobotParams
    human: ImpedanceModel
    wall: WallModel
    gains: ControllerGains
    channel: ChannelConfig
    operator_force: OperatorForce
    duration: float  # s
    integrator_substeps: int = 10
    nonidealities: NonidealityConfig | None = None
    jitter_sampling: bool = False
    extra_loop_latency: float = 0.0  # s, integer multiple of T

    def __post_init__(self) -> None:
        if not self.duration > 0.0:
            raise ValueError("duration must be positive")
        n = self.integrator_substeps
        if isinstance(n, bool) or not isinstance(n, int) or n < 4:
            raise ValueError("integrator_substeps must be an integer >= 4")
        if self.operator_force.stop > self.duration:
            raise ValueError("operator force window must lie within [0, duration]")
        if self.extra_loop_latency < 0.0:
            raise ValueError("extra_loop_latency must be nonnegative")
        k = round(self.extra_loop_latency / self.channel.T)
        if abs(self.extra_loop_latency - k * self.channel.T) > 1e-9 * self.channel.T:
            raise ValueError("extra_loop_latency must be an integer multiple of T")
        if self.jitter_sampling and self.channel.eps_min * n < self.channel.T * (1.0 - 1e-12):
            raise ValueError("jitter mode needs eps_min >= T/substeps")

    @property
    def extra_latency_periods(self) -> int:
        return round(self.extra_loop_latency / self.channel.T)


@dataclass(frozen=True)
class SimTrace:
    """Substep-resolution signal record plus sampler/hold event instants.

    hold_events_* pair with sample_events by index: entry i is the arrival of
    the packet sampled at sample_events[i], exactly one delay later.
    """

    t: np.ndarray
    x_m: np.ndarray
    v_m: np.ndarray
    x_s: np.ndarray
    v_s: np.ndarray
    f_m: np.ndarray
    f_s: np.ndarray
    f_h: np.ndarray
    f_e: np.ndarray
    sample_events: np.ndarray
    hold_events_m: np.ndarray  # master-side hold updates (carry slave packets)
    hold_events_s: np.ndarray  # slave-side hold updates (carry master packets)
    period: float
    substep: float
    divergence_time: float | None = None


@dataclass(frozen=True)
class SimVerdict:
    """Boundedness and settling judgement of one trace."""

    bounded: bool
    max_abs_position: float
    settling_ok: bool
    final_velocity_max: float
    divergence_time: float | None = None


@dataclass(frozen=True)
class SweepRow:
    """One period's joint simulation + analysis outcome."""

    period: float
    verdict: SimVerdict | None
    stability: StabilityReport | None
    error: str | None = None


class _SensorPipeline:
    """Per-robot measurement path: additive noise, encoder floor, velocity lag.

    The first-order filter is discretized exactly at the nominal rate
    (pole e^(-2*pi*fc*T)) and starts from zero state.
    """

    def __init__(self, cfg: NonidealityConfig, T: float, rng: np.random.Generator):
        self.step = cfg.encoder_step
        self.noise_std = cfg.noise_std
        self.pole = math.exp(-2.0 * math.pi * cfg.velocity_filter_cutoff * T)
        self.rng = rng
        self.filter_state = 0.0

    def sample(self, x: float, v: float) -> tuple[float, float]:
        if self.noise_std > 0.0:
            n = self.rng.standard_normal(2)
            x = x + self.noise_std * float(n[0])
            v = v + self.noise_std * float(n[1])
        xq = math.floor(x / self.step) * self.step
        self.filter_state = self.pole * self.filter_state + (1.0 - self.pole) * v
        return xq, self.filter_state


def clamp_force(f: float, cfg: NonidealityConfig) -> float:
    """Actuator saturation in force units: |F| <= limit/force_to_volts."""
    lim = cfg.actuator_limit / cfg.force_to_volts
    if f > lim:
        return lim
    if f < -lim:
        return -lim
    return f


def apply_nonidealities(
    positions,
    velocities,
    cfg: NonidealityConfig,
    rng_seed,
    T: float,
):
    """Batch form of the sensor pipeline; reproduces one robot's stream.

    Seeding with the same child seed the simulator uses ([seed, 0] master,
    [seed, 1] slave) gives bit-identical measured sequences.
    """
    pos = np.asarray(positions, dtype=float)
    vel = np.asarray(velocities, dtype=float)
    if pos.shape != vel.shape:
        raise ValueError("positions and velocities must have matching shapes")
    pipe = _SensorPipeline(cfg, T, np.random.default_rng(rng_seed))
    out_p = np.empty_like(pos)
    out_v = np.empty_like(vel)
    for i in range(pos.size):
        out_p[i], out_v[i] = pipe.sample(float(pos[i]), float(vel[i]))
    return out_p, out_v


def run_scenario(
    sc: SimScenario, seed: int = 0, controller_mode: str = "sampled"
) -> SimTrace:
    """Integrate one scenario and return the substep-resolution trace.

    controller_mode "sampled" (default) runs the full sampler/delay/hold
    machinery; "continuous" recomputes the control law from the true state at
    every substep (reference loop for consistency checks).  A non-finite
    state aborts the run; the trace is truncated at the offending sample and
    carries its time as divergence_time.

    Raises ValueError, before allocating, when the nine trace columns would
    exceed TRACE_BUDGET_BYTES.
    """
    if controller_mode not in ("sampled", "continuous"):
        raise ValueError(f"unknown controller_mode {controller_mode!r}")
    g = sc.gains
    ch = sc.channel
    T = ch.T
    nsub = sc.integrator_substeps
    h = T / nsub
    n_periods = math.ceil(sc.duration / T - 1e-9)
    n_total = n_periods * nsub
    trace_bytes = 9 * 8 * (n_total + 1)
    if trace_bytes > TRACE_BUDGET_BYTES:
        raise ValueError(
            f"trace of {n_total + 1} rows needs {trace_bytes} bytes, over the "
            f"{TRACE_BUDGET_BYTES}-byte budget; shorten duration or raise the period"
        )

    # hoisted dynamics constants
    inv_mm = 1.0 / (sc.master.mass + sc.human.mass)
    b_m_tot = sc.master.damping + sc.human.damping
    k_h = sc.human.stiffness
    m_h = sc.human.mass
    b_h = sc.human.damping
    inv_ms = 1.0 / sc.slave.mass
    b_s = sc.slave.damping
    wall = sc.wall
    f_start = sc.operator_force.start
    f_stop = sc.operator_force.stop
    f_mag = sc.operator_force.magnitude

    def field(xm, vm, xs, vs, fstar, fm, fs):
        # torques fm, fs already carry the feedback sign (tau = -Kp e - ...)
        am = (fstar - k_h * xm - b_m_tot * vm + fm) * inv_mm
        w = wall_force(xs, vs, wall)
        return vm, am, vs, (-w - b_s * vs + fs) * inv_ms

    def rk4(xm, vm, xs, vs, dt, fstar, fm, fs):
        k1x, k1v, k1y, k1u = field(xm, vm, xs, vs, fstar, fm, fs)
        h2 = 0.5 * dt
        k2x, k2v, k2y, k2u = field(
            xm + h2 * k1x, vm + h2 * k1v, xs + h2 * k1y, vs + h2 * k1u, fstar, fm, fs
        )
        k3x, k3v, k3y, k3u = field(
            xm + h2 * k2x, vm + h2 * k2v, xs + h2 * k2y, vs + h2 * k2u, fstar, fm, fs
        )
        k4x, k4v, k4y, k4u = field(
            xm + dt * k3x, vm + dt * k3v, xs + dt * k3y, vs + dt * k3u, fstar, fm, fs
        )
        s6 = dt / 6.0
        return (
            xm + s6 * (k1x + 2.0 * (k2x + k3x) + k4x),
            vm + s6 * (k1v + 2.0 * (k2v + k3v) + k4v),
            xs + s6 * (k1y + 2.0 * (k2y + k3y) + k4y),
            vs + s6 * (k1u + 2.0 * (k2u + k3u) + k4u),
        )

    def wall_branch(xs, vs):
        # 0 free flight, 1 pushing contact, 2 clamped (spring+damper pulls)
        if xs <= wall.position:
            return 0
        return 1 if wall_force(xs, vs, wall) > 0.0 else 2

    def advance_smooth(t0, t1, xm, vm, xs, vs, fstar, fm, fs):
        # integrate a profile-constant piece, bisecting wall branch changes
        for _ in range(64):
            dt = t1 - t0
            if dt <= 0.0:
                return xm, vm, xs, vs
            b0 = wall_branch(xs, vs)
            y = rk4(xm, vm, xs, vs, dt, fstar, fm, fs)
            if wall_branch(y[2], y[3]) == b0 or not (
                math.isfinite(y[2]) and math.isfinite(y[3])
            ):
                return y
            lo, hi = 0.0, dt
            y_hi = y
            for _ in range(64):
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                ym = rk4(xm, vm, xs, vs, mid, fstar, fm, fs)
                if wall_branch(ym[2], ym[3]) == b0:
                    lo = mid
                else:
                    hi = mid
                    y_hi = ym
            xm, vm, xs, vs = y_hi
            t0 = t0 + hi
        return rk4(xm, vm, xs, vs, t1 - t0, fstar, fm, fs)

    def profile(t: float) -> float:
        return f_mag if f_start <= t < f_stop else 0.0

    def advance_substep(t0, xm, vm, xs, vs, fm, fs):
        t1 = t0 + h
        cuts = [t0]
        if t0 < f_start < t1:
            cuts.append(f_start)
        if t0 < f_stop < t1:
            cuts.append(f_stop)
        cuts.append(t1)
        for a, b in zip(cuts, cuts[1:]):
            fstar = profile(0.5 * (a + b))
            xm, vm, xs, vs = advance_smooth(a, b, xm, vm, xs, vs, fstar, fm, fs)
        return xm, vm, xs, vs

    # sampling machinery
    sampled = controller_mode == "sampled"
    cfg = sc.nonidealities

    def clamp(f: float) -> float:
        return f if cfg is None else clamp_force(f, cfg)

    pipe_m = pipe_s = None
    if sampled and cfg is not None:
        pipe_m = _SensorPipeline(cfg, T, np.random.default_rng([seed, 0]))
        pipe_s = _SensorPipeline(cfg, T, np.random.default_rng([seed, 1]))

    # (substep, time) of each sample; jittered intervals are drawn as needed
    if sampled and sc.jitter_sampling:
        rng_jit = np.random.default_rng([seed, 2])
        min_sub = max(1, math.ceil(ch.eps_min / h - 1e-9))

        def jittered():
            j = 0
            while True:
                yield j, j * h
                u = float(rng_jit.uniform(ch.eps_min, T))
                j += min(nsub, max(min_sub, int(round(u / h))))

        instants = jittered()
    else:
        instants = ((k * nsub, k * T) for k in itertools.count())

    extra = sc.extra_latency_periods
    d1p = ch.d1 + extra
    d2p = ch.d2 + extra
    d1_sub = d1p * nsub
    d2_sub = d2p * nsub

    # state and latches
    x_m = v_m = x_s = v_s = 0.0
    latch_m = LatchedState(x_m, v_m, x_m, v_m, 0.0)
    latch_s = LatchedState(x_s, v_s, x_s, v_s, 0.0)
    f_m_held = clamp(control_sampled(g, latch_m))
    f_s_held = clamp(control_sampled(g, latch_s))

    # packets in flight, oldest first: (arrival substep, sample time, measurement)
    to_s: deque[tuple[int, float, tuple[float, float]]] = deque()
    to_m: deque[tuple[int, float, tuple[float, float]]] = deque()
    sample_times = array("d")
    hold_m_times = array("d")
    hold_s_times = array("d")

    n_rows = n_total + 1
    t_arr = np.empty(n_rows)
    xm_arr = np.empty(n_rows)
    vm_arr = np.empty(n_rows)
    xs_arr = np.empty(n_rows)
    vs_arr = np.empty(n_rows)
    fm_arr = np.empty(n_rows)
    fs_arr = np.empty(n_rows)
    fh_arr = np.empty(n_rows)
    fe_arr = np.empty(n_rows)

    def record(i, t):
        fstar = profile(t)
        a_m = field(x_m, v_m, x_s, v_s, fstar, f_m_held, f_s_held)[1]
        t_arr[i] = t
        xm_arr[i] = x_m
        vm_arr[i] = v_m
        xs_arr[i] = x_s
        vs_arr[i] = v_s
        fm_arr[i] = f_m_held
        fs_arr[i] = f_s_held
        fh_arr[i] = fstar - m_h * a_m - b_h * v_m - k_h * x_m
        fe_arr[i] = -wall_force(x_s, v_s, wall)

    next_sample, t_sample = next(instants)
    divergence_time: float | None = None
    rows = n_rows
    for j in range(n_total):
        t_j = j * h
        if sampled:
            if j == next_sample:
                if pipe_m is not None:
                    own_m = pipe_m.sample(x_m, v_m)
                    own_s = pipe_s.sample(x_s, v_s)
                else:
                    own_m = (x_m, v_m)
                    own_s = (x_s, v_s)
                t_own = t_sample
                sample_times.append(t_own)
                to_s.append((j + d1_sub, t_own, own_m))
                to_m.append((j + d2_sub, t_own, own_s))
                next_sample, t_sample = next(instants)
            if to_s and to_s[0][0] == j:
                _, t_sent, remote = to_s.popleft()
                latch_s = LatchedState(own_s[0], own_s[1], remote[0], remote[1], t_own)
                f_s_held = clamp(control_sampled(g, latch_s))
                hold_s_times.append(t_sent + d1p * T)
            if to_m and to_m[0][0] == j:
                _, t_sent, remote = to_m.popleft()
                latch_m = LatchedState(own_m[0], own_m[1], remote[0], remote[1], t_own)
                f_m_held = clamp(control_sampled(g, latch_m))
                hold_m_times.append(t_sent + d2p * T)
        else:
            f_m_held = clamp(control_continuous(g, (x_m, v_m), (x_s, v_s)))
            f_s_held = clamp(control_continuous(g, (x_s, v_s), (x_m, v_m)))
        record(j, t_j)
        x_m, v_m, x_s, v_s = advance_substep(t_j, x_m, v_m, x_s, v_s, f_m_held, f_s_held)
        if not (
            math.isfinite(x_m)
            and math.isfinite(v_m)
            and math.isfinite(x_s)
            and math.isfinite(v_s)
        ):
            record(j + 1, (j + 1) * h)
            divergence_time = (j + 1) * h
            rows = j + 2
            break
    else:
        record(n_total, n_total * h)

    return SimTrace(
        t=t_arr[:rows],
        x_m=xm_arr[:rows],
        v_m=vm_arr[:rows],
        x_s=xs_arr[:rows],
        v_s=vs_arr[:rows],
        f_m=fm_arr[:rows],
        f_s=fs_arr[:rows],
        f_h=fh_arr[:rows],
        f_e=fe_arr[:rows],
        sample_events=np.array(sample_times),
        hold_events_m=np.array(hold_m_times),
        hold_events_s=np.array(hold_s_times),
        period=T,
        substep=h,
        divergence_time=divergence_time,
    )


def verdict(
    trace: SimTrace,
    position_bound: float = 10.0,
    settle_window: float = 5.0,
    settle_tol: float = 0.01,
) -> SimVerdict:
    """Judge boundedness and settling of a trace.

    bounded: every sample finite and max |x| within position_bound.
    settling_ok: max |v| over the trailing settle_window below settle_tol
    (never true for a diverged trace).
    """
    signals = (
        trace.x_m, trace.v_m, trace.x_s, trace.v_s,
        trace.f_m, trace.f_s, trace.f_h, trace.f_e,
    )
    finite_rows = np.ones(len(trace.t), dtype=bool)
    for s in signals:
        finite_rows &= np.isfinite(s)
    if bool(finite_rows.all()):
        div_time = trace.divergence_time
        n_ok = len(trace.t)
    else:
        first_bad = int(np.argmin(finite_rows))
        div_time = float(trace.t[first_bad])
        n_ok = first_bad
    if n_ok == 0:
        return SimVerdict(False, math.inf, False, math.inf, div_time)
    max_abs = float(
        max(np.max(np.abs(trace.x_m[:n_ok])), np.max(np.abs(trace.x_s[:n_ok])))
    )
    t_ok = trace.t[:n_ok]
    sel = t_ok >= t_ok[-1] - settle_window
    vmax = float(
        max(np.max(np.abs(trace.v_m[:n_ok][sel])), np.max(np.abs(trace.v_s[:n_ok][sel])))
    )
    diverged = div_time is not None
    return SimVerdict(
        bounded=(not diverged) and max_abs <= position_bound,
        max_abs_position=max_abs,
        settling_ok=(not diverged) and vmax < settle_tol,
        final_velocity_max=vmax,
        divergence_time=div_time,
    )


def sweep_period(
    sc_template: SimScenario,
    periods,
    *,
    seed: int = 0,
    grid_points: int = 512,
    position_bound: float = 10.0,
    settle_window: float = 5.0,
    settle_tol: float = 0.01,
) -> list[SweepRow]:
    """Run the scenario at each period and pair verdicts with analysis reports.

    Rows come back sorted by period; a row that fails with a domain error
    (ArithmeticError or ValueError) records it and the sweep continues, while
    any other exception propagates.  Delays stay the same integer multiples
    of each new T; eps_min is lowered to min(eps_min, T) where needed.
    """
    rows: list[SweepRow] = []
    system = TeleopSystem(
        master=sc_template.master, slave=sc_template.slave, gains=sc_template.gains
    )
    for T in sorted(float(p) for p in periods):
        try:
            ch = replace(
                sc_template.channel, T=T, eps_min=min(sc_template.channel.eps_min, T)
            )
            sc = replace(sc_template, channel=ch)
            tr = run_scenario(sc, seed=seed)
            vd = verdict(tr, position_bound, settle_window, settle_tol)
            report = small_gain_value(system, ch, make_grid(T, grid_points))
            rows.append(SweepRow(period=T, verdict=vd, stability=report, error=None))
        except (ArithmeticError, ValueError) as exc:  # per-row isolation
            rows.append(SweepRow(period=T, verdict=None, stability=None, error=str(exc)))
    return rows


def write_trace_csv(trace: SimTrace, path) -> None:
    """Write the signal record, one row per substep, full double precision."""
    data = np.column_stack(
        (
            trace.t, trace.x_m, trace.v_m, trace.x_s, trace.v_s,
            trace.f_m, trace.f_s, trace.f_h, trace.f_e,
        )
    )
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=_CSV_HEADER, comments="")


def write_events_csv(trace: SimTrace, path) -> None:
    """Write sampler/hold events as kind,t rows ordered by time."""
    events = (
        [(t, 0, "sample") for t in trace.sample_events]
        + [(t, 1, "hold_m") for t in trace.hold_events_m]
        + [(t, 2, "hold_s") for t in trace.hold_events_s]
    )
    events.sort(key=lambda e: (e[0], e[1]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("kind,t\n")
        for t, _, kind in events:
            fh.write(f"{kind},{t:.17g}\n")
