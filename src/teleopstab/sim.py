"""Deterministic hybrid simulation of the sampled-data teleoperation loop.

Continuous robot dynamics are integrated with fixed-step classical RK4 at
T/substeps; samplers fire on the integration grid, network delays are integer
multiples of T, and the controller outputs are zero-order held between packet
arrivals.  A substep holding an operator-force switch is cut exactly at the
switch time, and a wall contact transition inside a substep is localized by
deterministic bisection, so the integrator only ever sees smooth pieces;
sampling and hold instants stay exactly grid-aligned.  The robots interact
only through the held torques, so over a substep each is its own 2-state
system: the operator pulse acts on the master only, the wall on the slave
only.

The substep loop only integrates: it runs from one event (a sample, a hold,
a substep near a pulse edge) to the next and writes only the state.  The
held torques and the terminations' forces are derived from the holds and the
state columns after it, with the per-row formulas' bits.

Between events each robot is linear with a constant input, and one RK4
substep of it is exactly the map y <- M y + N u of its transition matrices
(``_rk4_map``).  The master always steps by its map, at the width of each
piece the substep is cut into.  The slave steps by its map when every RK4
stage keeps it short of the wall; in or near wall contact, or in a substep
holding a pulse edge, it evaluates RK4's stages (``_stage_rk4``), and the
pieces it bisects at wall branch changes are the master's pieces too.  The
two forms differ only in rounding: traces agree with the coupled all-stage
loop (kept as the test oracle) to 1e-9 of each column's scale.

Identical scenario + seed reproduces bit-identical traces.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from array import array
from collections import deque
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .control import ControllerGains, control_continuous
from .plants import FREE, ImpedanceModel, RobotParams, WallModel, _robot_blocks, wall_force
from .stability import ChannelConfig, StabilityReport, TeleopSystem, small_gain_at_period

__all__ = [
    "RunSettings",
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

# fields formatted per write; _g17_csv holds about 280 bytes a field while
# it works, so a block stays near 600 KiB
_CSV_CHUNK_FIELDS = 2304

# Largest trace run_scenario will allocate: nine float64 columns of one row
# per substep.  A longer run is rejected before anything is allocated.
TRACE_BUDGET_BYTES = 2 * 1024**3
# rows per block of F_e, and holds per block of F_m and F_s, when the loop
# is done; they bound the temporaries at a few tens of KiB
_BLOCK_ROWS = 512
_BLOCK_HOLDS = 128


@dataclass(frozen=True)
class RunSettings:
    """Per-run knobs from [run] that are not part of the scenario physics:
    the random seed, the frequency grid size and the verdict thresholds."""

    seed: int = 0
    grid_points: int = 512
    position_bound: float = 10.0  # rad
    settle_window: float = 5.0  # s
    settle_tol: float = 0.01  # rad/s

    def __post_init__(self) -> None:
        for name, least in (("seed", 0), ("grid_points", 2)):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, int) or n < least:
                raise ValueError(f"{name} must be an integer >= {least}")
        for name in ("position_bound", "settle_window", "settle_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


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

    def __post_init__(self) -> None:
        if not self.duration > 0.0:
            raise ValueError("duration must be positive")
        n = self.integrator_substeps
        if isinstance(n, bool) or not isinstance(n, int) or n < 4:
            raise ValueError("integrator_substeps must be an integer >= 4")
        if self.operator_force.stop > self.duration:
            raise ValueError("operator force window must lie within [0, duration]")
        if self.jitter_sampling and self.channel.eps_min * n < self.channel.T * (1.0 - 1e-12):
            raise ValueError("jitter mode needs eps_min >= T/substeps")

    def analysis_system(self) -> TeleopSystem:
        """The bare robots and gains: the stability tests quantify over
        every passive termination, so the human and the wall are left out."""
        return TeleopSystem(master=self.master, slave=self.slave, gains=self.gains)


@dataclass(frozen=True)
class SimTrace:
    """Substep-resolution signal record plus sampler/hold event instants.

    hold_events_* pair with sample_events by index: entry i is the arrival of
    the packet sampled at sample_events[i], so by construction hold_events_s
    is sample_events + channel.t1 and hold_events_m is sample_events +
    channel.t2, over as many samples as arrived.
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


# the nine signal columns, in SimTrace's field order, which is also the
# trace CSV's; the file names the forces with a capital F
_TRACE_COLUMNS = tuple(f.name for f in fields(SimTrace))[:9]
_CSV_HEADER = ",".join(_TRACE_COLUMNS).replace("f_", "F_")


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


def _draws(draw, *args):
    """Python floats one at a time from the numpy draw ``draw(*args, size)``.

    Draws 256 at a time: numpy's generators give the same stream in blocks
    as one value per call, so only the number of calls changes.
    """
    while True:
        yield from draw(*args, 256).tolist()


class _SensorPipeline:
    """Per-robot measurement path: additive noise, encoder floor, velocity lag.

    The first-order filter is discretized exactly at the nominal rate
    (pole e^(-2*pi*fc*T)) and starts from zero state.
    """

    def __init__(self, cfg: NonidealityConfig, T: float, rng: np.random.Generator):
        self.step = cfg.encoder_step
        self.noise_std = cfg.noise_std
        self.pole = math.exp(-2.0 * math.pi * cfg.velocity_filter_cutoff * T)
        self.normals = _draws(rng.standard_normal)
        self.filter_state = 0.0

    def sample(self, x: float, v: float) -> tuple[float, float]:
        if self.noise_std > 0.0:
            x = x + self.noise_std * next(self.normals)
            v = v + self.noise_std * next(self.normals)
        xq = math.floor(x / self.step) * self.step
        self.filter_state = self.pole * self.filter_state + (1.0 - self.pole) * v
        return xq, self.filter_state


def clamp_force(f: float, cfg: NonidealityConfig) -> float:
    """Actuator saturation in force units: |F| <= limit/force_to_volts."""
    return _saturate(f, cfg.actuator_limit / cfg.force_to_volts)


def _saturate(f: float, lim: float) -> float:
    """f clipped to [-lim, lim]; a NaN passes through."""
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


def _rk4_map(a: np.ndarray, b: np.ndarray, h: float):
    """(M, N) as nested floats: one classical RK4 step of width h of
    y' = a y + b u with u constant is exactly y <- M y + N u, where Z = h a,
    M = I + Z + Z^2/2 + Z^3/6 + Z^4/24 and N = h (I + Z/2 + Z^2/6 + Z^3/24) b.
    """
    z = h * a
    eye = np.eye(len(b))
    with np.errstate(all="ignore"):  # a stiff enough block overflows to inf/NaN
        s = eye + z @ (eye + z @ (eye + z / 4.0) / 3.0) / 2.0  # I + Z/2 + Z^2/6 + Z^3/24
        return (eye + z @ s).tolist(), (h * (s @ b)).tolist()


def _rk4_gain(a: np.ndarray, h: float) -> float:
    """Largest |R(h*lambda)| over the eigenvalues lambda of the 2x2 ``a``
    with Re lambda < 0, where R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 is RK4's
    growth factor; 0.0 when no mode decays, and inf when R overflows to a
    NaN, which counts the mode as amplified.

    The eigenvalues are the roots tr/2 +- sqrt((tr/2)^2 - det): a first
    ``np.linalg.eigvals`` call maps about 0.9 MiB of LAPACK into the process.
    """
    (a00, a01), (a10, a11) = a.tolist()
    half_tr = 0.5 * (a00 + a11)
    root = cmath.sqrt(half_tr * half_tr - (a00 * a11 - a01 * a10))
    zs = [h * lam for lam in (half_tr + root, half_tr - root) if lam.real < 0.0]
    rs = [1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4))) for z in zs]
    # hypot, unlike abs, gives inf where |R| overflows; a NaN R is amplified
    return max((math.inf if r != r else math.hypot(r.real, r.imag) for r in rs), default=0.0)


def _slave_reach(a: np.ndarray, b: np.ndarray, h: float) -> tuple[float, float]:
    """(c_v, c_f) such that no RK4 stage position of a substep of width h of
    the free slave, nor its end position, exceeds
    x_s + c_v*|v_s| + c_f*|F_s| for a start state (x_s, v_s) and torque F_s.

    With c = -a[1][1] (damping over mass) and beta = b[1], short of the wall
    every stage velocity is v_s + w*(beta*F_s - c*v_prev) for a w in [0, h];
    so when h*c < 1 each is within V = (|v_s| + h*beta*|F_s|)/(1 - h*c) of
    zero, and each stage position and the end position lie within h*V of
    x_s.  The bound returned is twice h*V, which covers the rounding of the
    stages and of the test itself.  When h*c >= 1 both are inf: the test
    x_s + c_v*|v_s| <= x_wall - c_f*|F_s| then compares against -inf or a
    NaN, and never holds.
    """
    hc = -h * a[1][1]
    if not hc < 1.0:
        return math.inf, math.inf
    c_v = 2.0 * h / (1.0 - hc)
    return c_v, c_v * h * b[1]


def _stage_rk4(sc: SimScenario):
    """Classical RK4 over width dt of the slave against the wall of ``sc``,
    stage by stage: ``rk4(xs, vs, dt, fs)`` returns the new (xs, vs)."""
    # hoisted dynamics constants
    inv_ms = 1.0 / sc.slave.mass
    b_s = sc.slave.damping
    wall = sc.wall
    x_wall = wall.position

    def rk4(xs, vs, dt, fs):
        # Classical RK4 of the slave/wall field; each stage evaluates
        #   a_s = (-wall_force(xs, vs) - b_s*vs + fs) / m_s
        # with the torque fs already carrying the feedback sign.  Short of
        # the wall the reaction is the 0.0 wall_force itself returns there.
        # The operation order is that of the slave's half of the all-stage
        # loop kept in tests/oracles.py, whose traces are pinned bit for bit.
        h2 = 0.5 * dt
        w = wall_force(xs, vs, wall) if xs > x_wall else 0.0
        k1u = (-w - b_s * vs + fs) * inv_ms
        x2s = xs + h2 * vs
        v2s = vs + h2 * k1u
        w = wall_force(x2s, v2s, wall) if x2s > x_wall else 0.0
        k2u = (-w - b_s * v2s + fs) * inv_ms
        x3s = xs + h2 * v2s
        v3s = vs + h2 * k2u
        w = wall_force(x3s, v3s, wall) if x3s > x_wall else 0.0
        k3u = (-w - b_s * v3s + fs) * inv_ms
        x4s = xs + dt * v3s
        v4s = vs + dt * k3u
        w = wall_force(x4s, v4s, wall) if x4s > x_wall else 0.0
        k4u = (-w - b_s * v4s + fs) * inv_ms
        s6 = dt / 6.0
        return (
            xs + s6 * (vs + 2.0 * (v2s + v3s) + v4s),
            vs + s6 * (k1u + 2.0 * (k2u + k3u) + k4u),
        )

    return rk4


def run_scenario(
    sc: SimScenario, seed: int = 0, controller_mode: str = "sampled"
) -> SimTrace:
    """Integrate one scenario and return the substep-resolution trace.

    controller_mode "sampled" (default) runs the full sampler/delay/hold
    machinery; "continuous" recomputes the control law from the true state at
    every substep (reference loop for consistency checks).  A non-finite
    state aborts the run; the trace ends at the first non-finite row and
    carries its time as divergence_time.

    The loop integrates and writes only x_m, v_m, x_s and v_s, a run of
    substeps at a time between events.  t is the grid j*h; F_m, F_s, F_h
    and F_e are derived from the holds and the state columns after the
    loop, bit for bit the values a row-at-a-time loop writes, within the
    same nine columns of memory.

    The master steps by RK4's transition map over each smooth piece.  A
    plain substep (no pulse edge inside it) steps the slave by its map too
    when a bound shows that none of RK4's stages takes it past the wall.
    Every other substep takes one slow path: it is cut at any pulse edge
    inside it, the slave evaluates RK4's four stages over each piece, with
    the wall-branch check and bisection, and the master takes the map at
    each of the slave's piece widths.  The trace is bit-identical for a
    scenario and seed, and agrees with the all-stage loop to 1e-9 of each
    column's largest finite magnitude.  A decaying mode that RK4 amplifies
    at this substep (master with the operator, slave against the wall) is
    logged as a WARNING on the "teleopstab" logger.

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

    rk4 = _stage_rk4(sc)
    # F_h's constants, formed as _robot_blocks forms the master's block
    inv_mm = 1.0 / (sc.master.mass + sc.human.mass)
    b_m_tot = sc.master.damping + sc.human.damping
    k_h = sc.human.stiffness
    m_h = sc.human.mass
    b_h = sc.human.damping
    wall = sc.wall
    x_wall = wall.position
    f_start = sc.operator_force.start
    f_stop = sc.operator_force.stop
    f_mag = sc.operator_force.magnitude
    isfinite = math.isfinite

    # RK4's transition maps at width h: the master with the operator (input
    # fstar + F_m) and the free slave (input F_s), whose first column is
    # (1, 0) exactly, as it has no spring
    master = _robot_blocks(sc.master, sc.human)
    slave = _robot_blocks(sc.slave, FREE)
    ((m00, m01), (m10, m11)), (n_m0, n_m1) = _rk4_map(*master, h)
    ((_, s01), (_, s11)), (n_s0, n_s1) = _rk4_map(*slave, h)
    reach_v, reach_f = _slave_reach(*slave, h)
    # a decaying mode that RK4 amplifies makes the run diverge on its own
    pressed = ImpedanceModel(damping=wall.damping, stiffness=wall.stiffness)
    modes = (
        ("master with the operator", master[0]),
        ("slave against the wall", _robot_blocks(sc.slave, pressed)[0]),
    )
    for mode, a in modes:
        gain = _rk4_gain(a, h)
        if gain > 1.0:
            # imported only here: logging costs every process about 5 ms and
            # 0.4 MiB to load, and a run seldom warns
            import logging

            logging.getLogger("teleopstab").warning(
                "RK4 at substep h = %.6g s amplifies the decaying %s mode "
                "(|R(h*lambda)| = %.6g > 1); the run may diverge where the loop "
                "does not: raise [run] substeps",
                h, mode, gain,
            )

    def wall_branch(xs, vs):
        # 0 free flight, 1 pushing contact, 2 clamped (spring+damper pulls)
        if xs <= x_wall:
            return 0
        return 1 if wall_force(xs, vs, wall) > 0.0 else 2

    def advance_slave(t0, t1, xs, vs, fs):
        # the slave over [t0, t1] at a held torque, bisecting wall branch
        # changes; returns its end state and the widths of the smooth pieces
        widths = []
        for _ in range(64):
            dt = t1 - t0
            if dt <= 0.0:
                return xs, vs, widths
            b0 = wall_branch(xs, vs)
            x1, v1 = rk4(xs, vs, dt, fs)
            if wall_branch(x1, v1) == b0 or not (isfinite(x1) and isfinite(v1)):
                widths.append(dt)
                return x1, v1, widths
            lo, hi = 0.0, dt
            y_hi = x1, v1
            for _ in range(64):
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                ym = rk4(xs, vs, mid, fs)
                if wall_branch(*ym) == b0:
                    lo = mid
                else:
                    hi = mid
                    y_hi = ym
            xs, vs = y_hi
            widths.append(hi)
            t0 = t0 + hi
        widths.append(t1 - t0)
        return *rk4(xs, vs, t1 - t0, fs), widths

    # sampling machinery
    sampled = controller_mode == "sampled"
    cfg = sc.nonidealities
    # the actuator's largest |F|, taken once a run; unbounded without hardware
    lim = math.inf if cfg is None else clamp_force(math.inf, cfg)

    pipe_m = pipe_s = None
    if sampled and cfg is not None:
        pipe_m = _SensorPipeline(cfg, T, np.random.default_rng([seed, 0]))
        pipe_s = _SensorPipeline(cfg, T, np.random.default_rng([seed, 1]))

    # (substep, time) of each sample; jittered intervals are drawn as needed
    if sampled and sc.jitter_sampling:
        intervals = _draws(np.random.default_rng([seed, 2]).uniform, ch.eps_min, T)
        min_sub = max(1, math.ceil(ch.eps_min / h - 1e-9))

        def jittered():
            j = 0
            while True:
                yield j, j * h
                u = next(intervals)
                j += min(nsub, max(min_sub, int(round(u / h))))

        instants = jittered()
    else:
        instants = ((k * nsub, k * T) for k in itertools.count())

    d1_sub = ch.d1 * nsub
    d2_sub = ch.d2 * nsub

    # runs of plain substeps stop at the substeps within two of each pulse
    # edge, which go one at a time: the one holding the edge is cut there,
    # and the pulse value a plain substep takes at its midpoint changes only
    # next to it
    near_edges = sorted({
        j for e in (f_start, f_stop) for j in range(math.floor(e / h) - 2, math.floor(e / h) + 3)
    })

    # state; the startup latches hold the local initial condition on both
    # sides, so the first held torques see zero coordination error
    x_m = v_m = x_s = v_s = 0.0
    f_m_first = f_m_held = _saturate(control_continuous(g, (x_m, v_m), (x_m, v_m)), lim)
    f_s_first = f_s_held = _saturate(control_continuous(g, (x_s, v_s), (x_s, v_s)), lim)

    # packets in flight, oldest first: (arrival substep, measurement); each
    # side's holds deliver the samples in order, so a hold's time is its
    # sample's time plus the channel delay
    to_s: deque[tuple[int, tuple[float, float]]] = deque()
    to_m: deque[tuple[int, tuple[float, float]]] = deque()
    sample_times = array("d")
    hold_m_rows = array("q")
    hold_s_rows = array("q")

    n_rows = n_total + 1
    # in _TRACE_COLUMNS order: t, the state at [1:5], the torques at [5:7]
    columns = [np.arange(n_rows, dtype=float), *(np.empty(n_rows) for _ in _TRACE_COLUMNS[1:])]
    columns[0] *= h  # j * h, as the loop takes it
    state_w = xm_w, vm_w, xs_w, vs_w = tuple(map(memoryview, columns[1:5]))
    # a hold writes its torque to its row; the rows between holds are filled
    # in after the loop
    fm_w, fs_w = map(memoryview, columns[5:7])
    xm_w[0], vm_w[0], xs_w[0], vs_w[0] = x_m, v_m, x_s, v_s

    next_sample, t_sample = next(instants)
    never = n_rows  # no event or break is due at or after the last row
    next_event = 0
    breaks = iter([*(j for j in near_edges if j >= 0), never])
    next_break = next(breaks)
    last = n_total  # row the run ends on; moves up when the state diverges
    divergence_time: float | None = None
    j = 0
    while j < last:
        # events at substep j set the torques held over it; the last row
        # records the state the final substep reached and starts nothing
        if j == next_event:
            if sampled:
                if j == next_sample:
                    if pipe_m is not None:
                        own_m = pipe_m.sample(x_m, v_m)
                        own_s = pipe_s.sample(x_s, v_s)
                    else:
                        own_m = (x_m, v_m)
                        own_s = (x_s, v_s)
                    sample_times.append(t_sample)
                    to_s.append((j + d1_sub, own_m))
                    to_m.append((j + d2_sub, own_s))
                    next_sample, t_sample = next(instants)
                if to_s and to_s[0][0] == j:
                    remote = to_s.popleft()[1]
                    f_s_held = _saturate(control_continuous(g, own_s, remote), lim)
                    hold_s_rows.append(j)
                    fs_w[j] = f_s_held
                if to_m and to_m[0][0] == j:
                    remote = to_m.popleft()[1]
                    f_m_held = _saturate(control_continuous(g, own_m, remote), lim)
                    hold_m_rows.append(j)
                    fm_w[j] = f_m_held
                next_event = min(
                    next_sample,
                    to_s[0][0] if to_s else never,
                    to_m[0][0] if to_m else never,
                )
            else:
                f_m_held = _saturate(control_continuous(g, (x_m, v_m), (x_s, v_s)), lim)
                f_s_held = _saturate(control_continuous(g, (x_s, v_s), (x_m, v_m)), lim)
                fm_w[j] = f_m_held
                fs_w[j] = f_s_held
                next_event = j + 1

        # substeps j .. stop - 1, each writing the state it reaches to the
        # next row; a substep's width stays t1 - t0, which need not round to h
        t0 = j * h
        t1 = t0 + h
        pieces = None
        if j == next_break:
            next_break = next(breaks)
            cuts = [t0, *(e for e in (f_start, f_stop) if t0 < e < t1), t1]
            if len(cuts) > 2:
                # a substep holding a pulse edge is a run of its own
                # (near_edges); each piece takes its midpoint's pulse value
                pieces = [
                    (a, b, (f_mag if f_start <= 0.5 * (a + b) < f_stop else 0.0) + f_m_held)
                    for a, b in zip(cuts, cuts[1:])
                ]
        stop = min(next_event, next_break, last)
        # the maps' input terms, and the slave's clearance, over the run; a
        # cut substep has none, so only the slow path takes it
        u_m = (f_mag if f_start <= 0.5 * (t0 + t1) < f_stop else 0.0) + f_m_held
        u_m0, u_m1 = n_m0 * u_m, n_m1 * u_m
        u_s0, u_s1 = n_s0 * f_s_held, n_s1 * f_s_held
        x_clear = x_wall - reach_f * abs(f_s_held) if pieces is None else -math.inf
        for i in range(j, stop):
            if x_s + reach_v * abs(v_s) <= x_clear:
                # every RK4 stage keeps the slave short of the wall
                # (_slave_reach), so the substep is the linear step
                x_m, v_m = m00 * x_m + m01 * v_m + u_m0, m10 * x_m + m11 * v_m + u_m1
                x_s, v_s = x_s + s01 * v_s + u_s0, s11 * v_s + u_s1
            else:
                # the slave evaluates RK4's stages over each piece, bisecting
                # wall branch changes, and the master takes the slave's pieces
                t0 = i * h
                for a, b, u in pieces or ((t0, t0 + h, u_m),):
                    x_s, v_s, widths = advance_slave(a, b, x_s, v_s, f_s_held)
                    if len(widths) == 1 and pieces is None:  # the whole substep
                        x_m, v_m = m00 * x_m + m01 * v_m + u_m0, m10 * x_m + m11 * v_m + u_m1
                    else:
                        for w in widths:
                            ((m0, m1), (m2, m3)), (n0, n1) = _rk4_map(*master, w)
                            x_m, v_m = m0 * x_m + m1 * v_m + n0 * u, m2 * x_m + m3 * v_m + n1 * u
            i += 1
            xm_w[i] = x_m
            vm_w[i] = v_m
            xs_w[i] = x_s
            vs_w[i] = v_s
        if not (isfinite(x_m) and isfinite(v_m) and isfinite(x_s) and isfinite(v_s)):
            # a non-finite state value stays non-finite, so the run ends on
            # the first non-finite row of these substeps
            last = j + 1
            while all(isfinite(w[last]) for w in state_w):
                last += 1
            divergence_time = last * h
            break
        j = stop
    rows = last + 1

    # the torque columns, from the state and the holds
    t, xm, vm, xs, vs, fm, fs, fh, fe = columns = [a[:rows] for a in columns]
    n_m, n_s = len(hold_m_rows), len(hold_s_rows)
    if sampled:
        _fill_held(fm, hold_m_rows, f_m_first)
        _fill_held(fs, hold_s_rows, f_s_first)
    else:  # a hold on every row but the last
        fm[last] = f_m_held
        fs[last] = f_s_held
    del hold_m_rows, hold_s_rows  # freed before the hold times are formed

    # F_h in place, in the row formula's operation order:
    #   a_m = (fstar - k_h*x_m - b_m_tot*v_m + F_m) * inv_mm
    #   F_h = fstar - m_h*a_m - b_h*v_m - k_h*x_m
    # with fstar = f_mag on the rows whose t lies in [f_start, f_stop); fe
    # holds each product until F_e is written
    on, off = np.searchsorted(t, (f_start, f_stop))
    pulse = ((0, on, 0.0), (on, off, f_mag), (off, rows, 0.0))
    with np.errstate(all="ignore"):  # a diverged run's last row overflows
        np.multiply(xm, k_h, out=fh)
        for a, b, f in pulse:
            np.subtract(f, fh[a:b], out=fh[a:b])
        fh -= np.multiply(vm, b_m_tot, out=fe)
        fh += fm
        fh *= inv_mm
        fh *= m_h
        for a, b, f in pulse:
            np.subtract(f, fh[a:b], out=fh[a:b])
        fh -= np.multiply(vm, b_h, out=fe)
        fh -= np.multiply(xm, k_h, out=fe)

    # F_e = -wall_force: -0.0 short of the wall, where wall_force is 0.0, so
    # the plants' wall law runs only on blocks that reach past it
    fe.fill(-0.0)
    for a in range(0, rows, _BLOCK_ROWS):
        b = min(a + _BLOCK_ROWS, rows)
        if (xs[a:b] > x_wall).any():
            fe[a:b] = [-wall_force(x, v, wall) for x, v in zip(xs_w[a:b], vs_w[a:b])]

    sample_events = np.asarray(sample_times)
    return SimTrace(
        *columns,
        sample_events=sample_events,
        hold_events_m=sample_events[:n_m] + ch.t2,
        hold_events_s=sample_events[:n_s] + ch.t1,
        period=T,
        substep=h,
        divergence_time=divergence_time,
    )


def _fill_held(col: np.ndarray, rows: array, first: float) -> None:
    """Give each row of ``col`` the torque of the last hold at or before it,
    and ``first`` before any; each hold's own row, listed in ``rows`` in
    ascending order, already holds its torque.
    """
    rows = np.asarray(rows)
    if not len(rows):
        col[:] = first
        return
    col[: rows[0]] = first
    # a side's holds are at most a period apart, so a block of them spans at
    # most _BLOCK_HOLDS periods of rows
    for i in range(0, len(rows) - 1, _BLOCK_HOLDS):
        seg = rows[i : i + _BLOCK_HOLDS + 1]
        col[seg[0] : seg[-1]] = np.repeat(col.take(seg[:-1]), np.diff(seg))
    col[rows[-1] :] = col[rows[-1]]


def verdict(trace: SimTrace, run: RunSettings = RunSettings()) -> SimVerdict:
    """Judge boundedness and settling of a trace against ``run``'s thresholds.

    bounded: every sample finite and max |x| within run.position_bound.
    settling_ok: max |v| over the trailing run.settle_window below
    run.settle_tol (never true for a diverged trace).
    """
    signals = [getattr(trace, name) for name in _TRACE_COLUMNS[1:]]
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
    t_ok = trace.t[:n_ok]
    # t ascends, so the settle window is the rows from `settle` on
    settle = int(np.searchsorted(t_ok, t_ok[-1] - run.settle_window))
    max_abs = _max_abs(trace.x_m[:n_ok], trace.x_s[:n_ok])
    vmax = _max_abs(trace.v_m[settle:n_ok], trace.v_s[settle:n_ok])
    diverged = div_time is not None
    return SimVerdict(
        bounded=(not diverged) and max_abs <= run.position_bound,
        max_abs_position=max_abs,
        settling_ok=(not diverged) and vmax < run.settle_tol,
        final_velocity_max=vmax,
        divergence_time=div_time,
    )


def _max_abs(*columns: np.ndarray) -> float:
    """max |x| over finite columns, from their extremes: no |x| copy of a
    column is made."""
    return max(abs(float(e)) for c in columns for e in (c.max(), c.min()))


def sweep_period(
    sc_template: SimScenario, periods, run: RunSettings = RunSettings()
) -> list[SweepRow]:
    """Run the scenario at each period and pair verdicts with analysis reports.

    Every row uses ``run``'s seed, grid size and verdict thresholds.

    Rows come back sorted by period; a row that fails with a domain error
    (ArithmeticError or ValueError) records it and the sweep continues, while
    any other exception propagates.  Each row's channel is
    ``ChannelConfig.at_period(T)`` of the template's.
    """
    rows: list[SweepRow] = []
    system = sc_template.analysis_system()
    for T in sorted(float(p) for p in periods):
        try:
            ch = sc_template.channel.at_period(T)
            sc = replace(sc_template, channel=ch)
            # the grid is judged first, so an over-budget grid runs nothing
            report = small_gain_at_period(system, ch, run.grid_points)
            vd = verdict(run_scenario(sc, seed=run.seed), run)
            rows.append(SweepRow(period=T, verdict=vd, stability=report, error=None))
        except (ArithmeticError, ValueError) as exc:  # per-row isolation
            rows.append(SweepRow(period=T, verdict=None, stability=None, error=str(exc)))
    return rows


# ------------------------------------------------------------ %.17g in numpy
#
# _g17_csv writes a block of doubles as exactly the bytes "%.17g" % x gives.
# Each value gets a 56-byte slot that holds every character any of its
# forms can use; a keep mask, looked up by (sign, exponent class,
# significant digits), zeroes the rest and bytes.translate drops the zeros:
#
#   byte  0       "-"
#         2, 3    "0."            the 0.000ddd form, with up to three of
#         4..6    "000"           these zeros before the digits
#         7..23   d1 .. d17       the digits, trailing zeros included
#         27      "."
#         28..43  d2 .. d17       the digits again, for after a point
#         48..52  "e+dd[d]"       the exponent, NUL-padded
#         55      "," or "\n"
_G17_SLOT = 56
_G17_DIGITS = 7
_G17_POINT = 27
_G17_EXP = 48
_G17_FIXED = range(-4, 17)  # exponents written without "e"; the rest are one class
_G17_CLASSES = len(_G17_FIXED) + 1
_G17_E_MAX = 280  # |x| in [1e-280, 1e280] takes the numpy path
_G17_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_G17_BASE5 = np.array([125, 25, 5, 1])


def _g17_kept_bytes(negative: bool, exponent: int | None, sig: int) -> list[int]:
    """Slot bytes that spell a value with ``sig`` significant digits and
    decimal exponent ``exponent`` (None: written with "e")."""
    kept = [_G17_SLOT - 1, 0] if negative else [_G17_SLOT - 1]
    # digit k (1-based) sits at _G17_DIGITS + k - 1, and from k = 2 also at
    # _G17_POINT + k - 1, right after the point
    if exponent is None:  # d.ddde+XX
        kept += [_G17_DIGITS, *range(_G17_EXP, _G17_EXP + 5)]
        if sig > 1:
            kept += range(_G17_POINT, _G17_POINT + sig)
    elif exponent < 0:  # 0.000ddd
        kept += [2, 3, *range(_G17_DIGITS + 1 + exponent, _G17_DIGITS + sig)]
    else:  # ddd.ddd, with a point only when a digit follows it
        kept += range(_G17_DIGITS, _G17_DIGITS + exponent + 1)
        if sig > exponent + 1:
            kept += [_G17_POINT, *range(_G17_POINT + exponent + 1, _G17_POINT + sig)]
    return kept


class _G17Tables(NamedTuple):
    pow_hi: np.ndarray  # 10**(16 - e) as a double-double, e = -281 .. 280
    pow_lo: np.ndarray
    ascii4: np.ndarray  # "0000" .. "9999" as uint32 words
    zeros4: np.ndarray  # trailing zeros of "0000" .. "9999"
    trailing_zeros: np.ndarray  # of four groups, by their zeros4 in base 5
    exp_text: np.ndarray  # "e-281" .. "e+280" as NUL-padded uint64 words
    keep: np.ndarray  # slot masks by key, the last one for a "%"-formatted value
    template: np.ndarray  # the constant slot bytes, ending "," and "\n"


@functools.cache
def _g17_tables() -> _G17Tables:
    """Lookup tables of _g17_csv, built on first use (under 10 ms)."""
    exponents = range(-_G17_E_MAX - 1, _G17_E_MAX + 1)  # floor(log10|x|) on the path
    pow_hi = np.empty(len(exponents))
    pow_lo = np.empty(len(exponents))
    for i, e in enumerate(exponents):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den  # integer division rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        pow_hi[i] = hi
        pow_lo[i] = (num * hi_den - hi_num * den) / (den * hi_den)
    g = np.arange(10000)
    digits = g[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    ascii4 = digits.astype(np.uint8).view(np.uint32).ravel()
    zeros4 = sum((g % 10**k == 0).astype(np.int64) for k in range(1, 5))
    trailing_zeros = np.empty(5**4, np.int64)
    for z in itertools.product(range(5), repeat=4):
        text = "".join(f"{10**k % 10000:04d}" for k in z)  # groups with those zeros4
        trailing_zeros[np.dot(z, _G17_BASE5)] = len(text) - len(text.rstrip("0"))
    exp_text = np.array([b"e%+03d" % e for e in exponents], dtype="S8").view(np.uint64)
    keep = np.zeros((2 * _G17_CLASSES * 17 + 1, _G17_SLOT), np.uint8)
    for neg in (False, True):
        for cls, e in enumerate([*_G17_FIXED, None]):
            for sig in range(1, 18):
                keep[(neg * _G17_CLASSES + cls) * 17 + sig - 1, _g17_kept_bytes(neg, e, sig)] = 255
    keep[-1, :24] = 255  # the text "%" gives, at most 24 bytes
    keep[-1, -1] = 255
    template = np.zeros((2, _G17_SLOT), np.uint8)
    template[:, :4] = np.frombuffer(b"-\x000.", np.uint8)
    template[:, _G17_POINT] = ord(".")
    template[:, -1] = np.frombuffer(b",\n", np.uint8)
    tables = _G17Tables(
        pow_hi, pow_lo, ascii4, zeros4, trailing_zeros, exp_text,
        keep.view(np.uint64), template.view(np.uint64),
    )
    for table in tables:  # shared by every caller
        table.flags.writeable = False
    return tables


def _g17_digits(x: np.ndarray):
    """(n, e, slow) for a 1-D float64 array: n the 17 significant digits of
    |x| as an integer, e its decimal exponent, slow where they are unproven.

    For |x| in [1e-280, 1e280], y = |x|*10**(16 - floor(log10|x|)) is formed
    with Dekker's exact product against a double-double power of ten, to
    within 1e-14; n is y rounded to nearest.  A value is slow when it is
    zero, non-finite or outside that range, when the fraction of y lies
    within 2**-30 of one half (every exact tie does), or when y or n is not
    a 17-digit number (the exponent guess was off by one, or n carried).
    """
    tables = _g17_tables()
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    i = e + (_G17_E_MAX + 1)
    hi = tables.pow_hi.take(i)
    c = a * _G17_SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = hi * _G17_SPLIT
    h_hi = c - (c - hi)
    h_lo = hi - h_hi
    p = a * hi  # y rounded; above 2**53 on the path, so an integer
    r = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo + a * tables.pow_lo.take(i)
    floor_r = np.floor(r)
    frac = r - floor_r
    whole = p.astype(np.int64) + floor_r.astype(np.int64)
    n = whole + (frac > 0.5)
    slow = ~fast | (np.abs(frac - 0.5) < 2.0**-30) | (whole < 10**16) | (n >= 10**17)
    return n, e, slow


def _g17_csv(block: np.ndarray) -> bytes:
    """The rows of a 2-D float64 block as CSV text, every field byte for
    byte ``b"%.17g" % x``.

    Zeros are written directly; a value that ``_g17_digits`` calls slow is
    formatted by CPython's ``%``.
    """
    tables = _g17_tables()
    rows, cols = block.shape
    x = block.ravel()
    n, e, slow = _g17_digits(x)
    zero = x == 0.0
    slow &= ~zero
    n[zero] = 0

    # n as its first digit and four 4-digit groups
    top, low = np.divmod(n, 10**8)
    first, mid = np.divmod(top, 10**8)
    groups = np.empty((len(x), 4), np.int64)
    np.divmod(mid, 10**4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(low, 10**4, out=(groups[:, 2], groups[:, 3]))
    sig = 17 - tables.trailing_zeros.take(tables.zeros4.take(groups) @ _G17_BASE5)
    fixed = (e >= _G17_FIXED.start) & (e < _G17_FIXED.stop)
    cls = np.where(fixed, e - _G17_FIXED.start, _G17_CLASSES - 1)
    key = (np.signbit(x) * _G17_CLASSES + cls) * 17 + (sig - 1)

    slots = np.empty((rows, cols, _G17_SLOT // 8), np.uint64)
    slots[:] = tables.template[[0] * (cols - 1) + [1]]
    slots = slots.reshape(-1, _G17_SLOT // 8)
    slots[:, _G17_EXP // 8] |= tables.exp_text.take(e + (_G17_E_MAX + 1))
    words = slots.view(np.uint32)
    words[:, 1] = tables.ascii4.take(first)  # "000" d1 at bytes 4..7
    words[:, 2:6] = words[:, 7:11] = tables.ascii4.take(groups)
    if slow.any():
        where = np.flatnonzero(slow)
        text = np.array([b"%.17g" % v for v in x[where].tolist()], dtype="S24")
        slots[where, :3] = text.view(np.uint64).reshape(-1, 3)
        key[where] = len(tables.keep) - 1
    slots &= tables.keep.take(key, axis=0)
    return slots.tobytes().translate(None, b"\0")


def write_trace_csv(trace: SimTrace, path) -> None:
    """Write the signal record, one row per substep, full double precision.

    Every field is ``"%.17g" % x`` byte for byte.  ``_g17_csv`` formats a
    block of rows at a time in numpy, so no whole-trace copy or per-value
    call is made.  On the shipped 80 s scenario (1.2 M values, 2 vCPUs) the
    writer takes about 0.3 us a value, file write included; one CPython
    ``%`` per value took about 0.8 us.
    """
    columns = [getattr(trace, name) for name in _TRACE_COLUMNS]
    step = _CSV_CHUNK_FIELDS // len(columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_CSV_HEADER + "\n")
        for a in range(0, len(trace.t), step):
            block = np.column_stack([c[a : a + step] for c in columns])
            fh.write(_g17_csv(block).decode("ascii"))


def write_events_csv(trace: SimTrace, path) -> None:
    """Write sampler/hold events as kind,t rows ordered by time.

    Equal times keep the order sample, hold_m, hold_s.  The t field is
    ``"%.17g" % t``, formatted by ``_g17_csv`` as in the trace.  Only the
    times, the kinds (a byte each) and the sort order span the whole run;
    a block of rows at a time is gathered, formatted and joined.  About
    0.7 to 0.9 us a row on the shipped scenario (40 k rows), most of it
    joining each row's kind to its time; one ``%`` per row took about 1 us.
    """
    names = ("sample,", "hold_m,", "hold_s,")
    arrays = (trace.sample_events, trace.hold_events_m, trace.hold_events_s)
    t = np.concatenate(arrays)
    kind = np.repeat(np.arange(len(names), dtype=np.uint8), [len(a) for a in arrays])
    order = np.lexsort((kind, t))
    step = _CSV_CHUNK_FIELDS
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("kind,t\n")
        for a in range(0, len(order), step):
            rows = order[a : a + step]
            lines = _g17_csv(t[rows, None]).decode("ascii").splitlines(True)
            prefixes = [names[k] for k in kind[rows].tolist()]
            fh.write("".join(map(str.__add__, prefixes, lines)))
