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

The simulator has two halves.  ``run_scenario``, the channel's event loop,
walks a schedule of the rows on which a sample or a hold starts a run of
substeps and hands each run to ``_propagator``'s ``advance``, which returns
the state on the run's last row.  After the loop one pass over blocks of
rows derives the rest: the held torques from the holds, the jumped runs'
inner rows by the propagator's ``fill``, and the terminations' forces from
the state columns, each with the per-row formulas' bits.

Between events each robot is linear with a constant input, and one RK4
substep of it is exactly the map y <- M y + N u of its transition matrices
(``_rk4_map``), so k substeps are the k-step map y <- P_k y + Q_k u
(``_rk4_runs``).  When a bound read off the slave's maps shows that no RK4
stage of a run takes the slave past the wall (``_slave_run_reach``), the
propagator jumps the whole run in one step and fills its inner rows after
the loop.  A run the bound rejects (in or near wall contact), and a run
within a substep of a pulse edge, take the slow path a substep at a time:
the slave by RK4's stages (``_stage_rk4``), bisecting wall branch changes,
and the master by its map at the width of each piece the slave's substep
is cut into.  The forms differ only in rounding: traces agree with the
coupled all-stage loop (kept as the test oracle) to 1e-9 of each column's
scale.

Identical scenario + seed reproduces bit-identical traces.
"""

from __future__ import annotations

import cmath
import itertools
import math
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from ._g17 import _g17_csv
from .control import ControllerGains, _control_law
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

# fields formatted per write.  A trace write peaks at about 215 bytes a
# field of distinct values (570 KiB under tracemalloc), and a block's
# largest arrays, its gathered 48-byte slots and their bytes, stay under
# glibc's default 128 KiB mmap threshold; a block of 4 608 fields mapped
# and faulted in fresh pages, 42 000 minor faults a write of the shipped
# trace in a fresh process
_CSV_CHUNK_FIELDS = 2700
# rows each range of the trace CSV must hold before write_trace_csv forks a
# process to format it.  In a 74 MiB process on 2 vCPUs, fork plus reap took
# 1.4 to 1.9 ms, against 1.0 to 1.2 us to format a shipped-trace row: a
# range of 4096 rows takes 4 to 5 ms to format, two to three times its
# fork.  Short splits did not always pay: at 8 192 rows two ranges took
# 15 ms and one 9.9 ms, as each process formats slower while the other
# runs and takes copy-on-write faults on the heap they share.
_TRACE_SPLIT_ROWS = 4096
# most processes, the caller included, that format one trace.  Two were
# measured (on 2 vCPUs); each formats about 35 % slower than one alone, so
# whether a third pays for its fork is unknown until a larger host runs the
# paired benchmark
_TRACE_SPLIT_MAX = 2

# Most run_scenario will allocate: nine float64 columns of a row a substep,
# and _propagator's tables, which tracemalloc puts at up to 684 bytes a
# substep of a period (charged as 720).  A larger run is refused up front.
TRACE_BUDGET_BYTES = 2 * 1024**3
_TABLE_BYTES_PER_SUBSTEP = 720
# rows per block of run_scenario's pass over the columns derived after the
# loop, and inner rows per numpy pass of _fill_jumps: a pass holds seven
# arrays of as many 8-byte entries, 112 KiB.  At 4096 a run's peak beyond
# the trace passes 150 B a sample at a period of 4 substeps
_FILL_ROWS = 2048
# samples per window of run_scenario's event schedule, and rows that bound
# a window when substeps are many: its temporaries stay a few tens of KiB
_WINDOW_SAMPLES = 256
_WINDOW_ROWS = 4096
# marks of a schedule row: the channel events at it
_SAMPLE, _HOLD_S, _HOLD_M = 1, 2, 4


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
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 <= self.noise_std < math.inf:
            raise ValueError("noise_std must be nonnegative and finite")


@dataclass(frozen=True)
class OperatorForce:
    """Rectangular exogenous force: ``magnitude`` on [start, stop), else zero."""

    start: float  # s
    stop: float  # s
    magnitude: float = 1.0  # N*m

    def __post_init__(self) -> None:
        if not 0.0 <= self.start <= self.stop < math.inf:
            raise ValueError("need 0 <= start <= stop < inf")
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
        if not 0.0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")
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
_CSV_HEADER = ",".join(_TRACE_COLUMNS).replace("f_", "F_").encode("ascii") + b"\n"


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
    (pole e^(-2*pi*fc*T)) and starts from zero state.  ``sample(x, v)``
    returns the measured (position, velocity) of one sample: a closure over
    the constants, bound once per pipeline.  The noise on x and on v is the
    next pair of the stream's standard normals times noise_std, drawn 256
    at a time; numpy's generators give the same stream in blocks as one
    value per call.  A noisy sample took 0.30 us, against 0.38 us as a
    method drawing two Python floats, one at a time, from a generator over
    blocks of 256 draws (timeit, Python 3.11, 2 vCPUs).
    """

    __slots__ = ("sample",)

    def __init__(self, cfg: NonidealityConfig, T: float, rng: np.random.Generator):
        step = cfg.encoder_step
        sigma = cfg.noise_std
        pole = math.exp(-2.0 * math.pi * cfg.velocity_filter_cutoff * T)
        gain = 1.0 - pole
        floor = math.floor
        lag = 0.0
        noise = iter(())  # (n_x, n_v) pairs of the current block

        def sample(x: float, v: float) -> tuple[float, float]:
            nonlocal lag, noise
            if sigma > 0.0:
                try:
                    n_x, n_v = next(noise)
                except StopIteration:
                    # sigma*n is the same IEEE product in numpy as in Python
                    draws = iter((sigma * rng.standard_normal(256)).tolist())
                    noise = zip(draws, draws)
                    n_x, n_v = next(noise)
                x = x + n_x
                v = v + n_v
            lag = pole * lag + gain * v
            return floor(x / step) * step, lag

        self.sample = sample


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


def _rk4_runs(m, n, runs: int):
    """k steps of the map y <- M y + N u as one, y <- P_k y + Q_k u with
    P_k = M^k and Q_k = sum_{i<k} M^i N, yielded for k = 0 .. runs: entry k
    is (P_k[0][0], P_k[0][1], P_k[1][0], P_k[1][1], Q_k[0], Q_k[1]).

    P_1 = M and Q_1 = N exactly; then P_k = M P_{k-1} and Q_k = M Q_{k-1}
    + N, in Python floats, so a map that overflows gives inf or NaN entries
    and no warning.
    """
    (m00, m01), (m10, m11) = m
    n0, n1 = n
    yield 1.0, 0.0, 0.0, 1.0, 0.0, 0.0
    p00, p01, p10, p11, q0, q1 = m00, m01, m10, m11, n0, n1
    for _ in range(runs):
        yield p00, p01, p10, p11, q0, q1
        p00, p01, p10, p11 = (
            m00 * p00 + m01 * p10, m00 * p01 + m01 * p11,
            m10 * p00 + m11 * p10, m10 * p01 + m11 * p11,
        )
        q0, q1 = m00 * q0 + m01 * q1 + n0, m10 * q0 + m11 * q1 + n1


def _slave_run_reach(a: np.ndarray, b: np.ndarray, h: float, rows):
    """(c_v, c_f, c_x): lists over k = 0 .. n for n ``rows`` such that no
    RK4 stage position of a run of k substeps of width h of the free slave
    (blocks a, b), nor any substep's end position, exceeds x_s + c_x[k]*|x_s|
    + c_v[k]*|v_s| + c_f[k]*|F_s| for a start state (x_s, v_s) and torque
    F_s.  Row i is the slave's i-step map (p01, p11, q0, q1) of _rk4_runs.

    One substep from (x, v): with c = -a[1][1] (damping over mass) and beta
    = b[1], short of the wall every stage velocity is v + w*(beta*F_s -
    c*v_prev) for a w in [0, h]; so when h*c < 1 each is within (|v| +
    h*beta*|F_s|)/(1 - h*c) of zero, and every stage position lies within h
    times that of x.  Twice this, c1*|v| + c1*h*beta*|F_s| with c1 = 2h/(1 -
    h*c), covers the rounding of a substep's stages and of the test.  Substep
    i starts at x = x_s + p01*v_s + q0*F_s, v = p11*v_s + q1*F_s, so by the
    triangle inequality its stages stay within (|p01| + c1*|p11|)*|v_s| +
    (|q0| + c1*|q1| + c1*h*beta)*|F_s| of x_s; c_v[k] and c_f[k] take the
    largest of these over i < k, and entry 0, NaN, bounds nothing.  max keeps
    a bound over a NaN, which comes only after an inf: the free slave's maps
    have no negative entry.  Stepped a substep at a time, a run's positions
    drift off its maps by up to k roundings of 2^-53 of |x_s| plus the
    reach: k ulps of x_s where each substep moves the slave by under an
    ulp.  c1's slack of one substep's reach covers the reach's share, as
    k*2^-53 << 1/k; c_x[k] = k*2^-52 covers that of |x_s| twice, a stage
    position's own rounding included.

    When h*c >= 1, c1 is inf and so is every c_v and c_f entry from k = 1
    on, a Python inf: the reach test then compares against -inf or a NaN,
    never holds, and raises no numpy warning.
    """
    hc = -h * float(a[1][1])  # Python floats: numpy's make the reach test slow
    c1 = 2.0 * h / (1.0 - hc) if hc < 1.0 else math.inf
    c1_f = c1 * h * float(b[1])
    c_v, c_f = [math.nan], [math.nan]
    v = f = 0.0
    for p01, p11, q0, q1 in rows:
        v = max(v, abs(p01) + c1 * abs(p11))
        f = max(f, abs(q0) + c1 * abs(q1))
        c_v.append(v)
        c_f.append(f + c1_f)
    return c_v, c_f, [k * 2.0**-52 for k in range(len(c_v))]


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


def _pulse_rows(h: float, n: int, f_start: float, f_stop: float) -> tuple[int, ...]:
    """(on, off, start_before, start_after, stop_before, stop_after): the
    pulse's time tests of a run of substeps j .. stop - 1 (0 <= j < stop <=
    n) at substep h, as row bounds.

    A substep from row j, t0 = j*h and t1 = t0 + h, has its midpoint
    0.5*(t0 + t1) in [f_start, f_stop) when on <= j < off.  An edge e lies
    within a substep of the run, t0 - h < e < (stop + 1)*h, when j <
    e_before and stop >= e_after, for e = f_start and f_stop.  Each time
    is a monotone function of its row, as rounding is monotone, so each
    test, once true, stays true as the row grows: the least row where it
    holds is found by bisection with the test's own float expression, and
    the answers are the float tests' own, bit for bit.
    """
    rows = range(n + 1)

    def midpoint_reaches(e: float) -> int:
        return bisect_left(rows, True, key=lambda j: 0.5 * (j * h + (j * h + h)) >= e)

    def start_reaches(e: float) -> int:  # the run's t0 - h
        return bisect_left(rows, True, key=lambda j: j * h - h >= e)

    def end_passes(e: float) -> int:  # the run's (stop + 1)*h
        return bisect_left(rows, True, key=lambda stop: (stop + 1) * h > e)

    return (
        midpoint_reaches(f_start), midpoint_reaches(f_stop),
        start_reaches(f_start), end_passes(f_start),
        start_reaches(f_stop), end_passes(f_stop),
    )


def _propagator(sc: SimScenario, h: float, columns):
    """``(advance, fill)``: RK4 between events at substep h, writing the
    state into the trace ``columns`` (in _TRACE_COLUMNS order).

    ``advance(j, stop, x_m, v_m, x_s, v_s, f_m, f_s)`` takes substeps j ..
    stop - 1 at the held torques f_m and f_s, writes the state on the rows
    it reaches and returns the state on row stop, which is non-finite when
    the run diverged.  ``fill(a, b)`` writes the inner rows of the runs it
    jumped that start on rows a .. b - 1, reading F_s and the marks that
    advance leaves in F_h and F_e on those rows: F_s must be filled in on
    them first, and F_h and F_e written there only after.

    A run of k substeps with no operator-force edge within a substep of it
    is one jump by RK4's k-step maps when the slave's reach over k
    substeps, read off the same maps (``_slave_run_reach``), keeps it short
    of the wall; advance writes its end row, and fill its inner rows
    (``_fill_jumps``).  A jump that ends non-finite, a run near an
    edge and any run the bound rejects take the slow path a substep at a
    time: a substep is cut at any edge strictly inside it, each piece taking
    its midpoint's pulse value, the slave evaluates RK4's four stages over
    each piece, with the wall-branch check and bisection, and the master
    takes RK4's transition map at each of the slave's piece widths.  The
    trace is bit-identical for a scenario and seed, and agrees with the
    all-stage loop to 1e-9 of each column's largest finite magnitude.  A
    decaying mode that RK4 amplifies at this substep (master with the
    operator, slave against the wall) is logged as a WARNING on the
    "teleopstab" logger.
    """
    rk4 = _stage_rk4(sc)
    nsub = sc.integrator_substeps
    wall = sc.wall
    x_wall = wall.position
    f_start, f_stop, f_mag = astuple(sc.operator_force)
    isfinite = math.isfinite

    on, off, start_before, start_after, stop_before, stop_after = _pulse_rows(
        h, len(columns[0]), f_start, f_stop
    )

    # RK4's k-step maps for k = 0 .. nsub, no run of substeps between events
    # being longer than a period, as one row: the master's with the operator
    # (input fstar + F_m), then the free slave's (input F_s) less its first
    # column, which is (1, 0) exactly, as it has no spring; the slave's
    # reach over a run is read off its rows
    master = _robot_blocks(sc.master, sc.human)
    slave = _robot_blocks(sc.slave, FREE)
    tables = [
        (p00, p10, p01, p11, q0, q1, r01, r11, r0, r1)
        for (p00, p01, p10, p11, q0, q1), (_, r01, _, r11, r0, r1) in zip(
            _rk4_runs(*_rk4_map(*master, h), nsub), _rk4_runs(*_rk4_map(*slave, h), nsub)
        )
    ]
    m00, m10, m01, m11, n_m0, n_m1 = tables[1][:6]
    run_v, run_f, run_x = _slave_run_reach(*slave, h, (row[6:] for row in tables))
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

    # a run of k > 1 substeps taken in one jump writes k to its first row
    # of F_e and the master's input to that of F_h, two columns that are
    # free until the loop is done
    xm_w, vm_w, xs_w, vs_w, _, _, u_w, jump_w = map(memoryview, columns[1:])
    columns[8][:] = 0.0

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

    def advance(j, stop, x_m, v_m, x_s, v_s, f_m, f_s):
        # substeps j .. stop - 1, each reaching the state of the next row; a
        # substep's width stays t1 - t0, which need not round to h
        u_m = (f_mag if on <= j < off else 0.0) + f_m
        k = stop - j
        # a pulse edge inside the run, or within a substep of it, where a
        # midpoint may round across it, refuses the jump
        edged = j < start_before and stop >= start_after or j < stop_before and stop >= stop_after
        # every RK4 stage of a run the test admits keeps the slave short of
        # the wall (_slave_run_reach): the run is one k-step jump
        reach = x_s + run_x[k] * abs(x_s) + run_v[k] * abs(v_s)
        if not edged and reach <= x_wall - run_f[k] * abs(f_s):
            p00, p10, p01, p11, q0, q1, r01, r11, r0, r1 = tables[k]
            x_m1 = p00 * x_m + p01 * v_m + q0 * u_m
            v_m1 = p10 * x_m + p11 * v_m + q1 * u_m
            x_s1 = x_s + r01 * v_s + r0 * f_s
            v_s1 = r11 * v_s + r1 * f_s
            # a sum of finite values may overflow, and a run that ends non-finite
            # is stepped again below to find its first non-finite row; both are rare
            if isfinite(x_m1 + v_m1 + x_s1 + v_s1):
                if k > 1:
                    jump_w[j] = k
                    u_w[j] = u_m
                xm_w[stop] = x_m1
                vm_w[stop] = v_m1
                xs_w[stop] = x_s1
                vs_w[stop] = v_s1
                return x_m1, v_m1, x_s1, v_s1

        # one substep at a time, by the slow path: near an edge a substep is
        # cut at the edges inside it, each piece taking its midpoint's pulse
        # value; the slave evaluates RK4's stages over each piece, bisecting
        # wall branch changes, and the master takes the slave's pieces
        for i in range(j, stop):
            t0 = i * h
            t1 = t0 + h
            pieces = ((t0, t1, u_m),)
            if edged:
                cuts = [t0, *(e for e in (f_start, f_stop) if t0 < e < t1), t1]
                pieces = [
                    (a, b, (f_mag if f_start <= 0.5 * (a + b) < f_stop else 0.0) + f_m)
                    for a, b in zip(cuts, cuts[1:])
                ]
            for a, b, u in pieces:
                x_s, v_s, widths = advance_slave(a, b, x_s, v_s, f_s)
                if len(widths) == 1 and len(pieces) == 1:  # the whole substep
                    x_m, v_m = m00 * x_m + m01 * v_m + n_m0 * u, m10 * x_m + m11 * v_m + n_m1 * u
                else:
                    for w in widths:
                        ((m0, m1), (m2, m3)), (n0, n1) = _rk4_map(*master, w)
                        x_m, v_m = m0 * x_m + m1 * v_m + n0 * u, m2 * x_m + m3 * v_m + n1 * u
            i += 1
            xm_w[i] = x_m
            vm_w[i] = v_m
            xs_w[i] = x_s
            vs_w[i] = v_s
        return x_m, v_m, x_s, v_s

    maps = np.array(tables).T.copy()  # contiguous rows, which take needs

    def fill(a, b):
        # an inner row may overflow though its jump's end row is finite
        with np.errstate(all="ignore"):
            _fill_jumps(columns, maps, a, b)

    return advance, fill


def run_scenario(
    sc: SimScenario, seed: int = 0, controller_mode: str = "sampled"
) -> SimTrace:
    """Integrate one scenario and return the substep-resolution trace.

    controller_mode "sampled" (default) runs the full sampler/delay/hold
    machinery; "continuous", the reference loop, samples the true state every
    substep and holds it on both sides at once, with no delay or sensor path.
    A non-finite state aborts the run; the trace ends at the first non-finite
    row and carries its time as divergence_time.

    The loop walks a schedule of the rows that start a run of substeps
    between channel events, built a window of samples at a time: each row
    gets an integer of event marks, and the marked rows are the runs'
    starts.  It takes the events at a run's first row, then hands the run to
    the propagator (``_propagator``), which writes x_m, v_m, x_s and v_s.
    t is the grid j*h.  After the loop, each block of _FILL_ROWS rows in
    turn gets F_m and F_s from its holds (``_fill_held``), the inner rows of
    the runs jumped from it (``fill(a, b)``), then F_h and F_e: bit for bit
    the values a row-at-a-time loop writes, within the same nine columns.

    A sample is one call of each robot's ``_SensorPipeline.sample``, a hold
    one call of the law built once a run with its clamp (``_control_law``),
    and a run one ``advance``; the loop tests the state's sum for
    finiteness.  A hardware-sweep request (noise, clamp, jittered sampling,
    delays of one to three periods; three runs of 185 000 substeps) took 81
    to 87 ms, 440 to 470 ns a substep, against 98 to 108 ms before these
    were hoisted and the fill's passes widened (2 vCPUs, alternating runs).

    Raises ValueError, before allocating, when the nine trace columns and
    the propagator's k-step tables would exceed TRACE_BUDGET_BYTES.
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
    need = 9 * 8 * (n_total + 1) + _TABLE_BYTES_PER_SUBSTEP * nsub
    if need > TRACE_BUDGET_BYTES:
        raise ValueError(
            f"trace of {n_total + 1} rows and tables of {nsub} substeps need {need} bytes, over "
            f"the {TRACE_BUDGET_BYTES}-byte budget; shorten duration, raise period or lower substeps"
        )
    isfinite = math.isfinite

    # sampling machinery
    sampled = controller_mode == "sampled"
    jittered = sampled and sc.jitter_sampling
    cfg = sc.nonidealities
    # the actuator's largest |F|, taken once a run; unbounded without hardware
    lim = math.inf if cfg is None else clamp_force(math.inf, cfg)

    pipe_m = pipe_s = None
    if sampled and cfg is not None:
        pipe_m = _SensorPipeline(cfg, T, np.random.default_rng([seed, 0]))
        pipe_s = _SensorPipeline(cfg, T, np.random.default_rng([seed, 1]))

    # no packet delayed past the run arrives: a clamped delay fits int64 rows
    d1_sub, d2_sub = (min(d, n_periods + 1) * nsub for d in (ch.d1, ch.d2))

    # the row of each sample, ascending; a hold is its sample's row plus the
    # channel delay, as each side's holds deliver the samples in order
    sample_rows = array("q")

    def schedule():
        # zips of (j, stop, marks) for each row j that starts a run: the run
        # is substeps j .. stop - 1, and marks flags the events at j.  A
        # sampled run is scheduled a window of samples at a time, from its
        # first sample to the next window's: each row of the window gets an
        # int64 of marks, and np.flatnonzero lists the marked rows in order,
        # with no sort (int64, not uint8: numpy's uint8 arithmetic is code
        # no other step runs, 64 KiB more to map)
        if not sampled:  # each row samples and holds on both sides, with no delay
            every = itertools.repeat(_SAMPLE | _HOLD_S | _HOLD_M)
            yield zip(range(n_total), range(1, n_total + 1), every)
            return
        per_window = min(_WINDOW_SAMPLES, max(1, _WINDOW_ROWS // nsub))
        steps = np.full(per_window, nsub, np.int64)
        if jittered:
            # an interval u is rint(u/h) substeps, clipped to [min_sub, nsub];
            # only a jittered run loads numpy.random
            uniform = np.random.default_rng([seed, 2]).uniform
            min_sub = max(1, math.ceil(ch.eps_min / h - 1e-9))
        a = 0
        while a < n_total:
            if jittered:
                u = uniform(ch.eps_min, T, per_window)
                steps = np.rint(u / h).clip(min_sub, nsub).astype(np.int64)
            ends = steps.cumsum() + a
            b = min(int(ends[-1]), n_total)
            rows = ends - steps  # the row each interval starts on
            rows = rows[: rows.searchsorted(b)]
            sample_rows.frombytes(rows.tobytes())
            marks = np.zeros(b - a, np.int64)
            marks[rows - a] = _SAMPLE
            for d, mark in ((d1_sub, _HOLD_S), (d2_sub, _HOLD_M)):
                held = sample_rows[bisect_left(sample_rows, a - d) : bisect_left(sample_rows, b - d)]
                marks[np.frombuffer(held, np.int64) + (d - a)] += mark  # a bit of its own
            starts = np.flatnonzero(marks)
            kinds = marks.take(starts).tolist()
            starts = (starts + a).tolist()
            yield zip(starts, [*starts[1:], b], kinds)
            a = b

    # state; the startup latches hold the local initial condition on both
    # sides, so the first held torques see zero coordination error
    x_m = v_m = x_s = v_s = 0.0
    law = _control_law(g, lim)
    f_m_first = f_m_held = law((x_m, v_m), (x_m, v_m))
    f_s_first = f_s_held = law((x_s, v_s), (x_s, v_s))

    # measurements in flight to each side, oldest first
    to_s: deque[tuple[float, float]] = deque()
    to_m: deque[tuple[float, float]] = deque()

    n_rows = n_total + 1
    # in _TRACE_COLUMNS order: t, the state at [1:5], the torques at [5:7]
    columns = [np.arange(n_rows, dtype=float), *(np.empty(n_rows) for _ in _TRACE_COLUMNS[1:])]
    columns[0] *= h  # j * h, as the loop takes it
    state_w = xm_w, vm_w, xs_w, vs_w = tuple(map(memoryview, columns[1:5]))
    # a hold writes its torque to its row; the rows between holds are filled
    # in after the loop
    fm_w, fs_w = map(memoryview, columns[5:7])
    xm_w[0], vm_w[0], xs_w[0], vs_w[0] = x_m, v_m, x_s, v_s
    advance, fill = _propagator(sc, h, columns)

    last = n_total  # row the run ends on; moves up when the state diverges
    divergence_time: float | None = None
    # the loop's names as locals
    sample_m = sample_s = None
    if pipe_m is not None:
        sample_m, sample_s = pipe_m.sample, pipe_s.sample
    SAMPLE, HOLD_S, HOLD_M = _SAMPLE, _HOLD_S, _HOLD_M
    send_s, send_m, take_s, take_m = to_s.append, to_m.append, to_s.popleft, to_m.popleft
    for j, stop, marks in itertools.chain.from_iterable(schedule()):
        # events at substep j set the torques held over it; the last row
        # records the state the final substep reached and starts nothing
        if marks & SAMPLE:
            if sample_m is not None:
                own_m = sample_m(x_m, v_m)
                own_s = sample_s(x_s, v_s)
            else:
                own_m = (x_m, v_m)
                own_s = (x_s, v_s)
            send_s(own_m)
            send_m(own_s)
        if marks & HOLD_S:
            f_s_held = fs_w[j] = law(own_s, take_s())
        if marks & HOLD_M:
            f_m_held = fm_w[j] = law(own_m, take_m())

        x_m, v_m, x_s, v_s = advance(j, stop, x_m, v_m, x_s, v_s, f_m_held, f_s_held)
        # a finite sum has four finite terms; a sum that overflows is checked
        # term by term
        if not isfinite(x_m + v_m + x_s + v_s) and not (
            isfinite(x_m) and isfinite(v_m) and isfinite(x_s) and isfinite(v_s)
        ):
            # a non-finite state value stays non-finite, so the run ends on
            # the first non-finite row of these substeps
            last = j + 1
            while all(isfinite(w[last]) for w in state_w):
                last += 1
            divergence_time = last * h
            break
    rows = last + 1
    t, xm, vm, xs, vs, fm, fs, fh, fe = columns = [a[:rows] for a in columns]
    # the samples and each side's holds taken before the last row
    taken = np.frombuffer(sample_rows, np.int64)
    n_samples, n_s, n_m = taken.searchsorted((last, last - d1_sub, last - d2_sub)).tolist()
    if not sampled:  # a hold on every row but the last
        fm[last] = f_m_held
        fs[last] = f_s_held

    # a block's holds come first, as the fill reads F_s, and its forces
    # last, as the fill reads the jumps' marks in F_h and F_e.  F_h is the
    # row formula in its operation order, with constants formed as
    # _robot_blocks forms the master's block:
    #   a_m = (fstar - k_h*x_m - b_m_tot*v_m + F_m) * inv_mm
    #   F_h = fstar - m_h*a_m - b_h*v_m - k_h*x_m
    # with fstar = f_mag on the rows whose t lies in [f_start, f_stop), and
    # fe as scratch for the products.  F_e = -wall_force is -0.0 short of
    # the wall, where wall_force is 0.0: the law runs on blocks that reach it
    inv_mm = 1.0 / (sc.master.mass + sc.human.mass)
    b_m_tot = sc.master.damping + sc.human.damping
    k_h, m_h, b_h = sc.human.stiffness, sc.human.mass, sc.human.damping
    f_start, f_stop, f_mag = astuple(sc.operator_force)
    on, off = np.searchsorted(t, (f_start, f_stop)).tolist()
    pulse = ((0, on, 0.0), (on, off, f_mag), (off, rows, 0.0))
    wall = sc.wall
    with np.errstate(all="ignore"):  # a diverged run's last row overflows
        for a in range(0, rows, _FILL_ROWS):
            b = min(a + _FILL_ROWS, rows)
            if sampled:
                _fill_held(fm, taken[:n_m], d2_sub, a, b, f_m_first)
                _fill_held(fs, taken[:n_s], d1_sub, a, b, f_s_first)
            fill(a, b)
            xm_b, vm_b, fh_b, fe_b = xm[a:b], vm[a:b], fh[a:b], fe[a:b]
            stars = [(fh[max(lo, a) : min(hi, b)], f) for lo, hi, f in pulse]
            np.multiply(xm_b, k_h, out=fh_b)
            for s, f in stars:
                np.subtract(f, s, out=s)
            fh_b -= np.multiply(vm_b, b_m_tot, out=fe_b)
            fh_b += fm[a:b]
            fh_b *= inv_mm
            fh_b *= m_h
            for s, f in stars:
                np.subtract(f, s, out=s)
            fh_b -= np.multiply(vm_b, b_h, out=fe_b)
            fh_b -= np.multiply(xm_b, k_h, out=fe_b)
            if (xs[a:b] > wall.position).any():
                # row by row: a list of the block's values kept 0.07 MiB
                # more memory resident after 12 contact runs in a process
                wall_law = (-wall_force(x, v, wall) for x, v in zip(xs_w[a:b], vs_w[a:b]))
                fe_b[:] = np.fromiter(wall_law, float, b - a)
            else:
                fe_b.fill(-0.0)
    # sample times as k*T on the period grid and j*h when jittered
    sample_events = taken[:n_samples] * h if jittered else np.arange(n_samples) * T
    del taken, sample_rows  # freed before the hold times are formed

    return SimTrace(
        *columns,
        sample_events=sample_events,
        hold_events_m=sample_events[:n_m] + ch.t2,
        hold_events_s=sample_events[:n_s] + ch.t1,
        period=T,
        substep=h,
        divergence_time=divergence_time,
    )


def _fill_held(col: np.ndarray, samples, delay: int, a: int, b: int, first: float) -> None:
    """Give rows a .. b - 1 of ``col`` the torque of the last hold at or
    before each, and ``first`` before any.  A hold lands ``delay`` rows after
    its sample, whose rows ``samples`` lists in ascending order; each hold's
    own row already holds its torque, and row a - 1 is filled already.
    """
    lo, hi = samples.searchsorted((a - delay, b - delay)).tolist()
    edges = np.empty(hi - lo + 2, np.int64)  # a, the holds' rows, b
    edges[0], edges[-1] = a, b
    np.add(samples[lo:hi], delay, out=edges[1:-1])
    held = col.take(edges[:-1])  # its first entry, row a's, is replaced
    held[0] = col[a - 1] if a else first
    col[a:b] = np.repeat(held, np.diff(edges))


def _fill_jumps(columns, tables: np.ndarray, a: int, b: int) -> None:
    """Write the inner rows of the runs of substeps that ``_propagator``
    took in one jump and that start on rows a .. b - 1, _FILL_ROWS inner
    rows a numpy pass.

    A jump leaves k on row j of F_e, the last of ``columns``, for a run of
    k substeps from row j, and the master's input u_m = fstar + F_m on row
    j of F_h.  Row j + i, 0 < i < k, is then the i-step jump from row j,
    formed as a jump forms its end row: x_m = p00*x_m + p01*v_m + q0*u_m,
    and so on.  Row k of ``tables`` is the propagator's row k: the
    master's (p00, p10, p01, p11, q0, q1) and the slave's (p01, p11, q0,
    q1); the slave's first column is (1, 0).

    A pass gathers each coefficient by the rows' steps i and each start
    value by their runs' starts j, and forms one output column at a time.
    It holds seven arrays of one 8-byte entry an inner row: i, j, the three
    start values of one robot and two buffers for the column being formed.
    The bits do not depend on the pass size.  A hardware-sweep request
    (three runs, 185 000 substeps) spends about 10 ms here (2 vCPUs),
    against 19 to 30 ms at 512 rows a pass with a (10, rows) gather of the
    tables.
    """
    _, x_m, v_m, x_s, v_s, _, f_s, u_m, marks = columns
    seg = marks[a:b]
    starts = seg.nonzero()[0]
    if not len(starts):
        return
    inner = seg.take(starts).astype(np.intp)
    inner -= 1
    starts += a
    first = np.cumsum(inner)  # each run's first inner row, counted over the runs
    total = int(first[-1])
    first -= inner
    del inner
    p00, p10, p01, p11, q0, q1, r01, r11, r0, r1 = tables
    for c in range(0, total, _FILL_ROWS):
        # the step i of each inner row of this pass, and its run's start j
        i = np.arange(c, min(c + _FILL_ROWS, total))
        run = first.searchsorted(i, "right")
        run -= 1
        i -= first.take(run)
        i += 1
        j = starts.take(run)
        del run
        out = np.empty(len(i))
        tmp = np.empty(len(i))
        x, v, u = x_m.take(j), v_m.take(j), u_m.take(j)
        j += i  # the inner rows, until the slave's start values are taken
        for col, px, pv, q in ((x_m, p00, p01, q0), (v_m, p10, p11, q1)):
            # p_x*x + p_v*v + q*u, left to right; take's "clip" mode writes
            # to out= unbuffered, and every index is in range
            np.multiply(px.take(i, mode="clip", out=out), x, out=out)
            out += np.multiply(pv.take(i, mode="clip", out=tmp), v, out=tmp)
            out += np.multiply(q.take(i, mode="clip", out=tmp), u, out=tmp)
            col[j] = out
        j -= i
        x_s.take(j, mode="clip", out=x)
        v_s.take(j, mode="clip", out=v)
        f_s.take(j, mode="clip", out=u)
        j += i
        # x_s = x + r01*v + r0*f and v_s = r11*v + r1*f
        np.multiply(r01.take(i, mode="clip", out=out), v, out=out)
        out += x
        out += np.multiply(r0.take(i, mode="clip", out=tmp), u, out=tmp)
        x_s[j] = out
        np.multiply(r11.take(i, mode="clip", out=out), v, out=out)
        out += np.multiply(r1.take(i, mode="clip", out=tmp), u, out=tmp)
        v_s[j] = out
        del i, j, x, v, u, out, tmp  # freed before the next pass allocates


def verdict(trace: SimTrace, run: RunSettings = RunSettings()) -> SimVerdict:
    """Judge boundedness and settling of a trace against ``run``'s thresholds.

    bounded: every sample finite and max |x| within run.position_bound.
    settling_ok: max |v| over the trailing run.settle_window below
    run.settle_tol (never true for a diverged trace).
    """
    signals = [getattr(trace, name) for name in _TRACE_COLUMNS[1:]]
    # one test a column; only a trace with a non-finite value is masked by row
    if all(np.isfinite(s).all() for s in signals):
        div_time = trace.divergence_time
        n_ok = len(trace.t)
    else:
        finite_rows = np.ones(len(trace.t), dtype=bool)
        for s in signals:
            finite_rows &= np.isfinite(s)
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


def _write_rows(fh, columns, a: int, b: int) -> None:
    """Rows a to b of the trace's columns as CSV bytes, a block at a time,
    each block stacked by column so that ``_g17_csv`` reads a column's run
    of repeated values without a strided pass."""
    step = _CSV_CHUNK_FIELDS // len(columns)
    for i in range(a, b, step):
        fh.write(_g17_csv(np.stack([c[i : min(i + step, b)] for c in columns]).T))


def write_trace_csv(trace: SimTrace, path) -> None:
    """Write the signal record, one row per substep, full double precision.

    Every field is ``"%.17g" % x`` byte for byte.  ``_g17_csv`` formats a
    block of rows at a time in numpy, each run of repeated values in a
    column once, so no whole-trace copy or per-value call is made.  The
    rows are cut into contiguous ranges, one per CPU the process may run
    on (at most ``_TRACE_SPLIT_MAX``), when each range holds
    at least ``_TRACE_SPLIT_ROWS`` rows.  The caller formats the first range
    straight into ``path``; a forked child formats each other range into an
    unlinked part file next to it, and the caller copies the parts in order
    through a 64 KiB buffer.  A range whose fork fails (no process or memory
    left) is formatted by the caller.  Where ``os.fork`` or
    ``os.sched_getaffinity`` is missing (Windows, macOS), the caller runs
    more than one Python thread, one CPU is allowed or the trace is short,
    one range is formatted in the calling process.  The thread check sees
    Python threads only, not OS threads a library starts (OpenBLAS's pool):
    the child calls no BLAS routine, only numpy's elementwise formatting
    and file writes, and leaves by ``os._exit``.  Python 3.12 and later
    warn (``DeprecationWarning``) when such a process forks; the default
    filters do not show it.  The bytes do not depend on the number of
    ranges.  On the shipped 80 s scenario (133 k rows, 2 vCPUs, alternating
    runs in one process) two ranges took 0.10 to 0.16 s and one 0.14 to
    0.16 s: what the second range gains depends on how busy the host keeps
    the other CPU.  A child that fails makes the write raise ``OSError``.
    """
    import contextlib
    import os
    import shutil
    import tempfile
    import threading

    columns = [getattr(trace, name) for name in _TRACE_COLUMNS]
    rows = len(trace.t)
    parts = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        cpus = len(os.sched_getaffinity(0))
        parts = max(1, min(cpus, _TRACE_SPLIT_MAX, rows // _TRACE_SPLIT_ROWS))
    cuts = [rows * k // parts for k in range(parts + 1)]
    folder = os.path.dirname(os.path.abspath(path))
    with open(path, "wb") as fh, contextlib.ExitStack() as stack:
        ranges = [
            (stack.enter_context(tempfile.TemporaryFile(dir=folder)), a, b)
            for a, b in zip(cuts[1:], cuts[2:])
        ]
        pids = []
        try:
            for part, a, b in ranges:
                try:
                    pid = os.fork()
                except OSError:  # no process or memory for it: formatted below
                    break
                if pid == 0:  # the child formats its range and never returns
                    code = 1
                    try:
                        _write_rows(part, columns, a, b)
                        part.flush()
                        code = 0
                    finally:
                        os._exit(code)
                pids.append(pid)
            fh.write(_CSV_HEADER)
            _write_rows(fh, columns, 0, cuts[1])
            for part, a, b in ranges[len(pids) :]:
                _write_rows(part, columns, a, b)
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        if any(codes):
            raise OSError(f"trace CSV writer processes exited with {codes}")
        for part, _, _ in ranges:
            part.seek(0)
            shutil.copyfileobj(part, fh, 1 << 16)


def write_events_csv(trace: SimTrace, path) -> None:
    """Write sampler/hold events as kind,t rows ordered by time.

    Equal times keep the order sample, hold_m, hold_s.  The t field is
    ``"%.17g" % t``, formatted by ``_g17_csv`` as in the trace.  Only the
    times, the kinds (a byte each) and the sort order span the whole run;
    a block of rows at a time is gathered, formatted and joined as bytes.
    Equal times sit next to each other after the sort, so a block formats
    each distinct time once: at a delay of 0 every time is a sample and
    both holds.  About 0.4 us a row on the shipped scenario (40 k rows);
    formatting every row took 0.5 to 0.65 us, and one ``%`` per row 1 us.
    """
    names = np.array([b"sample,", b"hold_m,", b"hold_s,"], dtype=object)
    arrays = (trace.sample_events, trace.hold_events_m, trace.hold_events_s)
    t = np.concatenate(arrays)
    kind = np.repeat(np.arange(len(names), dtype=np.uint8), [len(a) for a in arrays])
    order = np.lexsort((kind, t))
    step = _CSV_CHUNK_FIELDS
    with open(path, "wb") as fh:
        fh.write(b"kind,t\n")
        for a in range(0, len(order), step):
            rows = order[a : a + step]
            block = t[rows]
            # a new time is a new bit pattern (-0.0 and 0.0 apart); the first
            # row is formatted even where it ties with the last block's
            bits = block.view(np.int64)
            fresh = np.empty(len(block), dtype=bool)
            fresh[0] = True
            np.not_equal(bits[1:], bits[:-1], out=fresh[1:])
            times = _g17_csv(block[fresh, None]).splitlines(True)
            lines = np.array(times, dtype=object)[np.cumsum(fresh) - 1]
            fh.write(b"".join((names[kind[rows]] + lines).tolist()))
