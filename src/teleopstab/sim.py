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

This module holds the models, the sensor path (``_sensor``), the channel's
event loop ``run_scenario``, ``verdict`` and ``sweep_period``; the RK4
propagator is ``_rk4``'s, and the CSV writers, re-exported here, are
``_g17``'s.  ``run_scenario`` walks a schedule of the rows on which a
sample or a hold starts a run of substeps and hands each run to the
propagator's ``advance``, which returns the state on the run's last row.
After the loop one pass over blocks of rows derives the rest: the held
torques from the holds, the jumped runs' inner rows by the propagator's
``fill``, and the terminations' forces from the state columns, each with
the per-row formulas' bits.

Identical scenario + seed reproduces bit-identical traces.
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from ._g17 import write_events_csv, write_trace_csv
from ._rk4 import _FILL_ROWS, _TABLE_BYTES_PER_SUBSTEP, _propagator
from .control import ControllerGains, _control_law
from .plants import ImpedanceModel, RobotParams, WallModel, wall_force
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

# Most run_scenario will allocate: nine float64 columns of a row a substep,
# and _propagator's tables, charged at _TABLE_BYTES_PER_SUBSTEP a substep of
# a period.  A larger run is refused up front.
TRACE_BUDGET_BYTES = 2 * 1024**3
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
# trace CSV's and the propagator's
_TRACE_COLUMNS = tuple(f.name for f in fields(SimTrace))[:9]


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


def _sensor(cfg: NonidealityConfig, T: float, rng: np.random.Generator):
    """One robot's measurement path: additive noise, encoder floor, velocity
    lag.  Returns ``sample(x, v)``, the measured (position, velocity) of one
    sample, a closure over the constants and the filter's state.

    The first-order filter is discretized exactly at the nominal rate
    (pole e^(-2*pi*fc*T)) and starts from zero state.  The noise on x and on
    v is the next pair of the stream's standard normals times noise_std,
    drawn 256 at a time; numpy's generators give the same stream in blocks
    as one value per call.  A noisy sample took 0.30 us, against 0.38 us as
    a method drawing two Python floats, one at a time, from a generator over
    blocks of 256 draws (timeit, Python 3.11, 2 vCPUs).
    """
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

    return sample


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
    sample = _sensor(cfg, T, np.random.default_rng(rng_seed))
    out_p = np.empty_like(pos)
    out_v = np.empty_like(vel)
    for i in range(pos.size):
        out_p[i], out_v[i] = sample(float(pos[i]), float(vel[i]))
    return out_p, out_v


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

    A sample is one call of each robot's ``_sensor`` closure, a hold
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

    sample_m = sample_s = None
    if sampled and cfg is not None:
        sample_m = _sensor(cfg, T, np.random.default_rng([seed, 0]))
        sample_s = _sensor(cfg, T, np.random.default_rng([seed, 1]))

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
