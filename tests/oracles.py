"""Independent reference implementations used as test oracles.

Everything in this module is deliberately written from the underlying
formulas, not by calling back into the package: polynomial evaluation is
term-by-term instead of Horner, the hold kernel is the raw printed quotient
evaluated in high precision, the discretized double-integrator plant is a
hand-derived partial-fraction closed form, the general ZOH discretization
is scipy.signal's, the held-input pair is mpmath's matrix exponential of Van
Loan's block at 50 digits (and the sampled plant's response C(zI - Phi)^-1
Gamma is solved from that pair before any rounding), and the small-gain test
value is assembled term by term on a dense grid.  Test files compare package
output against these.

The one exception is ``stagewise_run_scenario``, the simulator's substep loop
as it ran before plain substeps stepped by RK4's transition maps: every
substep evaluates the four stages of ``stage_rk4``, which steps both robots
together.  It shares the package's sensor pipeline, clamp, control law and
wall law, so the trace digests pinned on it cover those helpers too; it
fills the held torques and the forces row by row, with no blocks.
"""

import cmath
import itertools
import math
from array import array
from collections import deque

import mpmath
import numpy as np
from scipy import signal

from teleopstab.control import control_continuous
from teleopstab.plants import wall_force
from teleopstab.sim import TRACE_BUDGET_BYTES, SimTrace, _saturate, _SensorPipeline, clamp_force


def poly_brute(coeffs, s):
    """Ascending-power polynomial evaluated term by term (not Horner)."""
    return sum(c * s**k for k, c in enumerate(coeffs))


def rational_brute(num, den, s):
    return poly_brute(num, s) / poly_brute(den, s)


def r_kernel_mp(omega, T, dps=50):
    """Hold kernel (T/2)(e^{-jwT} - 1)/(1 - cos wT), raw quotient in mpmath."""
    with mpmath.workdps(dps):
        w = mpmath.mpf(repr(float(omega)))
        Tm = mpmath.mpf(repr(float(T)))
        val = (Tm / 2) * (mpmath.e ** (-1j * w * Tm) - 1) / (1 - mpmath.cos(w * Tm))
        return complex(val)


def zoh_plant_response(m, b, T, z):
    """ZOH discretization of 1/(s(ms + b)) at the point z, closed form.

    From partial fractions with a = b/m:
        G(s)/s = (1/b)/s^2 - 1/(ab)/s + 1/(ab)/(s + a)
    so H(z) = (1 - z^-1) Z{G/s} = (T/b)/(z-1) - 1/(ab) + (1/(ab))(z-1)/(z - e^{-aT}).
    """
    a = b / m
    e = math.exp(-a * T)
    return (T / b) / (z - 1.0) - 1.0 / (a * b) + (z - 1.0) / ((a * b) * (z - e))


def zoh_cont2discrete(num, den, T):
    """ZOH discretization by scipy.signal.cont2discrete, ascending powers.

    Returns (num, den) coefficient arrays in z, lowest power first, with the
    numerator padded to the denominator's length.
    """
    numd, dend, _ = signal.cont2discrete((num[::-1], den[::-1]), T, method="zoh")
    return np.atleast_2d(numd)[0][::-1], np.ravel(dend)[::-1]


def zoh_pair_mp(A, B, T, dps=50):
    """Held-input pair (Phi, Gamma) from mpmath.expm of [[A*T, B*T], [0, 0]].

    The block is formed from the float inputs without rounding, exponentiated
    at ``dps`` digits, and the top rows are rounded once to float arrays.
    """
    n = len(B)
    with mpmath.workdps(dps):
        Tm = mpmath.mpf(float(T))
        block = mpmath.zeros(n + 1, n + 1)
        for i in range(n):
            for j in range(n):
                block[i, j] = mpmath.mpf(float(A[i][j])) * Tm
            block[i, n] = mpmath.mpf(float(B[i])) * Tm
        e = mpmath.expm(block)
        phi = np.array([[float(e[i, j]) for j in range(n)] for i in range(n)])
        gamma = np.array([float(e[i, n]) for i in range(n)])
    return phi, gamma


def zoh_response_mp(num, den, T, z, dps=50):
    """C (zI - Phi)^-1 Gamma of the ZOH-sampled plant num/den at the point z.

    The plant (ascending coefficients, strictly proper) is realized in
    controllable companion form; (Phi, Gamma) come from mpmath.expm of Van
    Loan's block [[A*T, B*T], [0, 0]] and the linear solve runs at ``dps``
    digits, so the result is rounded to a complex once.
    """
    n = len(den) - 1
    with mpmath.workdps(dps):
        Tm = mpmath.mpf(float(T))
        lead = mpmath.mpf(float(den[-1]))
        block = mpmath.zeros(n + 1, n + 1)
        for i in range(n - 1):
            block[i, i + 1] = Tm
        for j in range(n):
            block[n - 1, j] = -mpmath.mpf(float(den[j])) / lead * Tm
        block[n - 1, n] = Tm
        e = mpmath.expm(block)
        zm = mpmath.mpc(complex(z))
        shifted = mpmath.matrix(n, n)
        gamma = mpmath.matrix(n, 1)
        for i in range(n):
            for j in range(n):
                shifted[i, j] = (zm if i == j else 0) - e[i, j]
            gamma[i] = e[i, n]
        x = mpmath.lu_solve(shifted, gamma)
        val = sum(mpmath.mpf(float(c)) / lead * x[k] for k, c in enumerate(num))
        return complex(val)


def controller_response(kp, kv, kd, p_eps, T, z):
    """(K_v + K_d + P_eps)(z-1)/(Tz) + K_p evaluated directly."""
    return (kv + kd + p_eps) * (z - 1.0) / (T * z) + kp


def small_gain_dense(system, T, alpha, n_points=8192):
    """Dense-grid sup of |M_m N_m + M_s N_s|, assembled term by term.

    Uses the raw printed kernel quotient and the hand-derived closed-form
    plant discretization above; log-spaced grid over (pi/(T 1e6), pi/T].
    Robots must be bare mass-damper plants (free terminations).
    """
    g = system.gains
    bm, mm = system.master.damping, system.master.mass
    bs, ms = system.slave.damping, system.slave.mass
    nyq = math.pi / T
    omegas = np.geomspace(nyq / 1e6, nyq, n_points)
    best = -1.0
    best_w = omegas[0]
    for w in omegas:
        wt = w * T
        r = (T / 2.0) * (cmath.exp(-1j * wt) - 1.0) / (1.0 - math.cos(wt))
        z = cmath.exp(1j * wt)
        c = controller_response(g.kp, g.kv, g.kd, g.p_eps, T, z)
        d = 2.0 * bm * bs + alpha * bs * c * r + bm * c * r
        n_m = alpha * bs * c * r / d
        n_s = bm * c * r / d
        m_m = -1.0 + (2.0 * bm / r) * zoh_plant_response(mm, bm, T, z)
        m_s = -1.0 + (2.0 * bs / r) * zoh_plant_response(ms, bs, T, z)
        val = abs(m_m * n_m + m_s * n_s)
        if val > best:
            best = val
            best_w = w
    return best, best_w


def rk4_step_response(m, b, T, n_samples, fine_per_period=2000):
    """Unit-step response of m x'' + b x' = u sampled at kT, k = 0..n-1.

    Classical fixed-step RK4 at step T/fine_per_period; this is the
    brute-force time-domain oracle for the ZOH discretization.
    """
    h = T / fine_per_period
    x, v = 0.0, 0.0

    def f(x, v):
        return v, (1.0 - b * v) / m

    out = [0.0]
    for _ in range(n_samples - 1):
        for _ in range(fine_per_period):
            k1x, k1v = f(x, v)
            k2x, k2v = f(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
            k3x, k3v = f(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
            k4x, k4v = f(x + h * k3x, v + h * k3v)
            x += (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            v += (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        out.append(x)
    return np.array(out)


def tf_step_sequence(tf, n_samples):
    """Step response of a discrete RationalTF by direct difference equation."""
    num = np.asarray(tf.num, dtype=float)
    den = np.asarray(tf.den, dtype=float)
    lead = den[-1]
    num = num / lead
    den = den / lead
    order = len(den) - 1
    a = den[:-1]  # ascending, monic leading coefficient removed
    bpad = np.zeros(order + 1)
    bpad[: len(num)] = num
    y = np.zeros(n_samples)
    u = np.ones(n_samples)
    for k in range(n_samples):
        acc = 0.0
        for i in range(order + 1):
            if k - (order - i) >= 0:
                acc += bpad[i] * u[k - (order - i)]
        for i in range(order):
            if k - (order - i) >= 0:
                acc -= a[i] * y[k - (order - i)]
        y[k] = acc
    return y


def second_order_step(m, b, k, force, t):
    """Closed-form step response of m x'' + b x' + k x = force, from rest.

    Valid for the underdamped case; used against zero-gain simulator runs.
    """
    t = np.asarray(t, dtype=float)
    wn = math.sqrt(k / m)
    zeta = b / (2.0 * math.sqrt(k * m))
    sigma = zeta * wn
    wd = wn * math.sqrt(1.0 - zeta * zeta)
    tau = np.clip(t, 0.0, None)
    env = np.exp(-sigma * tau)
    resp = 1.0 - env * (np.cos(wd * tau) + (sigma / wd) * np.sin(wd * tau))
    return (force / k) * np.where(t > 0, resp, 0.0)


def trace_row_forces(trace, sc):
    """(F_h, F_e) of a simulator trace, one row at a time in Python floats.

    The row formulas in the operation order a row-at-a-time simulator loop
    wrote them, with the operator pulse f* = magnitude on [start, stop):
        a_m = (f* - k_h x_m - (b_m + b_h) v_m + F_m) * (1 / (m_m + m_h))
        F_h = f* - m_h a_m - b_h v_m - k_h x_m
        F_e = -(k_w (x_s - x_w) + b_w v_s, floored at 0) past the wall, else -0.0
    """
    master, human, wall, pulse = sc.master, sc.human, sc.wall, sc.operator_force
    inv_mm = 1.0 / (master.mass + human.mass)
    b_m_tot = master.damping + human.damping
    f_h, f_e = [], []
    for t, x_m, v_m, x_s, v_s, f_m in zip(
        trace.t.tolist(), trace.x_m.tolist(), trace.v_m.tolist(),
        trace.x_s.tolist(), trace.v_s.tolist(), trace.f_m.tolist(),
    ):
        fstar = pulse.magnitude if pulse.start <= t < pulse.stop else 0.0
        a_m = (fstar - human.stiffness * x_m - b_m_tot * v_m + f_m) * inv_mm
        f_h.append(fstar - human.mass * a_m - human.damping * v_m - human.stiffness * x_m)
        reaction = 0.0
        if x_s > wall.position:
            reaction = wall.stiffness * (x_s - wall.position) + wall.damping * v_s
            if reaction < 0.0:
                reaction = 0.0
        f_e.append(-reaction)
    return np.array(f_h), np.array(f_e)


_TRACE_COLUMNS = ("t", "x_m", "v_m", "x_s", "v_s", "f_m", "f_s", "f_h", "f_e")


def savetxt_trace(trace, path):
    """Trace CSV as np.savetxt writes it: header line, %.17g, comma-separated."""
    data = np.column_stack([getattr(trace, name) for name in _TRACE_COLUMNS])
    header = "t,x_m,v_m,x_s,v_s,F_m,F_s,F_h,F_e"
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")


def events_csv(trace, path):
    """Event CSV from a sorted list of (t, kind index, kind) tuples."""
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


def stage_rk4(sc):
    """Classical RK4 over width dt of the coupled robot/wall field of ``sc``,
    stage by stage: ``rk4(xm, vm, xs, vs, dt, fstar, fm, fs)`` returns the
    new (xm, vm, xs, vs).  ``stagewise_run_scenario`` steps every substep
    with it."""
    # hoisted dynamics constants
    inv_mm = 1.0 / (sc.master.mass + sc.human.mass)
    b_m_tot = sc.master.damping + sc.human.damping
    k_h = sc.human.stiffness
    inv_ms = 1.0 / sc.slave.mass
    b_s = sc.slave.damping
    wall = sc.wall
    x_wall = wall.position

    def rk4(xm, vm, xs, vs, dt, fstar, fm, fs):
        # Classical RK4 of the robot/wall field; each stage evaluates
        #   a_m = (fstar - k_h*xm - b_m_tot*vm + fm) / m_m
        #   a_s = (-wall_force(xs, vs) - b_s*vs + fs) / m_s
        # with the torques fm, fs already carrying the feedback sign.  Short
        # of the wall the reaction is the 0.0 wall_force itself returns there.
        # Traces are pinned bit for bit, so the operation order is fixed.
        h2 = 0.5 * dt
        k1v = (fstar - k_h * xm - b_m_tot * vm + fm) * inv_mm
        w = wall_force(xs, vs, wall) if xs > x_wall else 0.0
        k1u = (-w - b_s * vs + fs) * inv_ms
        x2m = xm + h2 * vm
        v2m = vm + h2 * k1v
        x2s = xs + h2 * vs
        v2s = vs + h2 * k1u
        k2v = (fstar - k_h * x2m - b_m_tot * v2m + fm) * inv_mm
        w = wall_force(x2s, v2s, wall) if x2s > x_wall else 0.0
        k2u = (-w - b_s * v2s + fs) * inv_ms
        x3m = xm + h2 * v2m
        v3m = vm + h2 * k2v
        x3s = xs + h2 * v2s
        v3s = vs + h2 * k2u
        k3v = (fstar - k_h * x3m - b_m_tot * v3m + fm) * inv_mm
        w = wall_force(x3s, v3s, wall) if x3s > x_wall else 0.0
        k3u = (-w - b_s * v3s + fs) * inv_ms
        x4m = xm + dt * v3m
        v4m = vm + dt * k3v
        x4s = xs + dt * v3s
        v4s = vs + dt * k3u
        k4v = (fstar - k_h * x4m - b_m_tot * v4m + fm) * inv_mm
        w = wall_force(x4s, v4s, wall) if x4s > x_wall else 0.0
        k4u = (-w - b_s * v4s + fs) * inv_ms
        s6 = dt / 6.0
        return (
            xm + s6 * (vm + 2.0 * (v2m + v3m) + v4m),
            vm + s6 * (k1v + 2.0 * (k2v + k3v) + k4v),
            xs + s6 * (vs + 2.0 * (v2s + v3s) + v4s),
            vs + s6 * (k1u + 2.0 * (k2u + k3u) + k4u),
        )

    return rk4


def _draws(draw, *args):
    """Python floats one at a time from the numpy draw ``draw(*args, size)``.

    Draws 256 at a time: numpy's generators give the same stream in blocks
    as one value per call, so only the number of calls changes.
    """
    while True:
        yield from draw(*args, 256).tolist()


def _fill_held(col, rows, first):
    """Give each row of ``col`` the torque of the last hold at or before it,
    and ``first`` before any; each hold's own row, listed in ``rows`` in
    ascending order, already holds its torque."""
    held = first
    holds = set(rows)
    for r in range(len(col)):
        if r in holds:
            held = col[r]
        col[r] = held


def stagewise_run_scenario(sc, seed=0, controller_mode="sampled"):
    """Integrate one scenario and return the substep-resolution trace.

    Every substep evaluates the four stages of ``rk4``; see the module
    docstring.

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
    wall = sc.wall
    x_wall = wall.position
    f_start = sc.operator_force.start
    f_stop = sc.operator_force.stop
    f_mag = sc.operator_force.magnitude
    isfinite = math.isfinite

    rk4 = stage_rk4(sc)

    def wall_branch(xs, vs):
        # 0 free flight, 1 pushing contact, 2 clamped (spring+damper pulls)
        if xs <= x_wall:
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
            if wall_branch(y[2], y[3]) == b0 or not (isfinite(y[2]) and isfinite(y[3])):
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

    def advance_cut(t0, t1, xm, vm, xs, vs, fm, fs):
        # a substep holding an operator-force edge: one smooth piece per side
        cuts = [t0]
        if t0 < f_start < t1:
            cuts.append(f_start)
        if t0 < f_stop < t1:
            cuts.append(f_stop)
        cuts.append(t1)
        for a, b in zip(cuts, cuts[1:]):
            mid = 0.5 * (a + b)
            fstar = f_mag if f_start <= mid < f_stop else 0.0
            xm, vm, xs, vs = advance_smooth(a, b, xm, vm, xs, vs, fstar, fm, fs)
        return xm, vm, xs, vs

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
        if j == next_break:
            next_break = next(breaks)
        if t0 < f_start < t1 or t0 < f_stop < t1:
            stop = j + 1
            x_m, v_m, x_s, v_s = advance_cut(t0, t1, x_m, v_m, x_s, v_s, f_m_held, f_s_held)
            xm_w[stop] = x_m
            vm_w[stop] = v_m
            xs_w[stop] = x_s
            vs_w[stop] = v_s
        else:
            stop = min(next_event, next_break, last)
            fstar = f_mag if f_start <= 0.5 * (t0 + t1) < f_stop else 0.0
            for i in range(j, stop):
                t0 = i * h
                t1 = t0 + h
                y = rk4(x_m, v_m, x_s, v_s, t1 - t0, fstar, f_m_held, f_s_held)
                # the step advance_smooth would try first; it redoes it and
                # bisects only when a finite end state changed wall branch
                if (
                    (x_s > x_wall or y[2] > x_wall)
                    and wall_branch(y[2], y[3]) != wall_branch(x_s, v_s)
                    and isfinite(y[2])
                    and isfinite(y[3])
                ):
                    y = advance_smooth(t0, t1, x_m, v_m, x_s, v_s, fstar, f_m_held, f_s_held)
                x_m, v_m, x_s, v_s = y
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

    # F_e = -wall_force, on every row
    fe[:] = [-wall_force(x, v, wall) for x, v in zip(xs.tolist(), vs.tolist())]

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
