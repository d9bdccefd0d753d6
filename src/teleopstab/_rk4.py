"""The simulator's RK4 propagator: everything behind ``_propagator(sc, h,
columns) -> (advance, fill)``, to which ``sim.run_scenario`` hands each run
of substeps between channel events.

Between events each robot is linear with a constant input, and one RK4
substep of it is exactly the map y <- M y + N u of its transition matrices
(``_rk4_map``), so k substeps are the k-step map y <- P_k y + Q_k u
(``_rk4_runs``).  The propagator jumps a run by these maps where a bound
read off them keeps the slave short of the wall (``_slave_run_reach``), and
takes any other run a substep at a time by RK4's stages (``_stage_rk4``).
The forms differ only in rounding: traces agree with the coupled all-stage
loop (kept as the test oracle) to 1e-9 of each column's scale.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import astuple

import numpy as np

from .plants import FREE, ImpedanceModel, _robot_blocks, wall_force

# bytes a substep of a period of _propagator's tables, as tracemalloc puts
# them (up to 684), charged against sim.TRACE_BUDGET_BYTES
_TABLE_BYTES_PER_SUBSTEP = 720
# rows per block of run_scenario's pass over the columns derived after the
# loop, and inner rows per numpy pass of _fill_jumps: a pass holds seven
# arrays of as many 8-byte entries, 112 KiB.  At 4096 a run's peak beyond
# the trace passes 150 B a sample at a period of 4 substeps
_FILL_ROWS = 2048


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


def _stage_rk4(sc):
    """Classical RK4 over width dt of the slave against the wall of the
    SimScenario ``sc``, stage by stage: ``rk4(xs, vs, dt, fs)`` returns the
    new (xs, vs)."""
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


def _propagator(sc, h: float, columns):
    """``(advance, fill)``: RK4 between events of the SimScenario ``sc`` at
    substep h, writing the state into the trace ``columns`` (t, x_m, v_m,
    x_s, v_s, F_m, F_s, F_h, F_e: SimTrace's field order).

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
