"""The simulator's RK4 propagator: everything behind ``_propagator(sc, h,
columns) -> (advance, fill)``, to which ``sim.run_scenario`` hands each run
of substeps between channel events, and which owns every column of the
trace but t: ``advance`` writes the state and the held torques on the rows
it reaches, and ``fill`` derives every other row and column after the loop.

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
# rows per block of fill's pass over the columns derived after the loop: a
# block's unreached rows are one numpy pass of _fill_jumps, which holds
# seven arrays of as many 8-byte entries, 112 KiB.  At 4096 a run's peak
# beyond the trace passes 150 B a sample at a period of 4 substeps
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
    substep h, writing the trace ``columns`` (t, x_m, v_m, x_s, v_s, F_m,
    F_s, F_h, F_e: SimTrace's field order) but t, which the caller writes.

    ``advance(j, stop, x_m, v_m, x_s, v_s, f_m, f_s)`` takes substeps j ..
    stop - 1 at the held torques f_m and f_s, writes them to F_m and F_s
    wherever it writes the state, and on row j, and returns the state on row
    stop, which is non-finite when the run diverged.  ``fill(rows)``, called
    once the runs are done, completes rows 0 .. rows - 1 a block of
    _FILL_ROWS rows at a time: the rows advance did not reach, whose x_m
    keeps the NaN set here on all rows but the caller's start row 0, state
    and torques (``_fill_jumps``), then F_h and F_e, unwritten till then,
    from the state and F_m, each with the per-row formulas' bits.

    A run of k substeps with no operator-force edge within a substep of it
    is one jump by RK4's k-step maps when the slave's reach over k
    substeps, read off the same maps (``_slave_run_reach``), keeps it short
    of the wall; advance writes its first and end rows, and fill its inner
    rows.  A jump that ends non-finite, a run near an
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

    # a row whose x_m is still NaN when fill runs is one advance did not
    # reach: an inner row of a jumped run
    xm_w, vm_w, xs_w, vs_w, fm_w, fs_w = map(memoryview, columns[1:7])
    columns[1][1:] = math.nan

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
        # substep's width stays t1 - t0, which need not round to h.  The
        # torques go wherever the state does, and on row j, whose state the
        # run starts from
        fm_w[j] = f_m
        fs_w[j] = f_s
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
                xm_w[stop] = x_m1
                vm_w[stop] = v_m1
                xs_w[stop] = x_s1
                vs_w[stop] = v_s1
                fm_w[stop] = f_m
                fs_w[stop] = f_s
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
            fm_w[i] = f_m
            fs_w[i] = f_s
        return x_m, v_m, x_s, v_s

    maps = np.array(tables).T.copy()  # contiguous rows, which take needs

    def fill(rows):
        # a block's unreached rows come first, as its forces read their
        # state, and each block hands the next the last row advance reached.
        # F_h is the row formula in its operation order, with constants
        # formed as _robot_blocks forms the master's block:
        #   a_m = (fstar - k_h*x_m - b_m_tot*v_m + F_m) * inv_mm
        #   F_h = fstar - m_h*a_m - b_h*v_m - k_h*x_m
        # with fstar = f_mag on the rows whose t lies in [f_start, f_stop), and
        # fe as scratch for the products.  F_e = -wall_force is -0.0 short of
        # the wall, where wall_force is 0.0: the law runs on blocks that reach it
        t, xm, vm, xs, _, fm, _, fh, fe = columns
        inv_mm = 1.0 / (sc.master.mass + sc.human.mass)
        b_m_tot = sc.master.damping + sc.human.damping
        k_h, m_h, b_h = sc.human.stiffness, sc.human.mass, sc.human.damping
        t_on, t_off = np.searchsorted(t[:rows], (f_start, f_stop)).tolist()
        pulse = ((0, t_on, 0.0), (t_on, t_off, f_mag), (t_off, rows, 0.0))
        # an inner row may overflow though its jump's end row is finite, and
        # a diverged run's last row overflows
        start = 0
        with np.errstate(all="ignore"):
            for a in range(0, rows, _FILL_ROWS):
                b = min(a + _FILL_ROWS, rows)
                # the last row is advance's, a diverged run's NaN one included
                start = _fill_jumps(columns, maps, (on, off, f_mag), a, min(b, rows - 1), start)
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
                if (xs[a:b] > x_wall).any():
                    # row by row: a list of the block's values kept 0.07 MiB
                    # more memory resident after 12 contact runs in a process
                    wall_law = (
                        -wall_force(x, v, wall) for x, v in zip(xs_w[a:b], vs_w[a:b])
                    )
                    fe_b[:] = np.fromiter(wall_law, float, b - a)
                else:
                    fe_b.fill(-0.0)

    return advance, fill


def _fill_jumps(columns, tables: np.ndarray, pulse, a: int, b: int, start: int) -> int:
    """Write the rows a .. b - 1 that ``_propagator``'s advance did not
    reach, whose x_m is NaN, and return the last row before b it reached,
    given ``start``, that row before a.  An unreached row is an inner row of
    a jumped run, whose first row j is the last reached row before it.  The
    caller passes b < rows: the last row is advance's, a diverged NaN too.

    Row j + i is the i-step jump from row j, formed as a jump forms its end
    row: x_m = p00*x_m + p01*v_m + q0*u_m, and so on, from row j's state and
    torques, with advance's input u_m = fstar + F_m, fstar being f_mag where
    on <= j < off for ``pulse`` = (on, off, f_mag): bisected on the sorted j,
    as an int comparison maps in 128 KiB more of numpy's code.  Row k of
    ``tables`` is the propagator's row k: the master's (p00, p10, p01, p11,
    q0, q1) and the slave's (p01, p11, q0, q1), whose first column is (1, 0).

    One numpy pass gathers each coefficient by the rows' steps i and each
    start value by their runs' first rows j, and forms one output column at
    a time.  It holds seven arrays of one 8-byte entry an unreached row: i,
    j, the three start values of one robot and two buffers for the column
    being formed; a block with none allocates only its NaN test.  The bits
    do not depend on the block size.  A hardware-sweep request (three runs,
    185 000 substeps) spends 10 to 16 ms here (2 vCPUs).  A (10, rows) gather
    of the tables, 512 rows a pass, took two to three times as long as this.
    """
    _, x_m, v_m, x_s, v_s, f_m, f_s = columns[:7]
    unreached = np.isnan(x_m[a:b])
    i = unreached.nonzero()[0]
    if not len(i):
        return b - 1 if a < b else start
    # the last reached row up to each row, a running maximum from start
    j = np.maximum.accumulate(np.where(unreached, start, np.arange(a, b)))
    start = int(j[-1])
    j = j.take(i)
    i += a
    i -= j  # the steps
    p00, p10, p01, p11, q0, q1, r01, r11, r0, r1 = tables
    on, off, f_mag = pulse
    out = np.empty(len(i))
    tmp = np.empty(len(i))
    u = np.zeros(len(i))
    u[slice(*j.searchsorted((on, off)))] = f_mag  # fstar
    u += f_m.take(j, mode="clip", out=tmp)  # advance's sum
    x, v = x_m.take(j), v_m.take(j)
    j += i  # the unreached rows, until the slave's start values are taken
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
    f_m.take(j, mode="clip", out=tmp)
    j += i
    f_m[j] = tmp  # the held torques are the start row's
    f_s[j] = u
    # x_s = x + r01*v + r0*f and v_s = r11*v + r1*f
    np.multiply(r01.take(i, mode="clip", out=out), v, out=out)
    out += x
    out += np.multiply(r0.take(i, mode="clip", out=tmp), u, out=tmp)
    x_s[j] = out
    np.multiply(r11.take(i, mode="clip", out=out), v, out=out)
    out += np.multiply(r1.take(i, mode="clip", out=tmp), u, out=tmp)
    v_s[j] = out
    return start
