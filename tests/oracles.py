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
"""

import cmath
import math

import mpmath
import numpy as np
from scipy import signal


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
