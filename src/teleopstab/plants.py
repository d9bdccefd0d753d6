"""Robot dynamics, terminations, coupled-plant transfer functions, and the wall.

The one-degree-of-freedom robots are pure inertia+damping; the operator and the
environment terminate them through spring-mass-damper impedances Z(s) =
m*s + b + k/s (force per velocity).  The position-from-force plant of a
terminated robot is X/F = 1/(s*(m*s + b + Z(s))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lti import _NOISE_RTOL, RationalTF, eval_tf

__all__ = [
    "RobotParams",
    "ImpedanceModel",
    "HybridMatrix",
    "WallModel",
    "FREE",
    "DegenerateModel",
    "ImproperPlant",
    "SingularSlaveLoop",
    "robot_impedance",
    "plant_position_tf",
    "zoh_pair",
    "sampled_plant_tf",
    "hybrid_at",
    "transparency_error",
    "wall_force",
]

# The [13/13] Pade approximant of e^a is (V - U)^-1 (V + U), with
#   U = a (a^6 (b13 a^6 + b11 a^4 + b9 a^2) + b7 a^6 + b5 a^4 + b3 a^2 + b1 I),
#   V = a^6 (b12 a^6 + b10 a^4 + b8 a^2) + b6 a^6 + b4 a^4 + b2 a^2 + b0 I;
# each row holds the b_k of one inner sum, on (I, a^2, a^4, a^6).  It is
# accurate to double precision up to 1-norm theta_13 (Higham 2005).
_PADE13_SUMS = np.array([
    (0.0, 40840800.0, 16380.0, 1.0),
    (32382376266240000.0, 1187353796428800.0, 10559470521600.0, 33522128640.0),
    (0.0, 1323241920.0, 960960.0, 182.0),
    (64764752532480000.0, 7771770303897600.0, 129060195264000.0, 670442572800.0),
])
_PADE13_SUMS.setflags(write=False)
_THETA13 = 5.371920351148152


class DegenerateModel(ValueError):
    """Plant construction would produce a zero denominator."""


class ImproperPlant(ValueError):
    """ZOH discretization needs a strictly proper plant."""


class SingularSlaveLoop(ArithmeticError):
    """Slave loop Z_s + C_s vanishes at the requested frequency."""


@dataclass(frozen=True)
class RobotParams:
    """Inertia (kg*m^2) and viscous damping (N*m*s/rad) of one robot."""

    mass: float
    damping: float

    def __post_init__(self) -> None:
        if not 0.0 < self.mass < math.inf:
            raise ValueError("robot mass must be positive and finite")
        if not 0.0 <= self.damping < math.inf:
            raise ValueError("robot damping must be nonnegative and finite")


@dataclass(frozen=True)
class ImpedanceModel:
    """Termination impedance Z(s) = mass*s + damping + stiffness/s."""

    mass: float = 0.0
    damping: float = 0.0
    stiffness: float = 0.0

    def __post_init__(self) -> None:
        if not all(0.0 <= v < math.inf for v in (self.mass, self.damping, self.stiffness)):
            raise ValueError("impedance parameters must be nonnegative and finite")

    def is_free(self) -> bool:
        return self.mass == 0.0 and self.damping == 0.0 and self.stiffness == 0.0


FREE = ImpedanceModel()


@dataclass(frozen=True)
class WallModel:
    """Unilateral spring-damper wall engaged beyond ``position``; a wall at
    +inf is never engaged."""

    position: float
    stiffness: float = 1000.0  # N*m/rad
    damping: float = 1.0  # N*m*s/rad

    def __post_init__(self) -> None:
        if not -math.inf < self.position <= math.inf:
            raise ValueError("wall position must be finite or +inf")
        if not 0.0 < self.stiffness < math.inf:
            raise ValueError("wall stiffness must be positive and finite")
        if not 0.0 <= self.damping < math.inf:
            raise ValueError("wall damping must be nonnegative and finite")


@dataclass(frozen=True)
class HybridMatrix:
    """Two-port h-parameters of the teleoperation loop at one frequency."""

    h11: complex
    h12: complex
    h21: complex
    h22: complex
    frequency: float  # rad/s

    def __post_init__(self) -> None:
        for name in ("h11", "h12", "h21", "h22"):
            v = getattr(self, name)
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"{name} is not finite")
        if not self.frequency > 0.0:
            raise ValueError("frequency must be positive")


def robot_impedance(p: RobotParams) -> RationalTF:
    """Force-per-velocity impedance m*s + b of a bare robot."""
    return RationalTF(num=(p.damping, p.mass), den=(1.0,))


def plant_position_tf(p: RobotParams, terminator: ImpedanceModel) -> RationalTF:
    """Position-from-force plant 1/(s*(m*s + b + Z(s))) of a terminated robot.

    With Z = m'*s + b' + k/s the denominator collapses to the polynomial
    k + (b+b')*s + (m+m')*s^2.
    """
    den = (terminator.stiffness, p.damping + terminator.damping, p.mass + terminator.mass)
    if all(c == 0.0 for c in den):
        raise DegenerateModel("terminated robot has no dynamics")
    return RationalTF(num=(1.0,), den=den)


def _robot_blocks(p: RobotParams, termination: ImpedanceModel) -> tuple[np.ndarray, np.ndarray]:
    """Continuous (A, B) of a robot with its termination folded in.

    State (x, v) and the force on the robot as input, so that
    v' = (u - k*x - (b + b')*v) / (m + m').  The inverse mass 1/(m + m') and
    the summed damping are formed once, as the simulator's field takes them:
    A = [[0, 1], [-k/(m + m'), -(b + b')/(m + m')]] and B = (0, 1/(m + m')).
    """
    inv_m = 1.0 / (p.mass + termination.mass)
    a = np.array([
        [0.0, 1.0],
        [-termination.stiffness * inv_m, -(p.damping + termination.damping) * inv_m],
    ])
    return a, np.array([0.0, inv_m])


def zoh_pair(A: np.ndarray, B: np.ndarray, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Held-input pair (Phi, Gamma) of x' = A x + B u over one period T.

    Phi = e^{AT} and Gamma = int_0^T e^{As} ds B are the top rows of Van
    Loan's block exponential expm([[A*T, B*T], [0, 0]]) (IEEE TAC 1978),
    computed in numpy by scaling and squaring with the [13/13] Pade
    approximant and one ``np.linalg.solve`` (Higham, SIAM J. Matrix Anal.
    Appl. 2005).  The number of halvings and the exact diagonals of a
    triangular block follow Al-Mohy and Higham (SIAM J. Matrix Anal. Appl.
    2009).  Raises ArithmeticError, with no floating-point warning, when A*T
    or the exponential is not finite.
    """
    n = A.shape[0]
    overflow = f"ZOH discretization overflows at sampling period T = {T!r}"
    with np.errstate(all="ignore"):
        block = np.zeros((n + 1, n + 1))
        block[:n, :n] = A * T
        block[:n, n] = B * T
        norm = np.abs(block).sum(axis=0).max()  # inf or nan unless A*T is finite
        if not math.isfinite(norm):
            raise ArithmeticError(overflow)
        # halve to 1-norm theta_13, so that no power overflows, then take back
        # the halvings that eta = min(max(d6, d8), max(d8, d10)), with
        # d_k = ||block^k||^(1/k) <= norm, shows are not needed: the companion
        # block of a stiff wall is far from normal, and each needless halving
        # doubles the rounding error that the squarings carry
        s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0.0 else 0
        a = block * 2.0**-s
        a2 = a @ a
        a4 = a2 @ a2
        powers = np.array((np.eye(n + 1), a2, a4, a2 @ a4))
        if s > 0:
            a6 = powers[3]
            d = np.abs((a6, a4 @ a4, a4 @ a6)).sum(axis=1).max(axis=1) ** (1 / 6, 1 / 8, 1 / 10)
            eta = min(max(d[0], d[1]), max(d[1], d[2]))
            back = min(s, -math.ceil(math.log2(eta / _THETA13))) if eta > 0.0 else s
            s -= back
            k = 2.0**back
            a = a * k
            powers *= np.array((1.0, k**2, k**4, k**6))[:, None, None]
        sums = (_PADE13_SUMS @ powers.reshape(4, -1)).reshape(powers.shape)
        u = a @ (powers[3] @ sums[0] + sums[1])
        v = powers[3] @ sums[2] + sums[3]
        # (V - U)^-1 (V + U) as I + 2 (V - U)^-1 U: near the identity the
        # small correction carries the rounding, not the sum V + U
        van_loan = 2.0 * np.linalg.solve(v - u, u)
        van_loan.flat[:: n + 2] += 1.0
        # s squarings multiply an eigenvalue's error by up to 2^s; a
        # triangular block (a free robot) gets its diagonal and superdiagonal
        # set exactly before each squaring and after the last
        triangular = s > 0 and not np.tril(block, -1).any()
        for i in range(s):
            if triangular:
                _exact_diagonals(van_loan, block * 2.0 ** (i - s))
            van_loan = van_loan @ van_loan
        if triangular:
            _exact_diagonals(van_loan, block)
        if not np.isfinite(van_loan).all():
            raise ArithmeticError(overflow)
    return van_loan[:n, :n], van_loan[:n, n]


def _exact_diagonals(x: np.ndarray, m: np.ndarray) -> None:
    """Write the diagonal and superdiagonal of expm(m) into x, m upper triangular.

    Entry (j, j+1) is m[j, j+1] (e^hi - e^lo)/(hi - lo) over the two diagonal
    entries, taken as e^hi expm1(d)/d with d = lo - hi <= 0 so that it
    neither cancels nor overflows.
    """
    lam = np.diag(m)
    np.fill_diagonal(x, np.exp(lam))
    for j in range(len(lam) - 1):
        hi, lo = max(lam[j], lam[j + 1]), min(lam[j], lam[j + 1])
        d = lo - hi
        x[j, j + 1] = m[j, j + 1] * np.exp(hi) * (np.expm1(d) / d if d else 1.0)


def sampled_plant_tf(plant: RationalTF, T: float) -> RationalTF:
    """Exact ZOH discretization of a strictly proper plant, returned in z.

    With (A, B, C) the controllable companion realization of the plant,
    ``zoh_pair`` gives the held-input pair (Phi, Gamma).  The z-domain
    denominator is det(zI - Phi) and the numerator C adj(zI - Phi) Gamma,
    both from the Faddeev-LeVerrier recurrence on Phi, with no trimming:
    adj(zI - Phi) = sum_k B_k z^(n-1-k) with B_0 = I, den_k =
    -tr(Phi B_(k-1))/k and B_k = Phi B_(k-1) + den_k I.
    """
    if not T > 0.0:
        raise ValueError("sampling period must be positive")
    if not plant.is_strictly_proper():
        raise ImproperPlant(
            f"numerator degree {plant.num_degree} >= denominator degree {plant.den_degree}"
        )
    n = plant.den_degree
    lead = plant.den[-1]
    c_row = np.zeros(n)
    c_row[: len(plant.num)] = np.asarray(plant.num) / lead
    a = np.eye(n, k=1)
    a[n - 1, :] = -np.asarray(plant.den[:-1]) / lead
    b = np.zeros(n)
    b[n - 1] = 1.0
    phi, gamma = zoh_pair(a, b, T)
    num, den, adj = [], [1.0], np.eye(n)
    for k in range(1, n + 1):
        num.append(c_row @ adj @ gamma)
        adj = phi @ adj
        den.append(-adj.trace() / k)
        adj.ravel()[:: n + 1] += den[-1]  # a view: adj is contiguous
    return RationalTF(num=tuple(num[::-1]), den=tuple(den[::-1]))


def hybrid_at(
    zm: RationalTF,
    zs: RationalTF,
    cm: RationalTF,
    cs: RationalTF,
    omega: float,
) -> HybridMatrix:
    """h-parameter matrix of the position-force architecture at s = j*omega.

    h11 = Z_m + C_m Z_s/(Z_s + C_s),  h12 = C_m/(Z_s + C_s),
    h21 = -C_s/(Z_s + C_s),           h22 = 1/(Z_s + C_s).
    """
    s = 1j * omega
    zm_v = eval_tf(zm, s)
    zs_v = eval_tf(zs, s)
    cm_v = eval_tf(cm, s)
    cs_v = eval_tf(cs, s)
    d = zs_v + cs_v
    if abs(d) <= _NOISE_RTOL * (abs(zs_v) + abs(cs_v)):
        raise SingularSlaveLoop(f"Z_s + C_s ~ 0 at omega = {omega}")
    return HybridMatrix(
        h11=zm_v + cm_v * zs_v / d,
        h12=cm_v / d,
        h21=-cs_v / d,
        h22=1.0 / d,
        frequency=omega,
    )


def transparency_error(h: HybridMatrix) -> float:
    """Distance |h11| + |h12 - 1| + |h21 + 1| + |h22| from the ideal response.

    The ideal transparent two-port has (h11, h12, h21, h22) = (0, 1, -1, 0).
    """
    return (
        abs(h.h11)
        + abs(h.h12 - 1.0)
        + abs(h.h21 + 1.0)
        + abs(h.h22)
    )


def wall_force(x: float, v: float, wall: WallModel) -> float:
    """Reaction magnitude of the unilateral wall; zero when disengaged.

    Clamped at zero so the wall never pulls.  Continuous in x across the
    engagement boundary when v = 0.  A NaN reaction past the threshold is
    returned as is, so a diverging state stays visible in the force.
    """
    if not x > wall.position:
        return 0.0
    raw = wall.stiffness * (x - wall.position) + wall.damping * v
    return 0.0 if raw < 0.0 else raw
