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
from scipy.linalg import expm

from .lti import RationalTF, eval_tf

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
    "sampled_plant_tf",
    "hybrid_at",
    "transparency_error",
    "wall_force",
]

_SINGULAR_RTOL = 64.0 * np.finfo(float).eps

# relative floor below which round-off residue at the top of the numerator
# is trimmed (the exact leading coefficient of a strictly proper
# discretization is zero)
_COEFF_TRIM_RTOL = 1e-13


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
        if not self.mass > 0.0:
            raise ValueError("robot mass must be positive")
        if self.damping < 0.0:
            raise ValueError("robot damping must be nonnegative")


@dataclass(frozen=True)
class ImpedanceModel:
    """Termination impedance Z(s) = mass*s + damping + stiffness/s."""

    mass: float = 0.0
    damping: float = 0.0
    stiffness: float = 0.0

    def __post_init__(self) -> None:
        if self.mass < 0.0 or self.damping < 0.0 or self.stiffness < 0.0:
            raise ValueError("impedance parameters must be nonnegative")

    def is_free(self) -> bool:
        return self.mass == 0.0 and self.damping == 0.0 and self.stiffness == 0.0


FREE = ImpedanceModel()


@dataclass(frozen=True)
class WallModel:
    """Unilateral spring-damper wall engaged beyond ``position``."""

    position: float
    stiffness: float = 1000.0  # N*m/rad
    damping: float = 1.0  # N*m*s/rad

    def __post_init__(self) -> None:
        if not self.stiffness > 0.0:
            raise ValueError("wall stiffness must be positive")
        if self.damping < 0.0:
            raise ValueError("wall damping must be nonnegative")


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


def sampled_plant_tf(plant: RationalTF, T: float) -> RationalTF:
    """Exact ZOH discretization of a strictly proper plant, returned in z.

    Van Loan's block-matrix exponential (IEEE TAC 1978): with (A, B, C) the
    controllable companion realization of the plant, the top rows of
    expm([[A*T, B*T], [0, 0]]) hold the held-input pair (Phi, Gamma) exactly.
    The z-domain denominator is det(zI - Phi) and the numerator
    det(zI - Phi + Gamma*C) - det(zI - Phi), both from np.poly.
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
    block = np.zeros((n + 1, n + 1))
    block[: n - 1, 1:n] = T * np.eye(n - 1)
    block[n - 1, :n] = (-T / lead) * np.asarray(plant.den[:-1])
    block[n - 1, n] = T
    van_loan = expm(block)
    phi, gamma = van_loan[:n, :n], van_loan[:n, n]
    den = np.poly(phi)
    num = np.poly(phi - np.outer(gamma, c_row)) - den
    num_asc = num[::-1].tolist()
    den_asc = den[::-1].tolist()
    scale = max(max(abs(c) for c in num_asc), max(abs(c) for c in den_asc))
    floor = _COEFF_TRIM_RTOL * scale
    while len(num_asc) > 1 and abs(num_asc[-1]) <= floor:
        num_asc.pop()
    return RationalTF(num=tuple(num_asc), den=tuple(den_asc))


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
    if abs(d) <= _SINGULAR_RTOL * (abs(zs_v) + abs(cs_v)):
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
