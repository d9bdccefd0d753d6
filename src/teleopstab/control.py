"""Position-force coordinating controller: continuous and z-domain forms.

The law on either side is

    tau = -K_v*(dq_own - dq_remote) - (K_d + P_eps)*dq_own - K_p*(q_own - q_remote)

with the remote signals taken from the delayed samples.  Both robots run
identical gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lti import RationalTF

__all__ = [
    "ControllerGains",
    "control_continuous",
    "controller_z_tf",
]


@dataclass(frozen=True)
class ControllerGains:
    """Coordination gains shared by master and slave.

    kp may be zero (uncontrolled degenerations are legitimate test inputs);
    the stability results assume kp > 0.
    """

    kp: float  # N*m/rad
    kv: float  # N*m*s/rad, coordination damping
    kd: float  # N*m*s/rad, local dissipation
    p_eps: float  # N*m*s/rad, excess-passivity dissipation

    def __post_init__(self) -> None:
        for name in ("kp", "kv", "kd", "p_eps"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative")


def _control_law(g: ControllerGains, limit: float = math.inf):
    """``law(own, remote_delayed)``: the torque at gains ``g`` from own and
    delayed remote (position, velocity) pairs, clipped to [-limit, limit]
    as ``sim._saturate`` clips (a NaN passes), with the gains read once.

    This is the law's one expression: ``control_continuous`` evaluates it
    unclipped, and the simulator builds it once a run, at the actuator's
    limit, and calls it on every hold.
    """
    kv, k_own, kp = g.kv, g.kd + g.p_eps, g.kp
    neg_limit = -limit

    def law(own: tuple[float, float], remote_delayed: tuple[float, float]) -> float:
        q, dq = own
        qr, dqr = remote_delayed
        f = -kv * (dq - dqr) - k_own * dq - kp * (q - qr)
        return limit if f > limit else neg_limit if f < neg_limit else f

    return law


def control_continuous(
    g: ControllerGains,
    own: tuple[float, float],
    remote_delayed: tuple[float, float],
) -> float:
    """Controller torque from instantaneous own and delayed remote signals."""
    return _control_law(g)(own, remote_delayed)


def controller_z_tf(g: ControllerGains, T: float) -> RationalTF:
    """z-domain controller C(z), positive-gain convention.

    The derivative terms use the backward difference (z-1)/(Tz):
    C(z) = (K_v + K_d + P_eps)*(z-1)/(Tz) + K_p, so C(1) = K_p.
    """
    if not T > 0.0:
        raise ValueError("sampling period must be positive")
    k_deriv = g.kv + g.kd + g.p_eps
    # ((k_deriv + kp*T) z - k_deriv) / (T z)
    return RationalTF(num=(-k_deriv, k_deriv + g.kp * T), den=(0.0, T))

