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


def control_continuous(
    g: ControllerGains,
    own: tuple[float, float],
    remote_delayed: tuple[float, float],
) -> float:
    """Controller torque from instantaneous own and delayed remote signals."""
    q, dq = own
    qr, dqr = remote_delayed
    return -g.kv * (dq - dqr) - (g.kd + g.p_eps) * dq - g.kp * (q - qr)


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

