"""Sampled-data bilateral teleoperation: stability analysis and simulation.

A position-force teleoperation loop (master and slave robots exchanging
sampled, delayed signals through zero-order holds) is covered end to end:

* frequency-domain machinery for rational transfer functions (:mod:`.lti`),
* robot / operator / wall models and exact ZOH discretization (:mod:`.plants`),
* the shared coordinating controller (:mod:`.control`),
* stability tests for the sampled loop, none of them a certificate (:mod:`.stability`),
* a deterministic hybrid simulator (:mod:`.sim`; RK4 in ``_rk4``, CSV in ``_g17``),
* scenario files, reports, and the command line front end
  (:mod:`.scenario`, :mod:`.cli`).
"""

__version__ = "0.1.0"

from . import control, lti, plants, scenario, sim, stability
from .control import *  # noqa: F403
from .lti import *  # noqa: F403
from .plants import *  # noqa: F403
from .scenario import *  # noqa: F403
from .sim import *  # noqa: F403
from .stability import *  # noqa: F403

__all__ = [
    "__version__",
    *lti.__all__,
    *plants.__all__,
    *control.__all__,
    *stability.__all__,
    *sim.__all__,
    *scenario.__all__,
]
