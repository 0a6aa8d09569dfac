"""ratdiff: dynamics of a guarded second-order rational recurrence in C.

The library simulates z[n+1] = (a + a*z[n] + b*z[n-1]) / (1 + z[n]) with
complex parameters and seeds, classifies its equilibria and orbits,
certifies bounded regions, detects cycles, estimates Lyapunov exponents,
and scans parameter space.  The `ratdiff` CLI front end emits CSV, JSON,
and SVG artifacts.
"""

__version__ = "0.1.0"

from . import analysis, core, invariants, scan, serialize, stability
from .core import *  # noqa: F401,F403
from .stability import *  # noqa: F401,F403
from .invariants import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403
from .scan import *  # noqa: F401,F403
from .serialize import *  # noqa: F401,F403

# every module's public names; VERDICT_UNBOUNDED is shared by two modules
__all__ = list(dict.fromkeys([
    "__version__",
    *core.__all__, *stability.__all__, *invariants.__all__,
    *analysis.__all__, *scan.__all__, *serialize.__all__,
]))
