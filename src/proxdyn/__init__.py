"""Second-order proximal-gradient flow: simulation, certification, iteration.

The package integrates the damped inertial system

    x'' + gamma x' + x = prox_{lambda f}(x - lambda grad g(x))

for composite objectives f + g, derives the Lipschitz and Lyapunov
constants that certify convergence of the flow, monitors the energy decay
along trajectories, estimates empirical decay rates, and runs the matching
discrete inertial proximal-gradient iteration.

Each module's public names are re-exported here through its ``__all__``.
"""

from . import discrete, dynamics, lyapunov, params, problems, rates
from .discrete import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .lyapunov import *  # noqa: F401,F403
from .params import *  # noqa: F401,F403
from .problems import *  # noqa: F401,F403
from .rates import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *problems.__all__,
    *params.__all__,
    *dynamics.__all__,
    *lyapunov.__all__,
    *discrete.__all__,
    *rates.__all__,
    "__version__",
]
