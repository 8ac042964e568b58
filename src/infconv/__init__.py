"""Numerical optimal risk sharing between two agents.

Pools a random position between two convex risk measures by training small
scalar networks on empirical samples, and validates the result against
closed-form values and a brute-force reference solver.

Each module's ``__all__`` declares its public names; the package re-exports
all of them.
"""

__version__ = "0.1.0"

from . import analytic, cli, measures, net, optim, oracle, sampling, sharing
from .measures import *
from .sampling import *
from .net import *
from .optim import *
from .analytic import *
from .sharing import *
from .oracle import *
from .cli import *

__all__ = [
    "__version__",
    *measures.__all__,
    *sampling.__all__,
    *net.__all__,
    *optim.__all__,
    *analytic.__all__,
    *sharing.__all__,
    *oracle.__all__,
    *cli.__all__,
]
