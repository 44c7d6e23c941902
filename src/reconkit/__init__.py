"""Matrix-free image reconstruction: operators, solvers, and experiments.

The package treats every measurement model as a pair of callables (apply,
adjoint) on rectangular grids, checks the pairing numerically, and builds
direct, regularized, and sparsity-promoting reconstruction on top.  All
randomness flows through one seeded generator, so every experiment is
reproducible bit for bit.

Each module lists its public names once, in its own ``__all__``; the package
re-exports exactly those names.
"""

from . import direct, errors, grids, io, operators, phantoms, variational
from .direct import *  # noqa: F403
from .errors import *  # noqa: F403
from .grids import *  # noqa: F403
from .io import *  # noqa: F403
from .operators import *  # noqa: F403
from .phantoms import *  # noqa: F403
from .variational import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (direct, errors, grids, io, operators, phantoms, variational)
    for name in module.__all__
)
