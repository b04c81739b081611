"""Entropic-transport flows on a truncated 1-D grid.

Subpackages:

* :mod:`sinkflow.grids` - grid densities, CDF/quantile machinery
* :mod:`sinkflow.transport` - convex potentials, conjugates, transport distances
* :mod:`sinkflow.sinkhorn` - log-domain scaling operators and iterates
* :mod:`sinkflow.pma` - the parabolic flow stepper and its diagnostics
* :mod:`sinkflow.closed_form` - exact reference flows used as oracles
* :mod:`sinkflow.particles` - SDE and Markov-chain particle simulators
* :mod:`sinkflow.experiments` / :mod:`sinkflow.cli` - experiment harness
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ConvexityLost,
    DomainError,
    EmptyTable,
    GridMismatch,
    NonMonotoneMap,
    NonPositiveError,
    NumericOverflow,
    ParticleEscape,
    RangeError,
    SinkflowError,
    StabilityError,
    TruncationError,
)
from .grids import (  # noqa: F401
    DensitySpec,
    GaussianMeasure,
    Grid,
    GridDensity,
    cdf_values,
    discretize,
    kl_divergence,
    pushforward_monotone,
    quantile,
)
from .transport import (  # noqa: F401
    ConvexPotential,
    legendre_transform,
    lot_distance,
    w2_distance,
)
