"""Shared pytest plumbing: collects the acceptance checklist lines and
prints them once at the end of the run (pytest captures per-test stdout of
passing tests, which would otherwise hide the pass lines), and builds the
Gaussian flow states the tests start from."""

from sinkflow.grids import DensitySpec, Grid
from sinkflow.pma import PmaState, make_flow_state
from sinkflow.transport import ConvexPotential

ACCEPTANCE_LOG: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LOG:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LOG:
            terminalreporter.write_line(line)


def gaussian_flow_state(grid: Grid, mean: float = 0.0, variance: float = 1.0) -> PmaState:
    """Flow from a standard-normal first marginal toward the target
    N(mean, variance), started at the target with the identity mirror: the
    location problem for ``mean=theta``, the scale problem for
    ``variance=eta * eta``."""
    return make_flow_state(grid, DensitySpec.gaussian(0.0, 1.0),
                           DensitySpec.gaussian(mean, variance),
                           ConvexPotential.quadratic(grid))
