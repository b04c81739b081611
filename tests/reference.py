"""Dense references the tests check the library against.

No runner reaches any of this; each is an independent check of a fast
path in ``sinkflow``, written out the slow and obvious way:

* :func:`dense_log_kernel` writes out the full n x n log-kernel that the
  chunked scaling operators, the chain's conditionals, the coupling and
  the joint-scaling (IPFP) view all integrate against;
* :func:`coupling` and :func:`ipfp_marginal_view` are the dense joint-density
  form of the two-step iteration;
* the residuals check the parabolic Monge-Ampere identities on flow states
  and potentials;
* :func:`integrate_euclid_mirror` solves the 1-D mirror ODE examples whose
  closed forms ``closed_form.evaluate`` gives;
* :func:`interior_slice`, :func:`uniform_spec` and
  :func:`potential_from_callable` build the diagnostics' window and test
  inputs.
"""

import math

import numpy as np
from scipy.special import logsumexp

from sinkflow.closed_form import FlowKind
from sinkflow.errors import DomainError, GridMismatch
from sinkflow.grids import DensitySpec, Grid, GridDensity, grad_central, grad_central4
from sinkflow.pma import PmaState, velocity
from sinkflow.sinkhorn import SinkhornState
from sinkflow.transport import DEFAULT_CONVEXITY_FLOOR, ConvexPotential, legendre_transform

INTERIOR_FRACTION = 0.8   # central share of a range that diagnostics judge


def interior_slice(grid: Grid) -> slice:
    """Index slice keeping the central INTERIOR_FRACTION of the grid's nodes.

    Diagnostics exclude the truncation boundary layer: the slice drops
    the outer 10% of nodes on each side.
    """
    skip = int(round(0.5 * (1.0 - INTERIOR_FRACTION) * grid.n))
    return slice(skip, grid.n - skip)


def uniform_spec(lower: float, upper: float) -> DensitySpec:
    """The uniform density on [lower, upper]."""
    c = math.log(upper - lower)
    return DensitySpec(
        log_density_neg=lambda x: np.full_like(np.asarray(x, dtype=float), c),
        grad=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        hess=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def potential_from_callable(grid: Grid, u, du, d2u,
                            floor: float = DEFAULT_CONVEXITY_FLOOR) -> ConvexPotential:
    """The potential u, with its derivatives du and d2u, sampled at the nodes."""
    xs = grid.nodes
    return ConvexPotential(grid, np.asarray(u(xs), float), np.asarray(du(xs), float),
                           np.asarray(d2u(xs), float), floor)


def dense_log_kernel(p, nodes, potential, eps, log_weights, dtype=float) -> np.ndarray:
    """(p_i z_j - potential_j) / eps + log_weights_j for every output point
    p_i and node z_j, evaluated in ``dtype``."""
    p, nodes, potential, log_weights = (np.asarray(x, dtype=dtype)
                                        for x in (p, nodes, potential, log_weights))
    return (np.outer(p, nodes) - potential[None, :]) / eps + log_weights[None, :]


def coupling(state: SinkhornState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log joint density of the current potential pair over the product grid,
    with its x and y marginals.

    The y marginal is the target exactly; the x marginal is the next
    iterate's density (the one ``s_step`` would produce).
    """
    mu, nu = state.mu, state.nu
    log_gamma = dense_log_kernel(mu.grid.nodes, nu.grid.nodes, state.v, state.eps,
                                 nu.log_values) + (mu.log_values - state.u / state.eps)[:, None]
    gamma = np.exp(log_gamma)
    return log_gamma, gamma @ nu.grid.trapezoid_weights, gamma.T @ mu.grid.trapezoid_weights


def ipfp_marginal_view(u0, mu: GridDensity, nu: GridDensity, eps: float,
                       steps: int) -> GridDensity:
    """Classic joint-scaling form of the iteration.

    Starts from the dense kernel exp((x*y - u0(x))/eps) d(mu x nu) and
    alternately rescales rows to hit mu and columns to hit nu; after
    ``steps`` double-scalings the first marginal must agree with the
    potential iteration to near roundoff.
    """
    log_wx, log_wy = np.log(mu.grid.trapezoid_weights), np.log(nu.grid.trapezoid_weights)
    lg = dense_log_kernel(nu.grid.nodes, mu.grid.nodes, u0, eps, mu.log_values).T \
        + nu.log_values[None, :]
    lg -= logsumexp(lg + log_wx[:, None] + log_wy[None, :])
    # the initial column fit already yields the first iterate's coupling,
    # so `steps` two-step iterations need steps - 1 further double-scalings
    lg += (nu.log_values - logsumexp(lg + log_wx[:, None], axis=0))[None, :]
    for _ in range(steps - 1):
        lg += (mu.log_values - logsumexp(lg + log_wy[None, :], axis=1))[:, None]
        lg += (nu.log_values - logsumexp(lg + log_wx[:, None], axis=0))[None, :]
    return GridDensity.from_unnormalized(mu.grid, np.exp(lg) @ nu.grid.trapezoid_weights)


def _consecutive_dt(prev: PmaState, next_state: PmaState) -> float:
    dt = next_state.t - prev.t
    if dt <= 0:
        raise DomainError("states must be consecutive in time")
    return dt


def dual_pma_residual(prev: PmaState, next_state: PmaState) -> float:
    """Residual of the conjugate potential's own flow equation.

    The conjugates of two consecutive states, on the central
    INTERIOR_FRACTION of the gradient range both share, give a
    forward-difference time derivative; it must match
    g(y) - f(w'(y)) + log w''(y) to O(dt + h^2).
    """
    dt = _consecutive_dt(prev, next_state)
    lo = max(prev.u.du[0], next_state.u.du[0])
    hi = min(prev.u.du[-1], next_state.u.du[-1])
    pad = 0.5 * (1.0 - INTERIOR_FRACTION) * (hi - lo)
    ygrid = Grid(lo + pad, hi - pad, prev.grid.n)
    w_prev = legendre_transform(prev.u, ygrid)
    w_next = legendre_transform(next_state.u, ygrid)
    dwdt = (w_next.u - w_prev.u) / dt
    rhs = prev.nu_spec.f(ygrid.nodes) - prev.mu_spec.f(w_prev.du) + np.log(w_prev.d2u)
    return float(np.max(np.abs(dwdt - rhs)))


def continuity_residual(prev: PmaState, next_state: PmaState) -> float:
    """Forward-difference continuity-equation residual on the interior.

    The flux divergence uses the wide fourth-order stencil so the reported
    residual is dominated by the O(dt) time truncation.
    """
    dt = _consecutive_dt(prev, next_state)
    flux_div = grad_central4(prev.rho.values * velocity(prev).values, prev.grid.spacing)
    resid = (next_state.rho.values - prev.rho.values) / dt + flux_div
    return float(np.max(np.abs(resid[interior_slice(prev.grid)])))


def log_det_hessian_gradient_residual(u: ConvexPotential) -> float:
    """Sup-norm check of the mirror-chart derivative identity.

    In one dimension the derivative of log u'' taken in the mirror chart
    must equal minus the x-derivative of 1/u''; both sides are formed with
    central differences, so the residual decays as O(h^2) and vanishes for
    quadratics.
    """
    h = u.grid.spacing
    lhs = grad_central(np.log(u.d2u), h) / u.d2u
    rhs = -grad_central(1.0 / u.d2u, h)
    return float(np.max(np.abs(lhs - rhs)[1:-1]))


def change_of_measure_residual(d: GridDensity, phi: ConvexPotential,
                               pushed: GridDensity) -> float:
    """Sup-norm residual of b(phi'(x)) = a(x) + log phi''(x) on the interior,
    where exp(-a) = d and exp(-b) = the pushforward of d by phi'."""
    if d.grid != phi.grid:
        raise GridMismatch("density and potential must share a grid")
    keep = interior_slice(d.grid)
    a = -d.log_values[keep]
    b_at = -np.interp(phi.du[keep], pushed.grid.nodes, pushed.log_values)
    return float(np.max(np.abs(b_at - a - np.log(phi.d2u[keep]))))


# mirror function u'' of the 1-D ODE examples, all minimizing F(x) = x^2/2
# from x0 = 1
_EUCLID_MIRRORS = {
    FlowKind.EUCLID_QUADRATIC: lambda x: 1.0,
    FlowKind.EUCLID_QUARTIC: lambda x: 12.0 * x * x,
    FlowKind.EUCLID_INVERSE: lambda x: 2.0 / x**3,
}


def euclid_mirror_ode_step(kind: FlowKind, x: float, dt: float) -> float:
    """One explicit Euler step of dx/dt = -F'(x)/u''(x) with F = x^2/2."""
    if kind not in _EUCLID_MIRRORS:
        raise DomainError(f"{kind!r} is not a Euclidean mirror ODE kind")
    if kind is not FlowKind.EUCLID_QUADRATIC and x <= 0.0:
        raise DomainError(f"the {kind.value} mirror is only defined for x > 0")
    return x - dt * x / _EUCLID_MIRRORS[kind](x)


def integrate_euclid_mirror(kind: FlowKind, t_end: float, dt: float, x0: float = 1.0) -> float:
    x = x0
    for _ in range(round(t_end / dt)):
        x = euclid_mirror_ode_step(kind, x, dt)
    return x
