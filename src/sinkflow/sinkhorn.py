"""Entropic-transport operators on the grid, in log domain throughout.

The two scaling operators act on potentials; trapezoid quadrature weights
are folded into the log-sum-exp as log-weights, which makes the discrete
normalization and marginal identities hold exactly (to roundoff) rather
than approximately:

* the density built from one two-step increment integrates to one against
  the first marginal,
* every coupling's second marginal equals the target exactly.

Potentials are gauge-fixed by subtracting the midpoint value after each
step; all derived quantities are invariant to that additive constant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.special import logsumexp

from .errors import DomainError, MaxIterExceeded, NumericOverflow
from .grids import Grid, GridDensity, _readonly
from .transport import ConvexPotential, legendre_transform

NORMALIZATION_TOL = 1e-8


def _log_weights(grid: Grid) -> np.ndarray:
    return np.log(grid.trapezoid_weights)


def _check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    a = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(a)):
        raise NumericOverflow(f"{what} contains non-finite entries")
    return a


def v_operator(u, mu: GridDensity, eps: float, y_grid: Grid | None = None) -> np.ndarray:
    """Log-domain smoothing of a potential against the first marginal.

    Returns eps * log integral of exp((x*y - u(x))/eps) d mu(x) at each node
    of ``y_grid`` (default: the marginal's own grid).
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    u = _check_finite(u, "potential")
    ys = (y_grid or mu.grid).nodes
    xs = mu.grid.nodes
    # rows: y nodes; columns: x quadrature nodes
    core = (np.outer(ys, xs) - u[None, :]) / eps + (mu.log_values + _log_weights(mu.grid))[None, :]
    return eps * logsumexp(core, axis=1)


def u_operator(v, nu: GridDensity, eps: float, x_grid: Grid | None = None) -> np.ndarray:
    """Mirror image of :func:`v_operator` against the second marginal."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    v = _check_finite(v, "potential")
    xs = (x_grid or nu.grid).nodes
    ys = nu.grid.nodes
    core = (np.outer(xs, ys) - v[None, :]) / eps + (nu.log_values + _log_weights(nu.grid))[None, :]
    return eps * logsumexp(core, axis=1)


@dataclass(frozen=True)
class SinkhornState:
    """One iterate of the two-step scaling iteration.

    ``u`` is the current potential on the first-marginal grid, ``v`` its
    image under :func:`v_operator`, and ``rho`` the induced first-coordinate
    marginal (the configured start density at k = 0).  The previous pair is
    kept so the embedded Markov chain can form the transition through two
    consecutive couplings.
    """

    eps: float
    k: int
    u: np.ndarray
    v: np.ndarray
    rho: GridDensity
    mu: GridDensity
    nu: GridDensity
    u_prev: np.ndarray | None = None
    v_prev: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "u", _readonly(self.u))
        object.__setattr__(self, "v", _readonly(self.v))
        if self.u_prev is not None:
            object.__setattr__(self, "u_prev", _readonly(self.u_prev))
            object.__setattr__(self, "v_prev", _readonly(self.v_prev))


def initial_state(u0, mu: GridDensity, nu: GridDensity, rho0: GridDensity, eps: float) -> SinkhornState:
    u0 = np.asarray(u0, dtype=float)
    u0 = u0 - u0[mu.grid.n // 2]
    return SinkhornState(eps=eps, k=0, u=u0, v=v_operator(u0, mu, eps, nu.grid),
                         rho=rho0, mu=mu, nu=nu)


def s_step(state: SinkhornState) -> SinkhornState:
    """Advance one two-step iteration and refresh the induced marginal.

    The marginal comes from the potential increment before gauge fixing, so
    its normalization against the first marginal is exact by construction;
    the constructor still enforces the 1e-8 contract.
    """
    u_next_raw = u_operator(state.v, state.nu, state.eps, state.mu.grid)
    log_rho = (u_next_raw - state.u) / state.eps + state.mu.log_values
    rho_vals = np.exp(log_rho)
    mass = state.mu.grid.integrate(rho_vals)
    if abs(mass - 1.0) > NORMALIZATION_TOL:
        raise NumericOverflow(f"iterate marginal mass {mass!r} drifted beyond tolerance")
    rho = GridDensity(state.mu.grid, rho_vals / mass)
    u_next = u_next_raw - u_next_raw[state.mu.grid.n // 2]
    v_next = v_operator(u_next, state.mu, state.eps, state.nu.grid)
    return replace(state, k=state.k + 1, u=u_next, v=v_next, rho=rho,
                   u_prev=state.u, v_prev=state.v)


@dataclass(frozen=True)
class EntropicCoupling:
    """Dense log joint density over the product grid."""

    x_grid: Grid
    y_grid: Grid
    log_gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "log_gamma", _readonly(self.log_gamma))
        if self.log_gamma.shape != (self.x_grid.n, self.y_grid.n):
            raise DomainError("coupling shape must match the product grid")

    def mass(self) -> float:
        w = np.outer(self.x_grid.trapezoid_weights, self.y_grid.trapezoid_weights)
        return float(np.sum(w * np.exp(self.log_gamma)))

    def x_marginal(self) -> np.ndarray:
        return np.exp(self.log_gamma) @ self.y_grid.trapezoid_weights

    def y_marginal(self) -> np.ndarray:
        return np.exp(self.log_gamma).T @ self.x_grid.trapezoid_weights


def coupling(state: SinkhornState) -> EntropicCoupling:
    """Joint density induced by the current potential pair.

    Its second marginal is the target exactly; its first marginal is the
    next iterate's density (the one ``s_step`` would produce).
    """
    xs, ys = state.mu.grid.nodes, state.nu.grid.nodes
    lg = (np.outer(xs, ys) - state.u[:, None] - state.v[None, :]) / state.eps \
        + state.mu.log_values[:, None] + state.nu.log_values[None, :]
    return EntropicCoupling(state.mu.grid, state.nu.grid, lg)


def product_coupling(mu: GridDensity, nu: GridDensity) -> EntropicCoupling:
    lg = mu.log_values[:, None] + nu.log_values[None, :]
    return EntropicCoupling(mu.grid, nu.grid, lg)


def eot_cost(pi: EntropicCoupling, mu: GridDensity, nu: GridDensity, eps: float) -> float:
    """Quadratic transport cost plus eps times KL against the product."""
    xs, ys = pi.x_grid.nodes, pi.y_grid.nodes
    w = np.outer(pi.x_grid.trapezoid_weights, pi.y_grid.trapezoid_weights)
    gamma = np.exp(pi.log_gamma)
    sq = 0.5 * (xs[:, None] - ys[None, :]) ** 2
    kl_term = pi.log_gamma - mu.log_values[:, None] - nu.log_values[None, :]
    return float(np.sum(w * gamma * (sq + eps * kl_term)))


class ToleranceResult(NamedTuple):
    state: SinkhornState
    iterations: int


def run_to_tolerance(state: SinkhornState, tol: float, max_iter: int) -> ToleranceResult:
    """Iterate until the gauge-free potential increment is below tol * eps.

    Each pass probes one two-step update; if its increment (with the mean
    shift removed) is already small the pre-step state is returned, so a
    fixed point reports zero iterations used.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    used = 0
    current = state
    while True:
        if used >= max_iter:
            raise MaxIterExceeded(
                f"no convergence within {max_iter} iterations", state=current
            )
        probe = s_step(current)
        delta = probe.u - current.u
        delta = delta - np.mean(delta)
        if float(np.max(np.abs(delta))) < tol * current.eps:
            return ToleranceResult(current, used)
        current = probe
        used += 1


def ipfp_marginal_view(
    u0, mu: GridDensity, nu: GridDensity, eps: float, steps: int
) -> GridDensity:
    """Classic joint-scaling form of the iteration, kept as a derived view.

    Starts from the dense kernel exp((x*y - u0(x))/eps) d(mu x nu) and
    alternately rescales rows to hit mu and columns to hit nu; after
    ``steps`` double-scalings the first marginal must agree with the
    potential iteration to near roundoff.
    """
    xs, ys = mu.grid.nodes, nu.grid.nodes
    wx, wy = mu.grid.trapezoid_weights, nu.grid.trapezoid_weights
    lg = (np.outer(xs, ys) - np.asarray(u0, float)[:, None]) / eps \
        + mu.log_values[:, None] + nu.log_values[None, :]
    lg -= logsumexp(lg + np.log(wx)[:, None] + np.log(wy)[None, :])
    # the initial column fit already yields the first iterate's coupling,
    # so `steps` two-step iterations need steps - 1 further double-scalings
    lg += (nu.log_values - (logsumexp(lg + np.log(wx)[:, None], axis=0)))[None, :]
    for _ in range(steps - 1):
        lg += (mu.log_values - logsumexp(lg + np.log(wy)[None, :], axis=1))[:, None]
        lg += (nu.log_values - logsumexp(lg + np.log(wx)[:, None], axis=0))[None, :]
    vals = np.exp(lg) @ wy
    return GridDensity.from_unnormalized(mu.grid, vals)


def laplace_residual(
    u,
    mu: GridDensity,
    mu_spec,
    eps: float,
    y_lo: float = -2.0,
    y_hi: float = 2.0,
    include_entropy_term: bool = True,
) -> float:
    """Sup residual of the small-eps expansion of :func:`v_operator`.

    For a smooth convex potential the operator equals the convex conjugate
    plus (eps/2) log(2 pi eps) - eps f(w'(y)) + (eps/2) log w''(y) up to
    O(eps^2); the residual is evaluated on a compact window well inside the
    gradient range, where the expansion's position-dependent term does not
    drown the eps-entropy constant that the ablation switch removes.
    """
    if not isinstance(u, ConvexPotential):
        raise DomainError("laplace_residual needs a ConvexPotential")
    ygrid = Grid(y_lo, y_hi, u.grid.n)
    w = legendre_transform(u, ygrid)
    v_vals = v_operator(u.u, mu, eps, ygrid)
    res = v_vals - w.u + eps * mu_spec.f(w.du) - 0.5 * eps * np.log(w.d2u)
    if include_entropy_term:
        res -= 0.5 * eps * np.log(2.0 * np.pi * eps)
    return float(np.max(np.abs(res)))
