"""Particle simulators for the flow: the mirrored SDE and its dual, and the
Markov chain embedded in the entropic iteration.

Noise policy: every simulator draws its step-k noise as one block derived
from (master seed, step index, substream), and particle i always consumes
entry i of that block.  Runs are therefore bit-reproducible and
independent of any data-parallel partitioning of the update itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ParticleEscape
from .grids import (Grid, GridDensity, _readonly, cdf_values, grad_central, lerp, locate,
                    quantile)
from .pma import PmaState, _is_at, inverse_gradient_map
from .sinkhorn import SinkhornState, _kernel_draw, _log_kernel
from .transport import ConvexPotential

ESCAPE_MARGIN = 1.0


def noise_block(seed: int, step: int, count: int, substream: int = 0) -> np.ndarray:
    """Standard normals for one step: a pure function of (seed, step, substream)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(step, substream))
    return np.random.default_rng(ss).standard_normal(count)


def uniform_block(seed: int, step: int, count: int, substream: int = 0) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(step, substream))
    return np.random.default_rng(ss).random(count)


@dataclass(frozen=True)
class ParticleEnsemble:
    positions: np.ndarray
    t: float
    seed: int
    step_count: int = 0

    def __post_init__(self):
        p = _readonly(self.positions)
        object.__setattr__(self, "positions", p)
        if not np.all(np.isfinite(p)):
            raise ParticleEscape("non-finite particle position")

    @classmethod
    def from_density(cls, d: GridDensity, count: int, seed: int) -> "ParticleEnsemble":
        u = uniform_block(seed, step=0, count=count, substream=7)
        return cls(quantile(d, u), 0.0, seed)

    def mean(self) -> float:
        return float(np.mean(self.positions))

    def variance(self) -> float:
        return float(np.var(self.positions))


def _check_domain(x: np.ndarray, grid: Grid) -> None:
    if np.any(x < grid.lower - ESCAPE_MARGIN) or np.any(x > grid.upper + ESCAPE_MARGIN):
        raise ParticleEscape("particle left the extended grid domain")


def _euler_maruyama(e: ParticleEnsemble, grid: Grid, dt: float,
                    drift: np.ndarray, diffusion: np.ndarray,
                    zero_noise: bool) -> ParticleEnsemble:
    if dt <= 0:
        raise DomainError("dt must be positive")
    x = e.positions
    if zero_noise:
        x_new = x + dt * drift
    else:
        z = noise_block(e.seed, e.step_count, x.size)
        x_new = x + dt * drift + math.sqrt(dt) * diffusion * z
    _check_domain(x_new, grid)
    return replace(e, positions=x_new, t=e.t + dt, step_count=e.step_count + 1)


def sinkhorn_sde_coefficients(state: PmaState, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drift and diffusion at points ``x``, read from a flow state.

    The mirrored diffusion's drift is -f'/u'' - g'(u') + h'/u''.  By the
    change of measure h = g(u') - log u'' its last two terms collapse to
    (1/u'')', so the drift is -f'/u'' + (1/u'')' and the diffusion
    sqrt(2/u''): neither reads the target.  Both are tabulated on the grid
    nodes and read at the points with one locate and two lerps; points
    beyond the grid take the end-node values.
    """
    grid = state.grid
    d2u = state.u.d2u
    drift = grad_central(1.0 / d2u, grid.spacing) - state.mu_spec.grad(grid.nodes) / d2u
    at = locate(grid, x)
    return lerp(at, drift), lerp(at, np.sqrt(2.0 / d2u))


def sinkhorn_sde_step(
    e: ParticleEnsemble, pma: PmaState, dt: float, zero_noise: bool = False
) -> ParticleEnsemble:
    """One Euler-Maruyama step of the mirrored diffusion along a flow state."""
    if not _is_at(pma.t, e.t):
        raise DomainError(f"flow state time {pma.t} does not match ensemble time {e.t}")
    drift, diffusion = sinkhorn_sde_coefficients(pma, e.positions)
    return _euler_maruyama(e, pma.grid, dt, drift, diffusion, zero_noise)


def _dual_grid(u: ConvexPotential) -> Grid:
    """Uniform grid of n nodes over the range of u', where dual positions
    live: the dual coefficient tables and escape check use it."""
    return Grid(u.du[0], u.du[-1], u.grid.n)


def dual_sde_coefficients(state: PmaState, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drift and diffusion of the dual-coordinate diffusion at points ``y``.

    Drift -h'(w'(y)), diffusion sqrt(2 u''(w'(y))) with w the conjugate
    potential; with the mirror frozen this process leaves the target
    marginal invariant.  Both are tabulated on a uniform grid of n nodes
    over the range of u', pulling each node back through w' once, and read
    at the points with one locate and two lerps; points beyond that range
    take the end-node values.
    """
    u = state.u
    ys = _dual_grid(u)
    at = locate(u.grid, inverse_gradient_map(u, ys.nodes))
    drift = -lerp(at, grad_central(state.h, u.grid.spacing))
    diffusion = np.sqrt(2.0 * lerp(at, u.d2u))
    at = locate(ys, y)
    return lerp(at, drift), lerp(at, diffusion)


def dual_sde_step(
    e: ParticleEnsemble, pma: PmaState, dt: float, zero_noise: bool = False
) -> ParticleEnsemble:
    """One Euler-Maruyama step of the dual-coordinate diffusion."""
    drift, diffusion = dual_sde_coefficients(pma, e.positions)
    return _euler_maruyama(e, _dual_grid(pma.u), dt, drift, diffusion, zero_noise)


def markov_chain_step(e: ParticleEnsemble, sk: SinkhornState) -> ParticleEnsemble:
    """One step of the Markov chain embedded in the entropic iteration.

    Each particle first draws an intermediate dual coordinate from the
    previous coupling's conditional given its position, then a new position
    from the current coupling's conditional given that coordinate; both
    draws invert the couplings' discrete conditionals, each row on its band
    of the log-kernel layer in :mod:`sinkhorn`.  At step zero the initial
    coupling is the product of the start density with the target, so the
    intermediate coordinate is an unconditional target sample.
    """
    if sk.k != e.step_count:
        raise DomainError(
            f"iterate index {sk.k} does not match ensemble step count {e.step_count}"
        )
    p = e.positions
    u1 = uniform_block(e.seed, e.step_count, p.size, substream=0)
    u2 = uniform_block(e.seed, e.step_count, p.size, substream=1)
    if sk.u_prev is None:
        # product initial coupling: dual coordinate independent of x
        y = quantile(sk.nu, u1)
    else:
        previous = _log_kernel(sk.nu.grid, sk.nu.log_values - sk.v_prev / sk.eps, sk.eps)
        y, _ = _kernel_draw(previous, p, u1)
    current = _log_kernel(sk.mu.grid, sk.mu.log_values - sk.u / sk.eps, sk.eps)
    out, _ = _kernel_draw(current, y, u2)
    _check_domain(out, sk.mu.grid)
    return replace(e, positions=out, t=e.t + sk.eps, step_count=e.step_count + 1)


def ks_distance(e: ParticleEnsemble, d: GridDensity) -> float:
    """Kolmogorov-Smirnov distance of the ensemble against a grid density."""
    xs = np.sort(e.positions)
    n = xs.size
    model = lerp(locate(d.grid, xs), cdf_values(d))
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(max(np.max(np.abs(model - upper)), np.max(np.abs(model - lower))))
