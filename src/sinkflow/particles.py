"""Particle simulators for the flow: the mirrored SDE and its dual, and the
Markov chain embedded in the entropic iteration.

Noise policy: every simulator draws its step-k noise as blocks derived
from (master seed, step index, substream), one entry per particle, and
particle i always consumes entry i of each block.  Runs are therefore
bit-reproducible and independent of the ensemble size and of any
data-parallel partitioning of the update itself.

Substreams: the SDE steps draw their normals from substream 0.  The
Markov chain's two conditionals, j = 0 (the dual coordinate given the
position) and j = 1 (the new position given it), invert their CDF with
substream j when they do not draw by rejection: the product coupling at
step 0, a kernel that is not concave, and rows still unaccepted after
REJECTION_ROUNDS rounds.  A kernel's CDF is inverted over whole rows.
Rejection round r of conditional j proposes with substream
REJECTION_SUBSTREAM + 4 r + 2 j and accepts with the next one.  The start
ensemble is drawn from substream 7 of step 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ParticleEscape
from .grids import Grid, GridDensity, _readonly, cdf_values, lerp, locate, quantile
from .pma import (
    NodeTables,
    PmaState,
    _is_at,
    inverse_gradient_map,  # noqa: F401 - unused here; perfbench/check_counts.py checks the tracer patches it
)
from .sinkhorn import SinkhornState, _kernel_draw, _kernel_reject, _log_kernel, _LogKernel

ESCAPE_MARGIN = 1.0
# Rejection rounds per chain conditional; rows left after them are drawn by
# inversion.  About 75% of rows accept per round, so 1e5 rows finish in 9-11
# rounds at n = 512; rows one node wide accept about 40%.
REJECTION_ROUNDS = 16
REJECTION_SUBSTREAM = 8


def noise_block(seed: int, step: int, count: int) -> np.ndarray:
    """Standard normals for one step: a pure function of (seed, step), drawn
    from substream 0."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(step, 0))
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


def _euler_maruyama(e: ParticleEnsemble, tables: NodeTables, dt: float) -> ParticleEnsemble:
    """One Euler-Maruyama step with the coefficients read from ``tables``."""
    if dt <= 0:
        raise DomainError("dt must be positive")
    x = e.positions
    drift, diffusion = tables.at(x)
    z = noise_block(e.seed, e.step_count, x.size)
    x_new = x + dt * drift + math.sqrt(dt) * diffusion * z
    _check_domain(x_new, tables.grid)
    return replace(e, positions=x_new, t=e.t + dt, step_count=e.step_count + 1)


def sinkhorn_sde_step(e: ParticleEnsemble, pma: PmaState, dt: float) -> ParticleEnsemble:
    """One Euler-Maruyama step of the mirrored diffusion along a flow state,
    with the coefficients of PmaState.sde_tables."""
    if not _is_at(pma.t, e.t):
        raise DomainError(f"flow state time {pma.t} does not match ensemble time {e.t}")
    return _euler_maruyama(e, pma.sde_tables, dt)


def dual_sde_step(e: ParticleEnsemble, pma: PmaState, dt: float) -> ParticleEnsemble:
    """One Euler-Maruyama step of the dual-coordinate diffusion, with the
    coefficients of PmaState.dual_tables."""
    return _euler_maruyama(e, pma.dual_tables, dt)


def _draw_conditional(kernel: _LogKernel, p: np.ndarray, seed: int, step: int,
                      conditional: int) -> tuple[np.ndarray, int]:
    """One draw per row of ``kernel`` at ``p``, and the rejection rounds it took.

    A concave kernel draws by rejection from each row's envelope, at most
    REJECTION_ROUNDS rounds, then inverts the CDF for any row left; a
    non-concave kernel inverts it for every row.  Both draw the same law,
    and acceptance does not depend on the accepted point, so the mix is
    exact in law.
    """
    out = np.empty(p.size)
    rows = np.arange(p.size)
    rounds = 0
    if kernel.slopes is not None:
        while rows.size and rounds < REJECTION_ROUNDS:
            first = REJECTION_SUBSTREAM + 4 * rounds + 2 * conditional
            rows = _kernel_reject(kernel, p, rows, uniform_block(seed, step, p.size, first),
                                  uniform_block(seed, step, p.size, first + 1), out)
            rounds += 1
    if rows.size:
        u = uniform_block(seed, step, p.size, substream=conditional)
        out[rows] = _kernel_draw(kernel, p[rows], u[rows])
    return out, rounds


def markov_chain_step(e: ParticleEnsemble, sk: SinkhornState) -> tuple[ParticleEnsemble, int]:
    """One step of the Markov chain embedded in the entropic iteration.

    Each particle first draws an intermediate dual coordinate from the
    previous coupling's conditional given its position, then a new position
    from the current coupling's conditional given that coordinate.  Both
    draw from the couplings' discrete conditionals: cell c with probability
    proportional to the trapezoid mass e_c + e_{c+1} of the kernel row,
    then uniformly inside it (see :func:`_draw_conditional`).  At step zero
    the initial coupling is the product of the start density with the
    target, so the intermediate coordinate is an unconditional target
    sample.  Returns the moved ensemble and the step's rejection rounds,
    the larger count of the two conditionals.
    """
    if sk.k != e.step_count:
        raise DomainError(
            f"iterate index {sk.k} does not match ensemble step count {e.step_count}"
        )
    p = e.positions
    if sk.u_prev is None:
        # product initial coupling: dual coordinate independent of x
        y = quantile(sk.nu, uniform_block(e.seed, e.step_count, p.size, substream=0))
        rounds = 0
    else:
        previous = _log_kernel(sk.nu.grid, sk.nu.log_values - sk.v_prev / sk.eps, sk.eps)
        y, rounds = _draw_conditional(previous, p, e.seed, e.step_count, 0)
    current = _log_kernel(sk.mu.grid, sk.mu.log_values - sk.u / sk.eps, sk.eps)
    out, current_rounds = _draw_conditional(current, y, e.seed, e.step_count, 1)
    _check_domain(out, sk.mu.grid)
    moved = replace(e, positions=out, t=e.t + sk.eps, step_count=e.step_count + 1)
    return moved, max(rounds, current_rounds)


def ks_distance(e: ParticleEnsemble, d: GridDensity) -> float:
    """Kolmogorov-Smirnov distance of the ensemble against a grid density."""
    xs = np.sort(e.positions)
    n = xs.size
    model = lerp(locate(d.grid, xs), cdf_values(d))
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(max(np.max(np.abs(model - upper)), np.max(np.abs(model - lower))))
