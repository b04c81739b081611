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

Both operators, and the Markov-chain sampler in :mod:`sinkflow.particles`,
evaluate their kernels through one log-kernel layer (``_log_kernel``): when
the log-weights are concave, each kernel row is evaluated only on a band
around its maximum, with a full-width pass for any row whose band edges
are not negligible.  The chain draws from a concave kernel by rejection
from a per-row envelope instead (``_kernel_reject``), at O(1) expected
cost per row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, NumericOverflow
from .grids import Grid, GridDensity, _readonly
from .transport import ConvexPotential, legendre_transform

NORMALIZATION_TOL = 1e-8
# A kernel row is evaluated only where it lies within this many log-units of
# its maximum; each dropped entry is below e^-40 of the largest, so a row of
# n <= 2048 entries loses less than 1e-14 of its mass.
BAND_LOG_UNITS = 40.0
# entries per evaluated block: small enough to stay in the per-core cache
_BLOCK_ENTRIES = 1 << 16
# rows per block of rejection proposals: keeps the per-row envelope arrays
# at a few hundred kB whatever the number of particles
_PROPOSAL_ROWS = 1 << 13
# second differences of a concave log-weight vector, relative to its size
_CONCAVITY_TOL = 1e-12


def _log_weights(grid: Grid) -> np.ndarray:
    return np.log(grid.trapezoid_weights)


def _check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    a = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(a)):
        raise NumericOverflow(f"{what} contains non-finite entries")
    return a


class _LogKernel(NamedTuple):
    """Rows r_i(j) = p_i z_j / eps + a_j over the uniform nodes z of a grid.

    ``width`` is the number of columns each row is evaluated on.  When ``a``
    is concave every row is, its maximum moves right as p grows (x*y is
    supermodular), and ``slopes`` = -diff(a) is nondecreasing, so
    ``searchsorted`` on it finds each row's peak column; otherwise
    ``slopes`` is None and every row runs at full width.
    """

    nodes: np.ndarray
    spacing: float
    a: np.ndarray
    scale: float
    slopes: np.ndarray | None
    width: int


def _log_kernel(grid: Grid, a: np.ndarray, eps: float) -> _LogKernel:
    """Kernel with log-weights ``a`` on ``grid``, and the band its rows need.

    The band is as wide as the row peaking at a's own maximum needs to fall
    BAND_LOG_UNITS below that maximum on both sides, bounded from the
    slopes alone, so it holds for every row with the same curvature.
    """
    n = a.size
    slopes = -np.diff(a)
    if np.any(np.diff(slopes) < -_CONCAVITY_TOL * max(1.0, float(np.max(np.abs(a))))):
        return _LogKernel(grid.nodes, grid.spacing, a, 1.0 / eps, None, n)
    j = int(np.argmax(a))
    right = slopes[j:] - slopes[j] if j < n - 1 else slopes[:0]
    left = slopes[j - 1] - slopes[:j][::-1] if j > 0 else slopes[:0]
    half = max(_columns_to_fall(right), _columns_to_fall(left))
    return _LogKernel(grid.nodes, grid.spacing, a, 1.0 / eps, slopes, min(n, 2 * half + 1))


def _columns_to_fall(rise: np.ndarray) -> int:
    """Columns until the running sum of slope increments reaches BAND_LOG_UNITS."""
    fall = np.cumsum(rise)
    return int(np.searchsorted(fall, BAND_LOG_UNITS)) + 1


def _kernel_rows(kernel: _LogKernel, p: np.ndarray, reduce):
    """Apply ``reduce`` to exp(r_i - max r_i) for every output point p_i.

    Each row is first evaluated on its band of ``kernel.width`` columns
    around its peak; a row whose band edges are not BAND_LOG_UNITS below
    its maximum is evaluated again at full width, the same code with the
    band set to all columns.  ``reduce(dens, peak, lo, rows)`` receives a
    block of rows (indices ``rows`` into p) whose columns start at ``lo``
    and returns one value per row.  Returns the values and a mask of the
    rows that kept their band.
    """
    n = kernel.a.size
    pe = np.asarray(p, dtype=float) * kernel.scale
    out = np.empty(pe.size)
    rows = np.arange(pe.size)
    banded = np.zeros(pe.size, dtype=bool)
    if kernel.width < n:
        peak = np.searchsorted(kernel.slopes, pe * kernel.spacing)
        lo = np.clip(peak - kernel.width // 2, 0, n - kernel.width)
        banded = _evaluate_rows(kernel, pe, lo, kernel.width, rows, reduce, out)
        rows = np.flatnonzero(~banded)
    if rows.size:
        _evaluate_rows(kernel, pe, np.zeros(pe.size, dtype=np.intp), n, rows, reduce, out)
    return out, banded


def _evaluate_rows(kernel, pe, lo, width, rows, reduce, out) -> np.ndarray:
    """Evaluate ``rows`` on columns lo + [0, width) block by block, in place.

    Returns, per output point, whether nothing outside its columns can
    come within BAND_LOG_UNITS of its maximum (True for rows not visited).
    """
    n = kernel.a.size
    node_windows = sliding_window_view(kernel.nodes, width)
    weight_windows = sliding_window_view(kernel.a, width)
    kept = np.ones(pe.size, dtype=bool)
    block = max(1, _BLOCK_ENTRIES // width)
    for start in range(0, rows.size, block):
        ids = rows[start:start + block]
        first = lo[ids]
        buf = node_windows[first]
        buf *= pe[ids, None]
        buf += weight_windows[first]
        peak = buf.max(axis=1)
        buf -= peak[:, None]
        kept[ids] = ~(((first > 0) & (buf[:, 0] > -BAND_LOG_UNITS))
                      | ((first + width < n) & (buf[:, -1] > -BAND_LOG_UNITS)))
        np.exp(buf, out=buf)
        out[ids] = reduce(buf, peak, first, ids)
    return kept


def _kernel_lse(kernel: _LogKernel, p: np.ndarray):
    """Row log-sum-exp: log sum_j exp(r_i(j)) at every output point."""
    return _kernel_rows(kernel, p, lambda dens, peak, lo, rows: peak + np.log(dens.sum(axis=1)))


def _kernel_draw(kernel: _LogKernel, p: np.ndarray, uniforms: np.ndarray):
    """One draw per row from the density exp(r_i) on the nodes.

    The CDF is the trapezoid cumulative, inverted linearly inside the cell
    that uniform i selects, so draws spread continuously between nodes.
    """
    nodes, h = kernel.nodes, kernel.spacing

    def reduce(dens, _peak, lo, rows):
        cdf = dens[:, 1:] + dens[:, :-1]
        cdf *= 0.5 * h
        np.cumsum(cdf, axis=1, out=cdf)
        cdf /= cdf[:, -1:]
        u = uniforms[rows]
        idx = np.minimum(np.count_nonzero(cdf < u[:, None], axis=1), cdf.shape[1] - 1)
        at = np.arange(idx.size)
        hi = cdf[at, idx]
        below = np.where(idx > 0, cdf[at, idx - 1], 0.0)
        frac = np.where(hi > below, (u - below) / np.maximum(hi - below, 1e-300), 0.5)
        return nodes[lo + idx] + np.clip(frac, 0.0, 1.0) * h

    return _kernel_rows(kernel, p, reduce)


class _Envelope(NamedTuple):
    """Per-row upper bound on the cell weights of a concave kernel.

    The weights are q_c = exp(r(c)) + exp(r(c+1)) over the cells c between
    adjacent nodes.  In log units above ``log_mode``, the log weight of the
    row's mode cell, the bound is 0 on cells [lo, hi].  Beyond each anchor
    it falls linearly: log_hi + slope_hi * (c - hi) for c > hi, and
    log_lo + slope_lo * (lo - c) for c < lo, truncated to the grid.
    ``mass_lo`` and ``mass_hi`` are the totals of the two geometric tails,
    in units of the mode cell's weight.
    """

    log_mode: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    log_lo: np.ndarray
    slope_lo: np.ndarray
    mass_lo: np.ndarray
    log_hi: np.ndarray
    slope_hi: np.ndarray
    mass_hi: np.ndarray


def _row_values(kernel: _LogKernel, pe: np.ndarray, col: np.ndarray) -> np.ndarray:
    """r(col) = pe * z_col + a_col for each row's column."""
    return kernel.nodes[col] * pe + kernel.a[col]


def _log_pair(r0: np.ndarray, r1: np.ndarray) -> np.ndarray:
    """log(exp r0 + exp r1); numpy's logaddexp is several times slower."""
    return np.maximum(r0, r1) + np.log1p(np.exp(-np.abs(r0 - r1)))


def _geometric_mass(slope: np.ndarray, count: np.ndarray) -> np.ndarray:
    """sum_{k=1..count} exp(slope * k), elementwise (0 when count is 0)."""
    with np.errstate(all="ignore"):
        total = np.exp(slope) * np.expm1(count * slope) / np.expm1(slope)
    return np.where(count > 0, np.where(slope == 0, count, total), 0.0)


def _geometric_offset(slope: np.ndarray, v: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Smallest k in [1, count] with sum_{i=1..k} exp(slope * i) > v."""
    with np.errstate(all="ignore"):
        k = np.where(slope == 0, v, np.log1p(-v * np.expm1(-slope)) / slope)
    k = np.floor(np.where(np.isnan(k), 0.0, k)) + 1.0
    return np.minimum(np.maximum(k, 1.0), np.maximum(count, 1)).astype(np.intp)


def _rejection_envelope(kernel: _LogKernel, pe: np.ndarray) -> _Envelope:
    """The envelope of each row of a concave kernel at the points ``pe``.

    The row's cell weights are log-concave (q is e convolved with (1, 1)),
    and their mode is the row's peak column or the cell before it.  The
    anchors sit about one curvature width from the mode, taken from the
    row's second difference at its peak (or, for a row peaking at a grid
    end, from its end slope), and at least 2 cells out, so that a row one
    node wide still gets falling tails.  By concavity each tail lies under
    the secant through its anchor and the cell inside it.
    """
    n = kernel.a.size
    last = n - 2
    first = np.clip(np.searchsorted(kernel.slopes, pe * kernel.spacing) - 1, 0, n - 3)
    r0, r1, r2 = (_row_values(kernel, pe, first + k) for k in range(3))
    log_first, log_next = _log_pair(r0, r1), _log_pair(r1, r2)
    mode = first + (log_next > log_first)
    log_mode = np.maximum(log_first, log_next)
    rise, fall = r1 - r0, r2 - r1
    bend = np.abs(rise - fall) + np.minimum(rise * rise, fall * fall)
    with np.errstate(divide="ignore"):
        half = np.minimum(np.maximum(np.rint(1.0 / np.sqrt(bend)), 2.0), n).astype(np.intp)
    lo, hi = np.maximum(mode - half, 0), np.minimum(mode + half, last)
    r0, r1, r2 = (_row_values(kernel, pe, lo + k) for k in range(3))
    log_lo = _log_pair(r0, r1)
    slope_lo = log_lo - _log_pair(r1, r2)
    log_lo -= log_mode
    r0, r1, r2 = (_row_values(kernel, pe, hi - 1 + k) for k in range(3))
    log_hi = _log_pair(r1, r2)
    slope_hi = log_hi - _log_pair(r0, r1)
    log_hi -= log_mode
    return _Envelope(log_mode, lo, hi,
                     log_lo, slope_lo, np.exp(log_lo) * _geometric_mass(slope_lo, lo),
                     log_hi, slope_hi, np.exp(log_hi) * _geometric_mass(slope_hi, last - hi))


def _kernel_reject(kernel: _LogKernel, p: np.ndarray, rows: np.ndarray,
                   u_pick: np.ndarray, u_accept: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One rejection round of the chain's draw for ``rows`` of a concave kernel.

    The law is that of :func:`_kernel_draw`: cell c with probability
    proportional to q_c, then uniform inside it.  Row i proposes a cell
    from its envelope with ``u_pick[i]`` and accepts it when
    ``u_accept[i]`` < q_c / envelope_c; given acceptance, ``u_accept[i]``
    divided by that ratio is uniform on [0, 1) and places the point in the
    cell.  Accepted points are written to ``out``.  Rows are handled
    _PROPOSAL_ROWS at a time, so no per-particle envelope is held.
    Returns the rows that were not accepted.
    """
    last = kernel.a.size - 2
    left = [rows[:0]]
    for start in range(0, rows.size, _PROPOSAL_ROWS):
        ids = rows[start:start + _PROPOSAL_ROWS]
        pe = p[ids] * kernel.scale
        env = _rejection_envelope(kernel, pe)
        flat = env.hi - env.lo + 1
        v = u_pick[ids] * (env.mass_lo + flat + env.mass_hi)
        with np.errstate(all="ignore"):
            below = env.lo - _geometric_offset(env.slope_lo, v / np.exp(env.log_lo), env.lo)
            above = env.hi + _geometric_offset(
                env.slope_hi, (v - env.mass_lo - flat) / np.exp(env.log_hi), last - env.hi)
        inside = env.lo + np.minimum(np.floor(v - env.mass_lo).astype(np.intp), flat - 1)
        cell = np.where(v < env.mass_lo, below, np.where(v < env.mass_lo + flat, inside, above))
        cell = np.minimum(np.maximum(cell, 0), last)
        log_env = np.where(cell < env.lo, env.log_lo + env.slope_lo * (env.lo - cell),
                           np.where(cell > env.hi,
                                    env.log_hi + env.slope_hi * (cell - env.hi), 0.0))
        log_env += env.log_mode
        ratio = (np.exp(_row_values(kernel, pe, cell) - log_env)
                 + np.exp(_row_values(kernel, pe, cell + 1) - log_env))
        u = u_accept[ids]
        accepted = u < ratio
        out[ids[accepted]] = kernel.nodes[cell[accepted]] \
            + u[accepted] / ratio[accepted] * kernel.spacing
        left.append(ids[~accepted])
    return np.concatenate(left)


def _smooth(potential, marginal: GridDensity, eps: float, out_grid: Grid | None) -> np.ndarray:
    if eps <= 0:
        raise DomainError("eps must be positive")
    potential = _check_finite(potential, "potential")
    a = marginal.log_values + _log_weights(marginal.grid) - potential / eps
    values, _ = _kernel_lse(_log_kernel(marginal.grid, a, eps), (out_grid or marginal.grid).nodes)
    return eps * values


def v_operator(u, mu: GridDensity, eps: float, y_grid: Grid | None = None) -> np.ndarray:
    """Log-domain smoothing of a potential against the first marginal.

    Returns eps * log integral of exp((x*y - u(x))/eps) d mu(x) at each node
    of ``y_grid`` (default: the marginal's own grid).
    """
    return _smooth(u, mu, eps, y_grid)


def u_operator(v, nu: GridDensity, eps: float, x_grid: Grid | None = None) -> np.ndarray:
    """Mirror image of :func:`v_operator` against the second marginal."""
    return _smooth(v, nu, eps, x_grid)


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
    mass_drift: float = 0.0      # |mass - 1| of the last step's unnormalized marginal

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
    the constructor still enforces the 1e-8 contract.  The new state
    records the drift |mass - 1| of the marginal before it is normalized.
    """
    u_next_raw = u_operator(state.v, state.nu, state.eps, state.mu.grid)
    log_rho = (u_next_raw - state.u) / state.eps + state.mu.log_values
    rho_vals = np.exp(log_rho)
    mass = state.mu.grid.integrate(rho_vals)
    drift = abs(mass - 1.0)
    if drift > NORMALIZATION_TOL:
        raise NumericOverflow(f"iterate marginal mass {mass!r} drifted beyond tolerance")
    rho = GridDensity(state.mu.grid, rho_vals / mass)
    u_next = u_next_raw - u_next_raw[state.mu.grid.n // 2]
    v_next = v_operator(u_next, state.mu, state.eps, state.nu.grid)
    return replace(state, k=state.k + 1, u=u_next, v=v_next, rho=rho,
                   u_prev=state.u, v_prev=state.v, mass_drift=drift)


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


def _logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """log sum exp(a) along ``axis`` (over every entry for None), shifted by
    the maximum so that no exp overflows."""
    peak = np.max(a, axis=axis, keepdims=True)
    total = np.sum(np.exp(a - peak), axis=axis, keepdims=True)
    return np.squeeze(np.log(total) + peak, axis=axis)


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
    lg -= _logsumexp(lg + np.log(wx)[:, None] + np.log(wy)[None, :])
    # the initial column fit already yields the first iterate's coupling,
    # so `steps` two-step iterations need steps - 1 further double-scalings
    lg += (nu.log_values - (_logsumexp(lg + np.log(wx)[:, None], axis=0)))[None, :]
    for _ in range(steps - 1):
        lg += (mu.log_values - _logsumexp(lg + np.log(wy)[None, :], axis=1))[:, None]
        lg += (nu.log_values - _logsumexp(lg + np.log(wx)[:, None], axis=0))[None, :]
    vals = np.exp(lg) @ wy
    return GridDensity.from_unnormalized(mu.grid, vals)


def laplace_residual(
    u,
    mu: GridDensity,
    mu_spec,
    eps: float,
    include_entropy_term: bool = True,
) -> float:
    """Sup residual of the small-eps expansion of :func:`v_operator`.

    For a smooth convex potential the operator equals the convex conjugate
    plus (eps/2) log(2 pi eps) - eps f(w'(y)) + (eps/2) log w''(y) up to
    O(eps^2); the residual is evaluated on the window [-2, 2], well inside
    the gradient range, where the expansion's position-dependent term does not
    drown the eps-entropy constant that the ablation switch removes.
    """
    if not isinstance(u, ConvexPotential):
        raise DomainError("laplace_residual needs a ConvexPotential")
    ygrid = Grid(-2.0, 2.0, u.grid.n)
    w = legendre_transform(u, ygrid)
    v_vals = v_operator(u.u, mu, eps, ygrid)
    res = v_vals - w.u + eps * mu_spec.f(w.du) - 0.5 * eps * np.log(w.d2u)
    if include_entropy_term:
        res -= 0.5 * eps * np.log(2.0 * np.pi * eps)
    return float(np.max(np.abs(res)))
