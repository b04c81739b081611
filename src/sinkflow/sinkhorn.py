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

Both operators evaluate their kernels through one log-kernel layer
(``_kernel_lse``): on the uniform grid exp(p z_j / eps) is geometric in j,
so every row is summed at full width as a few stabilized chunk sums, whose
products go to BLAS.  The Markov-chain sampler in :mod:`sinkflow.particles`
draws from a concave kernel by rejection from a per-row envelope
(``_kernel_reject``), at O(1) expected cost per row, and from any other
kernel by inverting the CDF over whole rows (``_kernel_draw``), at O(n).
The dense n x n kernel, the joint density of a coupling and the
joint-scaling (IPFP) form of the iteration are the test references these
are checked against (tests/reference.py).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericOverflow
from .grids import Grid, GridDensity, _readonly
from .transport import ConvexPotential, legendre_transform

NORMALIZATION_TOL = 1e-8
# the chunked kernel's factors span at most e^(+-this), so any entry lost to
# underflow is below e^-625 of its row's largest (see _kernel_lse)
_LATTICE_LOG_UNITS = 60.0
# multiply-adds per chunk-sum product: OpenBLAS runs a gemm this small on one
# thread whatever its thread setting, so a row's sums never depend on it
_PRODUCT_MADDS = 1 << 18
# kernel entries per block of rows the CDF inversion evaluates: keeps each
# of its row-block arrays at 2 MB whatever the number of rows
_DRAW_ENTRIES = 1 << 18
# rows per block of rejection proposals: keeps the per-row envelope arrays
# at a few hundred kB whatever the number of particles
_PROPOSAL_ROWS = 1 << 13
# second differences of a concave log-weight vector, relative to its size
_CONCAVITY_TOL = 1e-12


class _LogKernel(NamedTuple):
    """Rows r_i(j) = p_i z_j / eps + a_j over the uniform nodes z of a grid.

    When ``a`` is concave every row is, its maximum moves right as p grows
    (x*y is supermodular), and ``slopes`` = -diff(a) is nondecreasing, so
    ``searchsorted`` on it finds each row's peak column (the rejection
    draw's envelope reads it); otherwise ``slopes`` is None.
    """

    nodes: np.ndarray
    spacing: float
    a: np.ndarray
    scale: float
    slopes: np.ndarray | None


def _log_kernel(grid: Grid, a: np.ndarray, eps: float) -> _LogKernel:
    """Kernel with log-weights ``a`` on ``grid``, with its slopes when a is concave."""
    slopes = -np.diff(a)
    concave = not np.any(np.diff(slopes) < -_CONCAVITY_TOL * max(1.0, float(np.max(np.abs(a)))))
    return _LogKernel(grid.nodes, grid.spacing, a, 1.0 / eps, slopes if concave else None)


def _chunking(n: int) -> tuple[int, int, int]:
    """Chunk size m (a power of two within sqrt 2 of sqrt n), chunk count, and
    rows per product: at most _PRODUCT_MADDS multiply-adds and n rows, and at
    least one row, which alone exceeds that bound past 2^18 nodes."""
    m = 1 << (n.bit_length() // 2)
    count = -(-n // m)
    return m, count, max(1, min(n, _PRODUCT_MADDS // (m * count)))


def _kernel_lse(kernel: _LogKernel, p: np.ndarray) -> np.ndarray:
    """Row log-sum-exp: log sum_j exp(r_i(j)) at every output point p_i.

    The columns split into chunks of m around their mid nodes zmid_c, so
    z_j = zmid_c + h k' with |k'| <= (m - 1) / 2.  Row i takes the
    reference rho = D round(pe_i / D) on a lattice of step
    D = 4 L / (h (m - 1)), L = _LATTICE_LOG_UNITS, and d = pe_i - rho.  Then

        exp(r_i(j) - M_i) = F_ic V_ik A_kc,
        A_kc = exp(a_j + rho z_j - top_c) <= 1,  V_ik = exp(d h k'),
        F_ic = exp(d zmid_c + top_c - M_i) <= 1,

    with top_c the chunk's maximum of a_j + rho z_j and M_i = max_c of
    d zmid_c + top_c.  Since |d h k'| <= L every factor and partial sum is
    finite, and an entry lost to underflow is below e^-(745 - 2L) of its
    row's largest, whatever a is.  The chunk sums sum_k A_kc V_ik are one
    (nch x m).(m x B) product per block of B rows sharing rho; the last
    block of each reference is padded, so every product has one shape and
    a row's sums do not depend on the rows evaluated with it.  Rows run
    along the last axis of every array, so per-row reductions are
    elementwise across rows.  The chunk sums are added by cumsum, which
    runs in chunk order for any number of rows (sum would go pairwise for
    a single row).
    """
    m, count, block = _chunking(kernel.a.size)
    h = kernel.spacing
    # padded columns carry no mass: nodes by the grid's own formula, a by -inf
    z = (kernel.nodes[0] + h * np.arange(count * m)).reshape(count, m)
    a = np.concatenate([kernel.a, np.full(count * m - kernel.a.size, -np.inf)]).reshape(count, m)
    offsets = h * (np.arange(m)[:, None] - 0.5 * (m - 1))
    mids = z[:, :1] - offsets[0]
    lattice = 4.0 * _LATTICE_LOG_UNITS / (h * (m - 1))
    pe = np.asarray(p, dtype=float) * kernel.scale
    ref = np.rint(pe / lattice)
    order = np.argsort(ref, kind="stable")
    bounds = np.flatnonzero(np.diff(ref[order])) + 1
    out = np.empty(pe.size)
    # one product shape: columns past a short block's own keep earlier values
    factors = np.zeros((m, block))
    with np.errstate(over="ignore", invalid="ignore"):
        for first, stop in zip([0, *bounds], [*bounds, pe.size]):
            rho = lattice * ref[order[first]]
            weights = a + rho * z
            top = weights.max(axis=1, keepdims=True)
            weights -= top
            np.exp(weights, out=weights)
            for start in range(first, stop, block):
                rows = order[start:min(start + block, stop)]
                d = pe[rows] - rho
                own = factors[:, :rows.size]
                np.multiply(offsets, d, out=own)
                np.exp(own, out=own)
                sums = (weights @ factors)[:, :rows.size]
                expo = mids * d
                expo += top
                peak = expo.max(axis=0)
                expo -= peak
                sums *= np.exp(expo, out=expo)
                out[rows] = peak + np.log(np.cumsum(sums, axis=0)[-1])
    if not np.all(np.isfinite(out)):
        raise NumericOverflow("kernel row sum is not finite")
    return out


def _kernel_draw(kernel: _LogKernel, p: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One draw per row from the density exp(r_i) on the nodes.

    Cell c carries the trapezoid mass e_c + e_{c+1}, e = exp(r_i - max r_i),
    and the CDF is inverted linearly inside the cell that uniform i
    selects.  A uniform of 1/2 or more is placed by the mass above it,
    summed from the upper end, so the roundoff of the cumulative sums
    moves a draw by at most their relative error times the mass beyond it
    over the density there.  Whole rows are evaluated, at most
    _DRAW_ENTRIES entries at a time, each along its own row, so a row's
    draw does not depend on the rows drawn with it.
    """
    n = kernel.a.size
    pe = np.asarray(p, dtype=float) * kernel.scale
    out = np.empty(pe.size)
    block = max(1, _DRAW_ENTRIES // n)
    for start in range(0, pe.size, block):
        rows = slice(start, start + block)
        u = uniforms[rows]
        r = pe[rows, None] * kernel.nodes + kernel.a
        e = np.exp(r - r.max(axis=1, keepdims=True))
        mass = e[:, 1:] + e[:, :-1]
        # below[c] and above[c]: the mass before and from the cell at node c on
        below = np.pad(np.cumsum(mass, axis=1), ((0, 0), (1, 0)))
        above = np.pad(np.cumsum(mass[:, ::-1], axis=1)[:, ::-1], ((0, 0), (0, 1)))
        upper = u >= 0.5
        low, high = u * below[:, -1], (1.0 - u) * above[:, 0]
        cell = np.where(upper, np.count_nonzero(above[:, 1:-1] >= high[:, None], axis=1),
                        np.count_nonzero(below[:, 1:-1] < low[:, None], axis=1))
        at = np.arange(cell.size)
        inside = np.where(upper, above[at, cell] - high, low - below[at, cell])
        span = np.where(upper, above[at, cell] - above[at, cell + 1],
                        below[at, cell + 1] - below[at, cell])
        frac = np.where(span > 0.0, inside / np.maximum(span, 1e-300), 0.5)
        out[rows] = kernel.nodes[cell] + np.clip(frac, 0.0, 1.0) * kernel.spacing
    return out


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
    potential = np.asarray(potential, dtype=float)
    if not np.all(np.isfinite(potential)):
        raise NumericOverflow("potential contains non-finite entries")
    grid = marginal.grid
    a = marginal.log_values + np.log(grid.trapezoid_weights) - potential / eps
    return eps * _kernel_lse(_log_kernel(grid, a, eps), (out_grid or grid).nodes)


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
