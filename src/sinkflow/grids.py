"""Probability measures on a truncated uniform 1-D grid.

A :class:`GridDensity` is the discrete stand-in for a strictly positive
density with finite second moment.  All quadrature is trapezoidal, all
CDF/quantile machinery is the piecewise-linear generalized inverse, and
every operation here is a pure function of immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DomainError,
    GridMismatch,
    NonMonotoneMap,
    NonPositiveError,
    TruncationError,
)

MASS_TOL = 1e-10          # normalized densities must integrate to 1 within this
TRUNCATION_TOL = 1e-8     # admissible mass outside the truncated domain
INTERIOR_FRACTION = 0.8   # central share of a range that diagnostics judge


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``n`` nodes on ``[lower, upper]``."""

    lower: float
    upper: float
    n: int

    def __post_init__(self):
        if self.n < 16:
            raise DomainError(f"grid needs at least 16 nodes, got {self.n}")
        if not self.upper > self.lower:
            raise DomainError("grid upper bound must exceed lower bound")

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.n - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        return _readonly(self.lower + self.spacing * np.arange(self.n))

    @cached_property
    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n, self.spacing)
        w[0] = w[-1] = 0.5 * self.spacing
        return _readonly(w)

    def integrate(self, values: np.ndarray) -> float:
        """Trapezoid quadrature of node samples."""
        return float(np.trapezoid(values, dx=self.spacing))

    def interior_slice(self) -> slice:
        """Index slice keeping the central INTERIOR_FRACTION of nodes.

        Diagnostics exclude the truncation boundary layer: the slice drops
        the outer 10% of nodes on each side.
        """
        skip = int(round(0.5 * (1.0 - INTERIOR_FRACTION) * self.n))
        return slice(skip, self.n - skip)


class GridLocation(NamedTuple):
    """Cell of each point on a uniform grid: the index of its left node and
    the point's offset from that node, for the points clamped to the grid."""

    grid: Grid
    index: np.ndarray
    offset: np.ndarray


def locate(grid: Grid, x: np.ndarray) -> GridLocation:
    """Locate an array of points on the grid by arithmetic, without a search.

    Points outside the grid are clamped to its end nodes, so :func:`lerp`
    extends node arrays by their end values as ``np.interp`` does.
    """
    nodes = grid.nodes
    clamped = np.clip(x, nodes[0], nodes[-1])
    if np.isnan(clamped).any():
        raise DomainError("cannot locate NaN on the grid")
    t = clamped - grid.lower
    t /= grid.spacing
    index = t.astype(np.intp)
    np.subtract(clamped, nodes.take(index, out=t), out=clamped)
    return GridLocation(grid, index, clamped)


def lerp(at: GridLocation, values: np.ndarray) -> np.ndarray:
    """Linear interpolation of node samples at located points.

    The arithmetic is ``np.interp``'s, slope times offset plus left value,
    so the two agree exactly wherever they pick the same cell; they can
    differ only for points within roundoff of a node, and there only at
    roundoff.  The slope past the last node is zero, which makes the clamp
    at both ends exact.
    """
    v = np.asarray(values, dtype=float)
    slopes = np.zeros_like(v)
    slopes[:-1] = np.diff(v) / np.diff(at.grid.nodes)
    out = slopes.take(at.index)
    out *= at.offset
    out += v.take(at.index)
    return out


def grad_central(values: np.ndarray, spacing: float, out: np.ndarray | None = None) -> np.ndarray:
    """First derivative, O(h^2): central interior, one-sided 3-point ends.

    ``out``, when given, receives the result and is returned; it must not
    share memory with ``values``.
    """
    v = np.asarray(values, dtype=float)
    if out is None:
        out = np.empty_like(v)
    width = 2.0 * spacing
    np.subtract(v[2:], v[:-2], out=out[1:-1])
    out[1:-1] /= width
    v0, v1, v2 = v[:3].tolist()
    out[0] = (-3.0 * v0 + 4.0 * v1 - v2) / width
    w2, w1, w0 = v[-3:].tolist()
    out[-1] = (3.0 * w0 - 4.0 * w1 + w2) / width
    return out


def grad_central4(values: np.ndarray, spacing: float) -> np.ndarray:
    """First derivative, O(h^4) on the interior, degrading to O(h^2) at edges."""
    v = np.asarray(values, dtype=float)
    out = grad_central(v, spacing)
    out[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * spacing)
    return out


def second_central(values: np.ndarray, spacing: float, out: np.ndarray | None = None) -> np.ndarray:
    """Second derivative, O(h^2): central interior, one-sided 4-point ends.

    ``out``, when given, receives the result and is returned; it must not
    share memory with ``values``.
    """
    v = np.asarray(values, dtype=float)
    if out is None:
        out = np.empty_like(v)
    h2 = spacing * spacing
    mid = out[1:-1]
    np.multiply(v[1:-1], 2.0, out=mid)
    np.subtract(v[2:], mid, out=mid)
    mid += v[:-2]
    mid /= h2
    v0, v1, v2, v3 = v[:4].tolist()
    out[0] = (2.0 * v0 - 5.0 * v1 + 4.0 * v2 - v3) / h2
    w3, w2, w1, w0 = v[-4:].tolist()
    out[-1] = (2.0 * w0 - 5.0 * w1 + 4.0 * w2 - w3) / h2
    return out


@dataclass(frozen=True)
class GridDensity:
    """Strictly positive probability density sampled at grid nodes.

    Invariants: every value > 0 and the trapezoid integral equals one
    within ``MASS_TOL``.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = _readonly(self.values)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.n,):
            raise DomainError(f"expected {self.grid.n} values, got {v.shape}")
        if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
            raise NonPositiveError("density values must be finite and strictly positive")
        mass = self.grid.integrate(v)
        if abs(mass - 1.0) > MASS_TOL:
            raise NonPositiveError(f"density mass {mass!r} deviates from 1 beyond {MASS_TOL}")

    @classmethod
    def from_unnormalized(cls, grid: Grid, values: np.ndarray) -> "GridDensity":
        v = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
            raise NonPositiveError("density values must be finite and strictly positive")
        return cls(grid, v / grid.integrate(v))

    @property
    def log_values(self) -> np.ndarray:
        return np.log(self.values)

    def mean(self) -> float:
        return self.grid.integrate(self.grid.nodes * self.values)

    def variance(self) -> float:
        m = self.mean()
        return self.grid.integrate((self.grid.nodes - m) ** 2 * self.values)


@dataclass(frozen=True)
class DensitySpec:
    """Functional form of a density proportional to exp(-f).

    ``log_norm`` is the log of the full-line integral of exp(-f); with the
    default 0 the spec is taken as already normalized on the line.  ``grad``
    and ``hess`` are f' and f'' and must stay finite (bounded f'' is the
    discrete stand-in for the bounded-derivative assumption the flow
    operators rely on).  Each callable returns a new array, which
    :meth:`f` may hand back as it is.
    """

    log_density_neg: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    log_norm: float = 0.0

    def f(self, x) -> np.ndarray:
        out = self.log_density_neg(np.asarray(x, dtype=float))
        if self.log_norm:
            out = out + self.log_norm
        return out

    @classmethod
    def gaussian(cls, mean: float, variance: float) -> "DensitySpec":
        if variance <= 0:
            raise DomainError("variance must be positive")
        c = 0.5 * math.log(2.0 * math.pi * variance)
        two_v = 2.0 * variance

        def log_density_neg(x):
            # (x - mean)^2 / (2 variance) + c, in one buffer
            z = x - mean
            z *= z
            z /= two_v
            z += c
            return z

        return cls(
            log_density_neg=log_density_neg,
            grad=lambda x: (x - mean) / variance,
            hess=lambda x: np.full_like(np.asarray(x, dtype=float), 1.0 / variance),
        )

    @classmethod
    def uniform(cls, lower: float, upper: float) -> "DensitySpec":
        if upper <= lower:
            raise DomainError("need upper > lower")
        c = math.log(upper - lower)
        return cls(
            log_density_neg=lambda x: np.full_like(np.asarray(x, dtype=float), c),
            grad=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            hess=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )

    def validate_on(self, grid: Grid) -> None:
        for fn, name in ((self.f, "f"), (self.grad, "grad"), (self.hess, "hess")):
            vals = np.asarray(fn(grid.nodes))
            if not np.all(np.isfinite(vals)):
                raise DomainError(f"DensitySpec.{name} is not finite on the grid")


@dataclass(frozen=True)
class GaussianMeasure:
    mean: float
    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise DomainError("variance must be positive")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


def discretize(spec: DensitySpec, grid: Grid) -> GridDensity:
    """Sample exp(-f)/Z on the grid and renormalize.

    Raises :class:`TruncationError` when the normalized density carries less
    than ``1 - TRUNCATION_TOL`` of its mass on the grid, so heavy tails are
    rejected instead of silently clipped.
    """
    spec.validate_on(grid)
    raw = np.exp(-spec.f(grid.nodes))
    if not np.all(np.isfinite(raw)) or np.any(raw <= 0.0):
        raise NonPositiveError("exp(-f) must be finite and positive on the grid")
    mass = grid.integrate(raw)
    if mass < 1.0 - TRUNCATION_TOL:
        raise TruncationError(
            f"density keeps only {mass!r} of its mass on [{grid.lower}, {grid.upper}]"
        )
    return GridDensity(grid, raw / mass)


def cdf_values(d: GridDensity) -> np.ndarray:
    """Piecewise-linear CDF at the nodes: starts at 0, clamped to end at 1."""
    v = d.values
    h = d.grid.spacing
    out = np.empty(d.grid.n)
    out[0] = 0.0
    np.cumsum(0.5 * h * (v[1:] + v[:-1]), out=out[1:])
    out /= out[-1]
    np.clip(out, 0.0, 1.0, out=out)
    out[-1] = 1.0
    return out


def quantile(d: GridDensity, p):
    """Generalized inverse of the piecewise-linear CDF.

    Accepts a scalar or an array of probabilities; strict positivity of the
    density makes the CDF strictly increasing, so the left-continuous
    inverse is plain linear interpolation.
    """
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 0.0) or np.any(p_arr > 1.0):
        raise DomainError("probabilities must lie in [0, 1]")
    out = np.interp(p_arr, cdf_values(d), d.grid.nodes)
    return float(out) if np.isscalar(p) or p_arr.ndim == 0 else out


def kl_divergence(p: GridDensity, q: GridDensity) -> float:
    """Trapezoid quadrature of p log(p/q); nonnegative up to quadrature error."""
    if p.grid != q.grid:
        raise GridMismatch("KL divergence needs both densities on one grid")
    return p.grid.integrate(p.values * (p.log_values - q.log_values))


def _check_map_values(grid: Grid, map_values) -> np.ndarray:
    t = np.asarray(map_values, dtype=float)
    if t.shape != (grid.n,):
        raise DomainError("map must be sampled at every grid node")
    if not np.all(np.isfinite(t)):
        raise NonMonotoneMap("map values must be finite")
    if np.any(np.diff(t) <= 0.0):
        raise NonMonotoneMap("map values must be strictly increasing")
    return t


def _hermite_pieces(x: np.ndarray, y: np.ndarray, dydx: np.ndarray, q: np.ndarray):
    """Cubic piece of the Hermite interpolant of (x, y) with knot slopes
    ``dydx`` at each point of ``q``: the offset s from the piece's left knot
    and the coefficients (c0, c1, c2, c3) of c0 + c1 s + c2 s^2 + c3 s^3.
    Points beyond the knots take the end pieces.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2.0 * slope) / dx
    i = np.clip(np.searchsorted(x, q, side="right") - 1, 0, len(x) - 2)
    return q - x[i], y[i], dydx[i], ((slope - dydx[:-1]) / dx - t)[i], (t / dx)[i]


def _hermite(x: np.ndarray, y: np.ndarray, dydx: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Piecewise cubic Hermite interpolant of (x, y) with knot slopes ``dydx``,
    each piece summed term by term from the constant up."""
    s, c0, c1, c2, c3 = _hermite_pieces(x, y, dydx, q)
    out = c0 + c1 * s
    z = s * s
    out += c2 * z
    z *= s
    out += c3 * z
    return out


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Knot slopes of the monotone PCHIP interpolant (Fritsch & Carlson 1980).

    Interior slopes are the weighted harmonic mean of the adjacent secant
    slopes, or 0 where those change sign or vanish; the end slopes are the
    one-sided three-point estimates, clamped to keep the data's shape
    (zero against the end secant's sign, at most three times its slope
    where the secants turn).  Needs three knots.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.zeros_like(y)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    ok = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
    d[1:-1][ok] = 1.0 / ((w1[ok] / m[:-1][ok] + w2[ok] / m[1:][ok]) / (w1[ok] + w2[ok]))
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _spline_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Knot slopes of the not-a-knot cubic spline through (x, y).

    The end rows make the third derivative continuous across the second
    and the next-to-last knot; the tridiagonal system is solved by forward
    elimination and back substitution.  Needs four knots.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    diag = np.empty_like(y)
    rhs = np.empty_like(y)
    diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
    rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    upper = np.concatenate(([x[2] - x[0]], dx[:-1]))   # row i, column i + 1
    lower = np.concatenate((dx[1:], [x[-1] - x[-3]]))   # row i + 1, column i
    d = upper[0]
    diag[0] = dx[1]
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = lower[-1]
    diag[-1] = dx[-2]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    a, b, up, lo = diag.tolist(), rhs.tolist(), upper.tolist(), lower.tolist()
    for k in range(1, len(a)):
        w = lo[k - 1] / a[k - 1]
        a[k] -= w * up[k - 1]
        b[k] -= w * b[k - 1]
    b[-1] /= a[-1]
    for k in range(len(a) - 2, -1, -1):
        b[k] = (b[k] - up[k] * b[k + 1]) / a[k]
    return np.array(b)


def pushforward_monotone(
    d: GridDensity, map_values, target_grid: Grid | None = None
) -> GridDensity:
    """Pushforward of ``d`` by a strictly increasing map given at the nodes.

    The output density on ``target_grid`` (default: the source grid) is
    built from the change-of-variables identity: at y = T(x) the log of the
    new density is log d(x) - log T'(x).  The inverse map is interpolated by
    monotone PCHIP and the log-density by the not-a-knot cubic spline, both
    cubic Hermite pieces evaluated in numpy; nodes beyond the image of the map
    continue the boundary log-slope so positivity is preserved.

    Raises :class:`TruncationError` when more than ``TRUNCATION_TOL`` of the
    pushforward mass would land outside the declared target domain.
    """
    t = _check_map_values(d.grid, map_values)
    target = target_grid if target_grid is not None else d.grid
    xs = d.grid.nodes

    cdf = cdf_values(d)
    lost = 0.0
    if t[0] < target.lower:
        lost += np.interp(np.interp(target.lower, t, xs), xs, cdf)
    if t[-1] > target.upper:
        lost += 1.0 - np.interp(np.interp(target.upper, t, xs), xs, cdf)
    if lost > TRUNCATION_TOL:
        raise TruncationError(f"pushforward loses mass {lost!r} outside the target domain")

    # Quantile-composed maps flatten into plateaus once the CDF they were
    # built from saturates; the derivative underflows there and the change
    # of variables becomes 0/0.  Clip such degenerate wings (they may carry
    # at most the truncation tolerance in mass) and rebuild them below by
    # extending the boundary log-slope.
    slopes = np.diff(t) / d.grid.spacing
    mid = slice(len(slopes) // 4, len(slopes) - len(slopes) // 4)
    med = float(np.median(slopes[mid]))
    healthy = (slopes > 1e-3 * med) & (slopes < 50.0 * med)
    first = int(np.argmax(healthy))
    last = len(slopes) - int(np.argmax(healthy[::-1]))
    # keep the derivative stencil clear of the collapse knee
    if first > 0:
        first = min(first + 3, d.grid.n - 6)
    if last < len(slopes):
        last = max(last - 3, first + 5)
    core = np.zeros(d.grid.n, dtype=bool)
    core[first: last + 1] = True
    if np.count_nonzero(core) < 5:
        raise NonMonotoneMap("map support is too degenerate to push forward")
    clipped_mass = cdf[first] + 1.0 - cdf[last]
    if clipped_mass > TRUNCATION_TOL:
        raise NonMonotoneMap(
            f"map slopes collapse over {clipped_mass!r} of the source mass"
        )
    xs_c, t_c = xs[core], t[core]
    t_prime = grad_central4(t_c, d.grid.spacing)
    if np.any(t_prime <= 0.0):
        raise NonMonotoneMap("map derivative must stay positive")
    log_push = d.log_values[core] - np.log(t_prime)

    ys = target.nodes
    out = np.empty(target.n)
    inside = (ys >= t_c[0]) & (ys <= t_c[-1])
    x_at = _hermite(t_c, xs_c, _pchip_slopes(t_c, xs_c), ys[inside])
    out[inside] = _hermite(xs_c, log_push, _spline_slopes(xs_c, log_push), x_at)
    # continue the boundary log-slope beyond the core image (exponential tails)
    if not np.all(inside):
        lo_slope = max((log_push[1] - log_push[0]) / (t_c[1] - t_c[0]), 0.0)
        hi_slope = min((log_push[-1] - log_push[-2]) / (t_c[-1] - t_c[-2]), 0.0)
        below = ys < t_c[0]
        above = ys > t_c[-1]
        out[below] = log_push[0] + min(lo_slope, 1e6) * (ys[below] - t_c[0])
        out[above] = log_push[-1] + max(hi_slope, -1e6) * (ys[above] - t_c[-1])
    return GridDensity.from_unnormalized(target, np.exp(out))


def pushforward_values_linear(d: GridDensity, map_values):
    """Cheap O(h^2) pushforward values used by per-step runtime monitors.

    Same change-of-variables construction as :func:`pushforward_monotone`
    but with linear interpolation and no normalization; returns raw node
    values on the source grid.
    """
    t = np.asarray(map_values, dtype=float)
    xs = d.grid.nodes
    t_prime = grad_central(t, d.grid.spacing)
    log_push = d.log_values - np.log(np.maximum(t_prime, 1e-300))
    x_hat = np.interp(xs, t, xs)
    return np.exp(np.interp(x_hat, xs, log_push))
