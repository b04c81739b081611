"""Optimal-transport primitives on the 1-D grid.

Everything here reduces to quantile/CDF composition (exact in one
dimension) plus convex-duality machinery for the potentials: Legendre
transforms, Bregman divergences, and the
log-det-Hessian tensor identity used by the flow diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvexityLost, DomainError, GridMismatch, NonMonotoneMap, RangeError
from .grids import (
    Grid,
    GridDensity,
    cdf_values,
    grad_central,
    quantile,
    _readonly,
)

DEFAULT_CONVEXITY_FLOOR = 1e-3
W2_QUADRATURE_NODES = 1024


@dataclass(frozen=True)
class MonotoneMap:
    """Strictly increasing map sampled at the grid nodes."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = _readonly(self.values)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.n,):
            raise DomainError("map must be sampled at every node")
        if not np.all(np.isfinite(v)) or np.any(np.diff(v) <= 0.0):
            raise NonMonotoneMap("map values must be finite and strictly increasing")

    def __call__(self, x):
        return np.interp(x, self.grid.nodes, self.values)

    def inverse(self, y):
        return np.interp(y, self.values, self.grid.nodes)


@dataclass(frozen=True)
class HessianBoundsReport:
    """Observed window of the potential's second derivative over a run."""

    a_min_observed: float
    b_max_observed: float
    time_window: tuple[float, float]

    def __post_init__(self):
        if self.a_min_observed > self.b_max_observed:
            raise DomainError("lower Hessian bound exceeds the upper one")

    def merged(self, a_min: float, b_max: float, t: float) -> "HessianBoundsReport":
        return HessianBoundsReport(
            min(self.a_min_observed, a_min),
            max(self.b_max_observed, b_max),
            (self.time_window[0], max(self.time_window[1], t)),
        )


@dataclass(frozen=True)
class ConvexPotential:
    """Grid samples of a strictly convex function with its derivatives.

    ``d2u`` must stay above the declared convexity floor at every node and
    ``du`` must be strictly increasing; violating either raises
    :class:`ConvexityLost` so downstream transport primitives never operate
    on a degenerate mirror.
    """

    grid: Grid
    u: np.ndarray
    du: np.ndarray
    d2u: np.ndarray
    floor: float = DEFAULT_CONVEXITY_FLOOR

    def __post_init__(self):
        for name in ("u", "du", "d2u"):
            arr = _readonly(getattr(self, name))
            object.__setattr__(self, name, arr)
            if arr.shape != (self.grid.n,):
                raise DomainError(f"{name} must be sampled at every node")
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} must be finite")
        if float(np.min(self.d2u)) < self.floor:
            raise ConvexityLost(
                f"second derivative dips to {float(np.min(self.d2u))!r} below floor {self.floor}"
            )
        if np.any(np.diff(self.du) <= 0.0):
            raise ConvexityLost("gradient must be strictly increasing")

    @classmethod
    def from_callable(cls, grid: Grid, u, du, d2u, floor: float = DEFAULT_CONVEXITY_FLOOR):
        xs = grid.nodes
        return cls(grid, np.asarray(u(xs), float), np.asarray(du(xs), float),
                   np.asarray(d2u(xs), float), floor)

    @classmethod
    def quadratic(cls, grid: Grid, curvature: float = 1.0):
        xs = grid.nodes
        return cls(grid, 0.5 * curvature * xs**2, curvature * xs,
                   np.full(grid.n, float(curvature)))

    def gradient_range(self) -> tuple[float, float]:
        return float(self.du[0]), float(self.du[-1])

    def _bracket(self, x):
        """Hermite evaluation data for points inside the grid."""
        xs = self.grid.nodes
        x = np.asarray(x, dtype=float)
        if np.any(x < xs[0]) or np.any(x > xs[-1]):
            raise DomainError("point outside the potential's grid")
        idx = np.clip(np.searchsorted(xs, x) - 1, 0, self.grid.n - 2)
        return x, idx

    def value_at(self, x):
        """Cubic-Hermite evaluation of u using node values and slopes."""
        x, i = self._bracket(x)
        h = self.grid.spacing
        s = (x - self.grid.nodes[i]) / h
        u0, u1 = self.u[i], self.u[i + 1]
        m0, m1 = self.du[i] * h, self.du[i + 1] * h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        out = h00 * u0 + h10 * m0 + h01 * u1 + h11 * m1
        return float(out) if out.ndim == 0 else out

    def gradient_at(self, x):
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr < self.grid.lower) or np.any(x_arr > self.grid.upper):
            raise DomainError("point outside the potential's grid")
        out = np.interp(x_arr, self.grid.nodes, self.du)
        return float(out) if out.ndim == 0 else out


def _strictify(values: np.ndarray, min_gap: float) -> np.ndarray:
    """Break float-saturation ties in the extreme tails of a quantile
    composition; active only where the CDF has flattened to machine 1."""
    out = values.copy()
    for i in range(1, len(out)):
        if out[i] <= out[i - 1]:
            out[i] = out[i - 1] + min_gap
    return out


def brenier_map_1d(src: GridDensity, dst: GridDensity) -> MonotoneMap:
    """Monotone transport map from src to dst: dst-quantile of the src-CDF."""
    if src.grid != dst.grid:
        raise GridMismatch("brenier_map_1d expects one shared grid")
    t = quantile(dst, cdf_values(src))
    if np.any(np.diff(t) <= 0.0):
        t = _strictify(t, 1e-9 * src.grid.spacing)
    return MonotoneMap(src.grid, t)


def w2_distance(a: GridDensity, b: GridDensity) -> float:
    """2-Wasserstein distance via midpoint quadrature over quantiles."""
    if a.grid != b.grid:
        raise GridMismatch("w2_distance expects one shared grid")
    ps = (np.arange(W2_QUADRATURE_NODES) + 0.5) / W2_QUADRATURE_NODES
    diff = quantile(a, ps) - quantile(b, ps)
    return float(np.sqrt(np.mean(diff**2)))


def lot_distance(ref: GridDensity, a: GridDensity, b: GridDensity) -> float:
    """L2(ref) distance between the transport maps from ref to a and to b.

    Dominates the plain 2-Wasserstein distance between a and b.
    """
    if ref.grid != a.grid or ref.grid != b.grid:
        raise GridMismatch("lot_distance expects one shared grid")
    f_ref = cdf_values(ref)
    diff = quantile(a, f_ref) - quantile(b, f_ref)
    return float(np.sqrt(ref.grid.integrate(diff**2 * ref.values)))


def legendre_transform(u: ConvexPotential, target_grid: Grid) -> ConvexPotential:
    """Convex conjugate of u sampled on a grid of slope values.

    For each target node y the maximizer of x*y - u(x) solves u'(x) = y; it
    is located by monotone interpolation on du, polished with one Newton
    step on the cubic-Hermite derivative, and the conjugate value and its
    derivatives follow from the envelope identities w(y) = x*y - u(x*),
    w'(y) = x*, w''(y) = 1/u''(x*).
    """
    lo, hi = u.gradient_range()
    ys = target_grid.nodes
    if ys[0] < lo or ys[-1] > hi:
        raise RangeError(
            f"target grid [{ys[0]}, {ys[-1]}] exceeds the gradient range [{lo}, {hi}]"
        )
    xs = u.grid.nodes
    x_hat = np.interp(ys, u.du, xs)
    # one Newton polish: du is piecewise-cubic between nodes via Hermite of u
    h = u.grid.spacing
    i = np.clip(np.searchsorted(xs, x_hat) - 1, 0, u.grid.n - 2)
    s = (x_hat - xs[i]) / h
    u0, u1 = u.u[i], u.u[i + 1]
    m0, m1 = u.du[i] * h, u.du[i + 1] * h
    dh = (6 * s * s - 6 * s) * u0 + (3 * s * s - 4 * s + 1) * m0 \
        + (6 * s - 6 * s * s) * u1 + (3 * s * s - 2 * s) * m1
    d2h = (12 * s - 6) * u0 + (6 * s - 4) * m0 + (6 - 12 * s) * u1 + (6 * s - 2) * m1
    with np.errstate(divide="ignore", invalid="ignore"):
        correction = (dh / h - ys) / (d2h / (h * h))
    correction = np.where(np.isfinite(correction), correction, 0.0)
    x_hat = np.clip(x_hat - correction, xs[0], xs[-1])

    w = x_hat * ys - u.value_at(x_hat)
    dw = x_hat
    d2w = 1.0 / np.interp(x_hat, xs, u.d2u)
    if np.any(np.diff(dw) <= 0.0):
        dw = _strictify(dw, 1e-12 * u.grid.spacing)
    floor = min(u.floor, float(np.min(d2w)) * 0.5)
    return ConvexPotential(target_grid, w, dw, d2w, floor=floor)


def bregman_divergence(u: ConvexPotential, w: ConvexPotential, x: float, y: float) -> float:
    """u(x) + w(y) - x*y for a conjugate pair (u, w); nonnegative, zero at
    the matched point x = w'(y)."""
    return u.value_at(x) + w.value_at(y) - x * y


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


def change_of_measure_residual(
    d: GridDensity, phi: ConvexPotential, pushed: GridDensity
) -> float:
    """Sup-norm residual of b(phi'(x)) = a(x) + log phi''(x) on the interior,
    where exp(-a) = d and exp(-b) = the pushforward of d by phi'."""
    if d.grid != phi.grid:
        raise GridMismatch("density and potential must share a grid")
    keep = d.grid.interior_slice()
    a = -d.log_values[keep]
    b_at = -np.interp(phi.du[keep], pushed.grid.nodes, pushed.log_values)
    return float(np.max(np.abs(b_at - a - np.log(phi.d2u[keep]))))
