"""Optimal-transport primitives on the 1-D grid.

Everything here reduces to quantile/CDF composition (exact in one
dimension) plus convex-duality machinery for the potentials: Legendre
transforms and the log-det-Hessian tensor identity used by the flow
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvexityLost, DomainError, GridMismatch, RangeError
from .grids import (
    Grid,
    GridDensity,
    _hermite,
    _hermite_pieces,
    _readonly,
    cdf_values,
    grad_central,
    quantile,
)

DEFAULT_CONVEXITY_FLOOR = 1e-3
W2_QUADRATURE_NODES = 1024


@dataclass(frozen=True)
class ConvexPotential:
    """Grid samples of a strictly convex function with its derivatives.

    ``d2u`` must stay above the declared convexity floor at every node and
    ``du`` must be strictly increasing; violating either raises
    :class:`ConvexityLost` so downstream transport primitives never operate
    on a degenerate mirror.  ``hessian_min`` and ``hessian_max`` are the
    smallest and largest ``d2u`` samples, which the check reads.
    """

    grid: Grid
    u: np.ndarray
    du: np.ndarray
    d2u: np.ndarray
    floor: float = DEFAULT_CONVEXITY_FLOOR
    hessian_min: float = field(init=False, repr=False, compare=False)
    hessian_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("u", "du", "d2u"):
            arr = _readonly(getattr(self, name))
            object.__setattr__(self, name, arr)
            if arr.shape != (self.grid.n,):
                raise DomainError(f"{name} must be sampled at every node")
        u, du, d2u = self.u, self.du, self.d2u
        if not np.isfinite(u).all():
            raise DomainError("u must be finite")
        # a nan fails every comparison, and a strictly increasing du is
        # finite when its end values are
        increasing = bool((du[1:] > du[:-1]).all())
        if not ((increasing and math.isfinite(du[0]) and math.isfinite(du[-1]))
                or np.isfinite(du).all()):
            raise DomainError("du must be finite")
        low, high = float(d2u.min()), float(d2u.max())     # nan when a sample is
        if not (math.isfinite(low) and math.isfinite(high)):
            raise DomainError("d2u must be finite")
        if low < self.floor:
            raise ConvexityLost(f"second derivative dips to {low!r} below floor {self.floor}")
        if not increasing:
            raise ConvexityLost("gradient must be strictly increasing")
        object.__setattr__(self, "hessian_min", low)
        object.__setattr__(self, "hessian_max", high)

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

    def value_at(self, x):
        """Cubic-Hermite evaluation of u using node values and slopes."""
        xs = self.grid.nodes
        x = np.asarray(x, dtype=float)
        if np.any(x < xs[0]) or np.any(x > xs[-1]):
            raise DomainError("point outside the potential's grid")
        out = _hermite(xs, self.u, self.du, x)
        return float(out) if out.ndim == 0 else out


def _strictify(values: np.ndarray, min_gap: float) -> np.ndarray:
    """Make a nondecreasing sequence strictly increasing by lifting each tie
    ``min_gap`` above its predecessor; a no-op where it already is."""
    out = values.copy()
    for i in range(1, len(out)):
        if out[i] <= out[i - 1]:
            out[i] = out[i - 1] + min_gap
    return out


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
    # one Newton polish of u'(x) = y on the cubic-Hermite pieces of u
    s, _, c1, c2, c3 = _hermite_pieces(xs, u.u, u.du, x_hat)
    with np.errstate(divide="ignore", invalid="ignore"):
        correction = (c1 + (2.0 * c2 + 3.0 * c3 * s) * s - ys) / (2.0 * c2 + 6.0 * c3 * s)
    correction = np.where(np.isfinite(correction), correction, 0.0)
    x_hat = np.clip(x_hat - correction, xs[0], xs[-1])

    w = x_hat * ys - u.value_at(x_hat)
    dw = x_hat
    d2w = 1.0 / np.interp(x_hat, xs, u.d2u)
    if np.any(np.diff(dw) <= 0.0):
        dw = _strictify(dw, 1e-12 * u.grid.spacing)
    floor = min(u.floor, float(np.min(d2w)) * 0.5)
    return ConvexPotential(target_grid, w, dw, d2w, floor=floor)


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
