"""Time-stepping for the parabolic Monge-Ampere flow and its relatives.

The state bundles a convex potential with the density it induces through
the change-of-measure identity; stepping is explicit Euler with an
internal CFL subdivision (the log-Hessian term is parabolic with
diffusivity 1/u'', so a raw step at coarse spacing would amplify
grid-scale noise).  The same stepper drives the relative-entropy flow and
the other first-variation functionals; a conservative explicit update of
the plain Fokker-Planck equation is included for comparison runs, along
with the residual diagnostics the acceptance suite checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConvexityLost, DomainError, StabilityError
from .grids import (
    INTERIOR_FRACTION,
    DensitySpec,
    Grid,
    GridDensity,
    _readonly,
    discretize,
    grad_central,
    grad_central4,
    kl_divergence,
    pushforward_monotone,
    pushforward_values_linear,
    second_central,
)
from .transport import ConvexPotential, HessianBoundsReport, legendre_transform, lot_distance

CFL_FACTOR = 0.25            # dt_sub <= CFL_FACTOR * h^2 * min(u'')
PUSHFORWARD_TOL = 5e-3       # sup-norm drift allowed in the transport constraint
DEFAULT_B_CAP = 1e6


@dataclass(frozen=True)
class Functional:
    """A flow functional by its first variation at the nodes xs.

    The variation is ``potential(xs)``, the part that does not depend on
    h = -log rho, minus h when ``entropic`` is true; ``gradient(xs)`` is the
    x-derivative of ``potential``.  The stepper evaluates ``potential`` once
    per step and subtracts h at each substep.
    """

    potential: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    entropic: bool

    def variation(self, xs: np.ndarray, h: np.ndarray) -> np.ndarray:
        v = self.potential(xs)
        return v - h if self.entropic else v

    def variation_gradient(self, xs: np.ndarray, h: np.ndarray, spacing: float) -> np.ndarray:
        g = self.gradient(xs)
        return g - grad_central(h, spacing) if self.entropic else g

    @classmethod
    def relative_entropy(cls, mu_spec: DensitySpec) -> "Functional":
        """KL(rho || exp(-f)), first variation f - h up to a constant."""
        return cls(mu_spec.f, mu_spec.grad, entropic=True)

    @classmethod
    def entropy(cls) -> "Functional":
        """The negative differential entropy, first variation log rho + 1."""
        return cls(lambda xs: np.full_like(xs, 1.0), np.zeros_like, entropic=True)

    @classmethod
    def potential_energy(cls) -> "Functional":
        """The quadratic potential energy, first variation x^2 / 2."""
        return cls(lambda xs: 0.5 * xs**2, lambda xs: np.asarray(xs, dtype=float),
                   entropic=False)


@dataclass(frozen=True)
class VelocityField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = _readonly(self.values)
        object.__setattr__(self, "values", v)
        if not np.all(np.isfinite(v)):
            raise StabilityError("velocity field is not finite")

    def l2_norm(self, rho: GridDensity) -> float:
        return float(np.sqrt(self.grid.integrate(self.values**2 * rho.values)))


@dataclass(frozen=True)
class PmaState:
    """Time-stamped bundle (t, potential, log-density, density) of the flow."""

    t: float
    u: ConvexPotential
    h: np.ndarray
    rho: GridDensity
    mu: GridDensity
    nu: GridDensity
    mu_spec: DensitySpec
    nu_spec: DensitySpec
    functional: Functional
    bounds: HessianBoundsReport
    a_floor: float
    b_cap: float = DEFAULT_B_CAP
    rho_mass_error: float = 0.0
    projection_magnitude: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "h", _readonly(self.h))

    @property
    def grid(self) -> Grid:
        return self.u.grid


def make_flow_state(
    grid: Grid,
    mu_spec: DensitySpec,
    nu_spec: DensitySpec,
    u0: ConvexPotential,
    functional=None,
    a_floor: float = 1e-3,
    b_cap: float = DEFAULT_B_CAP,
) -> PmaState:
    mu = discretize(mu_spec, grid)
    nu = discretize(nu_spec, grid)
    if functional is None:
        functional = Functional.relative_entropy(mu_spec)
    # h with exp(-h) the pullback of the target through the gradient map
    h = nu_spec.f(u0.du) - np.log(u0.d2u)
    raw = np.exp(-h)
    mass = grid.integrate(raw)
    rho = GridDensity(grid, raw / mass)
    bounds = HessianBoundsReport(float(np.min(u0.d2u)), float(np.max(u0.d2u)), (0.0, 0.0))
    return PmaState(
        t=0.0, u=u0, h=h, rho=rho, mu=mu, nu=nu,
        mu_spec=mu_spec, nu_spec=nu_spec, functional=functional,
        bounds=bounds, a_floor=a_floor, b_cap=b_cap,
        rho_mass_error=abs(mass - 1.0),
    )


def pma_rhs(state: PmaState) -> np.ndarray:
    """Nodewise time derivative of the potential (the first variation)."""
    if float(np.min(state.u.d2u)) < state.a_floor:
        raise ConvexityLost("potential violates the convexity floor")
    return state.functional.variation(state.grid.nodes, state.h)


def step(state: PmaState, dt: float, max_substep: float | None = None) -> PmaState:
    """Advance the flow by dt with explicit Euler under a CFL guard.

    The requested dt is subdivided into equal substeps no longer than
    CFL_FACTOR * h^2 * min(u''); after each substep the derivatives are
    rebuilt by finite differences and the Hessian samples are clamped at
    the floor (the clamp magnitude is recorded and should stay at zero on
    well-posed runs).  The transport constraint - the gradient map pushing
    the current density onto the target - is re-verified at the end of the
    user step.  ``max_substep`` tightens the subdivision further, which
    refinement studies use to keep the trajectory error fixed while the
    diagnostic spacing varies.
    """
    if dt < 0:
        raise DomainError("dt must be nonnegative")
    if dt == 0:
        return state
    grid = state.grid
    h_sp = grid.spacing
    xs = grid.nodes

    functional = state.functional
    u_vals = state.u.u.copy()
    h_cur = np.asarray(state.h)
    sup_rhs_prev = float(np.max(np.abs(functional.variation(xs, h_cur))))

    a_min_now = float(np.min(state.u.d2u))
    dt_stable = CFL_FACTOR * h_sp * h_sp * a_min_now
    if max_substep is not None:
        dt_stable = min(dt_stable, max_substep)
    n_sub = max(1, math.ceil(dt / dt_stable))
    dt_sub = dt / n_sub

    # the substeps update u_vals, du and d2u in place; the buffers are new
    # each step because the returned ConvexPotential makes them read-only
    potential = functional.potential(xs)
    entropic = functional.entropic
    nu_f = state.nu_spec.f
    a_floor = state.a_floor
    du = np.empty_like(u_vals)
    d2u = np.empty_like(u_vals)
    rhs = np.empty_like(u_vals)
    proj_mag = 0.0
    for _ in range(n_sub):
        if entropic:
            np.subtract(potential, h_cur, out=rhs)
        else:
            rhs[:] = potential
        rhs *= dt_sub
        u_vals += rhs
        grad_central(u_vals, h_sp, out=du)
        second_central(u_vals, h_sp, out=d2u)
        low = d2u.min()
        if low < a_floor:
            proj_mag = max(proj_mag, float(a_floor - low))
            np.maximum(d2u, a_floor, out=d2u)
            # rebuild gradient and value by double cumulative integration
            # anchored at the midpoint so the clamp stays a local repair
            mid = grid.n // 2
            du_new = np.concatenate(([0.0], np.cumsum(0.5 * h_sp * (d2u[1:] + d2u[:-1]))))
            du[:] = du_new - du_new[mid] + du[mid]
            u_new = np.concatenate(([0.0], np.cumsum(0.5 * h_sp * (du[1:] + du[:-1]))))
            u_vals[:] = u_new - u_new[mid] + u_vals[mid]
        if d2u.max() > state.b_cap:
            raise ConvexityLost("Hessian samples exceeded the configured cap")
        h_cur = nu_f(du)
        h_cur -= np.log(d2u)

    sup_rhs_new = float(np.max(np.abs(functional.variation(xs, h_cur))))
    if sup_rhs_new > 10.0 * sup_rhs_prev + 1e-8:
        raise StabilityError(
            f"flow derivative grew from {sup_rhs_prev!r} to {sup_rhs_new!r} in one step"
        )

    u_next = ConvexPotential(grid, u_vals, du, d2u, floor=state.a_floor)
    raw = np.exp(-h_cur)
    mass = grid.integrate(raw)
    rho_next = GridDensity(grid, raw / mass)

    pushed = pushforward_values_linear(rho_next, du)
    pushed /= grid.integrate(pushed)
    drift = float(np.max(np.abs(pushed - state.nu.values)))
    if drift > PUSHFORWARD_TOL:
        raise StabilityError(f"transport constraint drifted to {drift!r} sup-norm")

    t_next = state.t + dt
    return replace(
        state,
        t=t_next,
        u=u_next,
        h=h_cur,
        rho=rho_next,
        bounds=state.bounds.merged(float(np.min(d2u)), float(np.max(d2u)), t_next),
        rho_mass_error=abs(mass - 1.0),
        projection_magnitude=proj_mag,
    )


def run_flow(state: PmaState, dt: float, steps: int,
             max_substep: float | None = None) -> Iterator[PmaState]:
    """Yield the start state, then the state after each of ``steps`` user steps."""
    yield state
    for _ in range(steps):
        state = step(state, dt, max_substep=max_substep)
        yield state


def velocity(state: PmaState) -> VelocityField:
    """Velocity of the induced density curve: the mirror-chart gradient of
    the first variation, with the analytic marginal gradient where the
    functional provides one."""
    g = state.functional.variation_gradient(state.grid.nodes, state.h, state.grid.spacing)
    return VelocityField(state.grid, -g / state.u.d2u)


def velocity_mirror_chart(state: PmaState) -> VelocityField:
    """Velocity recomputed purely from the potential's time derivative."""
    g = grad_central(pma_rhs(state), state.grid.spacing)
    return VelocityField(state.grid, -g / state.u.d2u)


def fokker_planck_velocity(rho: GridDensity, mu: GridDensity) -> VelocityField:
    """Plain (unmirrored) velocity of the relative-entropy gradient flow."""
    if rho.grid != mu.grid:
        raise DomainError("densities must share a grid")
    vals = grad_central(mu.log_values - rho.log_values, rho.grid.spacing)
    return VelocityField(rho.grid, vals)


FP_CFL_FACTOR = 0.2


def fokker_planck_step(rho: GridDensity, mu: GridDensity, dt: float) -> GridDensity:
    """Conservative explicit update of the continuity equation with the
    Fokker-Planck velocity; zero-flux boundaries, internally substepped to
    the diffusive stability limit, mass conserved to roundoff."""
    if rho.grid != mu.grid:
        raise DomainError("densities must share a grid")
    if dt < 0:
        raise DomainError("dt must be nonnegative")
    grid = rho.grid
    h_sp = grid.spacing
    w = grid.trapezoid_weights
    n_sub = max(1, math.ceil(dt / (FP_CFL_FACTOR * h_sp * h_sp)))
    dt_sub = dt / n_sub
    vals = rho.values.copy()
    log_mu = mu.log_values
    mass_before = grid.integrate(vals)
    v = np.empty_like(vals)             # velocity, then nodal flux
    face = np.empty(grid.n - 1)         # flux through the faces between nodes
    net = np.empty_like(vals)           # log-density gap, then net inflow
    for _ in range(n_sub):
        np.log(vals, out=net)
        np.subtract(log_mu, net, out=net)
        grad_central(net, h_sp, out=v)
        v *= vals
        np.add(v[:-1], v[1:], out=face)
        face *= 0.5
        net[0] = -face[0]
        np.subtract(face[:-1], face[1:], out=net[1:-1])
        net[-1] = face[-1]
        net *= dt_sub
        net /= w
        vals += net
        if not (0.0 < vals.min() and vals.max() < np.inf):
            raise StabilityError("Fokker-Planck update lost positivity")
    mass_after = grid.integrate(vals)
    if abs(mass_after - mass_before) > 1e-7:
        raise StabilityError(f"mass drifted by {mass_after - mass_before!r}")
    return GridDensity(grid, vals / mass_after)


def run_fokker_planck(rho: GridDensity, mu: GridDensity, dt: float,
                      steps: int) -> Iterator[GridDensity]:
    """Yield rho, then the density after each of ``steps`` steps."""
    yield rho
    for _ in range(steps):
        rho = fokker_planck_step(rho, mu, dt)
        yield rho


def _dual_target_grid(prev: PmaState, next_state: PmaState) -> Grid:
    """The central INTERIOR_FRACTION of the gradient range both states share."""
    lo = max(prev.u.du[0], next_state.u.du[0])
    hi = min(prev.u.du[-1], next_state.u.du[-1])
    pad = 0.5 * (1.0 - INTERIOR_FRACTION) * (hi - lo)
    return Grid(lo + pad, hi - pad, prev.grid.n)


def dual_pma_residual(prev: PmaState, next_state: PmaState) -> float:
    """Residual of the conjugate potential's own flow equation.

    The conjugates of two consecutive states give a forward-difference time
    derivative; it must match g(y) - f(w'(y)) + log w''(y) to O(dt + h^2)
    on the interior window.
    """
    dt = next_state.t - prev.t
    if dt <= 0:
        raise DomainError("states must be consecutive in time")
    ygrid = _dual_target_grid(prev, next_state)
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
    dt = next_state.t - prev.t
    if dt <= 0:
        raise DomainError("states must be consecutive in time")
    v = velocity(prev).values
    flux_div = grad_central4(prev.rho.values * v, prev.grid.spacing)
    resid = (next_state.rho.values - prev.rho.values) / dt + flux_div
    keep = prev.grid.interior_slice()
    return float(np.max(np.abs(resid[keep])))


def fp_continuity_residual(prev: GridDensity, next_d: GridDensity, mu: GridDensity, dt: float) -> float:
    v = fokker_planck_velocity(prev, mu).values
    flux_div = grad_central(prev.values * v, prev.grid.spacing)
    resid = (next_d.values - prev.values) / dt + flux_div
    keep = prev.grid.interior_slice()
    return float(np.max(np.abs(resid[keep])))


def gauge_consistency_residual(states: Sequence[PmaState], index: int) -> float:
    """Sup gap between the two expressions for the log-density: the pullback
    through the gradient map versus f minus a centered time derivative of
    the potential across neighbouring states."""
    if index <= 0 or index >= len(states) - 1:
        raise DomainError("need a state with both neighbours")
    prev, mid, nxt = states[index - 1], states[index], states[index + 1]
    dudt = (nxt.u.u - prev.u.u) / (nxt.t - prev.t)
    h_from_time = mid.mu_spec.f(mid.grid.nodes) - dudt
    keep = mid.grid.interior_slice()
    return float(np.max(np.abs((h_from_time - mid.h)[keep])))


def _is_at(stamp: float, t: float) -> bool:
    """Whether a time stamp is t, up to the drift of summed steps."""
    return abs(stamp - t) <= 1e-9 + 1e-6 * max(1.0, abs(t))


def _state_at(states: Sequence[PmaState], t: float) -> PmaState:
    times = np.array([s.t for s in states])
    i = int(np.argmin(np.abs(times - t)))
    if not _is_at(times[i], t):
        raise DomainError(f"no stored state near t = {t}")
    return states[i]


def inverse_gradient_map(u: ConvexPotential, ys: np.ndarray) -> np.ndarray:
    """Inverse of the gradient map, extended linearly (with the boundary
    Hessian) beyond the gradient's range so compositions stay monotone."""
    xs = u.grid.nodes
    out = np.interp(ys, u.du, xs)
    below = ys < u.du[0]
    above = ys > u.du[-1]
    out[below] = xs[0] + (ys[below] - u.du[0]) / u.d2u[0]
    out[above] = xs[-1] + (ys[above] - u.du[-1]) / u.d2u[-1]
    return out


def metric_derivative_lot(
    states: Sequence[PmaState], t: float, deltas: Sequence[float]
) -> list[dict]:
    """Difference quotients of the map-based transport distance against the
    velocity norm.

    Each row reports (delta, LOT(rho_{t+delta}, rho_t)/delta, ||v_t||, ratio);
    the ratio tends to one as delta shrinks.  On a stationary stretch both
    columns vanish and the ratio is reported as the exact-zero sentinel 0.0.
    """
    base = _state_at(states, t)
    vnorm = velocity(base).l2_norm(base.rho)
    rows = []
    for d in deltas:
        ahead = _state_at(states, t + d)
        rate = lot_distance(base.nu, ahead.rho, base.rho) / d
        if rate < 1e-12 and vnorm < 1e-12:
            ratio = 0.0
        else:
            ratio = rate / vnorm
        rows.append({"delta": d, "lot_rate": rate, "velocity_norm": vnorm, "ratio": ratio})
    return rows


def second_order_lot_gap(states: Sequence[PmaState], t: float, delta: float) -> tuple[float, float]:
    """Compare the flow increment against its velocity-perturbed transport map.

    Returns (gap, base): the map-based distance from rho_{t+delta} to the
    pushforward of the target through w' + delta * v(w'), and to rho_t.  The
    perturbed pushforward is a second-order approximation, so gap << base.
    """
    base_state = _state_at(states, t)
    ahead = _state_at(states, t + delta)
    ys = base_state.grid.nodes
    w_prime = inverse_gradient_map(base_state.u, ys)
    v = velocity(base_state)
    perturbed = w_prime + delta * np.interp(w_prime, base_state.grid.nodes, v.values)
    approx = pushforward_monotone(base_state.nu, perturbed)
    gap = lot_distance(base_state.nu, ahead.rho, approx)
    base = lot_distance(base_state.nu, ahead.rho, base_state.rho)
    return gap, base


def kl_decay_series(states: Iterable[PmaState]) -> list[dict]:
    """Relative-entropy decay along a run against its mirror-adjusted bound.

    The bound is KL_0 * exp(-2 c H(t)) with H accumulated by trapezoid from
    the observed envelope inf_x 1/u'' of each state; c is the curvature
    floor of the first marginal on the grid.  The states are read in one
    pass, so a stream of them works.
    """
    rows = []
    for s in states:
        env = 1.0 / float(np.max(s.u.d2u))
        kl = kl_divergence(s.rho, s.mu)
        if not rows:
            c_lsi = float(np.min(s.mu_spec.hess(s.grid.nodes)))
            if c_lsi <= 0:
                raise DomainError("cannot infer a log-Sobolev constant from flat curvature")
            kl0, h_accum = kl, 0.0
        elif s.t > prev_t:
            h_accum += 0.5 * (env + prev_env) * (s.t - prev_t)
        bound = kl0 * math.exp(-2.0 * c_lsi * h_accum)
        rows.append({"t": s.t, "kl": kl, "bound": bound, "within": kl <= bound * 1.05 + 1e-12})
        prev_t, prev_env = s.t, env
    return rows
