"""Time-stepping for the parabolic Monge-Ampere flow and its relatives.

The state bundles a convex potential with the density it induces through
the change-of-measure identity; stepping is explicit Euler with an
internal CFL subdivision (the log-Hessian term is parabolic with
diffusivity 1/u'', so a raw step at coarse spacing would amplify
grid-scale noise).  The same stepper drives the relative-entropy flow and
the other first-variation functionals.  The plain Fokker-Planck equation,
the unmirrored gradient flow of the same relative entropy, is stepped for
comparison runs by backward Euler with Scharfetter-Gummel fluxes: one
tridiagonal system factored per run, and one solve per step of at most
FP_MAX_SUBSTEP.  The residual diagnostics the acceptance suite checks
are here too.
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
    Tridiagonal,
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
FP_MAX_SUBSTEP = 1e-3        # longest backward-Euler solve of a Fokker-Planck step


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
    if not math.isfinite(dt) or dt < 0:
        raise DomainError("dt must be finite and nonnegative")
    if max_substep is not None and not (math.isfinite(max_substep) and max_substep > 0):
        raise DomainError("max_substep must be finite and positive")
    if dt == 0:
        return state
    grid = state.grid
    h_sp = grid.spacing
    xs = grid.nodes

    # the h-free part of the first variation, once per step
    functional = state.functional
    potential = functional.potential(xs)
    entropic = functional.entropic

    def sup_variation(h):
        return float(np.max(np.abs(potential - h if entropic else potential)))

    u_vals = state.u.u.copy()
    h_cur = np.asarray(state.h)
    sup_rhs_prev = sup_variation(h_cur)

    a_min_now = float(np.min(state.u.d2u))
    dt_stable = CFL_FACTOR * h_sp * h_sp * a_min_now
    if max_substep is not None:
        dt_stable = min(dt_stable, max_substep)
    n_sub = max(1, math.ceil(dt / dt_stable))
    dt_sub = dt / n_sub

    # the substeps update u_vals, du and d2u in place; the buffers are new
    # each step because the returned ConvexPotential makes them read-only
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

    sup_rhs_new = sup_variation(h_cur)
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


def _bernoulli(z: np.ndarray) -> np.ndarray:
    """B(z) = z / (exp(z) - 1), with B(0) = 1."""
    out = np.ones_like(z)
    nz = z != 0.0
    with np.errstate(over="ignore"):
        out[nz] = z[nz] / np.expm1(z[nz])
    return out


@dataclass(frozen=True)
class FokkerPlanckSystem:
    """The backward-Euler matrix W + dt_sub A of the Fokker-Planck step for
    (mu, dt), factored once for every step that shares them.

    A is the Scharfetter-Gummel discretization of -d/dx(d/dx rho + rho psi')
    with psi = -log mu: the flux through the face between nodes i and i + 1
    is (B(dpsi) rho_i - B(-dpsi) rho_{i+1}) / h, with dpsi = psi_{i+1} - psi_i
    and B the Bernoulli function, and no flux leaves the ends.  W holds the
    trapezoid weights as cell widths, so the trapezoid mass is conserved,
    mu is stationary, and the inverse of the M-matrix W + dt_sub A keeps
    every value positive.  A step of dt runs ``substeps`` solves of length
    dt_sub = dt / substeps <= FP_MAX_SUBSTEP, which bounds the first-order
    time error whatever dt is.
    """

    mu: GridDensity
    substeps: int
    solver: Tridiagonal

    @classmethod
    def build(cls, mu: GridDensity, dt: float) -> "FokkerPlanckSystem":
        if not math.isfinite(dt) or dt < 0:
            raise DomainError("dt must be finite and nonnegative")
        grid = mu.grid
        # the 1e-9 keeps a dt that is a multiple of FP_MAX_SUBSTEP up to
        # roundoff (0.1 / 1e-3 = 100.00000000000001) from taking one more solve
        substeps = max(1, math.ceil(dt / FP_MAX_SUBSTEP - 1e-9))
        dpsi = -np.diff(mu.log_values)
        scale = dt / substeps / grid.spacing
        right = scale * _bernoulli(dpsi)     # dt_sub/h B(dpsi): rho_i leaving rightward
        left = scale * _bernoulli(-dpsi)     # dt_sub/h B(-dpsi): rho_{i+1} leaving leftward
        diag = np.array(grid.trapezoid_weights)
        diag[:-1] += right
        diag[1:] += left
        return cls(mu, substeps, Tridiagonal(-right, diag, -left))


def _check_density_values(vals: np.ndarray, what: str) -> None:
    if not (0.0 < vals.min() and vals.max() < np.inf):
        raise StabilityError(f"Fokker-Planck {what} is not finite and positive")


def fokker_planck_step(rho: GridDensity, system: FokkerPlanckSystem) -> GridDensity:
    """Advance rho toward the system's mu by the dt it was built for:
    ``system.substeps`` backward-Euler solves with Scharfetter-Gummel
    fluxes and zero-flux ends (see FokkerPlanckSystem); unconditionally
    stable, mass conserved to roundoff."""
    if rho.grid != system.mu.grid:
        raise DomainError("densities must share a grid")
    _check_density_values(rho.values, "input")
    w = rho.grid.trapezoid_weights
    held = w * rho.values               # the right-hand side W rho, cell by cell
    mass_before = float(held.sum())
    solve = system.solver.solve         # (W + dt_sub A) rho' = W rho
    vals = solve(held)
    for _ in range(system.substeps - 1):
        vals = solve(w * vals)
    _check_density_values(vals, "update")
    mass_after = float(w @ vals)
    if abs(mass_after - mass_before) > 1e-7:
        raise StabilityError(f"mass drifted by {mass_after - mass_before!r}")
    return GridDensity(rho.grid, vals / mass_after)


def run_fokker_planck(rho: GridDensity, mu: GridDensity, dt: float,
                      steps: int) -> Iterator[GridDensity]:
    """Yield rho, then the density after each of ``steps`` steps."""
    yield rho
    system = FokkerPlanckSystem.build(mu, dt)
    for _ in range(steps):
        rho = fokker_planck_step(rho, system)
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
