"""Time-stepping for the parabolic Monge-Ampere flow and its relatives.

The state bundles a convex potential with the density it induces through
the change-of-measure identity.  The log-Hessian term is parabolic with
diffusivity 1/u'', so an explicit step must be cut into CFL substeps whose
count grows as 1/h^2.  A step whose CFL count is at most
EXPLICIT_MAX_SUBSTEPS runs that many explicit Euler substeps; a stiffer
step runs second-order Rosenbrock (ROS2) substeps of at most MAX_SUBSTEP,
each two solves with W = I - gamma tau J, factored as its tridiagonal
interior and the 2 x 2 Schur complement of its two end unknowns.  ROS2 is
second order for any W, so the state carries its factored W from step to
step, and a substep refactors only when W's entries at the current state
have moved from the factored ones by more than W_DRIFT_TOL (see
Ros2Factor); on the n = 2048 Gaussian runs (dt = 1e-3, T = 0.5) that is 1
factorization for the location flow and 13-14 for the scale flow.  The
same stepper drives the relative-entropy flow and the other
first-variation functionals.  The plain Fokker-Planck equation, the
unmirrored gradient flow of the same relative entropy, is stepped for
comparison runs by backward Euler with Scharfetter-Gummel fluxes: one
tridiagonal system factored per run, and one solve per step of at most
MAX_SUBSTEP.  The residual diagnostics the acceptance suite checks are
here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
    lerp,
    locate,
    pushforward_monotone,
    pushforward_values_linear,
    second_central,
)
from .transport import ConvexPotential, legendre_transform, lot_distance

CFL_FACTOR = 0.25            # dt_sub <= CFL_FACTOR * h^2 * min(u'')
PUSHFORWARD_TOL = 5e-3       # sup-norm drift allowed in the transport constraint
HESSIAN_CAP = 1e6            # u'' samples above it raise ConvexityLost
# The largest CFL count a flow step still takes explicitly.  Measured per
# step over 100 steps of the Gaussian runs at dt = 1e-3 (2 shared Xeon
# CPUs), a ROS2 step on the lagged W takes 1.05-1.8 times the explicit
# step's time at n = 256 (count 2), 1.12-1.31 times at n = 512 (count 5),
# 0.55-0.63 times at n = 1024 (count 17) and 0.17-0.19 times at n = 2048
# (count 66): the two cost the same between counts 5 and 17, and every
# n <= 512 flow at dt = 1e-3 stays explicit.
EXPLICIT_MAX_SUBSTEPS = 16
MAX_SUBSTEP = 1e-3           # longest ROS2 substep of a flow step, longest FP solve
ROS2_GAMMA = 1.0 + 1.0 / math.sqrt(2.0)
# The largest row drift of W's entries from the factored ones that a ROS2
# substep still solves with (see Ros2Factor.fits).  At 5% the n = 2048
# scale flow (eta = 0.4926, dt = 1e-3) refactors 14 times in 500 steps,
# and its variance error at t = 0.5 reads -1.374e-5 against -1.283e-5
# with a new W every substep; the location flow factors once.
W_DRIFT_TOL = 0.05


@dataclass(frozen=True)
class Functional:
    """A flow functional by its first variation at the nodes xs.

    The variation is ``potential(xs)``, the part that does not depend on
    h = -log rho, minus h when ``entropic`` is true; ``gradient(xs)`` is the
    x-derivative of ``potential``.  ``potential`` is evaluated once per run
    (the flow state carries it), and the stepper subtracts h at each substep.
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


class NodeTables(NamedTuple):
    """A diffusion's drift and diffusion coefficients at the nodes of a grid."""

    grid: Grid
    drift: np.ndarray
    diffusion: np.ndarray

    def at(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both at points ``x``; points beyond the grid take end-node values."""
        where = locate(self.grid, x)
        return lerp(where, self.drift), lerp(where, self.diffusion)


@dataclass(frozen=True)
class PmaState:
    """Time-stamped bundle (t, potential, log-density, density) of the flow.

    ``potential`` is the functional's h-free part at the nodes, evaluated
    once per run, and ``sup_variation`` the sup norm of the first variation
    at h, which the next step compares its own against.  The mirror ``u``
    carries the convexity floor the steps clamp u'' at and the range of
    its u'' samples (ConvexPotential.hessian_min and hessian_max).
    """

    t: float
    u: ConvexPotential
    h: np.ndarray
    rho: GridDensity
    mu: GridDensity
    nu: GridDensity
    mu_spec: DensitySpec
    nu_spec: DensitySpec
    functional: Functional
    potential: np.ndarray
    sup_variation: float
    rho_mass_error: float = 0.0
    projection_magnitude: float = 0.0
    substeps: int = 0            # substeps the last step took (0 at the start)
    transport_drift: float = 0.0 # its sup-norm transport-constraint drift
    derivative_growth: float = 0.0  # its sup-norm variation, new over old (nan from 0)
    factorizations: int = 0      # ROS2 matrices it factored (0: explicit, or W reused)
    ros2: Ros2Factor | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "h", _readonly(self.h))
        object.__setattr__(self, "potential", _readonly(self.potential))

    @property
    def grid(self) -> Grid:
        return self.u.grid

    @cached_property
    def sde_tables(self) -> NodeTables:
        """The mirrored diffusion's coefficients at the grid nodes.

        Its drift is -f'/u'' - g'(u') + h'/u''.  By the change of measure
        h = g(u') - log u'' the last two terms collapse to (1/u'')', so the
        drift is -f'/u'' + (1/u'')' and the diffusion sqrt(2/u''): neither
        reads the target.
        """
        grid, d2u = self.grid, self.u.d2u
        drift = grad_central(1.0 / d2u, grid.spacing) - self.mu_spec.grad(grid.nodes) / d2u
        return NodeTables(grid, drift, np.sqrt(2.0 / d2u))

    @cached_property
    def dual_tables(self) -> NodeTables:
        """The dual-coordinate diffusion's drift -h'(w'(y)) and diffusion
        sqrt(2 u''(w'(y))), w the conjugate potential, on n uniform nodes y
        over the range of u', each pulled back through w' = (u')^-1; with
        the mirror frozen this process leaves the target invariant."""
        u = self.u
        ys = Grid(u.du[0], u.du[-1], u.grid.n)
        at = locate(u.grid, inverse_gradient_map(u, ys.nodes))
        drift = -lerp(at, grad_central(self.h, u.grid.spacing))
        return NodeTables(ys, drift, np.sqrt(2.0 * lerp(at, u.d2u)))


def _sup_variation(potential: np.ndarray, h: np.ndarray, entropic: bool,
                   buffer: np.ndarray) -> float:
    """The sup norm of the first variation, potential - h when entropic,
    computed in ``buffer``."""
    if entropic:
        np.subtract(potential, h, out=buffer)
        np.abs(buffer, out=buffer)
    else:
        np.abs(potential, out=buffer)
    return float(buffer.max())


def make_flow_state(
    grid: Grid,
    mu_spec: DensitySpec,
    nu_spec: DensitySpec,
    u0: ConvexPotential,
    functional=None,
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
    potential = functional.potential(grid.nodes)
    return PmaState(
        t=0.0, u=u0, h=h, rho=rho, mu=mu, nu=nu,
        mu_spec=mu_spec, nu_spec=nu_spec, functional=functional, potential=potential,
        sup_variation=_sup_variation(potential, h, functional.entropic, np.empty(grid.n)),
        rho_mass_error=abs(mass - 1.0),
    )


def _substep_count(dt: float, longest: float) -> int:
    """Equal substeps of at most ``longest`` covering dt; the 1e-9 keeps a dt
    that is a multiple of ``longest`` up to roundoff (1.1 / 0.1 =
    11.000000000000002) from taking one more."""
    return max(1, math.ceil(dt / longest - 1e-9))


def _ros2_entries(d2u: np.ndarray, score: np.ndarray, gamma_tau: float,
                  spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """W's interior entries a = gamma_tau / (h^2 u'') and b = gamma_tau g'(u') / (2 h):
    row i of W = I - gamma_tau J is (-a_i - b_i, 1 + 2 a_i, b_i - a_i)."""
    return gamma_tau / (spacing * spacing) / d2u, (0.5 * gamma_tau / spacing) * score


@dataclass(frozen=True)
class Ros2Factor:
    """The ROS2 matrix W = I - gamma_tau J, factored, with the gamma_tau and
    the entries a and b (see _ros2_entries) it was built from.

    J = diag(1/u'') D2 - diag(g'(u')) D1 is the Jacobian of the discrete
    right-hand side f - g(D1 u) + log(D2 u), with D1 and D2 the stencils of
    grad_central and second_central.  Its interior rows are tridiagonal.
    The end rows are the exact rows of the one-sided stencils, four entries
    wide, so W maps quadratics to quadratics and a quadratic potential
    stays quadratic to roundoff.

    The end unknowns E = {0, n - 1} are solved through their Schur
    complement.  The interior block W_II (rows and columns 1..n-2) is
    tridiagonal and factored once.  W_IE has one entry per column, so
    Z = W_II^-1 W_IE takes two interior solves, and S = W_EE - W_EI Z is
    2 x 2.  Since det W = det W_II det S, S is singular only when W is; a
    singular or non-finite S raises StabilityError.  The solve of W k = r
    is one interior solve y = W_II^-1 r_I, the 2 x 2 solve
    S k_E = r_E - W_EI y and k_I = y - Z k_E; it overwrites r with k and
    returns it.

    ROS2 is second order for any W (a W-method; Steihaug & Wolfbrandt
    1979), so a factor serves later substeps until it no longer fits them.
    The interior solver reuses one work buffer, so a factor serves one
    caller at a time, as Tridiagonal says.
    """

    gamma_tau: float
    a: np.ndarray
    b: np.ndarray
    solve: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def build(cls, gamma_tau: float, a: np.ndarray, b: np.ndarray) -> "Ros2Factor":
        lower = -a[1:] - b[1:]                     # row i + 1, column i
        upper = b[:-1] - a[:-1]                    # row i, column i + 1
        interior = Tridiagonal(lower[1:-1], 1.0 + 2.0 * a[1:-1], upper[1:-1])
        a0, b0, an, bn = float(a[0]), float(b[0]), float(a[-1]), float(b[-1])
        # W_EI: row 0 on columns 1..3, row n - 1 on columns n - 4..n - 2
        head = np.array([5.0 * a0 + 4.0 * b0, -4.0 * a0 - b0, a0])
        tail = np.array([an, -4.0 * an + bn, 5.0 * an - 4.0 * bn])
        e = np.zeros(a.size - 2)
        e[0] = lower[0]
        z0 = interior.solve(e)                     # the columns of Z
        e[0], e[-1] = 0.0, upper[-1]
        z1 = interior.solve(e)
        with np.errstate(all="ignore"):            # a non-finite end row raises below
            s00 = 1.0 - 2.0 * a0 - 3.0 * b0 - float(head @ z0[:3])
            s01 = -float(head @ z1[:3])
            s10 = -float(tail @ z0[-3:])
            s11 = 1.0 - 2.0 * an + 3.0 * bn - float(tail @ z1[-3:])
        det = s00 * s11 - s01 * s10
        if not (math.isfinite(det) and det != 0.0):
            raise StabilityError("the ROS2 end Schur complement is singular or not finite")
        i00, i01, i10, i11 = s11 / det, -s01 / det, -s10 / det, s00 / det

        def solve(rhs: np.ndarray) -> np.ndarray:
            y = interior.solve(rhs[1:-1])
            r0, rn = rhs[0] - head @ y[:3], rhs[-1] - tail @ y[-3:]
            k0, kn = i00 * r0 + i01 * rn, i10 * r0 + i11 * rn
            rhs[0], rhs[-1] = k0, kn
            k = rhs[1:-1]
            np.multiply(z0, -k0, out=k)
            k += y
            np.multiply(z1, kn, out=y)
            k -= y
            return rhs

        return cls(gamma_tau, _readonly(a), _readonly(b), solve)

    def fits(self, gamma_tau: float, a: np.ndarray, b: np.ndarray) -> bool:
        """Whether W's entries a and b at gamma_tau are this factor's, up to
        a drift of at most W_DRIFT_TOL in every row: 2|a - a_ref| +
        2|b - b_ref| against the factored diagonal 1 + 2 a_ref."""
        if gamma_tau != self.gamma_tau:
            return False
        drift = np.abs(a - self.a)
        drift += np.abs(b - self.b)
        drift /= 0.5 + self.a
        return bool(drift.max() <= W_DRIFT_TOL)     # false on a nan


def _ros2_increment(state: PmaState, solve: Callable[[np.ndarray], np.ndarray],
                    u_vals: np.ndarray, h_cur: np.ndarray, potential: np.ndarray,
                    tau: float) -> np.ndarray:
    """tau (3/2 k1 + 1/2 k2): one ROS2 step of u' = F(u) = potential - h(u)
    (Verwer, Spee, Blom & Hundsdorfer 1999), with gamma = 1 + 1/sqrt(2):

        W k1 = F(u),  W k2 = F(u + tau k1) - 2 k1,  W = I - gamma tau J(u),

    where ``solve`` solves with W.  It is L-stable and second order for any
    W.  Raises ConvexityLost when the stage u + tau k1 is not convex.
    """
    h_sp = state.grid.spacing
    k1 = solve(potential - h_cur)
    stage = u_vals + tau * k1
    d2_stage = second_central(stage, h_sp)
    if not d2_stage.min() > 0.0:
        raise ConvexityLost("the ROS2 stage potential lost convexity")
    rhs = state.nu_spec.f(grad_central(stage, h_sp))
    rhs -= np.log(d2_stage)                        # h at the stage
    np.subtract(potential, rhs, out=rhs)
    rhs -= 2.0 * k1
    k2 = solve(rhs)
    k1 *= 1.5 * tau
    k1 += (0.5 * tau) * k2
    return k1


def _ros2_substep(state: PmaState, factor: Ros2Factor | None, u_vals: np.ndarray,
                  du: np.ndarray, d2u: np.ndarray, h_cur: np.ndarray, potential: np.ndarray,
                  tau: float) -> tuple[np.ndarray, Ros2Factor, int]:
    """One ROS2 increment (see _ros2_increment) with ``factor`` while it fits
    W at the current state, else with a new factorization.  A stage that
    loses convexity on a reused factor is retried once on a new one; on a
    new one it raises.  Returns the increment, the factor it used and the
    number of factorizations made."""
    gamma_tau = ROS2_GAMMA * tau
    a, b = _ros2_entries(d2u, state.nu_spec.grad(du), gamma_tau, state.grid.spacing)
    fresh = factor is None or not factor.fits(gamma_tau, a, b)
    if fresh:
        factor = Ros2Factor.build(gamma_tau, a, b)
    try:
        increment = _ros2_increment(state, factor.solve, u_vals, h_cur, potential, tau)
    except ConvexityLost:
        if fresh:
            raise
        factor, fresh = Ros2Factor.build(gamma_tau, a, b), True
        increment = _ros2_increment(state, factor.solve, u_vals, h_cur, potential, tau)
    return increment, factor, int(fresh)


def _rebuild(state: PmaState, u_vals: np.ndarray, du: np.ndarray,
             d2u: np.ndarray) -> tuple[np.ndarray, float]:
    """Refresh du and d2u from u_vals by finite differences, in place, and
    return the new h and the clamp magnitude.

    Hessian samples below the mirror's floor are clamped, and du and u_vals
    are rebuilt from the clamped d2u by double cumulative integration
    anchored at the midpoint, so the clamp stays a local repair; samples
    above HESSIAN_CAP raise ConvexityLost.
    """
    grid = state.grid
    h_sp = grid.spacing
    floor = state.u.floor
    grad_central(u_vals, h_sp, out=du)
    second_central(u_vals, h_sp, out=d2u)
    low = float(d2u.min())
    proj = 0.0
    if low < floor:
        proj = floor - low
        np.maximum(d2u, floor, out=d2u)
        mid = grid.n // 2
        du_new = np.concatenate(([0.0], np.cumsum(0.5 * h_sp * (d2u[1:] + d2u[:-1]))))
        du[:] = du_new - du_new[mid] + du[mid]
        u_new = np.concatenate(([0.0], np.cumsum(0.5 * h_sp * (du[1:] + du[:-1]))))
        u_vals[:] = u_new - u_new[mid] + u_vals[mid]
    if float(d2u.max()) > HESSIAN_CAP:
        raise ConvexityLost("Hessian samples exceeded HESSIAN_CAP")
    h_new = state.nu_spec.f(du)
    h_new -= np.log(d2u)
    return h_new, proj


def step(state: PmaState, dt: float, max_substep: float | None = None) -> PmaState:
    """Advance the flow by dt.

    The CFL count, _substep_count(dt, CFL_FACTOR * h^2 * u.hessian_min), picks
    the integrator.  Up to EXPLICIT_MAX_SUBSTEPS, dt is cut into that many
    equal explicit Euler substeps, or more if ``max_substep`` asks for
    shorter ones.  Above it, dt is cut into equal ROS2 substeps (see
    _ros2_increment) no longer than MAX_SUBSTEP or ``max_substep``; each
    solves with the factored W the state carries while that still fits
    (see Ros2Factor.fits), else factors a new one.  Refinement studies use
    ``max_substep`` to keep the trajectory error fixed while the
    diagnostic spacing varies.

    After each substep the derivatives are rebuilt by finite differences
    and the Hessian samples are clamped at the mirror's floor, u.floor (the
    clamp magnitude is recorded and should stay at zero on well-posed
    runs); samples above HESSIAN_CAP raise ConvexityLost.  At the end of
    the step, a sup-norm variation that grew tenfold, or a transport
    constraint (the gradient map pushing the density onto the target) that
    drifted beyond PUSHFORWARD_TOL, raises StabilityError.  The new state
    records the substep count, the drift, the variation's growth, the
    number of W factorizations and the last factored W.  Its mirror keeps
    u.floor and holds the range of its u'' samples (hessian_min is the
    floor after a clamp).
    """
    if not math.isfinite(dt) or dt < 0:
        raise DomainError("dt must be finite and nonnegative")
    if max_substep is not None and not (math.isfinite(max_substep) and max_substep > 0):
        raise DomainError("max_substep must be finite and positive")
    if dt == 0:
        return state
    grid = state.grid
    h_sp = grid.spacing
    potential = state.potential
    entropic = state.functional.entropic
    u_vals = state.u.u.copy()
    h_cur = state.h

    dt_stable = CFL_FACTOR * h_sp * h_sp * state.u.hessian_min
    explicit = _substep_count(dt, dt_stable) <= EXPLICIT_MAX_SUBSTEPS
    longest = dt_stable if explicit else MAX_SUBSTEP
    if max_substep is not None:
        longest = min(longest, max_substep)
    n_sub = _substep_count(dt, longest)
    dt_sub = dt / n_sub

    # the substeps update u_vals, du and d2u in place; the buffers are new
    # each step because the returned ConvexPotential makes them read-only,
    # and du and d2u start as the state's for the first ROS2 Jacobian
    du = np.array(state.u.du)
    d2u = np.array(state.u.d2u)
    rhs = np.empty_like(u_vals)
    proj_mag = 0.0
    factor, factorizations = state.ros2, 0
    for _ in range(n_sub):
        if explicit or not entropic:
            # a potential-only variation does not depend on u: ROS2 is Euler
            if entropic:
                np.subtract(potential, h_cur, out=rhs)
            else:
                rhs[:] = potential
            rhs *= dt_sub
            u_vals += rhs
        else:
            increment, factor, built = _ros2_substep(state, factor, u_vals, du, d2u, h_cur,
                                                     potential, dt_sub)
            u_vals += increment
            factorizations += built
        h_cur, proj = _rebuild(state, u_vals, du, d2u)
        proj_mag = max(proj_mag, proj)

    sup_prev = state.sup_variation
    sup_new = _sup_variation(potential, h_cur, entropic, rhs)
    growth = sup_new / sup_prev if sup_prev > 0.0 else math.nan
    if sup_new > 10.0 * sup_prev + 1e-8:
        raise StabilityError(
            f"flow derivative grew from {sup_prev!r} to {sup_new!r} in one step"
        )

    u_next = ConvexPotential(grid, u_vals, du, d2u, floor=state.u.floor)
    np.negative(h_cur, out=rhs)
    raw = np.exp(rhs)
    mass = grid.integrate(raw)
    raw /= mass
    rho_next = GridDensity(grid, raw)

    rhs -= math.log(mass)                          # log rho, without a log of rho
    pushed = pushforward_values_linear(grid, rhs, du)
    pushed /= grid.integrate(pushed)
    pushed -= state.nu.values
    np.abs(pushed, out=pushed)
    drift = float(pushed.max())
    if drift > PUSHFORWARD_TOL:
        raise StabilityError(f"transport constraint drifted to {drift!r} sup-norm")

    return replace(
        state,
        t=state.t + dt,
        u=u_next,
        h=h_cur,
        rho=rho_next,
        sup_variation=sup_new,
        rho_mass_error=abs(mass - 1.0),
        projection_magnitude=proj_mag,
        substeps=n_sub,
        transport_drift=drift,
        derivative_growth=growth,
        factorizations=factorizations,
        ros2=factor,
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
    dt_sub = dt / substeps <= MAX_SUBSTEP, which bounds the first-order
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
        substeps = _substep_count(dt, MAX_SUBSTEP)
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


def run_fokker_planck(rho: GridDensity, system: FokkerPlanckSystem,
                      steps: int) -> Iterator[GridDensity]:
    """Yield rho, then the density after each of ``steps`` steps of the system."""
    yield rho
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


def _check_ahead(base: PmaState, ahead: PmaState, delta: float) -> None:
    if not _is_at(ahead.t, base.t + delta):
        raise DomainError(f"the state at t = {ahead.t} is not {delta} ahead of t = {base.t}")


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
    base: PmaState, ahead: Sequence[PmaState], deltas: Sequence[float]
) -> list[dict]:
    """Difference quotients of the map-based transport distance against the
    velocity norm at base, with ahead[j] the state deltas[j] later.

    Each row reports (delta, LOT(rho_{t+delta}, rho_t)/delta, ||v_t||, ratio);
    the ratio tends to one as delta shrinks.  On a stationary stretch both
    columns vanish and the ratio is reported as the exact-zero sentinel 0.0.
    A state that is not its delta ahead of base raises DomainError.
    """
    vnorm = velocity(base).l2_norm(base.rho)
    rows = []
    for d, later in zip(deltas, ahead, strict=True):
        _check_ahead(base, later, d)
        rate = lot_distance(base.nu, later.rho, base.rho) / d
        if rate < 1e-12 and vnorm < 1e-12:
            ratio = 0.0
        else:
            ratio = rate / vnorm
        rows.append({"delta": d, "lot_rate": rate, "velocity_norm": vnorm, "ratio": ratio})
    return rows


def second_order_lot_gap(base: PmaState, ahead: PmaState, delta: float) -> tuple[float, float]:
    """Compare the flow increment from base to ahead, the state delta later,
    against its velocity-perturbed transport map.

    Returns (gap, first): the map-based distance from rho_{t+delta} to the
    pushforward of the target through w' + delta * v(w'), and to rho_t.  The
    perturbed pushforward is a second-order approximation, so gap << first.
    A state that is not delta ahead raises DomainError.
    """
    _check_ahead(base, ahead, delta)
    ys = base.grid.nodes
    w_prime = inverse_gradient_map(base.u, ys)
    v = velocity(base)
    perturbed = w_prime + delta * np.interp(w_prime, base.grid.nodes, v.values)
    approx = pushforward_monotone(base.nu, perturbed)
    gap = lot_distance(base.nu, ahead.rho, approx)
    first = lot_distance(base.nu, ahead.rho, base.rho)
    return gap, first


def kl_decay_series(states: Iterable[PmaState]) -> list[dict]:
    """Relative-entropy decay along a run against its mirror-adjusted bound.

    The bound is KL_0 * exp(-2 c H(t)) with H accumulated by trapezoid from
    the observed envelope inf_x 1/u'' of each state; c is the curvature
    floor of the first marginal on the grid.  The states are read in one
    pass, so a stream of them works.
    """
    rows = []
    for s in states:
        env = 1.0 / s.u.hessian_max
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
