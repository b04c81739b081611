import math
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from sinkflow.closed_form import scale_variance_entropic, scale_variance_fokker_planck
from sinkflow.errors import ConvexityLost, DomainError, StabilityError
from sinkflow.grids import (
    DensitySpec,
    Grid,
    GridDensity,
    discretize,
    grad_central,
    kl_divergence,
    pushforward_values_linear,
    second_central,
)
from sinkflow.pma import (
    CFL_FACTOR,
    FP_MAX_SUBSTEP,
    PUSHFORWARD_TOL,
    FokkerPlanckSystem,
    Functional,
    continuity_residual,
    dual_pma_residual,
    fokker_planck_step,
    kl_decay_series,
    make_flow_state,
    metric_derivative_lot,
    run_fokker_planck,
    run_flow,
    second_order_lot_gap,
    step,
    velocity,
)
from sinkflow.transport import ConvexPotential

from conftest import gaussian_flow_state

GRID = Grid(-8.0, 8.0, 512)
MU_SPEC = DensitySpec.gaussian(0.0, 1.0)


class Flattener:
    """A deliberately concavifying functional: it drives u'' through the
    convexity floor, so the stepper has to clamp and rebuild."""

    entropic = False

    def potential(self, xs):
        return -2.0 * 0.5 * xs**2

    def variation_gradient(self, xs, h, spacing):
        return -2.0 * xs


def variation(functional, xs, h):
    """The first variation: the functional's potential, minus h if entropic."""
    v = functional.potential(xs)
    return v - h if functional.entropic else v


def flow_rhs(state):
    """Nodewise time derivative of the potential: the first variation at h."""
    return variation(state.functional, state.grid.nodes, state.h)


def fp_velocity(rho, mu):
    """Velocity of the plain (unmirrored) relative-entropy gradient flow."""
    return grad_central(mu.log_values - rho.log_values, rho.grid.spacing)


@pytest.fixture(scope="module")
def stationary_state():
    return make_flow_state(GRID, MU_SPEC, MU_SPEC, ConvexPotential.quadratic(GRID))


@pytest.fixture(scope="module")
def location_run():
    # theta = 0.5 flow integrated to t = 0.6 at the acceptance step size
    state = gaussian_flow_state(GRID, mean=0.5)
    return list(run_flow(state, 1e-3, 600))


class TestRhs:
    def test_stationary(self, stationary_state):
        keep = GRID.interior_slice()
        assert np.max(np.abs(flow_rhs(stationary_state))[keep]) < 1e-3

    def test_location_initial_rhs(self):
        # with the identity mirror the time derivative is f - g:
        # theta*x - theta^2/2 for unit-variance marginals
        state = gaussian_flow_state(GRID, mean=0.5)
        expected = 0.5 * GRID.nodes - 0.125
        keep = GRID.interior_slice()
        assert np.max(np.abs(flow_rhs(state) - expected)[keep]) < 1e-9

    def test_log_curvature_term(self):
        # quadratic potential with curvature c contributes exactly log c
        state = make_flow_state(GRID, MU_SPEC, DensitySpec.gaussian(0.0, 0.25),
                                ConvexPotential.quadratic(GRID, curvature=0.5))
        f = MU_SPEC.f(GRID.nodes)
        g_at = DensitySpec.gaussian(0.0, 0.25).f(0.5 * GRID.nodes)
        expected = f - g_at + math.log(0.5)
        assert np.max(np.abs(flow_rhs(state) - expected)) < 1e-9


class TestStep:
    def test_zero_dt_identity(self, stationary_state):
        assert step(stationary_state, 0.0) is stationary_state

    def test_negative_dt_rejected(self, stationary_state):
        with pytest.raises(DomainError):
            step(stationary_state, -0.1)

    def test_location_mean_decay(self, location_run):
        final = location_run[-1]
        ref = 0.5 * math.exp(-final.t)
        assert abs(final.rho.mean() - ref) <= 0.02 * ref
        assert abs(final.rho.variance() - 1.0) <= 0.02

    def test_scale_variance(self):
        state = gaussian_flow_state(GRID, variance=0.25)
        states = list(run_flow(state, 1e-3, 500))
        got = states[-1].rho.variance()
        ref = scale_variance_entropic(0.5, states[-1].t)
        assert abs(got - ref) <= 0.02 * ref

    def test_pushforward_constraint_held(self, location_run):
        # invariant monitored inside step(); re-verify explicitly here
        from sinkflow.grids import pushforward_values_linear
        s = location_run[300]
        pushed = pushforward_values_linear(s.rho, s.u.du)
        pushed /= GRID.integrate(pushed)
        assert np.max(np.abs(pushed - s.nu.values)) < 5e-3

    def test_hessian_window_monitored(self, location_run):
        b = location_run[-1].bounds
        assert b.a_min_observed >= location_run[-1].a_floor
        assert b.b_max_observed <= location_run[-1].b_cap
        assert b.time_window[1] == pytest.approx(location_run[-1].t)

    def test_projection_never_fires_on_clean_runs(self, location_run):
        assert all(s.projection_magnitude <= 1e-6 for s in location_run)

    def test_mass_drift_logged(self, location_run):
        assert all(s.rho_mass_error < 1e-6 for s in location_run)

    def test_convexity_cap(self):
        state = gaussian_flow_state(GRID, mean=0.5, b_cap=0.9)
        with pytest.raises(ConvexityLost):
            step(state, 1e-3)

    def test_convexity_projection_repairs_floor(self):
        # the projection must clamp, rebuild, and log its magnitude
        state = make_flow_state(GRID, MU_SPEC, MU_SPEC,
                                ConvexPotential.quadratic(GRID),
                                functional=Flattener(), a_floor=0.9)
        moved = step(state, 0.1)
        assert moved.projection_magnitude > 0.0
        assert float(np.min(moved.u.d2u)) >= 0.9


class TestVelocity:
    def test_stationary_velocity_vanishes(self, stationary_state):
        keep = GRID.interior_slice()
        assert np.max(np.abs(velocity(stationary_state).values)[keep]) < 1e-4

    def test_location_velocity_constant(self):
        state = gaussian_flow_state(GRID, mean=0.5)
        keep = GRID.interior_slice()
        assert np.max(np.abs(velocity(state).values + 0.5)[keep]) < 1e-6

    def test_two_chart_agreement(self, location_run):
        s = location_run[250]
        keep = GRID.interior_slice()
        mirror_chart = -grad_central(flow_rhs(s), GRID.spacing) / s.u.d2u
        gap = np.abs(velocity(s).values - mirror_chart)
        assert np.max(gap[keep]) < 1e-3

    def test_reduces_to_fokker_planck_for_identity_mirror(self):
        state = gaussian_flow_state(GRID, mean=0.5)
        fp = fp_velocity(state.rho, state.mu)
        keep = GRID.interior_slice()
        assert np.max(np.abs(velocity(state).values - fp)[keep]) < 1e-6

    def test_velocity_envelope(self, location_run):
        from sinkflow.grids import grad_central
        s = location_run[100]
        bound = (np.max(np.abs(MU_SPEC.grad(GRID.nodes)))
                 + np.max(np.abs(grad_central(np.asarray(s.h), GRID.spacing))))
        assert np.max(np.abs(velocity(s).values)) <= bound / s.bounds.a_min_observed + 1e-9


class TestFokkerPlanckStep:
    def test_location_moments(self):
        mu = discretize(MU_SPEC, GRID)
        rho = discretize(DensitySpec.gaussian(0.5, 1.0), GRID)
        hist = list(run_fokker_planck(rho, mu, 1e-3, 1000))
        final = hist[-1]
        assert abs(final.mean() - 0.5 * math.exp(-1.0)) <= 0.01 * 0.5 * math.exp(-1.0)
        assert abs(final.variance() - 1.0) <= 0.01

    def test_scale_variance(self):
        mu = discretize(MU_SPEC, GRID)
        rho = discretize(DensitySpec.gaussian(0.0, 0.25), GRID)
        hist = list(run_fokker_planck(rho, mu, 1e-3, 1000))
        ref = scale_variance_fokker_planck(0.5, 1.0)
        assert abs(hist[-1].variance() - ref) <= 0.01 * ref

    def test_stationary_density_unchanged(self):
        # Scharfetter-Gummel fluxes vanish on mu itself, so only roundoff moves it
        mu = discretize(MU_SPEC, GRID)
        hist = list(run_fokker_planck(mu, mu, 1e-3, 1000))
        assert np.max(np.abs(hist[-1].values - mu.values)) <= 1e-12

    @pytest.mark.parametrize("n", [256, 2048])
    def test_matches_dense_solve(self, n):
        # the Scharfetter-Gummel backward-Euler system written out densely:
        # face flux (B(d) rho_i - B(-d) rho_{i+1}) / h with d = psi_{i+1} - psi_i,
        # psi = -log mu, B(z) = z / (e^z - 1), zero flux at both ends
        grid = Grid(-8.0, 8.0, n)
        dt, h = 1e-3, grid.spacing
        mu = discretize(MU_SPEC, grid)
        rho = discretize(DensitySpec.gaussian(0.0, 0.25), grid)
        d = np.log(mu.values[:-1]) - np.log(mu.values[1:])
        bern = lambda z: np.divide(z, np.expm1(z), out=np.ones_like(z), where=z != 0.0)
        flux = np.zeros((n - 1, n))
        flux[np.arange(n - 1), np.arange(n - 1)] = bern(d) / h
        flux[np.arange(n - 1), np.arange(1, n)] = -bern(-d) / h
        div = np.zeros((n, n))
        div[:-1] += flux
        div[1:] -= flux
        w = np.full(n, h)
        w[0] = w[-1] = 0.5 * h
        want = np.linalg.solve(np.diag(w) + dt * div, w * rho.values)
        want /= grid.integrate(want)
        got = fokker_planck_step(rho, FokkerPlanckSystem.build(mu, dt)).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    def test_long_step_splits_into_substeps(self):
        # a step longer than FP_MAX_SUBSTEP runs equal sub-solves of one
        # factored system, the same as as many short steps
        mu = discretize(MU_SPEC, GRID)
        rho = discretize(DensitySpec.gaussian(0.5, 0.25), GRID)
        system = FokkerPlanckSystem.build(mu, 2.5 * FP_MAX_SUBSTEP)
        assert system.substeps == 3
        short = FokkerPlanckSystem.build(mu, 2.5 * FP_MAX_SUBSTEP / 3)
        assert short.substeps == 1
        assert FokkerPlanckSystem.build(mu, 0.1).substeps == 100
        want = rho
        for _ in range(3):
            want = fokker_planck_step(want, short)
        got = fokker_planck_step(rho, system)
        assert np.max(np.abs(got.values - want.values)) <= 1e-13 * np.max(want.values)

    def test_conserves_trapezoid_mass(self):
        # the solve itself, before the step renormalizes, keeps sum(w rho)
        mu = discretize(MU_SPEC, GRID)
        system = FokkerPlanckSystem.build(mu, 1e-3)
        w = GRID.trapezoid_weights
        for rho in islice(run_fokker_planck(discretize(DensitySpec.gaussian(0.5, 0.25), GRID),
                                            mu, 1e-3, 1000), 0, None, 100):
            held = w * rho.values
            assert abs(w @ system.solver.solve(held) - held.sum()) <= 1e-12

    def test_dip_stays_positive(self):
        # a dip to 1e-300 is a valid density; the step's M-matrix inverse is
        # positive, so the dip fills in and nothing turns negative
        mu = discretize(MU_SPEC, GRID)
        vals = discretize(DensitySpec.gaussian(0.5, 1.0), GRID).values.copy()
        vals[GRID.n // 3] = 1e-300
        nxt = fokker_planck_step(GridDensity.from_unnormalized(GRID, vals),
                                 FokkerPlanckSystem.build(mu, 1e-3))
        assert np.all(nxt.values > 0.0)
        assert nxt.values[GRID.n // 3] > 1e-4

    def test_first_order_in_dt(self):
        # the variance error halves with the solve length; a step twice
        # FP_MAX_SUBSTEP splits into two solves and keeps the error of one
        grid = Grid(-8.0, 8.0, 2048)
        mu = discretize(MU_SPEC, grid)
        rho = discretize(DensitySpec.gaussian(0.0, 0.25), grid)
        ref = scale_variance_fokker_planck(0.5, 0.5)
        errs = []
        for dt in (2 * FP_MAX_SUBSTEP, FP_MAX_SUBSTEP, FP_MAX_SUBSTEP / 2, FP_MAX_SUBSTEP / 4):
            *_, last = run_fokker_planck(rho, mu, dt, int(round(0.5 / dt)))
            errs.append(abs(last.variance() - ref))
        assert errs[0] == pytest.approx(errs[1], rel=1e-9)
        assert 1.8 <= errs[1] / errs[2] <= 2.2
        assert 1.8 <= errs[2] / errs[3] <= 2.2

    def test_grid_mismatch_is_a_domain_error(self):
        system = FokkerPlanckSystem.build(discretize(MU_SPEC, GRID), 1e-3)
        with pytest.raises(DomainError):
            fokker_planck_step(discretize(MU_SPEC, Grid(-8.0, 8.0, 256)), system)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -1e-3])
    def test_bad_dt_is_a_domain_error(self, dt):
        with pytest.raises(DomainError):
            FokkerPlanckSystem.build(discretize(MU_SPEC, GRID), dt)

    def test_fp_continuity_residual_law(self):
        mu = discretize(MU_SPEC, GRID)
        rho = discretize(DensitySpec.gaussian(0.5, 1.0), GRID)
        hist = list(run_fokker_planck(rho, mu, 1e-3, 501))
        prev, nxt = hist[500], hist[501]
        flux_div = grad_central(prev.values * fp_velocity(prev, mu), GRID.spacing)
        resid = (nxt.values - prev.values) / 1e-3 + flux_div
        assert np.max(np.abs(resid[GRID.interior_slice()])) < 0.05


class TestStepSizes:
    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_dt(self, dt):
        with pytest.raises(DomainError):
            step(gaussian_flow_state(GRID, mean=0.5), dt)

    @pytest.mark.parametrize("max_substep", [0.0, -1e-4, np.nan, np.inf])
    def test_max_substep_must_be_finite_and_positive(self, max_substep):
        with pytest.raises(DomainError):
            step(gaussian_flow_state(GRID, mean=0.5), 1e-3, max_substep=max_substep)


class TestResiduals:
    def test_stationary_values(self, stationary_state):
        nxt = step(stationary_state, 1e-3)
        assert dual_pma_residual(stationary_state, nxt) < 1e-3
        assert continuity_residual(stationary_state, nxt) < 1e-4

    def test_location_magnitudes(self, location_run):
        i = 500
        assert dual_pma_residual(location_run[i], location_run[i + 1]) < 5e-2
        assert continuity_residual(location_run[i], location_run[i + 1]) < 0.05

    def test_joint_refinement(self):
        # dt halving with grid doubling, trajectory substep pinned so the
        # diagnostic truncation is what the comparison measures
        sub = 6.25e-5
        res = {}
        for n, dt in ((512, 1e-3), (1024, 5e-4)):
            g = Grid(-8.0, 8.0, n)
            st = gaussian_flow_state(g, mean=0.5)
            k = int(round(0.5 / dt))
            states = list(run_flow(st, dt, k + 1, max_substep=sub))
            res[n] = (dual_pma_residual(states[k], states[k + 1]),
                      continuity_residual(states[k], states[k + 1]))
        assert res[512][0] / res[1024][0] >= 1.8
        assert res[512][1] / res[1024][1] >= 1.8

    def test_gauge_consistency(self, location_run):
        # the pullback h against f minus the centered time derivative of u
        prev, mid, nxt = location_run[299:302]
        dudt = (nxt.u.u - prev.u.u) / (nxt.t - prev.t)
        gap = mid.mu_spec.f(GRID.nodes) - dudt - mid.h
        assert np.max(np.abs(gap[GRID.interior_slice()])) < 1e-3


class TestMetricDerivative:
    def test_location_ratio(self, location_run):
        rows = metric_derivative_lot(location_run, 0.5, (0.1, 0.05, 0.025))
        assert [r["delta"] for r in rows] == [0.1, 0.05, 0.025]
        assert abs(rows[-1]["ratio"] - 1.0) <= 0.05
        # the ratio improves monotonically as delta shrinks
        gaps = [abs(r["ratio"] - 1.0) for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_stationary_sentinel(self, stationary_state):
        states = list(run_flow(stationary_state, 1e-3, 30))
        rows = metric_derivative_lot(states, 0.0, (0.025,))
        assert rows[0]["ratio"] == 0.0

    def test_second_order_pushforward(self, location_run):
        gap, base = second_order_lot_gap(location_run, 0.5, 0.025)
        assert gap <= 0.1 * base


class TestKlDecay:
    def test_location_saturates_bound(self, location_run):
        rows = kl_decay_series(location_run[::50])
        assert all(r["within"] for r in rows)
        last = rows[-1]
        assert last["kl"] / last["bound"] == pytest.approx(1.0, abs=0.01)

    def test_stationary_zero(self, stationary_state):
        states = list(run_flow(stationary_state, 1e-3, 10))
        rows = kl_decay_series(states)
        assert all(r["kl"] <= r["bound"] + 1e-9 for r in rows)
        assert rows[0]["kl"] < 1e-9

    def test_scale_beats_fokker_planck(self):
        # entropic flow closes its variance deficit faster; at t = 1 the
        # run-based deficit ratio already clears the guaranteed envelope
        eta = 0.5
        state = gaussian_flow_state(GRID, variance=eta * eta)
        states = list(islice(run_flow(state, 1e-3, 1000), 0, None, 100))
        mu = discretize(MU_SPEC, GRID)
        rho_fp = discretize(DensitySpec.gaussian(0.0, eta * eta), GRID)
        fp_hist = list(run_fokker_planck(rho_fp, mu, 1e-3, 1000))
        kl_s = kl_divergence(states[-1].rho, mu)
        kl_f = kl_divergence(fp_hist[-1], mu)
        assert kl_s < kl_f
        lhs = (1.0 - fp_hist[-1].variance()) / (1.0 - states[-1].rho.variance())
        rhs = (1 + eta) ** 2 / 4.0 * math.exp(2.0 * (1.0 / eta - 1.0))
        assert lhs >= rhs


class TestMirrorFlows:
    def test_entropy_flow_variance(self):
        state = make_flow_state(GRID, MU_SPEC, MU_SPEC, ConvexPotential.quadratic(GRID),
                                functional=Functional.entropy())
        states = list(islice(run_flow(state, 1e-3, 1000), 0, None, 500))
        for s in states[1:]:
            ref = (1.0 + s.t) ** 2
            assert abs(s.rho.variance() - ref) <= 0.02 * ref

    def test_potential_energy_flow_variance(self):
        state = make_flow_state(GRID, MU_SPEC, MU_SPEC, ConvexPotential.quadratic(GRID),
                                functional=Functional.potential_energy())
        states = list(islice(run_flow(state, 1e-3, 1000), 0, None, 500))
        for s in states[1:]:
            ref = 1.0 / (1.0 + s.t) ** 2
            assert abs(s.rho.variance() - ref) <= 0.02 * ref

    def test_entropy_mirror_identity(self):
        # gradient map of the evolving potential stays x/(1+t)
        state = make_flow_state(GRID, MU_SPEC, MU_SPEC, ConvexPotential.quadratic(GRID),
                                functional=Functional.entropy())
        states = list(run_flow(state, 1e-3, 500))
        s = states[-1]
        keep = GRID.interior_slice()
        assert np.max(np.abs(s.u.du - GRID.nodes / (1.0 + s.t))[keep]) < 2e-3


def reference_step(state, dt, max_substep=None):
    """The flow step written with a new array for every intermediate, as it
    was before the substeps ran in place."""
    grid = state.grid
    h_sp = grid.spacing
    xs = grid.nodes
    u_vals = state.u.u.copy()
    h_cur = np.asarray(state.h)
    sup_rhs_prev = float(np.max(np.abs(variation(state.functional, xs, h_cur))))
    dt_stable = CFL_FACTOR * h_sp * h_sp * float(np.min(state.u.d2u))
    if max_substep is not None:
        dt_stable = min(dt_stable, max_substep)
    n_sub = max(1, math.ceil(dt / dt_stable))
    dt_sub = dt / n_sub
    du = state.u.du.copy()
    d2u = state.u.d2u.copy()
    proj_mag = 0.0
    for _ in range(n_sub):
        rhs = variation(state.functional, xs, h_cur)
        u_vals = u_vals + dt_sub * rhs
        du = grad_central(u_vals, h_sp)
        d2u = second_central(u_vals, h_sp)
        low = float(np.min(d2u))
        if low < state.a_floor:
            proj_mag = max(proj_mag, state.a_floor - low)
            d2u = np.maximum(d2u, state.a_floor)
            mid = grid.n // 2
            du_new = np.concatenate(([0.0], np.cumsum(0.5 * h_sp * (d2u[1:] + d2u[:-1]))))
            du = du_new - du_new[mid] + du[mid]
            u_new = np.concatenate(([0.0], np.cumsum(0.5 * h_sp * (du[1:] + du[:-1]))))
            u_vals = u_new - u_new[mid] + u_vals[mid]
        if float(np.max(d2u)) > state.b_cap:
            raise ConvexityLost("Hessian samples exceeded the configured cap")
        h_cur = state.nu_spec.f(du) - np.log(d2u)
    sup_rhs_new = float(np.max(np.abs(variation(state.functional, xs, h_cur))))
    if sup_rhs_new > 10.0 * sup_rhs_prev + 1e-8:
        raise StabilityError("flow derivative grew in one step")
    u_next = ConvexPotential(grid, u_vals, du, d2u, floor=state.a_floor)
    raw = np.exp(-h_cur)
    mass = grid.integrate(raw)
    rho_next = GridDensity(grid, raw / mass)
    pushed = pushforward_values_linear(rho_next, du)
    pushed /= grid.integrate(pushed)
    if float(np.max(np.abs(pushed - state.nu.values))) > PUSHFORWARD_TOL:
        raise StabilityError("transport constraint drifted")
    t_next = state.t + dt
    return replace(
        state, t=t_next, u=u_next, h=h_cur, rho=rho_next,
        bounds=state.bounds.merged(float(np.min(d2u)), float(np.max(d2u)), t_next),
        rho_mass_error=abs(mass - 1.0), projection_magnitude=proj_mag,
    )


def assert_same_flow_state(got, want):
    for name in ("u", "du", "d2u"):
        assert np.array_equal(getattr(got.u, name), getattr(want.u, name)), name
    assert np.array_equal(got.h, want.h)
    assert np.array_equal(got.rho.values, want.rho.values)
    assert got.projection_magnitude == want.projection_magnitude
    assert got.rho_mass_error == want.rho_mass_error
    assert got.bounds == want.bounds
    assert got.t == want.t


class ReferenceSpec(DensitySpec):
    """DensitySpec.f as it was before it skipped a zero log_norm: the
    callable wrapped in np.asarray on both sides, log_norm always added."""

    def f(self, x):
        return np.asarray(self.log_density_neg(np.asarray(x, dtype=float))) + self.log_norm


def reference_gaussian(mean, variance):
    """The Gaussian spec as it was, one temporary per operation."""
    c = 0.5 * math.log(2.0 * math.pi * variance)
    return ReferenceSpec(
        log_density_neg=lambda x: (x - mean) ** 2 / (2.0 * variance) + c,
        grad=lambda x: (x - mean) / variance,
        hess=lambda x: np.full_like(np.asarray(x, dtype=float), 1.0 / variance),
    )


@pytest.mark.parametrize("nu_mean, nu_variance", [(0.5, 1.0), (0.0, 0.25)],
                         ids=["location", "scale"])
def test_density_spec_f_unchanged_along_flow(nu_mean, nu_variance):
    # 100 steps at n = 2048 give the same states bit for bit with the
    # one-buffer Gaussian spec and with the spec as it was
    grid = Grid(-8.0, 8.0, 2048)
    u0 = ConvexPotential.quadratic(grid)
    got = make_flow_state(grid, MU_SPEC, DensitySpec.gaussian(nu_mean, nu_variance), u0)
    want = make_flow_state(grid, reference_gaussian(0.0, 1.0),
                           reference_gaussian(nu_mean, nu_variance), u0)
    assert_same_flow_state(got, want)
    for _ in range(100):
        got = step(got, 1e-3)
        want = step(want, 1e-3)
        assert_same_flow_state(got, want)


def flattener_state():
    return make_flow_state(GRID, MU_SPEC, MU_SPEC, ConvexPotential.quadratic(GRID),
                           functional=Flattener(), a_floor=0.9)


class TestInPlaceSubsteps:
    """The in-place substeps reproduce the allocating loops bit for bit."""

    @staticmethod
    def check_steps(state, dt, steps, max_substep=None):
        got = want = state
        for _ in range(steps):
            got = step(got, dt, max_substep=max_substep)
            want = reference_step(want, dt, max_substep=max_substep)
            assert_same_flow_state(got, want)
        return got

    @pytest.mark.parametrize("n", [256, 2048])
    def test_location(self, n):
        self.check_steps(gaussian_flow_state(Grid(-8.0, 8.0, n), mean=0.5), 1e-3, 4)

    @pytest.mark.parametrize("n", [256, 2048])
    def test_scale(self, n):
        self.check_steps(gaussian_flow_state(Grid(-8.0, 8.0, n), variance=0.25), 1e-3, 4)

    @pytest.mark.parametrize("functional", [Functional.entropy(), Functional.potential_energy()])
    def test_mirror_functionals(self, functional):
        state = make_flow_state(GRID, MU_SPEC, MU_SPEC, ConvexPotential.quadratic(GRID),
                                functional=functional)
        self.check_steps(state, 1e-3, 6)

    def test_clamp_branch(self):
        last = self.check_steps(flattener_state(), 0.05, 2)
        assert last.projection_magnitude > 0.0

    def test_max_substep(self):
        self.check_steps(gaussian_flow_state(GRID, mean=0.5), 1e-3, 4, max_substep=6.25e-5)

    @pytest.mark.parametrize("bad", [np.nan, 0.0, np.inf], ids=["nan", "zero", "inf"])
    def test_fokker_planck_rejects_a_bad_value(self, bad):
        # the implicit solve would map a zero to a positive value, so the
        # step checks its input
        mu = discretize(MU_SPEC, GRID)
        rho = discretize(DensitySpec.gaussian(0.5, 1.0), GRID)
        vals = rho.values.copy()
        vals[GRID.n // 3] = bad
        # past the density's own checks, as a corrupted state would arrive
        object.__setattr__(rho, "values", vals)
        with np.errstate(all="ignore"), pytest.raises(StabilityError):
            fokker_planck_step(rho, FokkerPlanckSystem.build(mu, 1e-3))
