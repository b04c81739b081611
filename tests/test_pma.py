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
    EXPLICIT_MAX_SUBSTEPS,
    HESSIAN_CAP,
    MAX_SUBSTEP,
    PUSHFORWARD_TOL,
    ROS2_GAMMA,
    FokkerPlanckSystem,
    Functional,
    Ros2Factor,
    fokker_planck_step,
    kl_decay_series,
    make_flow_state,
    metric_derivative_lot,
    run_fokker_planck,
    run_flow,
    second_order_lot_gap,
    step,
    velocity,
    _ros2_entries,
)
from sinkflow.transport import ConvexPotential

from conftest import gaussian_flow_state
from reference import continuity_residual, dual_pma_residual, interior_slice, uniform_spec

GRID = Grid(-8.0, 8.0, 512)
MU_SPEC = DensitySpec.gaussian(0.0, 1.0)


def floored_identity(grid, floor):
    """The identity mirror x^2/2 with convexity floor ``floor``."""
    return replace(ConvexPotential.quadratic(grid), floor=floor)


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
        keep = interior_slice(GRID)
        assert np.max(np.abs(flow_rhs(stationary_state))[keep]) < 1e-3

    def test_location_initial_rhs(self):
        # with the identity mirror the time derivative is f - g:
        # theta*x - theta^2/2 for unit-variance marginals
        state = gaussian_flow_state(GRID, mean=0.5)
        expected = 0.5 * GRID.nodes - 0.125
        keep = interior_slice(GRID)
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
        pushed = pushforward_values_linear(GRID, s.rho.log_values, s.u.du)
        pushed /= GRID.integrate(pushed)
        assert np.max(np.abs(pushed - s.nu.values)) < 5e-3

    def test_hessian_window_monitored(self, location_run):
        last = location_run[-1]
        assert min(s.u.hessian_min for s in location_run) >= last.u.floor
        assert max(s.u.hessian_max for s in location_run) <= HESSIAN_CAP

    def test_projection_never_fires_on_clean_runs(self, location_run):
        assert all(s.projection_magnitude <= 1e-6 for s in location_run)

    def test_mass_drift_logged(self, location_run):
        assert all(s.rho_mass_error < 1e-6 for s in location_run)

    def test_convexity_cap(self, monkeypatch):
        monkeypatch.setattr("sinkflow.pma.HESSIAN_CAP", 0.9)
        state = gaussian_flow_state(GRID, mean=0.5)
        with pytest.raises(ConvexityLost):
            step(state, 1e-3)

    def test_convexity_projection_repairs_floor(self):
        # the projection must clamp, rebuild, and log its magnitude
        state = make_flow_state(GRID, MU_SPEC, MU_SPEC, floored_identity(GRID, 0.9),
                                functional=Flattener())
        moved = step(state, 0.1)
        assert moved.projection_magnitude > 0.0
        assert float(np.min(moved.u.d2u)) >= 0.9


class TestVelocity:
    def test_stationary_velocity_vanishes(self, stationary_state):
        keep = interior_slice(GRID)
        assert np.max(np.abs(velocity(stationary_state).values)[keep]) < 1e-4

    def test_location_velocity_constant(self):
        state = gaussian_flow_state(GRID, mean=0.5)
        keep = interior_slice(GRID)
        assert np.max(np.abs(velocity(state).values + 0.5)[keep]) < 1e-6

    def test_two_chart_agreement(self, location_run):
        s = location_run[250]
        keep = interior_slice(GRID)
        mirror_chart = -grad_central(flow_rhs(s), GRID.spacing) / s.u.d2u
        gap = np.abs(velocity(s).values - mirror_chart)
        assert np.max(gap[keep]) < 1e-3

    def test_reduces_to_fokker_planck_for_identity_mirror(self):
        state = gaussian_flow_state(GRID, mean=0.5)
        fp = fp_velocity(state.rho, state.mu)
        keep = interior_slice(GRID)
        assert np.max(np.abs(velocity(state).values - fp)[keep]) < 1e-6

    def test_velocity_envelope(self, location_run):
        from sinkflow.grids import grad_central
        s = location_run[100]
        bound = (np.max(np.abs(MU_SPEC.grad(GRID.nodes)))
                 + np.max(np.abs(grad_central(np.asarray(s.h), GRID.spacing))))
        assert np.max(np.abs(velocity(s).values)) <= bound / s.u.hessian_min + 1e-9


class TestFokkerPlanckStep:
    def test_location_moments(self):
        mu = discretize(MU_SPEC, GRID)
        rho = discretize(DensitySpec.gaussian(0.5, 1.0), GRID)
        hist = list(run_fokker_planck(rho, FokkerPlanckSystem.build(mu, 1e-3), 1000))
        final = hist[-1]
        assert abs(final.mean() - 0.5 * math.exp(-1.0)) <= 0.01 * 0.5 * math.exp(-1.0)
        assert abs(final.variance() - 1.0) <= 0.01

    def test_scale_variance(self):
        mu = discretize(MU_SPEC, GRID)
        rho = discretize(DensitySpec.gaussian(0.0, 0.25), GRID)
        hist = list(run_fokker_planck(rho, FokkerPlanckSystem.build(mu, 1e-3), 1000))
        ref = scale_variance_fokker_planck(0.5, 1.0)
        assert abs(hist[-1].variance() - ref) <= 0.01 * ref

    def test_stationary_density_unchanged(self):
        # Scharfetter-Gummel fluxes vanish on mu itself, so only roundoff moves it
        mu = discretize(MU_SPEC, GRID)
        hist = list(run_fokker_planck(mu, FokkerPlanckSystem.build(mu, 1e-3), 1000))
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
        # a step longer than MAX_SUBSTEP runs equal sub-solves of one
        # factored system, the same as as many short steps
        mu = discretize(MU_SPEC, GRID)
        rho = discretize(DensitySpec.gaussian(0.5, 0.25), GRID)
        system = FokkerPlanckSystem.build(mu, 2.5 * MAX_SUBSTEP)
        assert system.substeps == 3
        short = FokkerPlanckSystem.build(mu, 2.5 * MAX_SUBSTEP / 3)
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
                                            system, 1000), 0, None, 100):
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
        # MAX_SUBSTEP splits into two solves and keeps the error of one
        grid = Grid(-8.0, 8.0, 2048)
        mu = discretize(MU_SPEC, grid)
        rho = discretize(DensitySpec.gaussian(0.0, 0.25), grid)
        ref = scale_variance_fokker_planck(0.5, 0.5)
        errs = []
        for dt in (2 * MAX_SUBSTEP, MAX_SUBSTEP, MAX_SUBSTEP / 2, MAX_SUBSTEP / 4):
            system = FokkerPlanckSystem.build(mu, dt)
            *_, last = run_fokker_planck(rho, system, int(round(0.5 / dt)))
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
        hist = list(run_fokker_planck(rho, FokkerPlanckSystem.build(mu, 1e-3), 501))
        prev, nxt = hist[500], hist[501]
        flux_div = grad_central(prev.values * fp_velocity(prev, mu), GRID.spacing)
        resid = (nxt.values - prev.values) / 1e-3 + flux_div
        assert np.max(np.abs(resid[interior_slice(GRID)])) < 0.05


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
        assert np.max(np.abs(gap[interior_slice(GRID)])) < 1e-3


class TestMetricDerivative:
    def test_location_ratio(self, location_run):
        ahead = [location_run[i] for i in (600, 550, 525)]
        rows = metric_derivative_lot(location_run[500], ahead, (0.1, 0.05, 0.025))
        assert [r["delta"] for r in rows] == [0.1, 0.05, 0.025]
        assert abs(rows[-1]["ratio"] - 1.0) <= 0.05
        # the ratio improves monotonically as delta shrinks
        gaps = [abs(r["ratio"] - 1.0) for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_stationary_sentinel(self, stationary_state):
        states = list(run_flow(stationary_state, 1e-3, 30))
        rows = metric_derivative_lot(states[0], [states[25]], (0.025,))
        assert rows[0]["ratio"] == 0.0

    def test_second_order_pushforward(self, location_run):
        gap, base = second_order_lot_gap(location_run[500], location_run[525], 0.025)
        assert gap <= 0.1 * base

    def test_state_not_delta_ahead_rejected(self, location_run):
        # t = 0.55 is 0.05, not 0.1 or 0.025, ahead of t = 0.5
        with pytest.raises(DomainError):
            metric_derivative_lot(location_run[500], [location_run[550]], (0.1,))
        with pytest.raises(DomainError):
            second_order_lot_gap(location_run[500], location_run[550], 0.025)


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
        fp_hist = list(run_fokker_planck(rho_fp, FokkerPlanckSystem.build(mu, 1e-3), 1000))
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
        keep = interior_slice(GRID)
        assert np.max(np.abs(s.u.du - GRID.nodes / (1.0 + s.t))[keep]) < 2e-3


def reference_step(state, dt, max_substep=None):
    """The explicit flow step written out on its own: a new array for every
    intermediate, the CFL count from the d2u samples, and the first
    variation from the functional at every substep."""
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
        if low < state.u.floor:
            proj_mag = max(proj_mag, state.u.floor - low)
            d2u = np.maximum(d2u, state.u.floor)
            mid = grid.n // 2
            du_new = np.concatenate(([0.0], np.cumsum(0.5 * h_sp * (d2u[1:] + d2u[:-1]))))
            du = du_new - du_new[mid] + du[mid]
            u_new = np.concatenate(([0.0], np.cumsum(0.5 * h_sp * (du[1:] + du[:-1]))))
            u_vals = u_new - u_new[mid] + u_vals[mid]
        if float(np.max(d2u)) > HESSIAN_CAP:
            raise ConvexityLost("Hessian samples exceeded HESSIAN_CAP")
        h_cur = state.nu_spec.f(du) - np.log(d2u)
    sup_rhs_new = float(np.max(np.abs(variation(state.functional, xs, h_cur))))
    if sup_rhs_new > 10.0 * sup_rhs_prev + 1e-8:
        raise StabilityError("flow derivative grew in one step")
    u_next = ConvexPotential(grid, u_vals, du, d2u, floor=state.u.floor)
    raw = np.exp(-h_cur)
    mass = grid.integrate(raw)
    rho_next = GridDensity(grid, raw / mass)
    pushed = pushforward_values_linear(grid, -h_cur - math.log(mass), du)
    pushed /= grid.integrate(pushed)
    drift = float(np.max(np.abs(pushed - state.nu.values)))
    if drift > PUSHFORWARD_TOL:
        raise StabilityError("transport constraint drifted")
    t_next = state.t + dt
    return replace(
        state, t=t_next, u=u_next, h=h_cur, rho=rho_next,
        rho_mass_error=abs(mass - 1.0), projection_magnitude=proj_mag,
        substeps=n_sub, transport_drift=drift, derivative_growth=sup_rhs_new / sup_rhs_prev,
    )


def assert_same_flow_state(got, want):
    for name in ("u", "du", "d2u"):
        assert np.array_equal(getattr(got.u, name), getattr(want.u, name)), name
    assert np.array_equal(got.h, want.h)
    assert np.array_equal(got.rho.values, want.rho.values)
    assert got.projection_magnitude == want.projection_magnitude
    assert got.rho_mass_error == want.rho_mass_error
    assert got.u.hessian_min == want.u.hessian_min
    assert got.u.hessian_max == want.u.hessian_max
    assert got.t == want.t
    assert got.substeps == want.substeps
    assert got.transport_drift == want.transport_drift
    assert got.derivative_growth == want.derivative_growth
    assert got.factorizations == want.factorizations


class ReferenceSpec(DensitySpec):
    """DensitySpec.f as it was before it handed the callable's array back:
    wrapped in np.asarray on both sides, a zero log normalizer added."""

    def f(self, x):
        return np.asarray(self.log_density_neg(np.asarray(x, dtype=float))) + 0.0


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


def flattener_state(grid=GRID, functional=Flattener()):
    return make_flow_state(grid, MU_SPEC, MU_SPEC, floored_identity(grid, 0.9),
                           functional=functional)


class TestHessianRange:
    """Each state's mirror holds the smallest and largest samples of its
    u'' as hessian_min and hessian_max."""

    @staticmethod
    def assert_range(states):
        for s in states:
            assert s.u.hessian_min == np.min(s.u.d2u)
            assert s.u.hessian_max == np.max(s.u.d2u)

    def test_clamped_run(self):
        # the Flattener drives u'' through the floor 0.9, so each step clamps,
        # and every step hands the start mirror's floor on
        states = list(run_flow(flattener_state(), 0.1, 3))
        assert all(s.u.floor == 0.9 for s in states)
        assert all(s.projection_magnitude > 0.0 for s in states[1:])
        assert all(s.u.hessian_min == 0.9 for s in states[1:])
        self.assert_range(states)

    def test_ros2_run(self):
        # the scale flow at n = 1024 takes ROS2 substeps (CFL count 17)
        states = list(run_flow(gaussian_flow_state(Grid(-8.0, 8.0, 1024), variance=0.25),
                               1e-3, 20))
        assert states[1].factorizations == 1
        assert states[-1].u.hessian_min < 1.0
        self.assert_range(states)


# a step the explicit path takes at each grid size: CFL counts 1 and 14
EXPLICIT_DT = {256: 1e-3, 2048: 2e-4}


class TestInPlaceSubsteps:
    """The explicit substeps of step reproduce reference_step bit for bit."""

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
        self.check_steps(gaussian_flow_state(Grid(-8.0, 8.0, n), mean=0.5), EXPLICIT_DT[n], 4)

    @pytest.mark.parametrize("n", [256, 2048])
    def test_scale(self, n):
        self.check_steps(gaussian_flow_state(Grid(-8.0, 8.0, n), variance=0.25),
                         EXPLICIT_DT[n], 4)

    @pytest.mark.parametrize("functional", [Functional.entropy(), Functional.potential_energy()])
    def test_mirror_functionals(self, functional):
        state = make_flow_state(GRID, MU_SPEC, MU_SPEC, ConvexPotential.quadratic(GRID),
                                functional=functional)
        self.check_steps(state, 1e-3, 6)

    def test_clamp_branch(self):
        # n = 128 keeps dt = 0.05 explicit: CFL counts 13 and 15
        last = self.check_steps(flattener_state(Grid(-8.0, 8.0, 128)), 0.05, 2)
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


GRID_2048 = Grid(-8.0, 8.0, 2048)


def crusher_state():
    """A steeply concave entropic variation: every ROS2 stage loses convexity."""
    crusher = Functional(lambda xs: -5e3 * xs**2, lambda xs: -1e4 * xs, entropic=True)
    return make_flow_state(GRID_2048, MU_SPEC, MU_SPEC, ConvexPotential.quadratic(GRID_2048),
                           functional=crusher)


JACOBIAN_PROFILES = {
    "flat-target-uniform-hessian": (lambda xs: np.ones_like(xs), np.zeros_like),
    "gaussian-target": (lambda xs: 1.2 + 0.5 * np.cos(xs), lambda xs: 4.0 * xs),
    "flat-target-curved-hessian": (lambda xs: 1.0 / (1.0 + 0.3 * (xs / 8.0) ** 2), np.zeros_like),
}


def dense_w(d2u, g1, gamma_tau, h):
    """The dense W = I - gamma_tau (diag(1/u'') D2 - diag(g') D1), with J
    built column by column from the stencils of second_central and
    grad_central at spacing h."""
    eye = np.eye(d2u.size)
    d1 = np.column_stack([grad_central(e, h) for e in eye])
    d2 = np.column_stack([second_central(e, h) for e in eye])
    return eye - gamma_tau * (d2 / d2u[:, None] - g1[:, None] * d1)


def count_factorizations(monkeypatch):
    """A list that gains one entry per ROS2 factorization."""
    built = []
    real = Ros2Factor.build
    monkeypatch.setattr(Ros2Factor, "build", lambda *args: built.append(1) or real(*args))
    return built


class TestRos2Step:
    """Steps whose CFL count exceeds EXPLICIT_MAX_SUBSTEPS: ROS2 substeps."""

    def test_switch_at_the_explicit_limit(self):
        # u'' = 1, so the CFL count is ceil(dt / (CFL_FACTOR h^2))
        state = gaussian_flow_state(GRID_2048, mean=0.5)
        h = GRID_2048.spacing
        at_limit = EXPLICIT_MAX_SUBSTEPS * CFL_FACTOR * h * h    # count 16
        got = step(state, at_limit)
        assert got.substeps == EXPLICIT_MAX_SUBSTEPS
        assert_same_flow_state(got, reference_step(state, at_limit))
        # a dt past the limit by roundoff alone keeps the count and the branch
        assert step(state, at_limit * (1.0 + 1e-12)).substeps == EXPLICIT_MAX_SUBSTEPS
        beyond = (EXPLICIT_MAX_SUBSTEPS + 0.5) * CFL_FACTOR * h * h  # count 17
        assert step(state, beyond).substeps == 1

    @pytest.mark.parametrize("mean, variance", [(0.5, 1.0), (0.0, 0.25)],
                             ids=["location", "scale"])
    def test_gaussian_potential_stays_quadratic(self, mean, variance):
        # the exact end rows make W map quadratics to quadratics, so u stays
        # quadratic, with u'' = 1 on the location run.  Second differences
        # of values near 32 carry ~2e-10 of roundoff at this spacing, so
        # u'' is read off a least-squares fit; that roundoff enters log u''
        # at every step, and u gathers ~1e-10 of it over t = 0.5
        state = gaussian_flow_state(GRID_2048, mean=mean, variance=variance)
        xs = GRID_2048.nodes
        for i, s in enumerate(run_flow(state, 1e-3, 500)):
            if i % 50 == 0 and i > 0:
                assert s.substeps == 1
                fit = np.polyfit(xs, s.u.u, 2)
                if variance == 1.0:
                    assert abs(2.0 * fit[0] - 1.0) <= 1e-10
                assert np.max(np.abs(s.u.u - np.polyval(fit, xs))) <= 1e-9

    def test_second_order_in_the_substep(self):
        # scale problem at n = 1024 to t = 0.05 with substeps 1e-3 ... 1.25e-4:
        # the gap between runs at consecutive substeps falls four-fold
        state = gaussian_flow_state(Grid(-8.0, 8.0, 1024), variance=0.25)
        finals = []
        for sub in (1e-3, 5e-4, 2.5e-4, 1.25e-4):
            *_, last = run_flow(state, 1e-3, 50, max_substep=sub)
            assert last.substeps == round(1e-3 / sub)
            finals.append(last.u.u)
        keep = interior_slice(state.grid)
        gaps = [np.max(np.abs(a - b)[keep]) for a, b in zip(finals, finals[1:])]
        assert gaps[0] / gaps[1] >= 3.5
        assert gaps[1] / gaps[2] >= 3.5

    def test_max_substep_splits_into_equal_substeps(self):
        # one step of 1e-3 cut at 3e-4 runs four substeps of 2.5e-4, the same
        # arithmetic as four steps of 2.5e-4 (CFL count 17 each)
        state = gaussian_flow_state(GRID_2048, variance=0.25)
        got = step(state, 1e-3, max_substep=3e-4)
        assert got.substeps == 4
        want = state
        for _ in range(4):
            want = step(want, 2.5e-4)
            assert want.substeps == 1
        assert np.array_equal(got.u.u, want.u.u)
        assert np.array_equal(got.h, want.h)
        assert np.array_equal(got.rho.values, want.rho.values)

    @pytest.mark.parametrize("hessian, score, n", [
        pytest.param(*case, n, id=name if n == 256 else f"{name}-n{n}")
        for name, case in JACOBIAN_PROFILES.items() for n in (16, 256, 2048)])
    def test_system_solves_the_exact_jacobian(self, hessian, score, n):
        # W = I - gamma tau J, with J built column by column from the
        # stencils themselves; gamma tau / h^2 = 43, near the 28 of n = 2048
        # at dt = 1e-3.  An end row folded alone into tridiagonal form has a
        # zero pivot on the first case
        grid = Grid(-8.0, 8.0, n)
        xs, h = grid.nodes, grid.spacing
        d2u, g1 = hessian(xs), score(xs)
        gamma_tau = 43.0 * h * h
        w = dense_w(d2u, g1, gamma_tau, h)
        r = np.random.default_rng(3).standard_normal(n)
        want = np.linalg.solve(w, r)
        got = Ros2Factor.build(gamma_tau, *_ros2_entries(d2u, g1, gamma_tau, h)).solve(r.copy())
        bound = 1e-11
        if n == 16:
            # the worst conditioned W (cond_2 5e5 on the curved case): there
            # W's own roundoff moves the dense solve by 1.3e-11
            bound = 5.0 * np.linalg.cond(w) * np.finfo(float).eps
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

    def test_random_end_profiles_solve_to_the_condition_number(self):
        # 300 profiles at n = 64: gamma tau / h^2 log-uniform in [0.1, 1e4],
        # log u'' quadratic in the node index, and a score that is zero on
        # half of them and affine with |b_i| up to 2 a_i on the other half.
        # Each solve is within 5 cond_2(W) eps of a dense solve
        rng = np.random.default_rng(2026)
        n, gamma_tau = 64, 1.0
        offset = np.arange(n) - 0.5 * (n - 1)
        for k in range(300):
            ratio = 10.0 ** rng.uniform(-1.0, 4.0)
            log_d2u = rng.uniform(-0.1, 0.1) * offset + rng.uniform(-0.01, 0.01) * offset**2 / 2
            a = ratio / np.exp(log_d2u)
            b = np.zeros(n)
            if k % 2:
                shape = rng.uniform(-1.0, 1.0) + rng.uniform(-1.0, 1.0) * offset / offset[-1]
                b = rng.uniform(0.0, 2.0) * shape / np.max(np.abs(shape) / a)
            # at h = 1 and gamma tau = 1, u'' = 1/a and g' = 2b give W's entries a, b
            w = dense_w(1.0 / a, 2.0 * b, gamma_tau, 1.0)
            r = rng.standard_normal(n)
            want = np.linalg.solve(w, r)
            got = Ros2Factor.build(gamma_tau, a, b).solve(r.copy())
            error = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert error <= 5.0 * np.linalg.cond(w) * np.finfo(float).eps, k

    @pytest.mark.parametrize("entry, index", [("a", 0), ("b", -1), ("a", 32)],
                             ids=["head", "tail", "interior"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_are_a_stability_error(self, entry, index, bad):
        entries = {"a": np.full(64, 40.0), "b": np.linspace(-20.0, 20.0, 64)}
        entries[entry][index] = bad
        with pytest.raises(StabilityError):
            Ros2Factor.build(1.0, entries["a"], entries["b"])

    def test_flat_target_steps(self):
        # a uniform target has g' = 0, so u = x^2/2 flows as u'' = 1 + t
        # exactly: W keeps the x^2 coefficient, and the ROS2 weights sum it
        # to tau per step
        state = make_flow_state(GRID_2048, MU_SPEC, uniform_spec(-8.0, 8.0),
                                ConvexPotential.quadratic(GRID_2048))
        *_, last = run_flow(state, 1e-3, 200)
        assert last.substeps == 1
        fit = np.polyfit(GRID_2048.nodes, last.u.u, 2)
        assert abs(2.0 * fit[0] - 1.2) <= 1e-10

    def test_stage_losing_convexity_is_convexity_lost(self, monkeypatch):
        # a steeply concave variation turns u + tau k1 concave; on a newly
        # factored W that raises at once, with no retry
        built = count_factorizations(monkeypatch)
        with pytest.raises(ConvexityLost, match="stage"):
            step(crusher_state(), 1e-3)
        assert len(built) == 1

    def test_clamp_branch(self):
        # an entropic variation that flattens u drives u'' through the 0.9
        # floor within 0.05; the ROS2 substeps clamp and rebuild
        flattener = Functional(lambda xs: -(xs**2), lambda xs: -2.0 * xs, entropic=True)
        state = flattener_state(GRID_2048, flattener)
        moved = step(step(state, 0.05), 0.05)
        assert moved.substeps == 50
        assert moved.projection_magnitude > 0.0
        assert float(np.min(moved.u.d2u)) >= 0.9


def fitted_factor(state, tau=1e-3, d2u_scale=1.0):
    """The ROS2 factor of W at the state's own u'' (times ``d2u_scale``) for
    substeps of tau."""
    gamma_tau = ROS2_GAMMA * tau
    return Ros2Factor.build(gamma_tau, *_ros2_entries(
        d2u_scale * state.u.d2u, state.nu_spec.grad(state.u.du), gamma_tau, state.grid.spacing))


class TestLaggedW:
    """A ROS2 substep reuses the factored W its state carries while W's
    entries at the current state stay within W_DRIFT_TOL of it."""

    def test_location_flow_factors_once(self):
        # u'' = 1 keeps a fixed, and b moves 1e-3 of the diagonal in 50 steps
        counts = [s.factorizations for s in run_flow(
            gaussian_flow_state(GRID_2048, mean=0.5), 1e-3, 50)]
        assert counts == [0, 1] + [0] * 49

    def test_stale_factor_is_refactored(self):
        # a factor for u'' four times the state's fails the drift rule, so the
        # step runs exactly as from a state that carries none
        state = gaussian_flow_state(GRID_2048, variance=0.25)
        got = step(replace(state, ros2=fitted_factor(state, d2u_scale=4.0)), 1e-3)
        want = step(state, 1e-3)
        assert got.factorizations == 1
        assert_same_flow_state(got, want)

    def test_new_substep_length_refactors(self):
        # a substep 1% shorter moves W's entries by 1%, within the drift
        # rule; the factor is still rebuilt for the new gamma_tau
        moved = step(gaussian_flow_state(GRID_2048, mean=0.5), 1e-3)
        assert step(moved, 1e-3).factorizations == 0
        assert step(moved, 0.99e-3).factorizations == 1
        halved = step(moved, 1e-3, max_substep=5e-4)
        assert (halved.substeps, halved.factorizations) == (2, 1)
        assert halved.ros2.gamma_tau == ROS2_GAMMA * 5e-4

    def test_convexity_lost_on_a_reused_factor_refactors(self):
        # a carried factor whose entries fit but whose solve scales by 1e4:
        # the scale problem's variation has curvature -3, so the stage
        # u'' = 1 - 3e-3 * 1e4 < 0, and the substep retries on a new factor
        state = gaussian_flow_state(GRID_2048, variance=0.25)
        fit = fitted_factor(state)
        bogus = replace(fit, solve=lambda r: 1e4 * r)
        got = step(replace(state, ros2=bogus), 1e-3)
        assert got.factorizations == 1
        assert_same_flow_state(got, step(state, 1e-3))

    def test_convexity_lost_after_the_retry_raises(self, monkeypatch):
        # the crusher's stage is concave on any W: the reused factor fails,
        # and so does the one retry on a new factor
        state = crusher_state()
        state = replace(state, ros2=fitted_factor(state))
        built = count_factorizations(monkeypatch)
        with pytest.raises(ConvexityLost, match="stage"):
            step(state, 1e-3)
        assert len(built) == 1

    def test_shared_factor_carries_nothing_over(self):
        # two states share one factor; stepping one of them in between does
        # not change what the other steps to
        *_, start = run_flow(gaussian_flow_state(GRID_2048, variance=0.25), 1e-3, 20)
        first = step(start, 1e-3)
        assert first.factorizations == 0 and first.ros2 is start.ros2
        step(step(first, 1e-3), 1e-3)
        assert_same_flow_state(step(start, 1e-3), first)

    def test_second_order_over_a_scale_run(self):
        # n = 512, dt = 0.05 to t = 0.5 with substeps 1e-3, 5e-4 and 2.5e-4:
        # 13, 11 and 9 factorizations, and the variance error falls 3.91x per
        # halving, as with a new W every substep
        state = gaussian_flow_state(GRID, variance=0.25)
        errors = []
        for sub in (1e-3, 5e-4, 2.5e-4):
            *_, last = run_flow(state, 0.05, 10, max_substep=sub)
            errors.append(last.rho.variance() - scale_variance_entropic(0.5, last.t))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.6 <= coarse / fine <= 4.4
