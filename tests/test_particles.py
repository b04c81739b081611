import math

import numpy as np
import pytest

from sinkflow.errors import DomainError, ParticleEscape
from sinkflow.grids import DensitySpec, Grid, discretize, grad_central, second_central
from sinkflow.particles import (
    ESCAPE_MARGIN,
    ParticleEnsemble,
    dual_sde_coefficients,
    dual_sde_step,
    ks_distance,
    markov_chain_step,
    noise_block,
    sinkhorn_sde_coefficients,
    sinkhorn_sde_step,
    uniform_block,
)
from sinkflow.pma import inverse_gradient_map, make_flow_state, step
from sinkflow.sinkhorn import _kernel_draw, _log_kernel, initial_state, s_step
from sinkflow.transport import ConvexPotential

from conftest import gaussian_flow_state

GRID = Grid(-8.0, 8.0, 512)
STD_SPEC = DensitySpec.gaussian(0.0, 1.0)
STD = discretize(STD_SPEC, GRID)
COSH_MIRROR = (lambda x: 0.5 * x**2 + 0.4 * np.cosh(x / 2.0),
               lambda x: x + 0.2 * np.sinh(x / 2.0),
               lambda x: 1.0 + 0.1 * np.cosh(x / 2.0))
LOG_COSH_MIRROR = (lambda x: 0.5 * x**2 + np.log(np.cosh(x)),
                   lambda x: x + np.tanh(x),
                   lambda x: 2.0 - np.tanh(x) ** 2)


class TestNoise:
    def test_block_determinism(self):
        a = noise_block(7, 3, 100)
        b = noise_block(7, 3, 100)
        assert np.array_equal(a, b)

    def test_prefix_stability(self):
        # particle i's noise does not depend on how many particles exist
        small = noise_block(7, 3, 100)
        large = noise_block(7, 3, 1000)
        assert np.array_equal(small, large[:100])

    def test_streams_distinct(self):
        assert not np.array_equal(noise_block(7, 3, 100), noise_block(7, 4, 100))
        assert not np.array_equal(uniform_block(7, 3, 100, 0), uniform_block(7, 3, 100, 1))


class TestPrimalSde:
    def test_seed_determinism(self):
        state = gaussian_flow_state(GRID, mean=0.5)
        e0 = ParticleEnsemble.from_density(state.rho, 500, seed=1)
        a = sinkhorn_sde_step(e0, state, 1e-3)
        b = sinkhorn_sde_step(e0, state, 1e-3)
        assert np.array_equal(a.positions, b.positions)

    def test_uniform_self_target_drift_vanishes(self):
        # with equal uniform marginals and the identity mirror each drift
        # term is identically zero, so a noiseless ensemble stays put
        g = Grid(0.0, 1.0, 64)
        spec = DensitySpec.uniform(0.0, 1.0)
        state = make_flow_state(g, spec, spec, ConvexPotential.quadratic(g))
        xs = np.linspace(0.1, 0.9, 50)
        drift, _ = sinkhorn_sde_coefficients(state, xs)
        assert np.max(np.abs(drift)) < 1e-9
        e0 = ParticleEnsemble(xs, 0.0, seed=2)
        e1 = sinkhorn_sde_step(e0, state, 1e-3, zero_noise=True)
        assert np.array_equal(e1.positions, xs)

    def test_diffusion_matches_inverse_hessian(self):
        state = gaussian_flow_state(GRID, mean=0.5)
        xs = np.linspace(-3, 3, 17)
        _, diffusion = sinkhorn_sde_coefficients(state, xs)
        d2u = np.interp(xs, GRID.nodes, state.u.d2u)
        assert np.max(np.abs(diffusion ** 2 - 2.0 / d2u)) < 1e-6

    def test_marginal_moments_track_flow(self):
        # short run; the acceptance suite exercises the full-scale version
        state = gaussian_flow_state(GRID, mean=0.5)
        count = 20000
        ens = ParticleEnsemble.from_density(state.rho, count, seed=7)
        cur = state
        for _ in range(250):
            ens = sinkhorn_sde_step(ens, cur, 1e-3)
            cur = step(cur, 1e-3)
        se_m = math.sqrt(ens.variance() / count)
        se_v = ens.variance() * math.sqrt(2.0 / count)
        assert abs(ens.mean() - cur.rho.mean()) <= 3 * se_m
        assert abs(ens.variance() - cur.rho.variance()) <= 3 * se_v

    def test_marginal_moments_track_flow_under_nonquadratic_mirror(self):
        # u = x^2/2 + log cosh x, so (1/u'')' is far from zero: a drift that
        # drops it leaves the variance ~5 standard errors below the flow's
        u = ConvexPotential.from_callable(GRID, *LOG_COSH_MIRROR)
        state = make_flow_state(GRID, STD_SPEC, STD_SPEC, u)
        count = 20000
        ens = ParticleEnsemble.from_density(state.rho, count, seed=7)
        cur = state
        for _ in range(250):
            ens = sinkhorn_sde_step(ens, cur, 1e-3)
            cur = step(cur, 1e-3)
        se_m = math.sqrt(ens.variance() / count)
        se_v = ens.variance() * math.sqrt(2.0 / count)
        assert abs(ens.mean() - cur.rho.mean()) <= 3 * se_m
        assert abs(ens.variance() - cur.rho.variance()) <= 3 * se_v

    @pytest.mark.parametrize("mean, variance", [(0.5, 1.0), (0.0, 0.25)], ids=["location", "scale"])
    def test_node_drift_is_change_of_measure_form(self, mean, variance):
        # h = g(u') - log u'' turns -f'/u'' - g'(u') + h'/u'' into
        # -f'/u'' + (1/u'')'; at t = 0.5 u is still quadratic, so the
        # stencils are exact and the two forms agree to roundoff
        state = gaussian_flow_state(GRID, mean=mean, variance=variance)
        for _ in range(500):
            state = step(state, 1e-3)
        xs = GRID.nodes
        hp = grad_central(np.asarray(state.h), GRID.spacing)
        former = (-state.mu_spec.grad(xs) + hp) / state.u.d2u - state.nu_spec.grad(state.u.du)
        drift, _ = sinkhorn_sde_coefficients(state, xs)
        keep = GRID.interior_slice()
        assert np.max(np.abs(drift[keep] - former[keep])) <= 1e-10

    def test_time_mismatch_rejected(self):
        state = gaussian_flow_state(GRID, mean=0.5)
        e0 = ParticleEnsemble(np.zeros(10), 0.5, seed=1)
        with pytest.raises(DomainError):
            sinkhorn_sde_step(e0, state, 1e-3)

    def test_escape_detected(self):
        # an oversized step drives the drift far outside the margin
        state = gaussian_flow_state(GRID, mean=0.5)
        ens = ParticleEnsemble(np.array([8.5]), 0.0, seed=1)
        with pytest.raises(ParticleEscape):
            sinkhorn_sde_step(ens, state, 5.0, zero_noise=True)


def _interp_sde_step(e, state, dt):
    """The primal step as written before the node tables: one ``np.interp``
    per coefficient lookup, u'' looked up twice, f' read at the particle."""
    xs, x = state.grid.nodes, e.positions
    h_prime = grad_central(np.asarray(state.h), state.grid.spacing)
    du = np.interp(x, xs, state.u.du)
    d2u = np.interp(x, xs, state.u.d2u)
    hp = np.interp(x, xs, h_prime)
    drift = (-state.mu_spec.grad(x) + hp) / d2u - state.nu_spec.grad(du)
    diffusion = np.sqrt(2.0 / np.interp(x, xs, state.u.d2u))
    z = noise_block(e.seed, e.step_count, x.size)
    return x + dt * drift + math.sqrt(dt) * diffusion * z


def _interp_dual_step(e, state, dt):
    """The dual step as written before the node tables: every particle
    pulled back through w' and its coefficients read there."""
    xs, y = state.grid.nodes, e.positions
    h_prime = grad_central(np.asarray(state.h), state.grid.spacing)
    x_back = inverse_gradient_map(state.u, y)
    drift = -np.interp(x_back, xs, h_prime)
    diffusion = np.sqrt(2.0 * np.interp(x_back, xs, state.u.d2u))
    z = noise_block(e.seed, e.step_count, y.size)
    return y + dt * drift + math.sqrt(dt) * diffusion * z


REFINE = (512, 1024, 2048)


@pytest.fixture(scope="module")
def evolved():
    """Flow states five steps in, on two quadratic and a non-quadratic
    mirror, keyed by (name, n) for each grid of the refinement."""
    out = {}
    for n in REFINE:
        grid = Grid(-8.0, 8.0, n)
        starts = {"location": gaussian_flow_state(grid, mean=0.5),
                  "scale": gaussian_flow_state(grid, variance=0.25),
                  "cosh mirror": make_flow_state(grid, STD_SPEC, DensitySpec.gaussian(0.3, 0.8),
                                                 ConvexPotential.from_callable(grid, *COSH_MIRROR))}
        for name, state in starts.items():
            for _ in range(5):
                state = step(state, 1e-3)
            out[name, n] = state
    return out


class TestSharedLocate:
    """The steps read their coefficients from node tables through one grid
    locate.  Against the former per-particle ``np.interp`` formulas, with
    the noise on, they agree to roundoff on the quadratic mirrors, where
    every stencil is exact; on the cosh mirror the two differ at O(h^2),
    so there the gap must fall at least 3x per grid doubling.  Points
    beyond a table's ends take its end-node values."""

    @staticmethod
    def _check_gaps(name, stepper, reference, marginal, evolved):
        gaps = []
        for n in REFINE:
            state = evolved[name, n]
            inner = ParticleEnsemble.from_density(getattr(state, marginal), 10_000, seed=21)
            e = ParticleEnsemble(inner.positions, state.t, seed=21, step_count=3)
            gaps.append(np.max(np.abs(stepper(e, state, 1e-3).positions
                                      - reference(e, state, 1e-3))))
        if name == "cosh mirror":
            assert gaps[0] <= 1e-5
            assert gaps[0] >= 3 * gaps[1] and gaps[1] >= 3 * gaps[2]
        else:
            assert max(gaps) <= 1e-12

    @pytest.mark.parametrize("name", ["location", "scale", "cosh mirror"])
    def test_primal_step_matches_interp_reference(self, evolved, name):
        self._check_gaps(name, sinkhorn_sde_step, _interp_sde_step, "rho", evolved)

    @pytest.mark.parametrize("name", ["location", "scale", "cosh mirror"])
    def test_dual_step_matches_interp_reference(self, evolved, name):
        self._check_gaps(name, dual_sde_step, _interp_dual_step, "nu", evolved)

    @pytest.mark.parametrize("name", ["location", "scale", "cosh mirror"])
    def test_points_beyond_the_ends_take_end_node_values(self, evolved, name):
        state = evolved[name, 512]
        d2u = state.u.d2u
        primal = (grad_central(1.0 / d2u, GRID.spacing) - state.mu_spec.grad(GRID.nodes) / d2u,
                  np.sqrt(2.0 / d2u))
        dual = (-grad_central(np.asarray(state.h), GRID.spacing), np.sqrt(2.0 * d2u))
        for coefficients, ends, tables in (
                (sinkhorn_sde_coefficients, GRID.nodes[[0, -1]], primal),
                (dual_sde_coefficients, state.u.du[[0, -1]], dual)):
            beyond = coefficients(state, ends + [-0.5, 0.5])
            for got, far, table in zip(beyond, coefficients(state, ends + [-3.0, 3.0]), tables):
                assert np.array_equal(got, far)
                assert np.max(np.abs(got - table[[0, -1]])) <= 1e-12 * np.max(np.abs(table))
        # a primal step moves particles at +-8.5 by exactly those values
        e = ParticleEnsemble(np.array([-8.5, 8.5]), state.t, seed=21, step_count=3)
        drift, diffusion = sinkhorn_sde_coefficients(state, GRID.nodes[[0, -1]])
        z = noise_block(21, 3, 2)
        expected = e.positions + 1e-3 * drift + math.sqrt(1e-3) * diffusion * z
        assert np.array_equal(sinkhorn_sde_step(e, state, 1e-3).positions, expected)


class TestDualSde:
    def test_frozen_mirror_preserves_target(self):
        state = gaussian_flow_state(GRID, mean=0.5)
        count = 20000
        ens = ParticleEnsemble.from_density(state.nu, count, seed=8)
        for _ in range(250):
            ens = dual_sde_step(ens, state, 1e-3)
        assert ks_distance(ens, state.nu) <= 2 * 1.63 / math.sqrt(count)

    def test_constant_log_density_means_zero_drift(self):
        g = Grid(0.0, 1.0, 64)
        spec = DensitySpec.uniform(0.0, 1.0)
        state = make_flow_state(g, spec, spec, ConvexPotential.quadratic(g))
        e0 = ParticleEnsemble(np.linspace(0.2, 0.8, 20), 0.0, seed=3)
        e1 = dual_sde_step(e0, state, 1e-4, zero_noise=True)
        assert np.max(np.abs(e1.positions - e0.positions)) < 1e-9

    def test_escape_checked_on_the_gradient_range(self):
        # dual positions live on the range of u', which the cosh mirror
        # stretches to +-13.46 over the x-grid [-8, 8]: points inside that
        # range plus the margin step, points beyond it escape
        u = ConvexPotential.from_callable(GRID, *COSH_MIRROR)
        state = make_flow_state(GRID, STD_SPEC, STD_SPEC, u)
        lo, hi = float(u.du[0]) - ESCAPE_MARGIN, float(u.du[-1]) + ESCAPE_MARGIN
        inside = ParticleEnsemble(np.array([lo + 0.1, -10.0, 10.0, hi - 0.1]), 0.0, seed=3)
        stepped = dual_sde_step(inside, state, 1e-3, zero_noise=True)
        # the zero-noise step is the drift, which pulls toward the origin
        assert np.all(np.abs(stepped.positions) < np.abs(inside.positions))
        for y in (lo - 0.1, hi + 0.1):
            with pytest.raises(ParticleEscape):
                dual_sde_step(ParticleEnsemble(np.array([0.0, y]), 0.0, seed=3), state, 1e-3,
                              zero_noise=True)

    def test_same_noise_mirror_consistency(self):
        # primal and dual ensembles driven by identical noise: mapping the
        # dual through the gradient map matches the primal to O(dt) in mean
        dt = 1e-3
        state = gaussian_flow_state(GRID, mean=0.5)
        count = 20000
        primal = ParticleEnsemble.from_density(state.rho, count, seed=9)
        dual = ParticleEnsemble(
            np.interp(primal.positions, GRID.nodes, state.u.du), 0.0, seed=9)
        cur = state
        for _ in range(100):
            primal = sinkhorn_sde_step(primal, cur, dt)
            dual = dual_sde_step(dual, cur, dt)
            cur = step(cur, dt)
        mapped = np.interp(dual.positions, cur.u.du, GRID.nodes)
        assert abs(np.mean(mapped) - np.mean(primal.positions)) <= 5 * dt


class TestMirrorLangevin:
    """The dual step with the mirror frozen is the mirror Langevin diffusion
    dY = -h'(X) dt + sqrt(2 u''(X)) dB, X = w'(Y), whose X-law exp(-h) and
    hence Y-law, the target, it leaves invariant."""

    def test_reduces_to_classical_langevin(self):
        # identity mirror: X = Y and h = g, the classical Langevin step for exp(-g)
        state = make_flow_state(GRID, STD_SPEC, STD_SPEC, ConvexPotential.quadratic(GRID))
        e0 = ParticleEnsemble.from_density(STD, 1000, seed=3)
        stepped = dual_sde_step(e0, state, 1e-3)
        z = noise_block(3, 0, 1000)
        reference = e0.positions - 1e-3 * e0.positions + math.sqrt(2e-3) * z
        assert np.max(np.abs(stepped.positions - reference)) <= 1e-12

    def test_stationarity_under_nonquadratic_mirror(self):
        # start at the target; the chain must keep that law (KS within twice
        # its initial value, variance within 3 standard errors).  u'' runs
        # from 2 at the origin to 1 in the tails, so a step that drops the
        # mirror Hessian from the diffusion narrows the law (KS ~0.09,
        # variance ~0.51)
        u = ConvexPotential.from_callable(GRID, *LOG_COSH_MIRROR)
        frozen = make_flow_state(GRID, STD_SPEC, STD_SPEC, u)
        count = 20000
        ens = ParticleEnsemble.from_density(frozen.nu, count, seed=5)
        ks0 = max(ks_distance(ens, frozen.nu), 1.63 / math.sqrt(count))
        for _ in range(1000):
            ens = dual_sde_step(ens, frozen, 1e-3)
        assert ks_distance(ens, frozen.nu) <= 2 * ks0
        target_var = frozen.nu.variance()
        assert abs(np.var(ens.positions) - target_var) <= 3 * target_var * math.sqrt(2.0 / count)

    def test_seeded(self):
        state = make_flow_state(GRID, STD_SPEC, STD_SPEC, ConvexPotential.quadratic(GRID))
        e0 = ParticleEnsemble.from_density(STD, 100, seed=6)
        a = dual_sde_step(e0, state, 1e-3)
        b = dual_sde_step(e0, state, 1e-3)
        assert np.array_equal(a.positions, b.positions)


def _sample_conditional_rows(log_core, nodes, uniforms):
    """Dense inverse-CDF sample per row of a batch of grid conditionals.

    The reference for the banded sampler: rows are unnormalized log-density
    samples at the nodes; the CDF is the trapezoid cumulative over the whole
    row, inverted linearly inside the selected cell.
    """
    stable = log_core - log_core.max(axis=1, keepdims=True)
    dens = np.exp(stable)
    h = nodes[1] - nodes[0]
    cell_mass = 0.5 * h * (dens[:, 1:] + dens[:, :-1])
    cdf = np.concatenate([np.zeros((dens.shape[0], 1)), np.cumsum(cell_mass, axis=1)], axis=1)
    cdf /= cdf[:, -1:]
    targets = uniforms[:, None]
    idx = np.sum(cdf < targets, axis=1) - 1
    idx = np.clip(idx, 0, len(nodes) - 2)
    lo = np.take_along_axis(cdf, idx[:, None], axis=1)[:, 0]
    hi = np.take_along_axis(cdf, (idx + 1)[:, None], axis=1)[:, 0]
    frac = np.where(hi > lo, (uniforms - lo) / np.maximum(hi - lo, 1e-300), 0.5)
    return nodes[idx] + np.clip(frac, 0.0, 1.0) * h


def dense_chain_positions(e, sk):
    """One chain step on full-width conditional tables (after step zero)."""
    xs, ys = sk.mu.grid.nodes, sk.nu.grid.nodes
    u1 = uniform_block(e.seed, e.step_count, e.positions.size, substream=0)
    u2 = uniform_block(e.seed, e.step_count, e.positions.size, substream=1)
    log_cond = (np.outer(e.positions, ys) - sk.v_prev[None, :]) / sk.eps \
        + sk.nu.log_values[None, :]
    y = _sample_conditional_rows(log_cond, ys, u1)
    log_cond = (np.outer(y, xs) - sk.u[None, :]) / sk.eps + sk.mu.log_values[None, :]
    return _sample_conditional_rows(log_cond, xs, u2)


class TestMarkovChain:
    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.05])
    def test_banded_draws_match_dense_reference(self, eps):
        nu = discretize(DensitySpec.gaussian(0.5, 1.0), GRID)
        sk = s_step(initial_state(0.5 * GRID.nodes**2, STD, nu, nu, eps))
        ens = ParticleEnsemble.from_density(sk.rho, 20000, seed=13)
        ens = ParticleEnsemble(ens.positions, 0.0, seed=13, step_count=1)
        moved = markov_chain_step(ens, sk)
        assert np.max(np.abs(moved.positions - dense_chain_positions(ens, sk))) <= 1e-12
        # both conditional kernels keep the band on every row at these points
        u = uniform_block(13, 1, ens.positions.size)
        for marg, pot in ((nu, sk.v_prev), (STD, sk.u)):
            kernel = _log_kernel(GRID, marg.log_values - pot / eps, eps)
            assert kernel.width < GRID.n
            assert _kernel_draw(kernel, ens.positions, u)[1].all()

    def test_marginals_match_iterates(self):
        mu = STD
        nu = discretize(DensitySpec.gaussian(0.5, 1.0), GRID)
        u0 = 0.5 * GRID.nodes**2
        sk = initial_state(u0, mu, nu, nu, 0.1)
        count = 20000
        ens = ParticleEnsemble.from_density(sk.rho, count, seed=11)
        tol = 3 * 1.63 / math.sqrt(count)
        for _ in range(5):
            ens = markov_chain_step(ens, sk)
            sk = s_step(sk)
            assert ks_distance(ens, sk.rho) <= tol

    def test_near_product_coupling_decorrelates(self):
        mu = STD
        nu = discretize(DensitySpec.gaussian(0.5, 1.0), GRID)
        sk = s_step(initial_state(0.5 * GRID.nodes**2, mu, nu, nu, 10.0))
        x0 = np.linspace(-2.0, 2.0, 2000)
        ens = ParticleEnsemble(x0, 0.0, seed=5, step_count=1)
        moved = markov_chain_step(ens, sk)
        assert abs(np.corrcoef(x0, moved.positions)[0, 1]) <= 0.1

    def test_seed_determinism(self):
        mu = STD
        nu = discretize(DensitySpec.gaussian(0.5, 1.0), GRID)
        sk = initial_state(0.5 * GRID.nodes**2, mu, nu, nu, 0.1)
        ens = ParticleEnsemble.from_density(sk.rho, 500, seed=11)
        a = markov_chain_step(ens, sk)
        b = markov_chain_step(ens, sk)
        assert np.array_equal(a.positions, b.positions)

    def test_step_count_mismatch(self):
        mu = STD
        nu = discretize(DensitySpec.gaussian(0.5, 1.0), GRID)
        sk = initial_state(0.5 * GRID.nodes**2, mu, nu, nu, 0.1)
        ens = ParticleEnsemble(np.zeros(10), 0.0, seed=1, step_count=3)
        with pytest.raises(DomainError):
            markov_chain_step(ens, sk)


def generator_residual(state, test_fn):
    """|integral of (b phi' + (sigma^2/2) phi'') against the target| for the
    dual SDE's drift b and diffusion sigma, read at the nodes of a grid over
    the range of u'; zero up to O(h^2) when the frozen-mirror dual diffusion
    leaves the target invariant."""
    u = state.u
    ys = Grid(u.du[0], u.du[-1], u.grid.n)
    drift, diffusion = dual_sde_coefficients(state, ys.nodes)
    phi = np.asarray(test_fn(ys.nodes), dtype=float)
    gen = (drift * grad_central(phi, ys.spacing)
           + 0.5 * diffusion**2 * second_central(phi, ys.spacing))
    return abs(ys.integrate(gen * np.exp(-state.nu_spec.f(ys.nodes))))


class TestGeneratorResidual:
    BUMP = staticmethod(lambda y: np.where(np.abs(y) < 4.0, (1.0 - (y / 4.0) ** 2) ** 2, 0.0))

    @staticmethod
    def state(grid, mirror=None):
        u = (ConvexPotential.quadratic(grid) if mirror is None
             else ConvexPotential.from_callable(grid, *mirror))
        return make_flow_state(grid, STD_SPEC, STD_SPEC, u)

    def test_quadratic_mirror_small(self):
        assert generator_residual(self.state(GRID), self.BUMP) <= 1e-4

    def test_constant_test_function_exact_zero(self):
        got = generator_residual(self.state(GRID), lambda y: np.ones_like(y))
        assert got == 0.0

    def test_refinement_factor(self):
        # O(h^2), under a mirror whose Hessian varies
        vals = [generator_residual(self.state(Grid(-8.0, 8.0, n), LOG_COSH_MIRROR), self.BUMP)
                for n in (512, 1024)]
        assert 3.0 < vals[0] / vals[1] < 5.0
