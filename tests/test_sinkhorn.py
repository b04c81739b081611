import math

import numpy as np
import pytest
from scipy.special import logsumexp

from sinkflow.closed_form import sinkhorn_gaussian_iterates
from sinkflow.grids import DensitySpec, Grid, discretize, kl_divergence
from sinkflow.errors import NumericOverflow
from sinkflow.sinkhorn import (
    _LATTICE_LOG_UNITS,
    _chunking,
    _kernel_lse,
    _log_kernel,
    _LogKernel,
    initial_state,
    laplace_residual,
    s_step,
    u_operator,
    v_operator,
)
from sinkflow.transport import ConvexPotential

from reference import coupling, dense_log_kernel, interior_slice, ipfp_marginal_view

GRID = Grid(-8.0, 8.0, 512)
MU_SPEC = DensitySpec.gaussian(0.0, 1.0)
MU = discretize(MU_SPEC, GRID)
NU = discretize(DensitySpec.gaussian(0.5, 1.0), GRID)


def quad_u0():
    u = 0.5 * GRID.nodes**2
    return u - u[GRID.n // 2]


def fixed_point(eps):
    """Iterate 40 times from a constant with equal marginals.

    At eps = 0.5 the potential increment shrinks about 2.7x per step and
    falls below 1e-13 within 35 steps, so 40 steps reach the fixed point
    to roundoff.
    """
    st = initial_state(np.zeros(GRID.n), MU, MU, MU, eps)
    for _ in range(40):
        st = s_step(st)
    return st


def random_smooth_potentials(count, seed):
    """Bounded random test potentials: quadratic plus a few Fourier modes."""
    rng = np.random.default_rng(seed)
    xs = GRID.nodes
    out = []
    for _ in range(count):
        a = rng.uniform(0.3, 1.5)
        b = rng.uniform(-0.5, 0.5)
        vals = 0.5 * a * xs**2 + b * xs
        for k in range(1, 4):
            vals += rng.uniform(-0.3, 0.3) * np.sin(k * xs / 4 + rng.uniform(0, 6.28))
        out.append(vals)
    return out


def dense_operator(potential, marginal, eps, out_grid=None):
    """The operators' dense formula: the reference for the log-kernel layer."""
    grid = marginal.grid
    core = dense_log_kernel((out_grid or grid).nodes, grid.nodes, potential, eps,
                            marginal.log_values + np.log(grid.trapezoid_weights))
    return eps * logsumexp(core, axis=1)


def kernel_of(potential, marginal, eps):
    """The log-kernel both operators evaluate for this potential."""
    a = marginal.log_values + np.log(marginal.grid.trapezoid_weights) - potential / eps
    return _log_kernel(marginal.grid, a, eps)


def lattice_references(grid, points, eps):
    """The distinct lattice references the kernel layer gives these rows."""
    m, _, _ = _chunking(grid.n)
    lattice = 4.0 * _LATTICE_LOG_UNITS / (grid.spacing * (m - 1))
    return np.unique(np.rint(np.asarray(points) / eps / lattice)).size


class TestLogKernelLayer:
    @pytest.mark.parametrize("n", [64, 256, 2048])
    @pytest.mark.parametrize("eps", [50.0, 0.5, 0.1, 0.05, 0.01, 1e-3])
    def test_operators_match_dense_formula(self, n, eps):
        grid = Grid(-8.0, 8.0, n)
        mu = discretize(MU_SPEC, grid)
        nu = discretize(DensitySpec.gaussian(0.5, 1.0), grid)
        u = 0.5 * grid.nodes**2
        v = v_operator(u, mu, eps)
        assert np.max(np.abs(v - dense_operator(u, mu, eps))) <= 1e-12
        assert np.max(np.abs(u_operator(v, nu, eps) - dense_operator(v, nu, eps))) <= 1e-12

    @pytest.mark.parametrize("n,eps", [(64, 1e-3), (256, 0.01), (2048, 1e-3)])
    def test_rows_spanning_many_lattice_references(self, n, eps):
        # rows whose slopes p / eps lie far apart take different references
        grid = Grid(-8.0, 8.0, n)
        assert lattice_references(grid, grid.nodes, eps) >= 3
        mu = discretize(MU_SPEC, grid)
        u = 0.5 * grid.nodes**2 + np.sin(grid.nodes)
        assert np.max(np.abs(v_operator(u, mu, eps) - dense_operator(u, mu, eps))) <= 1e-12

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.05, 0.01])
    def test_off_grid_output_points(self, eps):
        # laplace_residual's output grid: a window inside the marginal's grid
        u = quad_u0()
        ygrid = Grid(-2.0, 2.0, GRID.n)
        got = v_operator(u, MU, eps, ygrid)
        assert np.max(np.abs(got - dense_operator(u, MU, eps, ygrid))) <= 1e-12

    def test_non_convex_potential_runs_at_full_width(self):
        u = random_smooth_potentials(1, seed=3)[0] + 0.5 * np.sin(3.0 * GRID.nodes)
        assert kernel_of(u, MU, 0.1).slopes is None
        for op, marg in ((v_operator, MU), (u_operator, NU)):
            assert np.max(np.abs(op(u, marg, 0.1) - dense_operator(u, marg, 0.1))) <= 1e-12

    @pytest.mark.parametrize("eps", [0.1, 1e-3])
    def test_non_convex_potential_at_off_grid_points(self, eps):
        # output points off the nodes, some beyond the grid's ends
        u = 0.5 * GRID.nodes**2 + 2.0 * np.sin(3.0 * GRID.nodes)
        ygrid = Grid(-9.3, 8.7, 301)
        assert lattice_references(GRID, ygrid.nodes, eps) >= (3 if eps < 0.01 else 1)
        for op, marg in ((v_operator, MU), (u_operator, NU)):
            got = op(u, marg, eps, ygrid)
            assert np.max(np.abs(got - dense_operator(u, marg, eps, ygrid))) <= 1e-12

    def test_convex_potential_flattening_in_the_tails(self):
        # rows peaking in the tails, where the kernel is flatter, are as wide
        # as the grid
        u = 4.0 * np.log(np.cosh(GRID.nodes))
        for op, marg in ((v_operator, MU), (u_operator, NU)):
            assert np.max(np.abs(op(u, marg, 0.1) - dense_operator(u, marg, 0.1))) <= 1e-12

    @pytest.mark.parametrize("n,eps", [(256, 0.1), (2048, 0.1), (2048, 1e-3)])
    def test_rows_do_not_depend_on_the_rows_evaluated_with_them(self, n, eps):
        # every product has one shape, so a row's value is bit-exact whether
        # it is evaluated alone, among 129 rows or in reverse order
        grid = Grid(-8.0, 8.0, n)
        mu = discretize(MU_SPEC, grid)
        kernel = kernel_of(0.5 * grid.nodes**2, mu, eps)
        full = _kernel_lse(kernel, grid.nodes)
        alone = [_kernel_lse(kernel, grid.nodes[i:i + 1])[0] for i in range(0, n, n // 128)]
        assert np.array_equal(alone, full[::n // 128])
        assert np.array_equal(_kernel_lse(kernel, grid.nodes[7:136]), full[7:136])
        assert np.array_equal(_kernel_lse(kernel, grid.nodes[::-1]), full[::-1])

    def test_grid_past_the_product_bound(self):
        # past 2^18 nodes one row's product alone exceeds the multiply-add
        # bound, so every block holds one row
        grid = Grid(-8.0, 8.0, (1 << 18) + 1)
        assert _chunking(grid.n)[2] == 1
        mu = discretize(MU_SPEC, grid)
        u = 0.5 * grid.nodes**2
        p = np.array([-3.7, 0.25, 2.0])
        core = (np.outer(p, grid.nodes) - u) / 0.1 + np.log(mu.values * grid.trapezoid_weights)
        got = 0.1 * _kernel_lse(kernel_of(u, mu, 0.1), p)
        assert np.max(np.abs(got - 0.1 * logsumexp(core, axis=1))) <= 1e-12

    def test_non_finite_row_sum_raises(self):
        # log-weights that overflowed: a NaN, or a chunk with no finite entry
        a = np.log(GRID.trapezoid_weights)
        a[100] = np.nan
        for weights in (a, np.full(GRID.n, -np.inf)):
            kernel = _LogKernel(GRID.nodes, GRID.spacing, weights, 10.0, None)
            with pytest.raises(NumericOverflow):
                _kernel_lse(kernel, GRID.nodes)


class TestOperators:
    def test_shift_equivariance_v(self):
        u = quad_u0()
        base = v_operator(u, MU, 0.1)
        shifted = v_operator(u + 2.3, MU, 0.1)
        assert np.max(np.abs(shifted - (base - 2.3))) < 1e-10

    def test_shift_equivariance_u(self):
        v = quad_u0()
        base = u_operator(v, NU, 0.1)
        shifted = u_operator(v + 2.3, NU, 0.1)
        assert np.max(np.abs(shifted - (base - 2.3))) < 1e-10

    def test_quadrature_oracle(self):
        # direct quadrature with explicit weights, no log-sum-exp
        eps = 0.5
        u = quad_u0()
        got = v_operator(u, MU, eps)
        w = GRID.trapezoid_weights
        direct = np.empty(GRID.n)
        for j, y in enumerate(GRID.nodes):
            integrand = np.exp((GRID.nodes * y - u) / eps) * MU.values
            direct[j] = eps * math.log(float(np.sum(w * integrand)))
        assert np.max(np.abs(got - direct)) < 1e-8

    def test_closed_form_gaussian(self):
        # for u = x^2/2 and a standard normal marginal the smoothing is
        # y^2/(2(1+eps)) + (eps/2) log(eps/(1+eps)) plus the u0 gauge
        eps = 0.5
        u_raw = 0.5 * GRID.nodes**2
        got = v_operator(u_raw, MU, eps)
        ref = GRID.nodes**2 / (2 * (1 + eps)) + 0.5 * eps * math.log(eps / (1 + eps))
        keep = interior_slice(GRID)
        assert np.max(np.abs(got - ref)[keep]) < 1e-8

    @pytest.mark.parametrize("op,marg", [(v_operator, MU), (u_operator, NU)])
    def test_contraction_100_pairs(self, op, marg):
        pots = random_smooth_potentials(200, seed=5)
        for p1, p2 in zip(pots[::2], pots[1::2]):
            gap_in = float(np.max(np.abs(p1 - p2)))
            gap_out = float(np.max(np.abs(op(p1, marg, 0.1) - op(p2, marg, 0.1))))
            assert gap_out <= gap_in * (1 + 1e-9) + 1e-12

    def test_row_partition_independence(self):
        # each output point is its own reduction over its own row: the two
        # halves of the nodes, and the nodes in reverse order, evaluated as
        # separate row sets must reproduce the full evaluation exactly
        u = quad_u0()
        full = v_operator(u, MU, 0.1)
        kernel = kernel_of(u, MU, 0.1)
        halves = np.concatenate([
            0.1 * _kernel_lse(kernel, GRID.nodes[:GRID.n // 2]),
            0.1 * _kernel_lse(kernel, GRID.nodes[GRID.n // 2:]),
        ])
        assert np.array_equal(full, halves)
        assert np.array_equal(full, 0.1 * _kernel_lse(kernel, GRID.nodes[::-1])[::-1])

    def test_non_finite_potential_rejected(self):
        bad = quad_u0()
        bad = bad.copy()
        bad[3] = np.nan
        with pytest.raises(NumericOverflow):
            v_operator(bad, MU, 0.1)

    def test_normalization_100_potentials(self):
        # the two-step increment always yields a probability density
        for u in random_smooth_potentials(100, seed=9):
            st = initial_state(u, MU, NU, NU, 0.1)
            nxt = s_step(st)
            log_rho = (u_operator(st.v, NU, 0.1, GRID) - st.u) / 0.1 + MU.log_values
            assert abs(GRID.integrate(np.exp(log_rho)) - 1.0) < 1e-8
            assert abs(GRID.integrate(nxt.rho.values) - 1.0) < 1e-8

    def test_symmetric_composition_fixed_point(self):
        # iterating from a constant with equal marginals reaches the
        # self-potential, whose curvature solves a^2 + eps*a = 1
        eps = 0.5
        converged = fixed_point(eps)
        keep = interior_slice(GRID)
        coeffs = np.polyfit(GRID.nodes[keep], converged.u[keep], 2)
        alpha_star = (-eps + math.sqrt(eps * eps + 4.0)) / 2.0
        assert 2 * coeffs[0] == pytest.approx(alpha_star, abs=1e-6)
        probe = s_step(converged)
        delta = probe.u - converged.u
        assert np.max(np.abs(delta - delta.mean())) < 1e-6


class TestTwoStep:
    def test_fixed_point_is_stationary(self):
        converged = fixed_point(0.5)
        nxt = s_step(converged)
        delta = nxt.u - converged.u
        assert np.max(np.abs(delta - delta.mean())) < 1e-8
        assert np.max(np.abs(nxt.rho.values - MU.values)) < 1e-7

    def test_marginal_normalized_every_step(self):
        st = initial_state(quad_u0(), MU, NU, NU, 0.1)
        assert st.mass_drift == 0.0
        for _ in range(5):
            log_rho = (u_operator(st.v, NU, 0.1, GRID) - st.u) / 0.1 + MU.log_values
            st = s_step(st)
            assert abs(GRID.integrate(st.rho.values) - 1.0) < 1e-8
            # the step records the drift of the marginal it normalized
            assert st.mass_drift == abs(GRID.integrate(np.exp(log_rho)) - 1.0) < 1e-8

    def test_kl_to_target_decreases(self):
        st = initial_state(quad_u0(), MU, NU, NU, 0.1)
        prev = None
        for _ in range(50):
            st = s_step(st)
            kl = kl_divergence(MU, st.rho)
            if prev is not None:
                assert kl < prev
            prev = kl

    def test_gauge_invariance_of_derived_quantities(self):
        eps = 0.1
        a = initial_state(quad_u0(), MU, NU, NU, eps)
        b = initial_state(quad_u0() + 7.0, MU, NU, NU, eps)
        for _ in range(3):
            a, b = s_step(a), s_step(b)
        assert np.max(np.abs(a.rho.values - b.rho.values)) < 1e-10
        assert np.max(np.abs(coupling(a)[0] - coupling(b)[0])) < 1e-9


@pytest.fixture(scope="module")
def state():
    st = initial_state(quad_u0(), MU, NU, NU, 0.1)
    for _ in range(3):
        st = s_step(st)
    return st


class TestCoupling:
    def test_mass(self, state):
        _, x_marginal, _ = coupling(state)
        assert GRID.integrate(x_marginal) == pytest.approx(1.0, abs=1e-6)

    def test_y_marginal_exact(self, state):
        _, _, y_marginal = coupling(state)
        assert np.max(np.abs(y_marginal - NU.values)) < 1e-5

    def test_x_marginal_is_next_iterate(self, state):
        _, x_marginal, _ = coupling(state)
        assert np.max(np.abs(x_marginal - s_step(state).rho.values)) < 1e-5


def test_ipfp_view_matches_potential_iteration():
    st = initial_state(quad_u0(), MU, NU, NU, 0.1)
    for _ in range(5):
        st = s_step(st)
    alt = ipfp_marginal_view(quad_u0(), MU, NU, 0.1, 5)
    assert np.max(np.abs(alt.values - st.rho.values)) < 1e-8


def assert_matches_exact_recursion(theta, eta, eps, steps):
    # quadratic potentials stay quadratic (with a linear term) for a Gaussian
    # target, so every iterate's mean and variance are known exactly
    nu = discretize(DensitySpec.gaussian(theta, eta * eta), GRID)
    st = initial_state(quad_u0(), MU, nu, nu, eps)
    for k, ref in enumerate(sinkhorn_gaussian_iterates(theta, eta, eps, steps)):
        if k:
            st = s_step(st)
        assert abs(st.rho.mean() - ref.mean) <= 1e-10
        assert abs(st.rho.variance() - ref.variance) <= 1e-10
    assert st.k == steps


@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_iterates_match_exact_gaussian_recursion(eps):
    # the location problem, nu = N(0.5, 1), over the first 1/eps steps
    assert_matches_exact_recursion(0.5, 1.0, eps, int(round(1.0 / eps)))


@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_scale_iterates_match_exact_gaussian_recursion(eps):
    # the scale problem, nu = N(0, 0.25), over the first 1/eps steps
    assert_matches_exact_recursion(0.0, 0.5, eps, int(round(1.0 / eps)))


@pytest.mark.parametrize("eps", [0.2, 0.1])
def test_iterates_match_exact_recursion_on_a_joint_problem(eps):
    # nu = N(0.5, 0.25) moves the mean and the variance at once
    assert_matches_exact_recursion(0.5, 0.5, eps, 20)


class TestLaplaceResidual:
    def test_quadratic_slope(self):
        u = ConvexPotential.quadratic(GRID)
        eps_list = [0.2, 0.1, 0.05, 0.025]
        res = [laplace_residual(u, MU, MU_SPEC, e) for e in eps_list]
        slope = np.polyfit(np.log(eps_list), np.log(res), 1)[0]
        assert slope >= 1.7

    def test_matches_analytic_residual(self):
        # closed form for the quadratic/Gaussian pair:
        # residual(y) = y^2 eps^2 / (2(1+eps)) - (eps/2) log(1+eps)
        u = ConvexPotential.quadratic(GRID)
        for eps in (0.2, 0.05):
            got = laplace_residual(u, MU, MU_SPEC, eps)
            a = eps * eps / (2 * (1 + eps))
            b = 0.5 * eps * math.log(1 + eps)
            expected = max(abs(4.0 * a - b), abs(b))
            assert got == pytest.approx(expected, rel=1e-6)

    def test_ablation_destroys_the_fit(self):
        u = ConvexPotential.quadratic(GRID)
        eps_list = [0.2, 0.1, 0.05, 0.025]
        res = [laplace_residual(u, MU, MU_SPEC, e, include_entropy_term=False)
               for e in eps_list]
        slope = np.polyfit(np.log(eps_list), np.log(res), 1)[0]
        assert slope < 1.0
