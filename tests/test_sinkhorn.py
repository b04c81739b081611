import math

import numpy as np
import pytest
from scipy.special import logsumexp

from sinkflow.closed_form import sinkhorn_gaussian_iterates
from sinkflow.grids import DensitySpec, Grid, discretize, kl_divergence
from sinkflow.sinkhorn import (
    _kernel_lse,
    _logsumexp,
    _log_kernel,
    coupling,
    initial_state,
    ipfp_marginal_view,
    laplace_residual,
    s_step,
    u_operator,
    v_operator,
)
from sinkflow.transport import ConvexPotential

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
    ys = (out_grid or marginal.grid).nodes
    xs = marginal.grid.nodes
    core = (np.outer(ys, xs) - potential[None, :]) / eps \
        + (marginal.log_values + np.log(marginal.grid.trapezoid_weights))[None, :]
    return eps * logsumexp(core, axis=1)


def kernel_of(potential, marginal, eps):
    """The log-kernel both operators evaluate for this potential."""
    a = marginal.log_values + np.log(marginal.grid.trapezoid_weights) - potential / eps
    return _log_kernel(marginal.grid, a, eps)


class TestLogKernelLayer:
    @pytest.mark.parametrize("n", [256, 2048])
    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.05, 0.01])
    def test_operators_match_dense_formula(self, n, eps):
        grid = Grid(-8.0, 8.0, n)
        mu = discretize(MU_SPEC, grid)
        nu = discretize(DensitySpec.gaussian(0.5, 1.0), grid)
        u = 0.5 * grid.nodes**2
        v = v_operator(u, mu, eps)
        assert np.max(np.abs(v - dense_operator(u, mu, eps))) <= 1e-12
        assert np.max(np.abs(u_operator(v, nu, eps) - dense_operator(v, nu, eps))) <= 1e-12
        # log-concave marginals and convex potentials: every row keeps its band
        for pot, marg in ((u, mu), (v, nu)):
            kernel = kernel_of(pot, marg, eps)
            assert kernel.width < n
            assert _kernel_lse(kernel, grid.nodes)[1].all()

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.05, 0.01])
    def test_off_grid_output_points(self, eps):
        # laplace_residual's output grid: a window inside the marginal's grid
        u = quad_u0()
        ygrid = Grid(-2.0, 2.0, GRID.n)
        got = v_operator(u, MU, eps, ygrid)
        assert np.max(np.abs(got - dense_operator(u, MU, eps, ygrid))) <= 1e-12
        assert _kernel_lse(kernel_of(u, MU, eps), ygrid.nodes)[1].all()

    def test_non_convex_potential_runs_at_full_width(self):
        u = random_smooth_potentials(1, seed=3)[0] + 0.5 * np.sin(3.0 * GRID.nodes)
        kernel = kernel_of(u, MU, 0.1)
        assert kernel.slopes is None and kernel.width == GRID.n
        assert not _kernel_lse(kernel, GRID.nodes)[1].any()
        for op, marg in ((v_operator, MU), (u_operator, NU)):
            assert np.max(np.abs(op(u, marg, 0.1) - dense_operator(u, marg, 0.1))) <= 1e-12

    def test_rows_failing_the_band_edge_check(self):
        # convex, but flattening in the tails: rows peaking there need more
        # columns than the row through the log-weights' own maximum
        u = 4.0 * np.log(np.cosh(GRID.nodes))
        banded = _kernel_lse(kernel_of(u, MU, 0.1), GRID.nodes)[1]
        assert 0 < banded.sum() < GRID.n
        for op, marg in ((v_operator, MU), (u_operator, NU)):
            assert np.max(np.abs(op(u, marg, 0.1) - dense_operator(u, marg, 0.1))) <= 1e-12


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
        keep = GRID.interior_slice()
        assert np.max(np.abs(got - ref)[keep]) < 1e-8

    @pytest.mark.parametrize("op,marg", [(v_operator, MU), (u_operator, NU)])
    def test_contraction_100_pairs(self, op, marg):
        pots = random_smooth_potentials(200, seed=5)
        for p1, p2 in zip(pots[::2], pots[1::2]):
            gap_in = float(np.max(np.abs(p1 - p2)))
            gap_out = float(np.max(np.abs(op(p1, marg, 0.1) - op(p2, marg, 0.1))))
            assert gap_out <= gap_in * (1 + 1e-9) + 1e-12

    def test_row_partition_independence(self):
        # each output point is its own reduction over its own band: the two
        # halves of the nodes, and the nodes in reverse order, evaluated as
        # separate row sets must reproduce the full evaluation exactly
        u = quad_u0()
        full = v_operator(u, MU, 0.1)
        kernel = kernel_of(u, MU, 0.1)
        halves = np.concatenate([
            0.1 * _kernel_lse(kernel, GRID.nodes[:GRID.n // 2])[0],
            0.1 * _kernel_lse(kernel, GRID.nodes[GRID.n // 2:])[0],
        ])
        assert np.array_equal(full, halves)
        assert np.array_equal(full, 0.1 * _kernel_lse(kernel, GRID.nodes[::-1])[0][::-1])

    def test_non_finite_potential_rejected(self):
        from sinkflow.errors import NumericOverflow
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
        keep = GRID.interior_slice()
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
        for _ in range(5):
            st = s_step(st)
            assert abs(GRID.integrate(st.rho.values) - 1.0) < 1e-8

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
        ca, cb = coupling(a), coupling(b)
        assert np.max(np.abs(ca.log_gamma - cb.log_gamma)) < 1e-9


@pytest.fixture(scope="module")
def state():
    st = initial_state(quad_u0(), MU, NU, NU, 0.1)
    for _ in range(3):
        st = s_step(st)
    return st


class TestCoupling:
    def test_mass(self, state):
        assert coupling(state).mass() == pytest.approx(1.0, abs=1e-6)

    def test_y_marginal_exact(self, state):
        assert np.max(np.abs(coupling(state).y_marginal() - NU.values)) < 1e-5

    def test_x_marginal_is_next_iterate(self, state):
        nxt = s_step(state)
        assert np.max(np.abs(coupling(state).x_marginal() - nxt.rho.values)) < 1e-5


def test_ipfp_view_matches_potential_iteration():
    st = initial_state(quad_u0(), MU, NU, NU, 0.1)
    for _ in range(5):
        st = s_step(st)
    alt = ipfp_marginal_view(quad_u0(), MU, NU, 0.1, 5)
    assert np.max(np.abs(alt.values - st.rho.values)) < 1e-8


@pytest.mark.parametrize("axis", [None, 0, 1])
def test_logsumexp_matches_scipy(axis):
    # entries far below and far above exp's range, as in the dense IPFP kernel
    a = np.random.default_rng(3).normal(0.0, 300.0, (40, 70))
    a[5, :] = -2000.0
    a[:, 7] = 900.0
    got = _logsumexp(a, axis=axis)
    want = logsumexp(a, axis=axis)
    assert np.shape(got) == np.shape(want)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


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
