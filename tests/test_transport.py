import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkflow.errors import ConvexityLost, DomainError, GridMismatch, NonMonotoneMap, RangeError
from sinkflow.grids import (DensitySpec, Grid, cdf_values, discretize, pushforward_monotone,
                            quantile)
from sinkflow.pma import inverse_gradient_map
from sinkflow.transport import (
    ConvexPotential,
    _strictify,
    legendre_transform,
    lot_distance,
    w2_distance,
)

from reference import (
    change_of_measure_residual,
    interior_slice,
    log_det_hessian_gradient_residual,
    potential_from_callable,
)

GRID = Grid(-8.0, 8.0, 512)
STD = discretize(DensitySpec.gaussian(0.0, 1.0), GRID)


def gaussian(mean, var, grid=GRID):
    return discretize(DensitySpec.gaussian(mean, var), grid)


def brute_force_conjugate(u: ConvexPotential, ys):
    """Independent oracle: direct maximization over the grid nodes."""
    vals = np.max(np.outer(ys, u.grid.nodes) - u.u[None, :], axis=1)
    return vals


def brenier_map(src, dst):
    """The monotone map from src to dst at the nodes: dst-quantile of the
    src-CDF, with the ties where the CDF saturates at 1 broken."""
    return _strictify(quantile(dst, cdf_values(src)), 1e-9 * src.grid.spacing)


def bregman_divergence(u, w, x, y):
    """u(x) + w(y) - x*y for a conjugate pair (u, w)."""
    return u.value_at(x) + w.value_at(y) - x * y


class TestBrenierMap:
    def test_identity(self):
        t = brenier_map(STD, STD)
        keep = interior_slice(GRID)
        assert np.max(np.abs(t - GRID.nodes)[keep]) <= GRID.spacing

    def test_translation(self):
        t = brenier_map(STD, gaussian(0.5, 1.0))
        keep = interior_slice(GRID)
        assert np.max(np.abs(t - (GRID.nodes + 0.5))[keep]) < 1e-3

    def test_scaling(self):
        # quantile interpolation degrades deep in the narrow target's own
        # tail; the scaling law holds on the window |x| <= 3
        t = brenier_map(STD, gaussian(0.0, 0.25))
        window = np.abs(GRID.nodes) <= 3.0
        assert np.max(np.abs(t - 0.5 * GRID.nodes)[window]) < 1e-3

    def test_pushforward_contract_translation(self):
        t = brenier_map(STD, gaussian(0.5, 1.0))
        out = pushforward_monotone(STD, t)
        assert np.max(np.abs(out.values - gaussian(0.5, 1.0).values)) < 1e-4

    def test_pushforward_contract_refines(self):
        errs = []
        for n in (512, 1024, 2048):
            g = Grid(-8.0, 8.0, n)
            src, dst = gaussian(0.0, 1.0, g), gaussian(0.0, 0.25, g)
            out = pushforward_monotone(src, brenier_map(src, dst))
            errs.append(np.max(np.abs(out.values - dst.values)))
        assert errs[0] / errs[1] > 3.0 and errs[1] / errs[2] > 3.0
        assert errs[2] < 1e-4


class TestW2:
    def test_zero(self):
        assert w2_distance(STD, STD) < 1e-8

    def test_translation(self):
        assert w2_distance(STD, gaussian(0.5, 1.0)) == pytest.approx(0.5, abs=1e-3)

    def test_scaling(self):
        assert w2_distance(STD, gaussian(0.0, 0.25)) == pytest.approx(0.5, abs=1e-3)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            w2_distance(STD, gaussian(0.0, 1.0, Grid(-8.0, 8.0, 256)))

    def test_metric_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            ds = [gaussian(m, v) for m, v in zip(rng.uniform(-0.8, 0.8, 3),
                                                 rng.uniform(0.5, 1.5, 3))]
            ab = w2_distance(ds[0], ds[1])
            ba = w2_distance(ds[1], ds[0])
            assert abs(ab - ba) < 1e-12
            assert w2_distance(ds[0], ds[2]) <= ab + w2_distance(ds[1], ds[2]) + 1e-8


class TestLot:
    def test_zero(self):
        assert lot_distance(STD, gaussian(0.3, 1.0), gaussian(0.3, 1.0)) < 1e-8

    def test_reference_equals_first_argument(self):
        a, b = STD, gaussian(0.4, 1.0)
        assert lot_distance(a, a, b) == pytest.approx(w2_distance(a, b), abs=1e-4)

    def test_translation_pair(self):
        got = lot_distance(STD, gaussian(0.3, 1.0), gaussian(-0.3, 1.0))
        assert got == pytest.approx(0.6, abs=1e-3)

    def test_dominates_w2(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            ref, a, b = [gaussian(m, v) for m, v in zip(rng.uniform(-0.8, 0.8, 3),
                                                        rng.uniform(0.5, 1.5, 3))]
            assert lot_distance(ref, a, b) >= w2_distance(a, b) - 1e-6


class TestLegendre:
    def test_quadratic_self_dual(self):
        u = ConvexPotential.quadratic(GRID)
        w = legendre_transform(u, Grid(-6.0, 6.0, 512))
        assert np.max(np.abs(w.u - 0.5 * w.grid.nodes**2)) < 1e-6

    def test_quadratic_duality(self):
        u = ConvexPotential.quadratic(GRID, curvature=2.0)
        w = legendre_transform(u, Grid(-6.0, 6.0, 512))
        assert np.max(np.abs(w.u - w.grid.nodes**2 / 4.0)) < 1e-6

    def test_quartic_gradient(self):
        g = Grid(0.1, 2.0, 512)
        u = potential_from_callable(g, lambda x: x**4, lambda x: 4 * x**3,
                                          lambda x: 12 * x**2)
        target = Grid(0.05, 30.0, 512)
        w = legendre_transform(u, target)
        assert np.max(np.abs(w.du - (target.nodes / 4.0) ** (1.0 / 3.0))) < 1e-3

    def test_matches_brute_force(self):
        g = Grid(-2.0, 2.0, 512)
        u = potential_from_callable(g, np.cosh, np.sinh, np.cosh)
        target = Grid(-3.0, 3.0, 256)
        w = legendre_transform(u, target)
        brute = brute_force_conjugate(u, target.nodes)
        # the brute grid max undershoots by at most h^2 max(u'')/8
        tol = g.spacing**2 * float(np.max(u.d2u)) / 8.0 + 1e-10
        assert np.all(w.u >= brute - 1e-10)
        assert np.max(np.abs(w.u - brute)) <= tol

    def test_double_transform_family(self):
        # curvature range [0.2, 5] per the module contract
        g = Grid(-4.0, 4.0, 512)
        for c in (0.2, 1.0, 5.0):
            u = ConvexPotential.quadratic(g, curvature=c)
            w = legendre_transform(u, Grid(-0.7 * c * 4, 0.7 * c * 4, 512))
            back = legendre_transform(w, Grid(-2.75, 2.75, 512))
            assert np.max(np.abs(back.u - 0.5 * c * back.grid.nodes**2)) < 1e-5

    def test_double_transform_varying_curvature(self):
        # non-quadratic member of the family: curvature in [0.7, ~1.0]
        g = Grid(-4.0, 4.0, 512)
        fu = lambda x: 0.3 * x**2 + 0.4 * np.cosh(x / 2.0) * 4.0
        du = lambda x: 0.6 * x + 0.8 * np.sinh(x / 2.0)
        d2u = lambda x: 0.6 + 0.4 * np.cosh(x / 2.0)
        u = potential_from_callable(g, fu, du, d2u)
        w = legendre_transform(u, Grid(float(u.du[0]) * 0.8, float(u.du[-1]) * 0.8, 512))
        inner = Grid(-2.5, 2.5, 512)
        back = legendre_transform(w, inner)
        assert np.max(np.abs(back.u - fu(inner.nodes))) < 1e-5

    def test_inverse_gradient_duality(self):
        g = Grid(-2.0, 2.0, 512)
        u = potential_from_callable(
            g, lambda x: np.cosh(x) + 0.25 * x**2,
            lambda x: np.sinh(x) + 0.5 * x,
            lambda x: np.cosh(x) + 0.5)
        w = legendre_transform(u, Grid(-4.5, 4.5, 512))
        xs = np.linspace(-1.8, 1.8, 101)
        back = np.interp(np.interp(xs, g.nodes, u.du), w.grid.nodes, w.du)
        assert np.max(np.abs(back - xs)) < 1e-4

    def test_range_error(self):
        u = ConvexPotential.quadratic(GRID)
        with pytest.raises(RangeError):
            legendre_transform(u, Grid(-20.0, 20.0, 64))


class TestMirrorCoordinate:
    """inverse_gradient_map takes mirror coordinates y = u'(x) back to x."""

    def test_quadratic(self):
        u = ConvexPotential.quadratic(GRID)
        assert inverse_gradient_map(u, np.array([0.7]))[0] == pytest.approx(0.7, abs=1e-9)

    def test_quartic(self):
        g = Grid(0.1, 2.0, 512)
        u = potential_from_callable(g, lambda x: x**4, lambda x: 4 * x**3,
                                          lambda x: 12 * x**2)
        assert inverse_gradient_map(u, np.array([4.0]))[0] == pytest.approx(1.0, abs=1e-4)

    def test_inverse_potential(self):
        g = Grid(0.2, 5.0, 512)
        u = potential_from_callable(g, lambda x: 1.0 / x, lambda x: -1.0 / x**2,
                                          lambda x: 2.0 / x**3, floor=1e-2)
        assert inverse_gradient_map(u, np.array([-1.0]))[0] == pytest.approx(1.0, abs=1e-3)

    def test_outside_grid(self):
        # beyond u's gradient range the inverse continues linearly with the
        # boundary Hessian
        u = ConvexPotential.quadratic(GRID, curvature=2.0)
        got = inverse_gradient_map(u, np.array([-18.0, 20.0]))
        np.testing.assert_allclose(got, [-9.0, 10.0], rtol=0, atol=1e-12)


class TestBregman:
    def setup_method(self):
        self.u = ConvexPotential.quadratic(GRID)
        self.w = legendre_transform(self.u, Grid(-6.0, 6.0, 512))

    def test_quadratic_form(self):
        got = bregman_divergence(self.u, self.w, 1.2, -0.7)
        assert got == pytest.approx(0.5 * (1.2 + 0.7) ** 2, abs=1e-8)

    def test_zero_at_matched_point(self):
        y = 0.9
        x = float(np.interp(y, self.w.grid.nodes, self.w.du))
        assert abs(bregman_divergence(self.u, self.w, x, y)) < 1e-8

    def test_quartic_value(self):
        g = Grid(0.1, 2.0, 512)
        u = potential_from_callable(g, lambda x: x**4, lambda x: 4 * x**3,
                                          lambda x: 12 * x**2)
        w = legendre_transform(u, Grid(0.05, 30.0, 512))
        # sup_x (4x - x^4) = 3 at x = 1, so u(1) + w(4) - 4 = 0
        assert bregman_divergence(u, w, 1.0, 4.0) == pytest.approx(0.0, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(x=st.floats(-4.0, 4.0), y=st.floats(-3.0, 3.0))
    def test_nonnegative_with_curvature_bound(self, x, y):
        d = bregman_divergence(self.u, self.w, x, y)
        assert d >= -1e-8
        matched = float(np.interp(y, self.w.grid.nodes, self.w.du))
        assert d >= 0.5 * self.u.floor * (x - matched) ** 2 - 1e-6


class TestTensorIdentity:
    def test_quadratic_exact(self):
        u = ConvexPotential.quadratic(GRID, curvature=1.7)
        assert log_det_hessian_gradient_residual(u) < 1e-10

    @pytest.mark.parametrize("n,bound", [(512, 1e-3), (1024, 2.5e-4)])
    def test_quartic_bounds(self, n, bound):
        g = Grid(0.5, 2.0, n)
        u = potential_from_callable(g, lambda x: x**4 + x**2 / 2,
                                          lambda x: 4 * x**3 + x,
                                          lambda x: 12 * x**2 + 1)
        assert log_det_hessian_gradient_residual(u) < bound

    def test_refinement_factor(self):
        vals = []
        for n in (512, 1024):
            g = Grid(-2.0, 2.0, n)
            u = potential_from_callable(g, np.cosh, np.sinh, np.cosh)
            vals.append(log_det_hessian_gradient_residual(u))
        assert 3.0 < vals[0] / vals[1] < 5.0


def test_change_of_measure_identity():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.uniform(0.8, 1.2)
        b = rng.uniform(-0.3, 0.3)
        c = rng.uniform(0.02, 0.08)
        phi = potential_from_callable(
            GRID,
            lambda x: 0.5 * a * x**2 + b * x + c * np.cosh(x / 2) * 4,
            lambda x: a * x + b + 2.0 * c * np.sinh(x / 2),
            lambda x: a + c * np.cosh(x / 2))
        target = Grid(float(phi.du[0]) - 0.5, float(phi.du[-1]) + 0.5, 1024)
        pushed = pushforward_monotone(STD, phi.du, target)
        assert change_of_measure_residual(STD, phi, pushed) < 1e-4


def test_monotone_map_validation():
    # pushforward_monotone refuses a map that is not strictly increasing,
    # not finite or not sampled at every node
    with pytest.raises(NonMonotoneMap):
        pushforward_monotone(STD, np.zeros(GRID.n))
    with pytest.raises(NonMonotoneMap):
        pushforward_monotone(STD, np.where(GRID.nodes > 0.0, np.nan, GRID.nodes))
    with pytest.raises(DomainError):
        pushforward_monotone(STD, GRID.nodes[:-1])


class TestValueAt:
    # cubic-Hermite pieces reproduce a cubic exactly from its node values
    # and slopes; u'' = x + 4 keeps it convex on [-3, 3]
    grid = Grid(-3.0, 3.0, 64)
    u = potential_from_callable(grid, lambda x: x**3 / 6.0 + 2.0 * x**2,
                                      lambda x: x**2 / 2.0 + 4.0 * x, lambda x: x + 4.0)

    def test_exact_on_a_cubic(self):
        x = np.concatenate([np.random.default_rng(4).uniform(-3.0, 3.0, 500),
                            self.grid.nodes])
        np.testing.assert_allclose(self.u.value_at(x), x**3 / 6.0 + 2.0 * x**2,
                                   rtol=0, atol=1e-12)
        got = self.u.value_at(0.3)
        assert isinstance(got, float) and got == pytest.approx(0.0045 + 0.18, abs=1e-12)

    @pytest.mark.parametrize("x", [-3.001, 3.001, [0.0, 3.5]])
    def test_outside_the_grid_raises(self, x):
        with pytest.raises(DomainError):
            self.u.value_at(x)


def test_convexity_floor_enforced():
    vals = 0.5 * GRID.nodes**2
    d2 = np.full(GRID.n, 1.0)
    d2[10] = 1e-5
    with pytest.raises(ConvexityLost):
        ConvexPotential(GRID, vals, GRID.nodes, d2)
