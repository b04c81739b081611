import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline, PchipInterpolator

from sinkflow import grids
from sinkflow.errors import (
    DomainError,
    GridMismatch,
    NonMonotoneMap,
    NonPositiveError,
    StabilityError,
    TruncationError,
)
from sinkflow.grids import (
    DensitySpec,
    Grid,
    GridDensity,
    Tridiagonal,
    _hermite,
    _pchip_slopes,
    _spline_slopes,
    cdf_values,
    discretize,
    grad_central,
    kl_divergence,
    lerp,
    locate,
    pushforward_monotone,
    quantile,
    second_central,
)
from sinkflow.particles import ParticleEnsemble

from reference import uniform_spec


@pytest.fixture(scope="module")
def grid():
    return Grid(-8.0, 8.0, 512)


@pytest.fixture(scope="module")
def std_normal(grid):
    return discretize(DensitySpec.gaussian(0.0, 1.0), grid)


def test_grid_invariants():
    g = Grid(-2.0, 2.0, 64)
    assert g.spacing == pytest.approx(4.0 / 63)
    assert g.nodes[0] == -2.0 and g.nodes[-1] == pytest.approx(2.0)
    with pytest.raises(DomainError):
        Grid(-1.0, 1.0, 8)
    with pytest.raises(DomainError):
        Grid(1.0, -1.0, 64)


class TestDiscretize:
    def test_normal_mass(self, std_normal, grid):
        assert abs(grid.integrate(std_normal.values) - 1.0) < 1e-10

    def test_narrow_domain_rejected(self):
        # N(0,1) keeps only ~68% of its mass on [-1, 1]
        with pytest.raises(TruncationError):
            discretize(DensitySpec.gaussian(0.0, 1.0), Grid(-1.0, 1.0, 64))

    def test_uniform_values(self):
        g = Grid(0.0, 1.0, 64)
        d = discretize(uniform_spec(0.0, 1.0), g)
        np.testing.assert_allclose(d.values, 1.0, atol=1e-12)

    def test_nonpositive_rejected(self, grid):
        bad = DensitySpec(
            log_density_neg=lambda x: np.where(x > 0, np.inf, 0.0),
            grad=lambda x: np.zeros_like(x),
            hess=lambda x: np.zeros_like(x),
        )
        with pytest.raises((NonPositiveError, DomainError)):
            discretize(bad, grid)

    def test_unnormalized_spec_with_log_norm(self, grid):
        # exp(-x^2/2) integrates to sqrt(2 pi); carrying that log mass in f
        # makes the truncation check see a proper probability density
        spec = DensitySpec(
            log_density_neg=lambda x: 0.5 * x**2 + 0.5 * math.log(2.0 * math.pi),
            grad=lambda x: x,
            hess=lambda x: np.ones_like(x),
        )
        d = discretize(spec, grid)
        ref = discretize(DensitySpec.gaussian(0.0, 1.0), grid)
        np.testing.assert_allclose(d.values, ref.values, atol=1e-12)

    def test_wrong_log_norm_trips_truncation_guard(self, grid):
        # declaring twice the true mass makes the on-grid fraction look < 1
        spec = DensitySpec(
            log_density_neg=lambda x: 0.5 * x**2 + 0.5 * math.log(2.0 * math.pi) + math.log(2.0),
            grad=lambda x: x,
            hess=lambda x: np.ones_like(x),
        )
        with pytest.raises(TruncationError):
            discretize(spec, grid)


class TestCdfQuantile:
    def test_uniform_cdf_is_identity(self):
        g = Grid(0.0, 1.0, 64)
        d = discretize(uniform_spec(0.0, 1.0), g)
        np.testing.assert_allclose(cdf_values(d), g.nodes, atol=1e-12)

    def test_normal_cdf_midpoint(self, std_normal):
        at_zero = np.interp(0.0, std_normal.grid.nodes, cdf_values(std_normal))
        assert at_zero == pytest.approx(0.5, abs=1e-6)

    def test_cdf_endpoints(self, std_normal):
        c = cdf_values(std_normal)
        assert c[0] == 0.0 and c[-1] == 1.0
        assert np.all(np.diff(c) >= 0.0)

    def test_uniform_quantile(self):
        g = Grid(0.0, 1.0, 64)
        d = discretize(uniform_spec(0.0, 1.0), g)
        assert quantile(d, 0.25) == pytest.approx(0.25, abs=g.spacing)

    def test_normal_median_and_sigma(self, std_normal):
        assert quantile(std_normal, 0.5) == pytest.approx(0.0, abs=std_normal.grid.spacing)
        # standard-normal CDF at 1.0 is 0.841345
        assert quantile(std_normal, 0.8413447460685429) == pytest.approx(1.0, abs=0.01)

    def test_quantile_domain(self, std_normal):
        with pytest.raises(DomainError):
            quantile(std_normal, 1.5)

    def test_round_trip(self, std_normal):
        ps = np.linspace(0.01, 0.99, 99)
        xs = quantile(std_normal, ps)
        back = np.interp(xs, std_normal.grid.nodes, cdf_values(std_normal))
        tol = 2 * std_normal.grid.spacing * float(np.max(std_normal.values))
        assert np.max(np.abs(back - ps)) <= tol


class TestKl:
    def test_identical(self, std_normal):
        assert kl_divergence(std_normal, std_normal) == pytest.approx(0.0, abs=1e-12)

    def test_mean_shift(self, grid, std_normal):
        shifted = discretize(DensitySpec.gaussian(0.5, 1.0), grid)
        assert kl_divergence(shifted, std_normal) == pytest.approx(0.125, abs=1e-4)

    def test_scale(self, grid, std_normal):
        narrow = discretize(DensitySpec.gaussian(0.0, 0.25), grid)
        expected = 0.5 * (0.25 - 1.0 - 2.0 * math.log(0.5))
        assert kl_divergence(narrow, std_normal) == pytest.approx(expected, abs=1e-4)

    def test_grid_mismatch(self, std_normal):
        other = discretize(DensitySpec.gaussian(0.0, 1.0), Grid(-8.0, 8.0, 256))
        with pytest.raises(GridMismatch):
            kl_divergence(std_normal, other)

    @settings(max_examples=25, deadline=None)
    @given(mean=st.floats(-0.8, 0.8), var=st.floats(0.5, 1.5))
    def test_gibbs_inequality(self, mean, var):
        g = Grid(-8.0, 8.0, 256)
        p = discretize(DensitySpec.gaussian(mean, var), g)
        q = discretize(DensitySpec.gaussian(0.0, 1.0), g)
        assert kl_divergence(p, q) >= -1e-9


class TestPushforward:
    def test_identity(self, std_normal, grid):
        out = pushforward_monotone(std_normal, grid.nodes)
        np.testing.assert_allclose(out.values, std_normal.values, atol=1e-12)

    def test_translation(self, std_normal, grid):
        out = pushforward_monotone(std_normal, grid.nodes + 0.5)
        ref = discretize(DensitySpec.gaussian(0.5, 1.0), grid)
        assert np.max(np.abs(out.values - ref.values)) < 1e-6

    def test_dilation_onto_declared_grid(self, std_normal, grid):
        wide = Grid(-16.0, 16.0, 1024)
        out = pushforward_monotone(std_normal, 2.0 * grid.nodes, wide)
        ref = discretize(DensitySpec.gaussian(0.0, 4.0), wide)
        assert np.max(np.abs(out.values - ref.values)) < 1e-5

    def test_round_trip(self, std_normal, grid):
        fwd = lambda x: x + 0.3 * np.tanh(x)
        mid_grid = Grid(-8.29, 8.29, 1024)  # inside the forward image
        mid = pushforward_monotone(std_normal, fwd(grid.nodes), mid_grid)
        # exact inverse of the forward map by Newton iteration
        inv_map = mid_grid.nodes.copy()
        for _ in range(30):
            inv_map = inv_map - (fwd(inv_map) - mid_grid.nodes) / (
                1.0 + 0.3 / np.cosh(inv_map) ** 2
            )
        back = pushforward_monotone(mid, inv_map, grid)
        assert np.max(np.abs(back.values - std_normal.values)) < 1e-6

    def test_non_monotone_rejected(self, std_normal, grid):
        with pytest.raises(NonMonotoneMap):
            pushforward_monotone(std_normal, -grid.nodes)

    def test_escaping_mass_rejected(self, std_normal, grid):
        with pytest.raises(TruncationError):
            pushforward_monotone(std_normal, 2.0 * grid.nodes)  # image [-16,16] onto [-8,8]

    def test_error_messages_print_plain_floats(self):
        # numpy 2 reprs its scalars as np.float64(...); the messages read as
        # Python floats.  A map that goes flat beyond x = -1 collapses its
        # slopes over about 16% of the mass
        grid = Grid(-8.0, 8.0, 64)
        d = discretize(DensitySpec.gaussian(0.0, 1.0), grid)
        xs = grid.nodes
        flat = np.where(xs < -1.0, xs, -1.0 + 1e-5 * (xs + 1.0))
        for error, map_values in ((TruncationError, 3.0 * xs), (NonMonotoneMap, flat)):
            with pytest.raises(error) as caught:
                pushforward_monotone(d, map_values)
            message = str(caught.value)
            assert "np.float64(" not in message
            assert re.search(r"(loses mass|collapse over) \d\.\d+(e-\d+)? ", message), message


def knots(kind, n):
    if kind == "uniform":
        return np.linspace(-3.0, 4.0, n)
    return np.cumsum(np.random.default_rng(n).uniform(0.01, 1.0, n)) - 5.0


def knot_values(x):
    """Samples with a flat run, a strict extremum, secant slopes that change
    sign, and a kink."""
    y = np.sin(1.7 * x) + 0.3 * x + 0.05 * np.abs(x - x[len(x) // 5])
    y[len(x) // 3: len(x) // 3 + 4] = y[len(x) // 3]
    return y


def queries(x):
    """Every knot, both ends, points beyond them and random interior points."""
    inner = np.random.default_rng(len(x) + 1).uniform(x[0], x[-1], 4 * len(x))
    beyond = [x[0] - 0.3, x[0] - 1e-12, x[-1] + 1e-12, x[-1] + 0.3]
    return np.sort(np.concatenate([x, inner, beyond]))


class TestCubicInterpolants:
    """The numpy PCHIP and not-a-knot spline in pushforward_monotone against
    scipy's PchipInterpolator and CubicSpline."""

    @pytest.mark.parametrize("kind", ["uniform", "nonuniform"])
    @pytest.mark.parametrize("n", [5, 16, 400, 1600])
    def test_pchip_matches_scipy(self, kind, n):
        x = knots(kind, n)
        y = knot_values(x)
        q = queries(x)
        got = _hermite(x, y, _pchip_slopes(x, y), q)
        want = PchipInterpolator(x, y)(q)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("kind", ["uniform", "nonuniform"])
    @pytest.mark.parametrize("n", [4, 5, 16, 400, 1600])
    def test_spline_matches_scipy(self, kind, n):
        x = knots(kind, n)
        y = knot_values(x)
        q = queries(x)
        got = _hermite(x, y, _spline_slopes(x, y), q)
        want = CubicSpline(x, y)(q)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_pchip_end_slope_clamps(self):
        # the one-sided estimate points against the end secant (set to 0) or
        # overshoots three times it where the secants turn (set to 3 m0)
        x = np.array([0.0, 1.0, 1.5, 4.0, 5.0])
        for y in ([0.0, 1.0, 3.0, 2.5, 2.0], [0.0, 1.0, -4.0, -3.0, -2.0],
                  [0.0, 0.1, 2.0, -1.0, 3.0]):
            y = np.asarray(y)
            np.testing.assert_allclose(_pchip_slopes(x, y), PchipInterpolator(x, y)(x, 1),
                                       rtol=0, atol=1e-14)

    def test_knots_reproduced(self):
        x = knots("nonuniform", 40)
        y = knot_values(x)
        for slopes in (_pchip_slopes(x, y), _spline_slopes(x, y)):
            np.testing.assert_allclose(_hermite(x, y, slopes, x), y, rtol=0, atol=1e-14)

    def test_spline_exact_on_cubics(self):
        x = knots("nonuniform", 12)
        y = x**3 - 2.0 * x
        np.testing.assert_allclose(_spline_slopes(x, y), 3.0 * x**2 - 2.0, rtol=1e-11)


class TestTridiagonal:
    @pytest.mark.parametrize("dominance", ["rows", "columns"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 255, 256, 257, 1000, 2047, 2048, 2049])
    def test_matches_dense_solve(self, n, dominance):
        # around 2^k - 1, where the padding to 2^k - 1 rows is empty or a
        # whole level
        rng = np.random.default_rng(n)
        lower, upper = rng.uniform(-1.0, 1.0, (2, n - 1))
        off = np.abs(np.concatenate(([0.0], lower))) + np.abs(np.concatenate((upper, [0.0])))
        if dominance == "columns":
            off = np.abs(np.concatenate((lower, [0.0]))) + np.abs(np.concatenate(([0.0], upper)))
        diag = off + rng.uniform(0.01, 1.0, n)
        a = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        b = rng.standard_normal(n)
        want = np.linalg.solve(a, b)
        got = Tridiagonal(lower, diag, upper).solve(b)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_solves_repeat_and_return_new_arrays(self):
        n = 64
        solver = Tridiagonal(np.full(n - 1, -1.0), np.full(n, 3.0), np.full(n - 1, -1.0))
        b = np.linspace(0.0, 1.0, n)
        first = solver.solve(b)
        second = solver.solve(b)
        assert first is not second and np.array_equal(first, second)
        assert np.array_equal(b, np.linspace(0.0, 1.0, n))

    def test_solves_leave_nothing_behind(self):
        # the work buffer and its padding rows carry nothing from one solve
        # to the next, not even a non-finite right-hand side
        rng = np.random.default_rng(11)
        n = 300
        lower, upper = rng.uniform(-1.0, 1.0, (2, n - 1))
        solver = Tridiagonal(lower, 2.5 + rng.random(n), upper)
        b = rng.standard_normal(n)
        kept = b.copy()
        first = solver.solve(b)
        with np.errstate(invalid="ignore"):
            solver.solve(np.full(n, np.nan))
            solver.solve(np.full(n, np.inf))
        solver.solve(rng.standard_normal(n))
        assert np.array_equal(solver.solve(b), first)
        assert np.array_equal(b, kept)

    @pytest.mark.parametrize("n", [2, 3, 2048])
    def test_singular_matrix_is_a_stability_error(self, n):
        # rows i and i + 1 equal, both [.., 0, 1, 2, 0, ..], in a matrix
        # that is otherwise diagonally dominant
        lower, diag, upper = np.full(n - 1, -1.0), np.full(n, 3.0), np.full(n - 1, -1.0)
        i = n // 2 - 1
        lower[i - 1:i] = 0.0
        upper[i + 1:i + 2] = 0.0
        diag[i], upper[i], lower[i], diag[i + 1] = 1.0, 2.0, 1.0, 2.0
        a = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        assert np.array_equal(a[i], a[i + 1])
        with pytest.raises(StabilityError):
            Tridiagonal(lower, diag, upper)

    def test_spline_system_matches_dense_solve(self, monkeypatch):
        # the not-a-knot system at n = 2048, whose end rows are not
        # diagonally dominant
        made = []

        class Recording(Tridiagonal):
            def __init__(self, lower, diag, upper):
                super().__init__(lower, diag, upper)
                made.append((self, np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)))

        monkeypatch.setattr(grids, "Tridiagonal", Recording)
        x = knots("nonuniform", 2048)
        _spline_slopes(x, knot_values(x))
        (solver, a), = made
        assert abs(a[0, 0]) < abs(a[0, 1]) and abs(a[-1, -1]) < abs(a[-1, -2])
        b = np.random.default_rng(5).standard_normal(2048)
        want = np.linalg.solve(a, b)
        assert np.max(np.abs(solver.solve(b) - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_nan_entry_is_a_stability_error(self, row):
        n = 3
        diag = np.full(n, 3.0)
        diag[row] = np.nan
        with pytest.raises(StabilityError):
            Tridiagonal(np.full(n - 1, -1.0), diag, np.full(n - 1, -1.0))


def sample(d, count, seed):
    """Inverse-CDF draws through the particle simulators' sampler."""
    return ParticleEnsemble.from_density(d, count, seed).positions


class TestSample:
    def test_clt_mean(self, std_normal):
        xs = sample(std_normal, 100_000, seed=7)
        assert abs(xs.mean()) < 3.0 / math.sqrt(100_000)

    def test_seed_determinism(self, std_normal):
        a = sample(std_normal, 1000, seed=42)
        b = sample(std_normal, 1000, seed=42)
        assert np.array_equal(a, b)

    def test_uniform_variance(self):
        g = Grid(0.0, 1.0, 64)
        d = discretize(uniform_spec(0.0, 1.0), g)
        xs = sample(d, 100_000, seed=3)
        se = math.sqrt(2.0 / 100_000) / 12.0
        assert abs(xs.var() - 1.0 / 12.0) < 3 * se + 1e-4


class TestLocate:
    GRIDS = (Grid(-8.0, 8.0, 512), Grid(-2.3, 1.7, 37), Grid(0.0, 1.0, 16))

    @staticmethod
    def _points(g):
        rng = np.random.default_rng(11)
        inside = rng.uniform(g.lower, g.upper, 5000)
        beyond = np.array([g.lower - 3.0, g.lower - 1e-12, g.upper + 1e-12, g.upper + 3.0,
                           -np.inf, np.inf])
        return np.concatenate([inside, g.nodes, [g.lower, g.upper], beyond])

    @pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"n{g.n}")
    def test_matches_np_interp(self, g):
        xs = self._points(g)
        rng = np.random.default_rng(3)
        at = locate(g, xs)
        for values in (rng.normal(size=g.n), 1e6 * np.exp(g.nodes), np.cos(3.0 * g.nodes)):
            want = np.interp(xs, g.nodes, values)
            assert np.max(np.abs(lerp(at, values) - want)) <= 1e-13 * np.max(np.abs(values))

    @pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"n{g.n}")
    def test_clamps_to_end_values_exactly(self, g):
        values = np.random.default_rng(5).normal(size=g.n)
        below = np.array([g.lower, g.lower - 1e-9, g.lower - 5.0, -np.inf])
        above = np.array([g.upper, g.upper + 1e-9, g.upper + 5.0, np.inf])
        assert np.all(lerp(locate(g, below), values) == values[0])
        assert np.all(lerp(locate(g, above), values) == values[-1])

    def test_same_arithmetic_as_np_interp(self, grid):
        # away from the nodes both pick the same cell, so they agree exactly
        xs = np.random.default_rng(13).uniform(grid.lower - 1.0, grid.upper + 1.0, 20000)
        values = np.random.default_rng(17).normal(size=grid.n)
        assert np.array_equal(lerp(locate(grid, xs), values), np.interp(xs, grid.nodes, values))

    def test_location_in_range(self, grid):
        at = locate(grid, self._points(grid))
        assert at.index.min() >= 0 and at.index.max() <= grid.n - 1
        assert np.all(at.offset >= -1e-12 * grid.spacing)
        assert np.all(at.offset <= grid.spacing * (1.0 + 1e-12))

    def test_nan_rejected(self, grid):
        with pytest.raises(DomainError):
            locate(grid, np.array([0.0, np.nan]))


def grad_central_expression(v, spacing):
    # the stencil written as whole-array expressions on v's own elements
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * spacing)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * spacing)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * spacing)
    return out


def second_central_expression(v, spacing):
    h2 = spacing * spacing
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return out


class TestCentralStencils:
    @pytest.mark.parametrize("stencil,expression", [
        (grad_central, grad_central_expression),
        (second_central, second_central_expression),
    ])
    @pytest.mark.parametrize("n", [16, 257, 2048])
    def test_matches_the_whole_array_expression(self, stencil, expression, n):
        rng = np.random.default_rng(n)
        spacing = 16.0 / (n - 1)
        for scale in (1e-3, 1.0, 1e6):
            v = scale * rng.standard_normal(n) + np.linspace(-3.0, 5.0, n) ** 2
            assert np.array_equal(stencil(v, spacing), expression(v, spacing))


def second_moment(d):
    """E[x^2] from the density's own mean and variance quadratures."""
    return d.variance() + d.mean() ** 2


class TestSecondMoment:
    def test_standard_normal(self, std_normal):
        assert second_moment(std_normal) == pytest.approx(1.0, abs=1e-4)

    def test_shifted(self, grid):
        d = discretize(DensitySpec.gaussian(0.5, 1.0), grid)
        assert second_moment(d) == pytest.approx(1.25, abs=1e-4)

    def test_uniform(self):
        # trapezoid error for x^2 is h^2/6, below 1e-6 from n = 512 up
        g = Grid(0.0, 1.0, 512)
        d = discretize(uniform_spec(0.0, 1.0), g)
        assert second_moment(d) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_density_invariants_enforced(grid):
    vals = np.full(grid.n, 1.0 / 16.0)
    vals[5] = -vals[5]
    with pytest.raises(NonPositiveError):
        GridDensity(grid, vals)
    with pytest.raises(NonPositiveError):
        GridDensity(grid, np.full(grid.n, 1.0))  # mass 16, not 1
