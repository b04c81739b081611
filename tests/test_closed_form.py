import math

import numpy as np
import pytest

from sinkflow.closed_form import (
    ClosedFormFlow,
    FlowKind,
    deficit_ratio,
    evaluate,
    scale_variance_entropic,
    scale_variance_fokker_planck,
    sinkhorn_gaussian_iterates,
    w2_gaussian,
)
from sinkflow.errors import DomainError, NumericOverflow
from sinkflow.grids import GaussianMeasure

from reference import euclid_mirror_ode_step, integrate_euclid_mirror


class TestEvaluate:
    def test_location_initial_condition(self):
        m = evaluate(ClosedFormFlow(FlowKind.SINKHORN_LOCATION, 0.5), 0.0)
        assert m.mean == pytest.approx(0.5) and m.variance == pytest.approx(1.0)

    def test_location_decay(self):
        m = evaluate(ClosedFormFlow(FlowKind.SINKHORN_LOCATION, 0.5), 1.0)
        assert m.mean == pytest.approx(0.5 * math.exp(-1.0))

    def test_scale_variance_value(self):
        # direct evaluation of the squared relaxation formula at eta = 1/2,
        # t = 1: (1 - 1/(1.5 e^4 + 0.5))^2
        got = evaluate(ClosedFormFlow(FlowKind.SINKHORN_SCALE, 0.5), 1.0).variance
        direct = (1.0 - 1.0 / (1.5 * math.exp(4.0) + 0.5)) ** 2
        assert got == pytest.approx(direct, abs=1e-12)
        assert got == pytest.approx(0.9758746284506505, abs=1e-10)

    def test_fokker_planck_scale(self):
        got = evaluate(ClosedFormFlow(FlowKind.FOKKER_PLANCK_SCALE, 0.5), 1.0).variance
        assert got == pytest.approx(1.0 - 0.75 * math.exp(-2.0), abs=1e-12)

    def test_mirror_examples(self):
        assert evaluate(ClosedFormFlow(FlowKind.MIRROR_ENTROPY), 1.0).variance == 4.0
        assert evaluate(ClosedFormFlow(FlowKind.MIRROR_POTENTIAL_ENERGY), 1.0).variance == 0.25

    def test_quartic_endpoint(self):
        assert evaluate(ClosedFormFlow(FlowKind.EUCLID_QUARTIC), 6.0) == 0.0
        with pytest.raises(DomainError):
            evaluate(ClosedFormFlow(FlowKind.EUCLID_QUARTIC), 6.1)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            ClosedFormFlow(FlowKind.SINKHORN_SCALE, 1.5)
        with pytest.raises(DomainError):
            ClosedFormFlow(FlowKind.SINKHORN_LOCATION, 0.0)

    @pytest.mark.parametrize("kind", list(FlowKind))
    @pytest.mark.parametrize("param", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, kind, param):
        # nan == 0.0 is false, so the location check alone let NaN through
        with pytest.raises(DomainError):
            ClosedFormFlow(kind, param)


class TestScaleVariances:
    def test_start_at_eta_squared(self):
        for eta in (0.3, 0.5, 0.9):
            assert scale_variance_entropic(eta, 0.0) == pytest.approx(eta * eta, abs=1e-12)
            assert scale_variance_fokker_planck(eta, 0.0) == pytest.approx(eta * eta, abs=1e-12)

    def test_strictly_increasing_to_one(self):
        ts = np.linspace(0.0, 4.0, 50)
        for eta in (0.3, 0.7):
            s = [scale_variance_entropic(eta, t) for t in ts]
            f = [scale_variance_fokker_planck(eta, t) for t in ts]
            assert all(b > a for a, b in zip(s, s[1:]))
            assert all(b > a for a, b in zip(f, f[1:]))
            assert s[-1] < 1.0 and f[-1] < 1.0
            assert s[-1] > 0.999 and f[-1] > 0.99

    def test_entropic_variance_past_the_exp_overflow(self):
        # 2t/eta = 800 at eta = 0.005, t = 2, beyond the 709.78 where
        # exp(2t/eta) overflows; the variance there is 1 to double precision
        assert scale_variance_entropic(0.005, 2.0) == 1.0
        assert scale_variance_entropic(0.005, 0.0) == pytest.approx(0.005**2, rel=1e-12)


class TestDeficitRatio:
    def test_t1(self):
        lhs, rhs = deficit_ratio(0.5, 1.0)
        assert rhs == pytest.approx((2.25 / 4.0) * math.exp(2.0), rel=1e-12)
        assert lhs >= rhs

    def test_t2(self):
        lhs, rhs = deficit_ratio(0.5, 2.0)
        assert lhs >= rhs

    def test_limit_eta_to_one(self):
        # the envelope collapses to 1 in the equal-variance limit; the
        # inequality itself is checked at eta = 0.999 where the algebraic
        # margin still dominates float cancellation in the deficits
        _, rhs = deficit_ratio(1.0 - 1e-9, 3.0)
        assert rhs == pytest.approx(1.0, abs=1e-6)
        lhs, rhs = deficit_ratio(0.999, 3.0)
        assert lhs >= rhs

    def test_algebraic_margin(self):
        # lhs/rhs = (1 + ((1-eta)/(1+eta)) e^(-2t/eta))^2 exactly
        for eta, t in ((0.5, 1.0), (0.5, 2.0), (0.3, 1.5)):
            lhs, rhs = deficit_ratio(eta, t)
            margin = (1.0 + (1.0 - eta) / (1.0 + eta) * math.exp(-2.0 * t / eta)) ** 2
            assert lhs / rhs == pytest.approx(margin, rel=1e-9)

    @pytest.mark.parametrize("eta", [0.05, 0.11, 0.3])
    def test_small_eta_keeps_the_margin_digits(self, eta):
        # the entropic deficit 1 - (1 - s)^2 cancelled to 0 at t = 2 below
        # eta = 0.1055 and lost most of its digits above; s (2 - s) keeps them
        for t in (1.0, 2.0):
            lhs, rhs = deficit_ratio(eta, t)
            margin = (1.0 + (1.0 - eta) / (1.0 + eta) * math.exp(-2.0 * t / eta)) ** 2
            assert lhs / rhs == pytest.approx(margin, rel=1e-14)

    def test_ratio_beyond_the_double_range_raises(self):
        # rhs is about e^796 at eta = 0.005, t = 2
        with pytest.raises(NumericOverflow):
            deficit_ratio(0.005, 2.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            deficit_ratio(1.2, 1.0)
        with pytest.raises(DomainError):
            deficit_ratio(0.5, 0.0)


class TestEuclidMirrorOde:
    def test_quadratic_checkpoint(self):
        got = integrate_euclid_mirror(FlowKind.EUCLID_QUADRATIC, 1.0, 1e-4)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_quartic_checkpoint(self):
        got = integrate_euclid_mirror(FlowKind.EUCLID_QUARTIC, 3.0, 1e-4)
        assert got == pytest.approx(math.sqrt(0.5), abs=1e-3)

    def test_inverse_checkpoint(self):
        got = integrate_euclid_mirror(FlowKind.EUCLID_INVERSE, 2.0, 1e-4)
        assert got == pytest.approx(4.0 ** (-1.0 / 3.0), abs=1e-3)

    def test_singularity_guard(self):
        with pytest.raises(DomainError):
            euclid_mirror_ode_step(FlowKind.EUCLID_QUARTIC, 0.0, 1e-4)

    def test_non_ode_kind_rejected(self):
        with pytest.raises(DomainError):
            euclid_mirror_ode_step(FlowKind.SINKHORN_LOCATION, 1.0, 1e-4)


class TestSinkhornLocationIterates:
    def test_starts_at_target_and_counts_steps(self):
        it = sinkhorn_gaussian_iterates(0.5, 1.0, 0.1, 10)
        assert len(it) == 11
        assert it[0] == GaussianMeasure(0.5, 1.0)

    def test_first_step_by_hand(self):
        # a = 1, b = 0: a' = (1+eps)/(1+eps+eps^2), P = 1 + eps/(1+eps+eps^2),
        # mean = theta a'/P
        eps, theta = 0.2, 0.5
        d = 1.0 + eps + eps * eps
        a1, p = (1.0 + eps) / d, 1.0 + eps / d
        rho1 = sinkhorn_gaussian_iterates(theta, 1.0, eps, 1)[1]
        assert rho1.mean == pytest.approx(theta * a1 / p, rel=1e-14)
        assert rho1.variance == pytest.approx(1.0 / p, rel=1e-14)

    def test_long_run_returns_to_first_marginal(self):
        last = sinkhorn_gaussian_iterates(0.5, 1.0, 0.1, 2000)[-1]
        assert abs(last.mean) < 1e-12 and last.variance == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            sinkhorn_gaussian_iterates(0.5, 1.0, 0.0, 3)
        with pytest.raises(DomainError):
            sinkhorn_gaussian_iterates(0.5, 1.0, 0.1, -1)


class TestScaleIterates:
    def test_start_is_the_target(self):
        it = sinkhorn_gaussian_iterates(0.0, 0.5, 0.1, 10)
        assert len(it) == 11
        assert it[0] == GaussianMeasure(0.0, 0.25)
        assert all(m.mean == 0.0 for m in it)

    def test_first_step_by_hand(self):
        # a = 1: alpha = 1/(1+eps), a' = 1/(alpha + eps/eta^2),
        # variance 1/P with P = 1 + (1 - a')/eps
        eps, eta = 0.2, 0.5
        a1 = 1.0 / (1.0 / (1.0 + eps) + eps / (eta * eta))
        rho1 = sinkhorn_gaussian_iterates(0.0, eta, eps, 1)[1]
        assert rho1.variance == pytest.approx(eps / (eps + 1.0 - a1), rel=1e-14)

    def test_unit_eta_limit_is_the_location_recursion(self):
        # with eta -> 1 the scale problem runs the location problem's curvature
        # sequence, and the location iterates' variances do not depend on theta
        scale = sinkhorn_gaussian_iterates(0.0, 1.0 - 1e-12, 0.1, 30)
        location = sinkhorn_gaussian_iterates(0.5, 1.0, 0.1, 30)
        for s, loc in zip(scale[1:], location[1:]):
            assert s.variance == pytest.approx(loc.variance, abs=1e-10)

    def test_variance_rises_to_the_first_marginal(self):
        variances = [m.variance for m in sinkhorn_gaussian_iterates(0.0, 0.5, 0.1, 2000)]
        assert all(b > a for a, b in zip(variances[:40], variances[1:41]))
        assert variances[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.02])
    def test_tracks_the_entropic_scale_flow(self, eps):
        # the iterate k approximates the flow at t = k eps, to O(eps)
        k = int(round(1.0 / eps))
        got = sinkhorn_gaussian_iterates(0.0, 0.5, eps, k)[-1].variance
        assert abs(got - scale_variance_entropic(0.5, 1.0)) <= 0.1 * eps

    def test_rejects_bad_arguments(self):
        # eta = 1 is the location problem, so only eta <= 0 is out of range
        for args in ((0.5, 0.0, 3), (0.5, 0.1, -1), (-0.5, 0.1, 3), (0.0, 0.1, 3)):
            with pytest.raises(DomainError):
                sinkhorn_gaussian_iterates(0.0, *args)


class TestGaussianHelpers:
    def test_w2_closed_form(self):
        a, b = GaussianMeasure(0.3, 1.0), GaussianMeasure(-0.1, 0.49)
        assert w2_gaussian(a, b) == pytest.approx(math.hypot(0.4, 0.3), abs=1e-12)


def test_location_flow_matches_numeric_run():
    # cross-module contract: the closed-form mean tracks the flow stepper
    from itertools import islice

    from sinkflow.grids import Grid
    from sinkflow.pma import run_flow

    from conftest import gaussian_flow_state

    grid = Grid(-8.0, 8.0, 256)
    start = gaussian_flow_state(grid, mean=0.5)
    states = list(islice(run_flow(start, 1e-3, 1000), 0, None, 500))
    for s in states[1:]:
        ref = evaluate(ClosedFormFlow(FlowKind.SINKHORN_LOCATION, 0.5), s.t).mean
        assert abs(s.rho.mean() - ref) <= 0.02 * abs(ref)
