"""Closed-form reference flows.

Every numeric solver in this package is tested against the expressions
here, never the other way around.  The module collects the Gaussian
location/scale flows of the entropic iteration and its Fokker-Planck
counterpart, the exact iterates of the discrete iteration for a Gaussian
target, the mirror-flow examples with explicit solutions, and the 1-D
mirror ODE examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError
from .grids import GaussianMeasure


class FlowKind(Enum):
    SINKHORN_LOCATION = "sinkhorn_location"
    SINKHORN_SCALE = "sinkhorn_scale"
    FOKKER_PLANCK_LOCATION = "fokker_planck_location"
    FOKKER_PLANCK_SCALE = "fokker_planck_scale"
    MIRROR_ENTROPY = "mirror_entropy"
    MIRROR_POTENTIAL_ENERGY = "mirror_potential_energy"
    EUCLID_QUADRATIC = "euclid_quadratic"
    EUCLID_QUARTIC = "euclid_quartic"
    EUCLID_INVERSE = "euclid_inverse"


@dataclass(frozen=True)
class ClosedFormFlow:
    """A reference flow plus its parameter (theta for location kinds,
    eta for scale kinds; unused otherwise)."""

    kind: FlowKind
    param: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.param):
            raise DomainError(f"flow parameter must be finite, got {self.param!r}")
        if self.kind in (FlowKind.SINKHORN_SCALE, FlowKind.FOKKER_PLANCK_SCALE):
            if not 0.0 < self.param < 1.0:
                raise DomainError("scale flows need eta in (0, 1)")
        if self.kind in (FlowKind.SINKHORN_LOCATION, FlowKind.FOKKER_PLANCK_LOCATION):
            if self.param == 0.0:
                raise DomainError("location flows need a nonzero shift")


def scale_variance_entropic(eta: float, t: float) -> float:
    """Variance of the entropic scale flow started at N(0, eta^2)."""
    s = 2.0 * (1.0 - eta) / (math.exp(2.0 * t / eta) * (eta + 1.0) + (1.0 - eta))
    return (1.0 - s) ** 2


def scale_variance_fokker_planck(eta: float, t: float) -> float:
    """Variance of the Fokker-Planck scale flow started at N(0, eta^2)."""
    return 1.0 - (1.0 - eta * eta) * math.exp(-2.0 * t)


def evaluate(flow: ClosedFormFlow, t: float):
    """Evaluate a flow at time t >= 0.

    Measure-valued kinds return a :class:`GaussianMeasure`; the Euclidean
    ODE kinds return the scalar solution started from x0 = 1.
    """
    if t < 0:
        raise DomainError("flows are defined for t >= 0")
    k, p = flow.kind, flow.param
    if k in (FlowKind.SINKHORN_LOCATION, FlowKind.FOKKER_PLANCK_LOCATION):
        return GaussianMeasure(p * math.exp(-t), 1.0)
    if k is FlowKind.SINKHORN_SCALE:
        return GaussianMeasure(0.0, scale_variance_entropic(p, t))
    if k is FlowKind.FOKKER_PLANCK_SCALE:
        return GaussianMeasure(0.0, scale_variance_fokker_planck(p, t))
    if k is FlowKind.MIRROR_ENTROPY:
        return GaussianMeasure(0.0, (1.0 + t) ** 2)
    if k is FlowKind.MIRROR_POTENTIAL_ENERGY:
        return GaussianMeasure(0.0, 1.0 / (1.0 + t) ** 2)
    if k is FlowKind.EUCLID_QUADRATIC:
        return math.exp(-t)
    if k is FlowKind.EUCLID_QUARTIC:
        if t > 6.0:
            raise DomainError("the quartic-mirror flow does not extend beyond t = 6")
        return math.sqrt(1.0 - t / 6.0)
    if k is FlowKind.EUCLID_INVERSE:
        return (1.0 + 1.5 * t) ** (-1.0 / 3.0)
    raise DomainError(f"unknown flow kind {k!r}")


def tabulate(flow: ClosedFormFlow, ts) -> list[dict]:
    """Rows of a flow at the times ``ts``: t, mean and variance for the
    measure-valued kinds, t and value for the Euclidean ODE kinds."""
    rows = []
    for t in map(float, ts):
        val = evaluate(flow, t)
        if isinstance(val, GaussianMeasure):
            rows.append({"t": t, "mean": val.mean, "variance": val.variance})
        else:
            rows.append({"t": t, "value": val})
    return rows


def sinkhorn_gaussian_iterates(theta: float, eta: float, eps: float,
                               steps: int) -> list[GaussianMeasure]:
    """Exact iterate marginals of the two-step iteration for a Gaussian target.

    With mu = N(0, 1), nu = N(theta, eta^2) and u_0 = x^2/2, every potential
    stays quadratic, u_k = a x^2/2 + b x, and both scaling operators are
    Gaussian integrals.  One step maps (a, b) to

        alpha = 1/(a + eps),  a' = 1/(alpha + eps/eta^2),
        b' = (alpha b + eps theta/eta^2)/(alpha + eps/eta^2),

    and rho_{k+1} = exp((u_{k+1} - u_k)/eps) mu has precision
    P = 1 + (a - a')/eps and mean (b' - b)/(eps P).  Entry k of the result
    is rho_k; entry 0 is the start density nu, as in the grid iteration.
    The location problem is eta = 1, the scale problem theta = 0.
    """
    if not eta > 0.0:
        raise DomainError("eta must be positive")
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    if steps < 0:
        raise DomainError("steps must be non-negative")
    var = eta * eta
    a, b = 1.0, 0.0
    out = [GaussianMeasure(theta, var)]
    for _ in range(steps):
        alpha = 1.0 / (a + eps)
        a_next = 1.0 / (alpha + eps / var)
        b_next = (alpha * b + eps * theta / var) / (alpha + eps / var)
        precision = 1.0 + (a - a_next) / eps
        out.append(GaussianMeasure((b_next - b) / (eps * precision), 1.0 / precision))
        a, b = a_next, b_next
    return out


def deficit_ratio(eta: float, t: float) -> tuple[float, float]:
    """Compare how fast the two scale flows close their variance deficit.

    Returns ``(lhs, rhs)`` with lhs = (1 - sigma_F^2)/(1 - sigma_S^2) and
    rhs = ((1+eta)^2/4) exp(2t(1/eta - 1)); the entropic flow always wins,
    i.e. lhs >= rhs.
    """
    if not 0.0 < eta < 1.0:
        raise DomainError("eta must lie in (0, 1)")
    if t <= 0.0:
        raise DomainError("t must be positive")
    lhs = (1.0 - scale_variance_fokker_planck(eta, t)) / (1.0 - scale_variance_entropic(eta, t))
    rhs = (1.0 + eta) ** 2 / 4.0 * math.exp(2.0 * t * (1.0 / eta - 1.0))
    return lhs, rhs


# mirror function u and its second derivative for the 1-D ODE examples,
# all minimizing F(x) = x^2/2 from x0 = 1
_EUCLID_MIRRORS = {
    FlowKind.EUCLID_QUADRATIC: lambda x: 1.0,
    FlowKind.EUCLID_QUARTIC: lambda x: 12.0 * x * x,
    FlowKind.EUCLID_INVERSE: lambda x: 2.0 / x**3,
}


def euclid_mirror_ode_step(kind: FlowKind, x: float, dt: float) -> float:
    """One explicit Euler step of dx/dt = -F'(x)/u''(x) with F = x^2/2."""
    if kind not in _EUCLID_MIRRORS:
        raise DomainError(f"{kind!r} is not a Euclidean mirror ODE kind")
    if kind is FlowKind.EUCLID_QUARTIC and x <= 0.0:
        raise DomainError("quartic-mirror flow hit its singularity at x = 0")
    if kind is FlowKind.EUCLID_INVERSE and x <= 0.0:
        raise DomainError("inverse mirror is only defined for x > 0")
    return x - dt * x / _EUCLID_MIRRORS[kind](x)


def integrate_euclid_mirror(kind: FlowKind, t_end: float, dt: float, x0: float = 1.0) -> float:
    x = x0
    steps = int(round(t_end / dt))
    for _ in range(steps):
        x = euclid_mirror_ode_step(kind, x, dt)
    return x


def w2_gaussian(p: GaussianMeasure, q: GaussianMeasure) -> float:
    """2-Wasserstein distance between 1-D Gaussians, exact."""
    return math.hypot(p.mean - q.mean, p.std - q.std)
