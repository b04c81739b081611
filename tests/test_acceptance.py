"""Acceptance criteria, one test per numbered criterion.

Criteria 1-3, 5-7 and 9 are judged on the reports of the full verify
battery (``sinkflow verify --profile full``, seed 7), run once by a
module-scoped fixture that also pins each report's config from its manifest,
so an edit to the full profile cannot weaken a criterion unnoticed;
criterion 11 on two ``pma_run`` reports of its own.  Each asserts that the
runner's verdicts pass, by check name, and re-judges the report rows against
the tolerance pinned here.  Criteria 4, 8, 10 and 12 call the library
directly.  Each check prints one pass/fail line, so a verbose run reads as a
checklist.

Criterion 3 checks the eps-limit against the exact recursion that the
iteration follows on the Gaussian location problem (every potential stays
quadratic): each grid squared distance to the flow must agree with the
recursion's distance to the exact flow to 2%, every successive ratio must
stay at or below the criterion's upper edge 0.8, and the recursion alone,
on a halving ladder of eps, must show its ratios rising toward 1/4.  The
limit theorem gives no rate, and this family converges at second order, so
the squared-distance ratios sit near 0.25; the former lower edge 0.3
assumed a first-order rate that nothing promises.  The ``eps_limit``
runner's own two ratio verdicts still judge against [0.3, 0.8] and stay red;
criterion 3 reads its rows only.
"""

import json
import math

import numpy as np
import pytest

from sinkflow.closed_form import (
    ClosedFormFlow,
    FlowKind,
    deficit_ratio,
    evaluate,
    integrate_euclid_mirror,
    scale_variance_entropic,
    scale_variance_fokker_planck,
    sinkhorn_gaussian_iterates,
    w2_gaussian,
)
from sinkflow.experiments import (ExperimentConfig, Report, floor_steps, run_experiment,
                                  verify_battery)
from sinkflow.grids import DensitySpec, Grid, discretize, pushforward_monotone
from sinkflow.pma import continuity_residual, dual_pma_residual, make_flow_state, run_flow, step
from sinkflow.sinkhorn import coupling, initial_state, s_step, u_operator, v_operator
from sinkflow.transport import (
    ConvexPotential,
    change_of_measure_residual,
    log_det_hessian_gradient_residual,
)

from conftest import gaussian_flow_state

GRID = Grid(-8.0, 8.0, 512)
DT = 1e-3
THETA = 0.5
ETA = 0.5
PARTICLES = 100_000
MU_SPEC = DensitySpec.gaussian(0.0, 1.0)

# the numerics every criterion is judged at: the full profile at seed 7
NUMERICS = {"L": 8.0, "n": 512, "dt": DT, "T": 1.0, "eps": 0.1,
            "eps_list": [0.2, 0.1, 0.05], "particles": PARTICLES, "seed": 7}
# what single experiments of the battery set apart from NUMERICS
OWN_NUMERICS = {"laplace_estimate": {"eps_list": [0.2, 0.1, 0.05, 0.025]},
                "gaussian_closed_form": {"T": 2.0}}


def record(criterion: str, ok: bool, detail: str) -> None:
    from conftest import ACCEPTANCE_LOG

    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    print(line)
    ACCEPTANCE_LOG.append(line)
    assert ok, f"{criterion}: {detail}"


def row_at(rows: list, t: float) -> dict:
    """The report row nearest time t, which must lie within half a time step."""
    row = min((r for r in rows if "t" in r), key=lambda r: abs(r["t"] - t))
    assert abs(row["t"] - t) <= DT / 2, f"no row at t = {t}"
    return row


def judged_rows(report: Report, *checks: str) -> list:
    """The report's rows, once its verdicts are exactly ``checks``, all pass,
    and each verdict "q(t=s)" judged the row value of q at time s."""
    assert [v["check"] for v in report.verdicts] == list(checks), report.verdicts
    assert report.passed(), report.verdicts
    for v in report.verdicts:
        quantity, _, t = v["check"].partition("(t=")
        if t:
            assert v["value"] == row_at(report.rows, float(t.rstrip(")")))[quantity], v
    return report.rows


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    """The full battery's reports at seed 7, keyed (experiment, problem kind
    or, for the closed form, its flow kind)."""
    out = tmp_path_factory.mktemp("verify_full")
    verify_battery(out, profile="full", seed=7)
    reports = {}
    for path in sorted(out.glob("*_report.json")):
        manifest = path.with_name(path.name.replace("_report.json", "_manifest.json"))
        config = json.loads(manifest.read_text())["config"]
        problem = config["problem"]
        key = (config["experiment"], problem.get("flow_kind", problem["kind"]))
        assert key not in reports, key
        assert config["numerics"] == {**NUMERICS, **OWN_NUMERICS.get(key[0], {})}, key
        assert (problem["theta"], problem["eta"], problem.get("param", ETA)) == (THETA, ETA, ETA)
        reports[key] = Report(**json.loads(path.read_text()))
    return reports


@pytest.fixture(scope="module")
def stationary_pair():
    state = make_flow_state(GRID, MU_SPEC, MU_SPEC, ConvexPotential.quadratic(GRID))
    return state, step(state, DT)


def test_criterion_1_gaussian_location_oracle(battery):
    rows = judged_rows(battery["pma_run", "gaussian_location"],
                       "mean(t=0.5)", "variance(t=0.5)", "mean(t=1.0)", "variance(t=1.0)")
    for t in (0.5, 1.0):
        r, ref = row_at(rows, t), THETA * math.exp(-t)
        record(f"criterion 1 mean(t={t})", abs(r["mean"] - ref) <= 0.02 * ref,
               f"mean {r['mean']:.6f} vs {ref:.6f} (2% rel)")
        record(f"criterion 1 variance(t={t})", abs(r["variance"] - 1.0) <= 0.02,
               f"variance {r['variance']:.6f} vs 1 (2%)")


def test_criterion_2_gaussian_scale_oracle(battery):
    rows = judged_rows(battery["pma_run", "gaussian_scale"], "variance(t=0.5)", "variance(t=1.0)")
    for t in (0.5, 1.0):
        r = row_at(rows, t)
        ref = scale_variance_entropic(ETA, r["t"])
        record(f"criterion 2 entropic variance(t={t})", abs(r["variance"] - ref) <= 0.02 * ref,
               f"{r['variance']:.6f} vs {ref:.6f} (2% rel)")
    rows = judged_rows(battery["fokker_planck_run", "gaussian_scale"],
                       "variance(t=0.5)", "variance(t=1.0)")
    for t in (0.5, 1.0):
        r, ref = row_at(rows, t), scale_variance_fokker_planck(ETA, t)
        record(f"criterion 2 fokker-planck variance(t={t})",
               abs(r["variance"] - ref) <= 0.01 * ref,
               f"{r['variance']:.6f} vs {ref:.6f} (1% rel)")
    closed = battery["gaussian_closed_form", "sinkhorn_scale"]
    judged_rows(closed, "deficit ratio at t=1.0", "deficit ratio at t=2.0")
    for t, v in zip((1.0, 2.0), closed.verdicts):
        lhs, rhs = deficit_ratio(ETA, t)
        record(f"criterion 2 deficit ratio(t={t})", v["value"] == lhs / rhs and lhs >= rhs,
               f"lhs {lhs:.6f} >= rhs {rhs:.6f}")


def recursion_w2_squared(eps: float) -> float:
    """Squared W2 from the exact iterate at k = floor(1/eps) to the exact flow at k*eps."""
    k = floor_steps(1.0, eps)
    rho_k = sinkhorn_gaussian_iterates(THETA, 1.0, eps, k)[k]
    flow = evaluate(ClosedFormFlow(FlowKind.SINKHORN_LOCATION, THETA), k * eps)
    return w2_gaussian(rho_k, flow) ** 2


def test_criterion_3_eps_scaling_limit(battery):
    rows = [r for r in battery["eps_limit", "gaussian_location"].rows if "w2_squared" in r]
    grid = [r["w2_squared"] for r in rows]
    exact = [recursion_w2_squared(r["eps"]) for r in rows]
    table = ", ".join(f"eps {r['eps']}: {g:.4e} vs {e:.4e}" for r, g, e in zip(rows, grid, exact))
    record("criterion 3 grid vs exact recursion",
           all(abs(g - e) <= 0.02 * e for g, e in zip(grid, exact)),
           f"w2^2 grid vs recursion {table} (2% rel)")

    ratios = [b / a for a, b in zip(grid, grid[1:])]
    record("criterion 3 ratio upper edge", all(r <= 0.8 for r in ratios),
           f"ratios {['%.4f' % r for r in ratios]} <= 0.8")

    ladder = [0.2 * 2.0**-j for j in range(9)]
    w2sq = [recursion_w2_squared(e) for e in ladder]
    lratios = [b / a for a, b in zip(w2sq, w2sq[1:])]
    slope = float(np.polyfit(np.log(ladder), np.log(w2sq), 1)[0])
    record("criterion 3 recursion ladder",
           all(b > a for a, b in zip(lratios, lratios[1:]))
           and 0.245 <= lratios[-1] <= 0.255 and slope >= 1.9,
           f"eps 0.2 -> {ladder[-1]:.2e}, ratios {['%.4f' % r for r in lratios]} "
           f"increasing, last in [0.245, 0.255], slope {slope:.3f} >= 1.9")


def test_criterion_4_operator_properties():
    rng = np.random.default_rng(12)
    mu = discretize(MU_SPEC, GRID)
    nu = discretize(DensitySpec.gaussian(THETA, 1.0), GRID)
    xs = GRID.nodes

    def random_potential():
        vals = 0.5 * rng.uniform(0.3, 1.5) * xs**2 + rng.uniform(-0.5, 0.5) * xs
        for k in range(1, 4):
            vals += rng.uniform(-0.3, 0.3) * np.sin(k * xs / 4 + rng.uniform(0, 6.28))
        return vals

    worst_v, worst_u = 0.0, 0.0
    for _ in range(100):
        p1, p2 = random_potential(), random_potential()
        gap = float(np.max(np.abs(p1 - p2)))
        worst_v = max(worst_v, float(np.max(np.abs(
            v_operator(p1, mu, 0.1) - v_operator(p2, mu, 0.1)))) - gap)
        worst_u = max(worst_u, float(np.max(np.abs(
            u_operator(p1, nu, 0.1) - u_operator(p2, nu, 0.1)))) - gap)
    record("criterion 4 contraction", worst_v <= 1e-9 and worst_u <= 1e-9,
           f"worst expansion excess V {worst_v:.2e}, U {worst_u:.2e}")

    worst_mass = 0.0
    for _ in range(100):
        st = initial_state(random_potential(), mu, nu, nu, 0.1)
        nxt = s_step(st)
        worst_mass = max(worst_mass, abs(GRID.integrate(nxt.rho.values) - 1.0))
    record("criterion 4 normalization", worst_mass <= 1e-8,
           f"worst |mass - 1| = {worst_mass:.2e}")

    st = initial_state(0.5 * xs**2, mu, nu, nu, 0.1)
    for _ in range(3):
        st = s_step(st)
    gap = float(np.max(np.abs(coupling(st).y_marginal() - nu.values)))
    record("criterion 4 coupling second marginal", gap <= 1e-5,
           f"sup gap {gap:.2e} <= 1e-5")


def test_criterion_5_laplace_estimate(battery):
    rows = judged_rows(battery["laplace_estimate", "gaussian_location"], "residual slope",
                       "ablated slope (negative control)", "hessian floor proximity")
    eps_list = [r["eps"] for r in rows if "residual" in r]
    residuals = [r["residual"] for r in rows if "residual" in r]
    slope = float(np.polyfit(np.log(eps_list), np.log(residuals), 1)[0])
    record("criterion 5 laplace slope", slope >= 1.7,
           f"log-log slope {slope:.3f} >= 1.7 over eps {eps_list}")


def test_criterion_6_metric_derivative(battery):
    rows = judged_rows(battery["metric_derivative", "gaussian_location"],
                       "ratio at smallest delta", "second-order pushforward gap")
    ratio = next(r["ratio"] for r in rows if r.get("delta") == 0.025)
    record("criterion 6 metric-derivative ratio", 0.95 <= ratio <= 1.05,
           f"LOT rate / velocity norm = {ratio:.4f} at delta 0.025")
    gap, base = rows[-1]["second_order_gap"], rows[-1]["first_order_gap"]
    record("criterion 6 second-order pushforward", gap <= 0.1 * base,
           f"gap {gap:.3e} <= 0.1 * {base:.3e}")


def test_criterion_7_kl_decay(battery):
    rows = judged_rows(battery["kl_decay", "gaussian_location"],
                       "kl <= 1.05 * bound along the run", "worst bound saturation after t=0")
    assert rows[0]["t"] == 0.0 and row_at(rows, NUMERICS["T"]) is rows[-1]
    within = all(r["kl"] <= 1.05 * r["bound"] + 1e-15 for r in rows)
    record("criterion 7 decay bound", within, "kl <= 1.05 * bound along the run")
    saturation = max(abs(r["kl"] / r["bound"] - 1.0) for r in rows[1:])
    record("criterion 7 saturation", saturation <= 0.01,
           f"worst |kl/bound - 1| = {saturation:.4f} <= 1% (unit-curvature case)")


def test_criterion_8_pde_identities(stationary_pair):
    st0, st1 = stationary_pair
    record("criterion 8 stationary dual residual",
           dual_pma_residual(st0, st1) <= 1e-3,
           f"{dual_pma_residual(st0, st1):.2e} <= 1e-3")
    record("criterion 8 stationary continuity residual",
           continuity_residual(st0, st1) <= 1e-3,
           f"{continuity_residual(st0, st1):.2e} <= 1e-3")
    record("criterion 8 stationary tensor residual",
           log_det_hessian_gradient_residual(st0.u) <= 1e-3,
           f"{log_det_hessian_gradient_residual(st0.u):.2e} <= 1e-3")
    ident = pushforward_monotone(st0.rho, st0.u.du)
    com_res = change_of_measure_residual(st0.rho, st0.u, ident)
    record("criterion 8 stationary change-of-measure residual", com_res <= 1e-3,
           f"{com_res:.2e} <= 1e-3")

    # refinement: dt halving with grid doubling (trajectory substep pinned)
    sub = 6.25e-5
    levels = {}
    for n, dt in ((512, 1e-3), (1024, 5e-4)):
        g = Grid(-8.0, 8.0, n)
        states = list(run_flow(gaussian_flow_state(g, mean=THETA), dt,
                               int(round(0.5 / dt)) + 1, max_substep=sub))
        k = int(round(0.5 / dt))
        phi = ConvexPotential.from_callable(
            g, lambda x: 0.5 * x**2 + 0.05 * np.cosh(x / 2) * 4,
            lambda x: x + 0.1 * np.sinh(x / 2),
            lambda x: 1.0 + 0.05 * np.cosh(x / 2))
        target = Grid(float(phi.du[0]) - 0.5, float(phi.du[-1]) + 0.5, 2 * n)
        pushed = pushforward_monotone(states[k].rho, phi.du, target)
        levels[n] = (
            dual_pma_residual(states[k], states[k + 1]),
            continuity_residual(states[k], states[k + 1]),
            log_det_hessian_gradient_residual(
                ConvexPotential.from_callable(
                    g, lambda x: np.cosh(x / 2) * 4, lambda x: 2 * np.sinh(x / 2),
                    lambda x: np.cosh(x / 2))),
            change_of_measure_residual(states[k].rho, phi, pushed),
        )
    names = ("dual-PMA", "continuity", "tensor identity", "change-of-measure")
    for i, name in enumerate(names):
        ratio = levels[512][i] / levels[1024][i]
        record(f"criterion 8 {name} refinement", ratio >= 1.8,
               f"{levels[512][i]:.3e} -> {levels[1024][i]:.3e}, factor {ratio:.2f} >= 1.8")


def test_criterion_9_diffusion_marginals(battery):
    rows = judged_rows(battery["diffusion_run", "gaussian_location"], "ensemble mean at T",
                       "ensemble variance at T", "frozen-mirror dual stationarity (KS)")
    r = row_at(rows, NUMERICS["T"])
    se_mean = math.sqrt(r["variance"] / PARTICLES)
    se_var = r["variance"] * math.sqrt(2.0 / PARTICLES)
    record("criterion 9 sde mean", abs(r["mean"] - r["flow_mean"]) <= 3 * se_mean,
           f"{r['mean']:.5f} vs flow {r['flow_mean']:.5f} (3 SE = {3 * se_mean:.5f})")
    record("criterion 9 sde variance", abs(r["variance"] - r["flow_variance"]) <= 3 * se_var,
           f"{r['variance']:.5f} vs flow {r['flow_variance']:.5f} (3 SE = {3 * se_var:.5f})")
    ks, tol = rows[-1]["dual_ks"], 2 * 1.63 / math.sqrt(PARTICLES)
    record("criterion 9 frozen-mirror stationarity", ks <= tol, f"KS {ks:.5f} <= {tol:.5f}")

    rows = judged_rows(battery["markov_chain_run", "gaussian_location"],
                       "chain marginal KS over k<=10")
    assert [r["k"] for r in rows] == list(range(1, 11))
    worst = max(r["ks_vs_iterate_marginal"] for r in rows)
    tol = 3 * 1.63 / math.sqrt(PARTICLES)
    record("criterion 9 markov-chain marginals", worst <= tol,
           f"worst KS over k<=10 is {worst:.5f} <= {tol:.5f}")


def test_criterion_10_euclid_mirror_odes():
    checks = (
        (FlowKind.EUCLID_QUADRATIC, 1.0, math.exp(-1.0)),
        (FlowKind.EUCLID_QUARTIC, 3.0, math.sqrt(0.5)),
        (FlowKind.EUCLID_INVERSE, 2.0, 4.0 ** (-1.0 / 3.0)),
    )
    for kind, t_end, ref in checks:
        got = integrate_euclid_mirror(kind, t_end, 1e-4)
        record(f"criterion 10 {kind.value}", abs(got - ref) <= 1e-3,
               f"x({t_end}) = {got:.6f} vs {ref:.6f} (1e-3)")


def test_criterion_11_mirror_flow_examples():
    for kind, law, name in (
        ("mirror_entropy", lambda t: (1.0 + t) ** 2, "entropy"),
        ("mirror_potential_energy", lambda t: 1.0 / (1.0 + t) ** 2, "potential energy"),
    ):
        config = ExperimentConfig.from_dict({
            "experiment": "pma_run", "problem": {"kind": kind},
            "numerics": {key: NUMERICS[key] for key in ("L", "n", "dt", "T")},
        })
        rows = judged_rows(run_experiment(config), "variance(t=0.5)", "variance(t=1.0)")
        for t in (0.5, 1.0):
            r = row_at(rows, t)
            ref = law(r["t"])
            record(f"criterion 11 {name} variance(t={r['t']:.1f})",
                   abs(r["variance"] - ref) <= 0.02 * ref,
                   f"{r['variance']:.5f} vs {ref:.5f} (2% rel)")


def test_criterion_12_verify_determinism(tmp_path):
    a = verify_battery(tmp_path / "one", profile="quick", seed=7)
    b = verify_battery(tmp_path / "two", profile="quick", seed=7)
    record("criterion 12 verify determinism", a["files"] == b["files"],
           f"{len(a['files'])} artifact checksums identical across reruns")
