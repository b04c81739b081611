"""Experiment harness: configuration, runners, reports, and manifests.

Each experiment consumes a validated :class:`ExperimentConfig`, produces a
row table plus a list of verdicts (check name, value, tolerance, pass),
and writes deterministic CSV/JSON artifacts.  A manifest records the
config hash and per-file checksums; re-running the same config must
reproduce every checksum bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import sys
import time
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .closed_form import ClosedFormFlow, FlowKind, deficit_ratio, evaluate, tabulate
from .errors import DomainError
from .grids import DensitySpec, Grid, GridDensity, discretize, kl_divergence
from .particles import (
    ParticleEnsemble,
    dual_sde_step,
    ks_distance,
    markov_chain_step,
    sinkhorn_sde_step,
)
from .pma import (
    FokkerPlanckSystem,
    Functional,
    PmaState,
    _is_at,
    kl_decay_series,
    make_flow_state,
    metric_derivative_lot,
    run_fokker_planck,
    second_order_lot_gap,
    step,
)
from .sinkhorn import SinkhornState, initial_state, laplace_residual, s_step
from .svgplot import emit_svg
from .transport import ConvexPotential, w2_distance

_NUMERIC_DEFAULTS = {
    "L": 8.0,
    "n": 512,
    "dt": 1e-3,
    "T": 1.0,
    "eps": 0.1,
    "eps_list": [0.2, 0.1, 0.05],
    "particles": 100000,
    "seed": 7,
}

_PROBLEM_DEFAULTS = {"kind": "gaussian_location", "theta": 0.5, "eta": 0.5}

_OUTPUT_DEFAULTS = {"snapshot_stride": 0, "emit_svg": False}


def floor_steps(T: float, eps: float) -> int:
    """floor(T / eps) with a guard against float division artifacts."""
    return int(math.floor(T / eps + 1e-9))


def _iterations(T: float, eps: float) -> int:
    """floor(T / eps), which must leave at least one iteration to check."""
    k = floor_steps(T, eps)
    if k < 1:
        raise DomainError(f"T = {T} leaves no iteration at eps = {eps}")
    return k


def _step_at(t: float, dt: float) -> int:
    """The step round(t / dt) at which a run of step dt reads time t.  It
    must be at least one and land on t (see pma._is_at), so that a run
    checks every time it reads before its first step."""
    k = int(round(t / dt))
    if k < 1 or not _is_at(k * dt, t):
        raise DomainError(f"no step of dt = {dt} lands on t = {t}")
    return k


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _section(raw: dict, name: str, defaults: dict) -> dict:
    given = raw.get(name, {})
    if not isinstance(given, dict):
        raise DomainError(f"config section {name!r} must be a JSON object, got {given!r}")
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise DomainError(f"unknown {name} keys {unknown}")
    return {**defaults, **given}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    problem: dict  # hashed and recorded; runners read spec, the Problem parsed from it
    numerics: dict
    output: dict
    spec: Problem = field(compare=False, repr=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise DomainError(f"a config must be a JSON object, got {raw!r}")
        exp = raw.get("experiment")
        if exp not in EXPERIMENTS:
            raise DomainError(f"unknown experiment {exp!r}")
        problem = _section(raw, "problem", _PROBLEM_DEFAULTS)
        numerics = _section(raw, "numerics", _NUMERIC_DEFAULTS)
        output = _section(raw, "output", _OUTPUT_DEFAULTS)
        for key in ("n", "particles", "seed"):
            if not _is_integer(numerics[key]):
                raise DomainError(f"{key} must be an integer, got {numerics[key]!r}")
        stride = output["snapshot_stride"]
        if not _is_integer(stride) or stride < 0:
            raise DomainError(f"snapshot_stride must be a nonnegative integer, got {stride!r}")
        if not isinstance(output["emit_svg"], bool):
            raise DomainError(f"emit_svg must be true or false, got {output['emit_svg']!r}")
        eps_list = numerics["eps_list"]
        if not isinstance(eps_list, (list, tuple)) or len(eps_list) < 2:
            raise DomainError(f"eps_list must be a list of two or more values, got {eps_list!r}")
        reals = [(key, numerics[key]) for key in ("L", "T", "dt", "eps")]
        reals += [("eps_list entries", e) for e in eps_list]
        reals += [(key, problem[key]) for key in ("theta", "eta")]
        for key, value in reals:
            if not _is_real(value):
                raise DomainError(f"{key} must be a finite real number, got {value!r}")
        n = numerics["n"]
        if not (64 <= n <= 2048 and (n & (n - 1)) == 0):
            raise DomainError("n must be a power of two between 64 and 2048")
        for key in ("T", "dt", "eps", "L"):
            if numerics[key] <= 0:
                raise DomainError(f"{key} must be positive")
        if numerics["particles"] < 1:
            raise DomainError("particles must be at least 1")
        if numerics["seed"] < 0:
            raise DomainError("seed must be nonnegative")
        if any(e <= 0 for e in eps_list):
            raise DomainError("eps_list entries must be positive")
        if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
            raise DomainError("eps_list must be strictly decreasing")
        return cls(exp, problem, numerics, output, Problem.parse(problem))

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "problem": self.problem,
            "numerics": self.numerics,
            "output": self.output,
        }

    def hash(self) -> str:
        canon = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()

    def grid(self) -> Grid:
        return Grid(-self.numerics["L"], self.numerics["L"], self.numerics["n"])


@dataclass
class Report:
    experiment: str
    config_hash: str
    rows: list
    verdicts: list = field(default_factory=list)
    # extra CSV artifacts: file name -> rows
    artifacts: dict = field(default_factory=dict)

    def passed(self) -> bool:
        """All verdicts pass, and there is at least one."""
        return bool(self.verdicts) and all(v["pass"] for v in self.verdicts)

    def to_json(self, path) -> None:
        _write_json({"experiment": self.experiment, "config_hash": self.config_hash,
                     "rows": self.rows, "verdicts": self.verdicts}, path)


def _verdict(check: str, value: float, tolerance, ok: bool) -> dict:
    return {"check": check, "value": value, "tolerance": tolerance, "pass": bool(ok)}


def _ks_tolerance(factor: float, count: int) -> float:
    """KS tolerance factor * 1.63/sqrt(count) for ``count`` particles.  A KS
    distance never exceeds 1, so a tolerance of 1 or more is refused."""
    tol = factor * 1.63 / math.sqrt(count)
    if tol >= 1.0:
        raise DomainError(f"{count} particles give a KS tolerance of {tol:.3f}, "
                          "which no KS distance can exceed")
    return tol


_TAPE_STRIDE = 10  # a shared flow keeps its start state and every 10th state after it


def _flow_key(config: ExperimentConfig) -> tuple:
    """What a config's flow depends on: its problem section (see
    Problem.flow_state), the L and n of its grid and its step dt; not T or
    seed."""
    num = config.numerics
    return tuple(sorted(config.problem.items())), num["L"], num["n"], num["dt"]


class _FlowTape:
    """The flow states runners read, by step index, with each flow that
    several runners read stepped once.

    On a key in ``shared`` (see _flow_key) the tape keeps the start state
    and every K-th state (K = _TAPE_STRIDE) as a reader first computes it,
    so the kept steps are 0, K, 2K, ... up to the farthest step computed.  A reader
    that asks for step i resumes from the kept state at i - i % K, or from
    its own last state if that is later, and steps forward.  step is a pure
    function of the state, which carries its lagged ROS2 factor, so every
    state read is bit for bit the one a fresh run reaches.  On any other key
    a reader streams from t = 0 and nothing is kept.  ``steps`` counts the
    flow steps computed through the tape.
    """

    def __init__(self, shared: frozenset = frozenset()):
        self.shared = shared
        self.steps = 0
        self._kept: dict[tuple, dict[int, PmaState]] = {}

    @classmethod
    def sharing(cls, configs) -> "_FlowTape":
        """The tape that shares each flow two or more of configs read."""
        readers = Counter(_flow_key(c) for c in configs if c.experiment in _FLOW_READERS)
        return cls(frozenset(key for key, count in readers.items() if count > 1))

    def states(self, config: ExperimentConfig, steps: Iterable[int]) -> Iterator[PmaState]:
        """config's flow states at the step indices ``steps``, which must ascend."""
        key = _flow_key(config)
        keep = key in self.shared
        kept = self._kept.setdefault(key, {}) if keep else {}
        i, state = 0, kept.get(0) or config.spec.flow_state(config.grid())
        if keep:
            kept[0] = state
        dt = config.numerics["dt"]
        for want in steps:
            # the kept steps are 0, K, ..., K (len(kept) - 1): none off a shared key
            resume = min(want - want % _TAPE_STRIDE, _TAPE_STRIDE * (len(kept) - 1))
            if resume > i:
                i, state = resume, kept[resume]
            while i < want:
                state = step(state, dt)
                i += 1
                self.steps += 1
                if keep and i % _TAPE_STRIDE == 0:
                    kept.setdefault(i, state)
            yield state


def _flow_states(tape: _FlowTape, config: ExperimentConfig, times) -> list[PmaState]:
    """config's flow states at the given times, in their order, read from
    tape at their steps (see _step_at), each checked before the first step;
    only those states are held."""
    steps = [_step_at(t, config.numerics["dt"]) for t in times]
    wanted = sorted(set(steps))
    kept = dict(zip(wanted, tape.states(config, wanted)))
    return [kept[i] for i in steps]


def _checkpoints(T: float, dt: float) -> dict[int, float]:
    """The moment checkpoints t = 0.5 and 1.0 up to T (see _is_at), keyed by
    their steps."""
    return {_step_at(t, dt): t for t in (0.5, 1.0) if t < T or _is_at(T, t)}


def _checkpoint_verdicts(t, stamp: float, rho: GridDensity, oracle, rel: float) -> list:
    """Mean (when the reference mean is nonzero) and variance of rho against
    the Gaussian oracle at checkpoint t, each within the relative tolerance
    rel; none when t is None.  rho's time stamp must be t."""
    if t is None:
        return []
    if not _is_at(stamp, t):
        raise DomainError(f"the state read at checkpoint t = {t} is stamped t = {stamp}")
    ref = evaluate(oracle, t)
    verdicts = []
    if ref.mean != 0.0:
        verdicts.append(_verdict(
            f"mean(t={t})", rho.mean(), f"{rel:.0%} of {ref.mean:.6f}",
            abs(rho.mean() - ref.mean) <= rel * abs(ref.mean)))
    verdicts.append(_verdict(
        f"variance(t={t})", rho.variance(), f"{rel:.0%} of {ref.variance:.6f}",
        abs(rho.variance() - ref.variance) <= rel * ref.variance))
    return verdicts


@dataclass(frozen=True)
class Problem:
    """The data every flow runner works from.

    mu and nu are the two marginals; the mirror starts at u0 = x^2/2, so
    the start density is nu.  ``functional`` is the one whose first
    variation drives the flow (None: relative entropy to mu, the flow the
    scaling iteration approximates).  ``oracle`` is the closed-form flow
    and ``fp_oracle`` the closed-form Fokker-Planck flow from the same
    start, where one exists.
    """

    mu: DensitySpec
    nu: DensitySpec
    oracle: ClosedFormFlow
    functional: Functional | None = None
    fp_oracle: ClosedFormFlow | None = None

    @classmethod
    def parse(cls, section: dict) -> "Problem":
        """The problem of a config's problem section, whose kind is one of PROBLEM_KINDS."""
        kind, theta, eta = section["kind"], section["theta"], section["eta"]
        std = DensitySpec.gaussian(0.0, 1.0)
        if kind == "gaussian_location":
            return cls(std, DensitySpec.gaussian(theta, 1.0),
                       ClosedFormFlow(FlowKind.SINKHORN_LOCATION, theta),
                       fp_oracle=ClosedFormFlow(FlowKind.FOKKER_PLANCK_LOCATION, theta))
        if kind == "gaussian_scale":
            return cls(std, DensitySpec.gaussian(0.0, eta * eta),
                       ClosedFormFlow(FlowKind.SINKHORN_SCALE, eta),
                       fp_oracle=ClosedFormFlow(FlowKind.FOKKER_PLANCK_SCALE, eta))
        if kind == "mirror_entropy":
            return cls(std, std, ClosedFormFlow(FlowKind.MIRROR_ENTROPY), Functional.entropy())
        if kind == "mirror_potential_energy":
            return cls(std, std, ClosedFormFlow(FlowKind.MIRROR_POTENTIAL_ENERGY),
                       Functional.potential_energy())
        raise DomainError(f"unknown problem kind {kind!r}, expected one of {PROBLEM_KINDS}")

    def flow_state(self, grid: Grid) -> PmaState:
        return make_flow_state(grid, self.mu, self.nu, ConvexPotential.quadratic(grid),
                               functional=self.functional)

    def require_relative_entropy(self, what: str) -> None:
        if self.functional is not None:
            raise DomainError(f"{what} runs the relative-entropy flow only")

    def sinkhorn_state(self, grid: Grid, eps: float) -> SinkhornState:
        self.require_relative_entropy("the scaling iteration")
        mu, nu = discretize(self.mu, grid), discretize(self.nu, grid)
        return initial_state(ConvexPotential.quadratic(grid).u, mu, nu, nu, eps)


PROBLEM_KINDS = ("gaussian_location", "gaussian_scale", "mirror_entropy", "mirror_potential_energy")


def run_pma(config: ExperimentConfig, problem: Problem, tape: _FlowTape) -> Report:
    """Flow run with moment trajectory checked against the closed form."""
    num = config.numerics
    steps = _step_at(num["T"], num["dt"])
    checkpoints = _checkpoints(num["T"], num["dt"])
    # thin the rows to about 200, keeping the checkpoints' states
    keep = max(k for k in range(1, max(1, steps // 200) + 1)
               if all(c % k == 0 for c in checkpoints))
    stride = config.output["snapshot_stride"]
    rows, artifacts, verdicts = [], {}, []
    # W factorizations and the largest clamp since the last row, thinned steps'
    # too, and the u'' range since the start
    factorizations, clamp, hessian_min, hessian_max = 0, 0.0, math.inf, -math.inf
    for i, s in enumerate(tape.states(config, range(steps + 1))):
        verdicts += _checkpoint_verdicts(checkpoints.get(i), s.t, s.rho, problem.oracle, 0.02)
        factorizations += s.factorizations
        clamp = max(clamp, s.projection_magnitude)
        hessian_min, hessian_max = min(hessian_min, s.hessian_min), max(hessian_max, s.hessian_max)
        if i % keep and i != steps:
            continue
        if stride > 0 and len(rows) % stride == 0:
            artifacts[f"density_t{s.t:.6f}.csv"] = [
                {"x": x, "density": d} for x, d in zip(s.rho.grid.nodes, s.rho.values)]
        rows.append({"t": s.t, "mean": s.rho.mean(), "variance": s.rho.variance(),
                     "kl": kl_divergence(s.rho, s.mu), "substeps": s.substeps,
                     "transport_drift": s.transport_drift,
                     "derivative_growth": s.derivative_growth,
                     "factorizations": factorizations,
                     "hessian_min": hessian_min, "hessian_max": hessian_max, "clamp": clamp})
        factorizations, clamp = 0, 0.0
    return Report(config.experiment, config.hash(), rows, verdicts, artifacts)


def run_fokker_planck_experiment(config: ExperimentConfig, problem: Problem) -> Report:
    num = config.numerics
    grid = config.grid()
    if problem.fp_oracle is None:
        raise DomainError("fokker_planck_run expects a Gaussian problem")
    steps = _step_at(num["T"], num["dt"])
    checkpoints = _checkpoints(num["T"], num["dt"])
    stride = max(1, steps // 200)
    rows, verdicts = [], []
    system = FokkerPlanckSystem.build(discretize(problem.mu, grid), num["dt"])
    for i, d in enumerate(run_fokker_planck(discretize(problem.nu, grid), system, steps)):
        t = i * num["dt"]
        verdicts += _checkpoint_verdicts(checkpoints.get(i), t, d, problem.fp_oracle, 0.01)
        if i % stride == 0 or i == steps:
            rows.append({"t": t, "mean": d.mean(), "variance": d.variance(),
                         "solves": system.substeps if i else 0})
    return Report(config.experiment, config.hash(), rows, verdicts)


def run_sinkhorn_experiment(config: ExperimentConfig, problem: Problem) -> Report:
    """Fixed-eps iteration: the iterate marginal must drift toward mu in KL."""
    num = config.numerics
    grid = config.grid()
    state = problem.sinkhorn_state(grid, num["eps"])
    k_max = min(50, _iterations(num["T"], num["eps"]))
    rows = []
    kls = []
    for _ in range(k_max):
        state = s_step(state)
        kl = kl_divergence(state.mu, state.rho)
        kls.append(kl)
        rows.append({"k": state.k, "mean": state.rho.mean(),
                     "variance": state.rho.variance(), "kl_mu_rho": kl,
                     "mass_drift": state.mass_drift})
    decreasing = all(b < a + 1e-12 for a, b in zip(kls, kls[1:]))
    verdicts = [_verdict("kl(mu||rho_k) decreasing", kls[-1], "monotone", decreasing)]
    return Report(config.experiment, config.hash(), rows, verdicts)


def run_eps_limit(config: ExperimentConfig, problem: Problem, tape: _FlowTape) -> Report:
    """Scaling-limit comparison of the iteration against the flow.

    Shares the initial potential between both, runs floor(T/eps) two-step
    iterations per eps, and tabulates the squared quantile distance to the
    flow state at the time floor(T/eps) * eps, with successive ratios and
    the fitted log-log slope; the flow is read from tape at those times
    alone.  Raises DomainError before any work when no step of dt
    lands on one of them, or when an eps is below h^2 (h the grid spacing),
    where the grid iteration's own error swamps the distance.
    """
    num = config.numerics
    grid = config.grid()
    eps_list = list(num["eps_list"])
    if eps_list[-1] < grid.spacing ** 2:  # eps_list is strictly decreasing
        raise DomainError(f"eps = {eps_list[-1]} is below h^2 = {grid.spacing ** 2:.6g}, where "
                          "the grid iteration's own error swamps the distance")
    ks = [_iterations(num["T"], e) for e in eps_list]
    t_targets = [k * e for k, e in zip(ks, eps_list)]
    states = _flow_states(tape, config, t_targets)

    rows = []
    for eps, k, t_k, flow_at in zip(eps_list, ks, t_targets, states):
        sk = problem.sinkhorn_state(grid, eps)
        for _ in range(k):
            sk = s_step(sk)
        w2sq = w2_distance(sk.rho, flow_at.rho) ** 2
        rows.append({"eps": eps, "k": k, "t": t_k, "w2_squared": w2sq})
    ratios = [rows[i + 1]["w2_squared"] / rows[i]["w2_squared"] for i in range(len(rows) - 1)]
    logs = np.log([r["w2_squared"] for r in rows])
    slope = float(np.polyfit(np.log(eps_list), logs, 1)[0])
    verdicts = [_verdict(f"ratio {eps_list[i + 1]}/{eps_list[i]}", r, "[0.3, 0.8]",
                         0.3 <= r <= 0.8)
                for i, r in enumerate(ratios)]
    rows.append({"fitted_slope": slope})
    return Report(config.experiment, config.hash(), rows, verdicts)


def run_laplace_estimate(config: ExperimentConfig, problem: Problem) -> Report:
    """Small-eps expansion check of the log-domain smoothing operator, on the
    problem's mu and its start potential x^2/2.

    Tabulates the sup residual of the expansion on a compact window for
    each eps and fits the log-log slope (contract: >= 1.7).  A negative
    control drops the eps-entropy constant and must destroy the fit.
    """
    grid = config.grid()
    mu = discretize(problem.mu, grid)
    u = ConvexPotential.quadratic(grid)
    eps_list = list(config.numerics["eps_list"])
    rows = []
    for eps in eps_list:
        full = laplace_residual(u, mu, problem.mu, eps)
        ablated = laplace_residual(u, mu, problem.mu, eps, include_entropy_term=False)
        rows.append({"eps": eps, "residual": full, "residual_without_entropy_term": ablated})
    log_eps = np.log(eps_list)
    slope = float(np.polyfit(log_eps, np.log([r["residual"] for r in rows]), 1)[0])
    slope_ablated = float(np.polyfit(
        log_eps, np.log([r["residual_without_entropy_term"] for r in rows]), 1)[0])
    floor_d2u = float(np.min(u.d2u))
    verdicts = [
        _verdict("residual slope", slope, ">= 1.7", slope >= 1.7),
        _verdict("ablated slope (negative control)", slope_ablated, "< 1", slope_ablated < 1.0),
        _verdict("hessian floor proximity", floor_d2u, "> 10x floor", floor_d2u > 10 * u.floor),
    ]
    rows.append({"fitted_slope": slope, "ablated_slope": slope_ablated})
    return Report(config.experiment, config.hash(), rows, verdicts)


def run_metric_derivative(config: ExperimentConfig, problem: Problem, tape: _FlowTape) -> Report:
    """LOT metric derivative of the flow at t0 = 0.5 against its velocity
    norm.  The flow is read from tape at t0 and t0 + delta alone; a dt with
    no step on one of those times raises DomainError before the first step."""
    t0, deltas = 0.5, (0.1, 0.05, 0.025)
    start, *ahead = _flow_states(tape, config, [t0] + [t0 + d for d in deltas])
    table = metric_derivative_lot(start, ahead, deltas)
    rows = [dict(r) for r in table]
    ratio = table[-1]["ratio"]
    gap, base = second_order_lot_gap(start, ahead[-1], deltas[-1])
    rows.append({"second_order_gap": gap, "first_order_gap": base})
    verdicts = [
        _verdict("ratio at smallest delta", ratio, "[0.95, 1.05]", 0.95 <= ratio <= 1.05),
        _verdict("second-order pushforward gap", gap, f"<= 0.1 * {base:.3e}", gap <= 0.1 * base),
    ]
    return Report(config.experiment, config.hash(), rows, verdicts)


def run_kl_decay(config: ExperimentConfig, problem: Problem, tape: _FlowTape) -> Report:
    num = config.numerics
    problem.require_relative_entropy("kl_decay")
    steps = _step_at(num["T"], num["dt"])
    keep = max(1, steps // 100)
    table = kl_decay_series(tape.states(config, sorted({*range(0, steps, keep), steps})))
    ok = all(r["within"] for r in table)
    final = table[-1]
    verdicts = [_verdict("kl <= 1.05 * bound along the run", final["kl"],
                         f"bound {final['bound']:.3e}", ok)]
    if evaluate(problem.oracle, final["t"]).variance == 1.0:
        # a flow that only shifts the unit-variance start keeps u'' = 1, and
        # standard-normal curvature then saturates the bound: equality within 1%
        worst = max((r["kl"] / r["bound"] for r in table[1:]), key=lambda q: abs(q - 1.0))
        verdicts.append(_verdict("worst bound saturation after t=0", worst, "1 +- 1%",
                                 abs(worst - 1.0) <= 0.01))
    return Report(config.experiment, config.hash(), [dict(r) for r in table], verdicts)


def run_diffusion(config: ExperimentConfig, problem: Problem, tape: _FlowTape) -> Report:
    """Primal SDE marginals against the flow, plus frozen-mirror stationarity."""
    num = config.numerics
    count, seed = num["particles"], num["seed"]
    problem.require_relative_entropy("diffusion_run")
    ks_tol = _ks_tolerance(2, count)
    steps = _step_at(num["T"], num["dt"])
    flow = tape.states(config, range(steps + 1))
    state = current = next(flow)
    ens = ParticleEnsemble.from_density(state.rho, count, seed)
    rows = []
    stride = max(1, steps // 10)
    for i, following in enumerate(flow, 1):
        ens = sinkhorn_sde_step(ens, current, num["dt"])
        current = following
        if i % stride == 0:
            rows.append({"t": ens.t, "mean": ens.mean(), "variance": ens.variance(),
                         "flow_mean": current.rho.mean(), "flow_variance": current.rho.variance()})
    se_mean = math.sqrt(ens.variance() / count)
    se_var = ens.variance() * math.sqrt(2.0 / count)
    verdicts = [
        _verdict("ensemble mean at T", ens.mean(), f"3 SE of {current.rho.mean():.5f}",
                 abs(ens.mean() - current.rho.mean()) <= 3 * se_mean),
        _verdict("ensemble variance at T", ens.variance(),
                 f"3 SE of {current.rho.variance():.5f}",
                 abs(ens.variance() - current.rho.variance()) <= 3 * se_var),
    ]
    # frozen-mirror dual run started at the target must stay at the target;
    # the start state is immutable, so it serves as the frozen mirror and
    # builds its dual coefficient tables once for every step
    dual = ParticleEnsemble.from_density(state.nu, count, seed + 1)
    for _ in range(steps):
        dual = dual_sde_step(dual, state, num["dt"])
    ks = ks_distance(dual, state.nu)
    verdicts.append(_verdict("frozen-mirror dual stationarity (KS)", ks,
                             f"<= {ks_tol:.5f}", ks <= ks_tol))
    rows.append({"dual_ks": ks})
    return Report(config.experiment, config.hash(), rows, verdicts)


def run_markov_chain(config: ExperimentConfig, problem: Problem) -> Report:
    num = config.numerics
    grid = config.grid()
    count, seed = num["particles"], num["seed"]
    sk = problem.sinkhorn_state(grid, num["eps"])
    ens = ParticleEnsemble.from_density(sk.rho, count, seed)
    rows = []
    k_steps = min(10, _iterations(num["T"], num["eps"]))
    ks_tol = _ks_tolerance(3, count)
    worst = 0.0
    for _ in range(k_steps):
        ens, rounds = markov_chain_step(ens, sk)
        sk = s_step(sk)
        ks = ks_distance(ens, sk.rho)
        worst = max(worst, ks)
        rows.append({"k": sk.k, "ks_vs_iterate_marginal": ks, "rejection_rounds": rounds})
    verdicts = [_verdict(f"chain marginal KS over k<={k_steps}", worst,
                         f"<= {ks_tol:.5f}", worst <= ks_tol)]
    return Report(config.experiment, config.hash(), rows, verdicts)


def _deficit_verdict(eta: float, t: float) -> dict:
    """deficit_ratio's lhs >= rhs, judged to rounding: rhs's exponent
    x = 2t(1/eta - 1) passes its rounding to e^x magnified by x, so lhs may
    fall short by 4 eps (1 + x) relative, eps the machine epsilon."""
    lhs, rhs = deficit_ratio(eta, t)
    slack = 4.0 * sys.float_info.epsilon * (1.0 + 2.0 * t * (1.0 / eta - 1.0))
    return _verdict(f"deficit ratio at t={t}", lhs / rhs, ">= 1", lhs >= rhs * (1.0 - slack))


def run_gaussian_closed_form(config: ExperimentConfig, problem: Problem) -> Report:
    """The problem's closed-form flow at 51 times over [0, T]; for the
    entropic scale flow, its deficit ratio at t = 1 and 2 as well."""
    rows = tabulate(problem.oracle, np.linspace(0.0, config.numerics["T"], 51))
    times = (1.0, 2.0) if problem.oracle.kind is FlowKind.SINKHORN_SCALE else ()
    verdicts = [_deficit_verdict(problem.oracle.param, t) for t in times]
    return Report(config.experiment, config.hash(), rows, verdicts)


_RUNNERS = {
    "sinkhorn_run": run_sinkhorn_experiment,
    "pma_run": run_pma,
    "fokker_planck_run": run_fokker_planck_experiment,
    "diffusion_run": run_diffusion,
    "markov_chain_run": run_markov_chain,
    "eps_limit": run_eps_limit,
    "metric_derivative": run_metric_derivative,
    "kl_decay": run_kl_decay,
    "gaussian_closed_form": run_gaussian_closed_form,
    "laplace_estimate": run_laplace_estimate,
}


EXPERIMENTS = tuple(_RUNNERS)

# the runners that read the flow, through a _FlowTape
_FLOW_READERS = frozenset({"pma_run", "eps_limit", "metric_derivative", "kl_decay",
                           "diffusion_run"})


def run_experiment(config: ExperimentConfig, tape: _FlowTape | None = None) -> Report:
    """Run one experiment; a runner that reads the flow reads it from tape,
    by default a tape that shares nothing."""
    runner = _RUNNERS[config.experiment]
    if config.experiment in _FLOW_READERS:
        return runner(config, config.spec, tape or _FlowTape())
    return runner(config, config.spec)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_csv(rows: list, path) -> None:
    """Write dict rows as CSV: the union of keys in first-seen order, floats
    at 17 significant digits, booleans lower-case, missing cells empty."""
    keys: list[str] = []
    for r in rows:
        for k in r:
            if k not in keys:
                keys.append(k)
    lines = [",".join(keys)]
    for r in rows:
        lines.append(",".join(_csv_cell(r.get(k)) for k in keys))
    Path(path).write_text("\n".join(lines) + "\n")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_json(payload: dict, path) -> None:
    """Write a JSON artifact: keys sorted, one-space indent, final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def execute(config: ExperimentConfig, outdir: str | Path,
            tape: _FlowTape | None = None) -> tuple[Report, dict]:
    """Run one experiment (see run_experiment), then make outdir, write its
    artifacts and return (report, manifest)."""
    started = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    report = run_experiment(config, tape)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{config.experiment}_{config.hash()[:8]}"
    report_path = out / f"{stem}_report.json"
    report.to_json(report_path)
    csv_path = out / f"{stem}_rows.csv"
    write_csv(report.rows, csv_path)
    files = [report_path, csv_path]
    for name, rows in report.artifacts.items():
        extra = out / f"{stem}_{name}"
        write_csv(rows, extra)
        files.append(extra)
    if config.output["emit_svg"]:
        numeric_rows = [
            [r[k] for k in r if isinstance(r[k], (int, float)) and not isinstance(r[k], bool)]
            for r in report.rows
        ]
        numeric_rows = [r for r in numeric_rows if len(r) >= 2]
        if numeric_rows:
            svg_path = out / f"{stem}.svg"
            emit_svg(numeric_rows, stem, svg_path)
            files.append(svg_path)
    manifest = {
        "config": config.as_dict(),
        "config_hash": config.hash(),
        "version": __version__,
        "started": started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "files": {p.name: _sha256(p) for p in files},
        "passed": report.passed(),
    }
    _write_json(manifest, out / f"{stem}_manifest.json")
    return report, manifest


def verify_battery(outdir: str | Path, profile: str = "full", seed: int | None = None) -> dict:
    """Run the standard acceptance battery and aggregate the manifests.

    ``profile='quick'`` shrinks grids and particle counts for smoke checks;
    ``'full'`` matches the documented acceptance settings.  Any other
    profile, or a bad seed, raises :class:`DomainError` before any directory
    is made.  The experiments read the flow through one _FlowTape, so a flow
    that several of them read is stepped once; its kept states go when the
    battery returns.  Each experiment's entry carries ``flow_steps``, the
    flow steps the experiment computed itself, and ``wall_s``, the seconds
    its run and artifacts took, as a fixed-width decimal string (12
    characters below 10^5 s), so the manifest's size does not depend on
    timing; only ``files`` holds checksums.
    """
    if profile not in ("quick", "full"):
        raise DomainError(f"profile must be 'quick' or 'full', got {profile!r}")
    quick = profile == "quick"
    n = 256 if quick else 512
    particles = 20000 if quick else 100000
    base_numerics = {"n": n, "particles": particles}
    if seed is not None:
        base_numerics["seed"] = seed
    battery = [
        {"experiment": "pma_run", "problem": {"kind": "gaussian_location", "theta": 0.5}},
        {"experiment": "pma_run", "problem": {"kind": "gaussian_scale", "eta": 0.5}},
        {"experiment": "fokker_planck_run", "problem": {"kind": "gaussian_scale", "eta": 0.5}},
        {"experiment": "eps_limit", "problem": {"kind": "gaussian_location", "theta": 0.5}},
        {"experiment": "laplace_estimate",
         "numerics": {"eps_list": [0.2, 0.1, 0.05, 0.025]}},
        {"experiment": "metric_derivative", "problem": {"kind": "gaussian_location"}},
        {"experiment": "kl_decay", "problem": {"kind": "gaussian_location"}},
        {"experiment": "gaussian_closed_form", "problem": {"kind": "gaussian_scale", "eta": 0.5},
         "numerics": {"T": 2.0}},
        {"experiment": "markov_chain_run", "problem": {"kind": "gaussian_location"}},
        {"experiment": "diffusion_run", "problem": {"kind": "gaussian_location"},
         "numerics": {"T": 0.25 if quick else 1.0}},
    ]
    configs = [ExperimentConfig.from_dict(
        {**raw, "numerics": {**base_numerics, **raw.get("numerics", {})}}) for raw in battery]
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    combined: dict = {"profile": profile, "experiments": {}, "files": {}, "all_passed": True}
    tape = _FlowTape.sharing(configs)
    for config in configs:
        clock, steps = time.perf_counter(), tape.steps
        report, manifest = execute(config, out, tape)
        combined["experiments"][f"{config.experiment}:{config.hash()[:8]}"] = {
            "config_hash": manifest["config_hash"],
            "passed": report.passed(),
            "verdicts": report.verdicts,
            "flow_steps": tape.steps - steps,
            "wall_s": f"{time.perf_counter() - clock:012.6f}",
        }
        combined["files"].update(manifest["files"])
        combined["all_passed"] = combined["all_passed"] and report.passed()
    _write_json(combined, out / "verify_manifest.json")
    return combined
