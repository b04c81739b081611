"""The mutation gate: mutants of the paper's content that a runner's
verdicts must reject.

Each case monkeypatches one binding and runs one runner alone at n = 256.
A mutant that the verdicts cannot see yet is a strict xfail that names the
ROADMAP item owning the sharper verdict.  When that item lands, the mutant
fails a verdict, the test passes, ``xfail_strict`` turns the pass into a
failure, and the marker comes off.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import sinkflow.experiments as experiments
import sinkflow.pma as pma
from sinkflow.experiments import ExperimentConfig, run_experiment
from sinkflow.pma import NodeTables, PmaState, VelocityField

REAL_STEP = experiments.step
REAL_CHAIN_STEP = experiments.markov_chain_step
REAL_VELOCITY = pma.velocity


def failed_checks(raw: dict) -> list[str]:
    """The checks that raw's run fails; the run must judge something."""
    verdicts = run_experiment(ExperimentConfig.from_dict(raw)).verdicts
    assert verdicts
    return [v["check"] for v in verdicts if not v["pass"]]


def pma_run(kind: str) -> dict:
    return {"experiment": "pma_run", "problem": {"kind": kind}, "numerics": {"n": 256}}


def fast_flow(rate: float):
    """A flow step that advances u by rate * dt while the clock advances by dt."""
    def fast_step(state, dt, max_substep=None):
        return replace(REAL_STEP(state, rate * dt, max_substep), t=state.t + dt)
    return fast_step


def test_flow_ten_percent_fast_fails_the_mean_checkpoints(monkeypatch):
    # the control: a mutant the battery already rejects
    monkeypatch.setattr(experiments, "step", fast_flow(1.10))
    failed = failed_checks(pma_run("gaussian_location"))
    assert {"mean(t=0.5)", "mean(t=1.0)"} <= set(failed)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: the 2% checkpoints pass a flow 1% fast")
def test_flow_one_percent_fast_fails_pma_run(monkeypatch):
    monkeypatch.setattr(experiments, "step", fast_flow(1.01))
    failed = [failed_checks(pma_run(kind)) for kind in ("gaussian_location", "gaussian_scale")]
    assert any(failed)


def unmirrored_tables(state: PmaState) -> NodeTables:
    """Langevin toward mu without the mirror: drift -f', diffusion sqrt(2)."""
    grid = state.grid
    return NodeTables(grid, -state.mu_spec.grad(grid.nodes), np.full(grid.n, math.sqrt(2.0)))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: on the location problem u'' = 1, so the "
                          "mirrored SDE is the unmirrored one")
def test_sde_without_its_mirror_fails_diffusion_run(monkeypatch):
    monkeypatch.setattr(PmaState, "sde_tables", property(unmirrored_tables))
    assert failed_checks({"experiment": "diffusion_run",
                          "numerics": {"n": 256, "particles": 20000, "T": 0.1}})


def forgetting_chain_step(ens, sk):
    """The chain step with the previous coupling dropped, so that every step
    draws the intermediate coordinate from nu, as the product coupling does
    at k = 0."""
    return REAL_CHAIN_STEP(ens, replace(sk, u_prev=None, v_prev=None))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 6: the marginal KS verdict cannot see the "
                          "coupling, and every coupling's second marginal is nu")
def test_chain_that_forgets_its_position_fails_markov_chain_run(monkeypatch):
    monkeypatch.setattr(experiments, "markov_chain_step", forgetting_chain_step)
    assert failed_checks({"experiment": "markov_chain_run",
                          "numerics": {"n": 256, "particles": 20000}})


def lagging_chain_step(ens, sk):
    """The chain step whose second conditional, the new position given the
    dual coordinate, is drawn from the previous coupling instead of the
    current one."""
    return REAL_CHAIN_STEP(ens, sk if sk.u_prev is None else replace(sk, u=sk.u_prev))


def test_chain_drawing_from_the_previous_coupling_fails_markov_chain_run(monkeypatch):
    monkeypatch.setattr(experiments, "markov_chain_step", lagging_chain_step)
    assert failed_checks({"experiment": "markov_chain_run",
                          "numerics": {"n": 256, "particles": 20000}}) \
        == ["chain marginal KS over k<=10"]


def velocity_without_mirror(state: PmaState) -> VelocityField:
    """The flow velocity with the division by u'' dropped: the Euclidean
    gradient of the first variation."""
    return VelocityField(state.grid, REAL_VELOCITY(state).values * state.u.d2u)


def metric_derivative(kind: str) -> dict:
    return {"experiment": "metric_derivative", "problem": {"kind": kind}, "numerics": {"n": 256}}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: the battery runs metric_derivative on the "
                          "location problem alone, where u'' = 1")
def test_lot_metric_derivative_without_its_mirror_fails_on_location(monkeypatch):
    monkeypatch.setattr(pma, "velocity", velocity_without_mirror)
    assert failed_checks(metric_derivative("gaussian_location"))


def test_lot_metric_derivative_without_its_mirror_fails_on_scale(monkeypatch):
    monkeypatch.setattr(pma, "velocity", velocity_without_mirror)
    assert "ratio at smallest delta" in failed_checks(metric_derivative("gaussian_scale"))
