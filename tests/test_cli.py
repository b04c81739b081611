import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sinkflow
import sinkflow.experiments as experiments
import sinkflow.pma as pma
from sinkflow.cli import main
from sinkflow.closed_form import ClosedFormFlow, FlowKind, deficit_ratio, tabulate
from sinkflow.errors import DomainError, EmptyTable, NumericOverflow
from sinkflow.grids import discretize
from sinkflow.experiments import (
    ExperimentConfig,
    execute,
    floor_steps,
    run_experiment,
)
from sinkflow.pma import (
    FokkerPlanckSystem,
    metric_derivative_lot,
    run_flow,
    run_fokker_planck,
    second_order_lot_gap,
)
from sinkflow.sinkhorn import s_step
from sinkflow.transport import w2_distance
from sinkflow.svgplot import emit_svg


QUICK_NUMERICS = {"n": 128, "eps_list": [0.2, 0.1], "T": 0.2, "particles": 2000}


class TestConfig:
    def test_defaults_filled(self):
        cfg = ExperimentConfig.from_dict({"experiment": "pma_run"})
        assert cfg.numerics["n"] == 512
        assert cfg.numerics["seed"] == 7
        assert cfg.problem["kind"] == "gaussian_location"

    @pytest.mark.parametrize("raw", [[], "pma_run", None])
    def test_config_not_an_object_rejected(self, raw):
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict(raw)

    def test_unknown_experiment(self):
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict({"experiment": "nope"})

    def test_grid_size_validation(self):
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict({"experiment": "pma_run", "numerics": {"n": 300}})
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict({"experiment": "pma_run", "numerics": {"n": 4096}})

    def test_eps_list_must_decrease(self):
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict(
                {"experiment": "eps_limit", "numerics": {"eps_list": [0.1, 0.2]}})

    def test_horizon_positive(self):
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict({"experiment": "pma_run", "numerics": {"T": 0.0}})

    @pytest.mark.parametrize("raw", [
        {"problem": {"thetaa": 0.5}},
        {"numerics": {"dtt": 1e-3}},
        {"numerics": {"tolerances": {}}},
        {"output": {"directory": "."}},
        {"numerics": {"dt": -1.0}},
        {"numerics": {"dt": 0.0}},
        {"numerics": {"eps": 0.0}},
        {"numerics": {"eps_list": [0.2, 0.1, 0.0]}},
        {"numerics": {"L": -8.0}},
        {"numerics": {"particles": 0}},
        {"problem": {"kind": "nope"}},
        {"numerics": {"n": "128"}},
        {"numerics": {"particles": 2.5}},
        {"numerics": {"seed": True}},
        {"numerics": {"T": "1"}},
        {"numerics": {"eps": float("nan")}},
        {"numerics": {"eps_list": [0.2, "0.1"]}},
        {"numerics": {"eps_list": 0.1}},
        {"numerics": {"eps_list": [0.1]}},
        {"problem": {"theta": "0.5"}},
        {"problem": {"eta": True}},
        {"numerics": {"seed": -3}},
        {"numerics": [["n", 128]]},
        {"problem": {"kind": []}},
        {"output": {"snapshot_stride": "abc"}},
        {"output": {"snapshot_stride": None}},
        {"output": {"snapshot_stride": -3}},
        {"output": {"snapshot_stride": 1.7}},
        {"output": {"snapshot_stride": True}},
        {"output": {"emit_svg": "no"}},
        {"output": {"emit_svg": 1}},
        {"problem": {"flow_kind": "sinkhorn_scale"}},
        {"problem": {"param": 0.5}},
        {"problem": {"kind": "gaussian_scale", "eta": 1.5}},
        {"problem": {"theta": 0.0}},
    ], ids=["unknown-problem-key", "unknown-numerics-key", "removed-tolerances",
            "removed-directory", "negative-dt", "zero-dt", "zero-eps", "zero-in-eps-list",
            "negative-L", "no-particles", "unknown-kind", "string-n",
            "fractional-particles", "bool-seed", "string-T", "nan-eps",
            "string-in-eps-list", "eps-list-not-a-list", "one-entry-eps-list", "string-theta",
            "bool-eta", "negative-seed", "numerics-not-an-object", "list-kind",
            "string-stride", "null-stride", "negative-stride", "fractional-stride",
            "bool-stride", "string-emit-svg", "integer-emit-svg", "removed-flow-kind",
            "removed-param", "scale-eta-above-one", "zero-theta"])
    def test_bad_config_rejected(self, raw):
        # the problem section is parsed into a Problem here, so a problem
        # that has no flow (eta outside (0, 1), theta = 0) fails with the rest
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict({"experiment": "pma_run", **raw})

    @pytest.mark.parametrize("experiment,numerics", [
        ("sinkhorn_run", {"eps": 0.5}),
        ("markov_chain_run", {"eps": 0.5}),
        ("eps_limit", {"eps_list": [0.5, 0.1]}),
        ("pma_run", {"T": 0.5, "dt": 1.0}),
        ("eps_limit", {"T": 1.0, "dt": 0.3}),
    ])
    def test_run_without_a_step_rejected(self, experiment, numerics):
        # floor(T/eps) iterations or round(T/dt) time steps come out zero,
        # or no flow step lands on the iterates' time (dt = 0.3 misses t = 1)
        cfg = ExperimentConfig.from_dict({"experiment": experiment,
                                          "numerics": {**QUICK_NUMERICS, **numerics}})
        with pytest.raises(DomainError):
            run_experiment(cfg)

    @pytest.fixture
    def step_calls(self, monkeypatch):
        """The names of the flow, Fokker-Planck and scaling steps taken."""
        calls = []
        for module, name in ((experiments, "step"), (pma, "fokker_planck_step"),
                             (experiments, "s_step")):
            def counted(*args, real=getattr(module, name), name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("experiment,numerics", [
        ("pma_run", {"n": 64, "dt": 2.0, "T": 4.0}),
        ("fokker_planck_run", {"dt": 0.03}),
        ("eps_limit", {"dt": 0.003}),
        ("metric_derivative", {"dt": 0.03}),
        ("kl_decay", {"T": 1.0, "dt": 0.3}),
        ("diffusion_run", {"T": 0.25, "dt": 0.1}),
    ], ids=["checkpoint", "fokker-planck-T", "iterate-time", "t0", "kl-decay-T", "diffusion-T"])
    def test_missed_read_time_raises_before_the_first_step(self, experiment, numerics,
                                                           step_calls):
        # no step of dt lands on the checkpoint t = 0.5, on T, on the
        # iterates' time 1.0 or on t0 = 0.5: the run says so before it steps
        cfg = ExperimentConfig.from_dict({"experiment": experiment, "numerics": {
            "n": 128, "particles": 2000, **numerics}})
        with pytest.raises(DomainError, match="no step of dt"):
            run_experiment(cfg)
        assert step_calls == []

    def test_eps_limit_refuses_eps_below_h_squared(self, step_calls):
        # at n = 128, h^2 = (16/127)^2 = 0.0159: eps = 0.0125 is below it,
        # where the grid iteration's own error swamps the distance compared
        cfg = ExperimentConfig.from_dict({"experiment": "eps_limit",
                                          "numerics": {"n": 128, "eps_list": [0.1, 0.0125]}})
        with pytest.raises(DomainError, match="below h"):
            run_experiment(cfg)
        assert step_calls == []

    @pytest.mark.parametrize("experiment,particles", [("markov_chain_run", 20),
                                                      ("diffusion_run", 8)])
    def test_particles_too_few_for_a_ks_verdict_rejected(self, experiment, particles):
        # the KS tolerances 3 * 1.63/sqrt(20) and 2 * 1.63/sqrt(8) reach 1,
        # which no KS distance exceeds, so the verdict could not fail
        cfg = ExperimentConfig.from_dict({"experiment": experiment,
                                          "numerics": {**QUICK_NUMERICS, "particles": particles}})
        with pytest.raises(DomainError):
            run_experiment(cfg)

    @pytest.mark.parametrize("experiment", ["diffusion_run", "kl_decay"])
    @pytest.mark.parametrize("kind", ["mirror_entropy", "mirror_potential_energy"])
    def test_flow_other_than_relative_entropy_rejected(self, experiment, kind):
        # the mirrored SDE and the decay bound belong to the relative-entropy flow;
        # for these kinds nu = mu, so the bound would start from KL(nu || mu) = 0
        cfg = ExperimentConfig.from_dict({"experiment": experiment, "problem": {"kind": kind},
                                          "numerics": QUICK_NUMERICS})
        with pytest.raises(DomainError):
            run_experiment(cfg)

    def test_hash_stable_under_key_order(self):
        a = ExperimentConfig.from_dict(
            {"experiment": "pma_run", "numerics": {"n": 256, "dt": 1e-3}})
        b = ExperimentConfig.from_dict(
            {"experiment": "pma_run", "numerics": {"dt": 1e-3, "n": 256}})
        assert a.hash() == b.hash()


def test_floor_steps_float_guard():
    # T/eps hits 4.9999... in floats for these values; the floor must not drop a step
    assert floor_steps(1.0, 0.2) == 5
    assert floor_steps(1.0, 0.05) == 20
    assert floor_steps(1.0, 0.3) == 3


class TestSvg:
    def test_two_point_polyline(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_svg([[0.0, 1.0], [1.0, 2.0]], "", path)
        text = path.read_text()
        assert text.count("<polyline") == 1
        assert "0.000,1.000" not in text  # data coordinates are mapped to pixels

    def test_byte_stability(self, tmp_path):
        rows = [[0.1, 0.5], [0.2, 0.7], [0.3, 0.65]]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(rows, "t", p1)
        emit_svg(rows, "t", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_table(self, tmp_path):
        with pytest.raises(EmptyTable):
            emit_svg([], "", tmp_path / "empty.svg")


class TestExecute:
    def test_artifacts_and_manifest(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "experiment": "laplace_estimate",
            "numerics": {"n": 128, "eps_list": [0.2, 0.1, 0.05, 0.025]},
            "output": {"emit_svg": True},
        })
        report, manifest = execute(cfg, tmp_path)
        assert report.passed()
        stem = f"laplace_estimate_{cfg.hash()[:8]}"
        for suffix in ("_report.json", "_rows.csv", ".svg", "_manifest.json"):
            assert (tmp_path / f"{stem}{suffix}").exists()
        report_payload = json.loads((tmp_path / f"{stem}_report.json").read_text())
        assert report_payload["config_hash"] == cfg.hash()
        assert all(v["pass"] for v in report_payload["verdicts"])

    def test_rerun_reproduces_checksums(self, tmp_path):
        raw = {"experiment": "gaussian_closed_form",
               "problem": {"kind": "gaussian_scale", "eta": 0.5},
               "numerics": {"n": 128, "T": 2.0}}
        cfg = ExperimentConfig.from_dict(raw)
        _, m1 = execute(cfg, tmp_path / "one")
        _, m2 = execute(cfg, tmp_path / "two")
        assert m1["files"] == m2["files"]

    def test_sinkhorn_run_experiment(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"experiment": "sinkhorn_run", "numerics": {**QUICK_NUMERICS, "T": 1.0}})
        report = run_experiment(cfg)
        assert report.passed()
        assert report.rows[0]["k"] == 1
        assert all(0.0 <= row["mass_drift"] <= 1e-8 for row in report.rows)

    def test_density_snapshots_emitted(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "experiment": "pma_run",
            "numerics": {"n": 128, "T": 0.05},
            "output": {"snapshot_stride": 5},
        })
        _, manifest = execute(cfg, tmp_path)
        snaps = [f for f in manifest["files"] if "density_t" in f]
        assert snaps and all((tmp_path / s).exists() for s in snaps)
        # the first snapshot is the start density, read back exactly
        first = tmp_path / sorted(snaps)[0]
        assert first.read_text().splitlines()[0] == "x,density"
        data = np.loadtxt(first, delimiter=",", skiprows=1)
        state = cfg.spec.flow_state(cfg.grid())
        np.testing.assert_array_equal(data[:, 0], state.grid.nodes)
        np.testing.assert_array_equal(data[:, 1], state.rho.values)

    def test_no_verdicts_is_not_a_pass(self, tmp_path):
        # T < 0.5 leaves pma_run without a checkpoint
        raw = {"experiment": "pma_run", "numerics": {"n": 128, "T": 0.3}}
        report = run_experiment(ExperimentConfig.from_dict(raw))
        assert report.verdicts == [] and not report.passed()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--output", str(tmp_path), "run", str(cfg_path)]) == 1


@pytest.mark.parametrize("kind,flow", [
    ("gaussian_location", ClosedFormFlow(FlowKind.SINKHORN_LOCATION, 0.7)),
    ("gaussian_scale", ClosedFormFlow(FlowKind.SINKHORN_SCALE, 0.3)),
    ("mirror_entropy", ClosedFormFlow(FlowKind.MIRROR_ENTROPY)),
    ("mirror_potential_energy", ClosedFormFlow(FlowKind.MIRROR_POTENTIAL_ENERGY)),
], ids=["location-theta", "scale-eta", "mirror-entropy", "mirror-potential-energy"])
def test_gaussian_closed_form_reads_the_problem_parameter(kind, flow):
    # the runner tabulates the problem's oracle: the location flow of theta,
    # the scale flow of eta, the mirror flows of neither; the entropic scale
    # flow alone is judged, by its deficit ratio
    config = ExperimentConfig.from_dict({"experiment": "gaussian_closed_form",
                                         "problem": {"kind": kind, "theta": 0.7, "eta": 0.3}})
    report = run_experiment(config)
    assert config.spec.oracle == flow
    assert report.rows == tabulate(flow, np.linspace(0.0, 1.0, 51))
    if kind == "gaussian_scale":
        assert [v["value"] for v in report.verdicts] == [
            lhs / rhs for lhs, rhs in (deficit_ratio(0.3, 1.0), deficit_ratio(0.3, 2.0))]
    else:
        assert report.verdicts == []


def test_deficit_ratio_verdict_holds_on_an_eta_t_grid():
    # lhs >= rhs is true math, yet as doubles lhs fell short of rhs in 38 of
    # these 1,378 cases (eta = 0.05, t = 2 read 0.9999999999999999); the
    # largest shortfall is 0.90 eps (1 + x), inside the verdict's 4 eps (1 + x)
    judged = 0
    for eta in np.linspace(0.01, 0.99, 197):
        for t in (0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0):
            try:
                verdict = experiments._deficit_verdict(float(eta), t)
            except NumericOverflow:
                continue
            assert verdict["pass"], (eta, t, verdict)
            judged += 1
    assert judged == 1378


def test_deficit_ratio_verdict_fails_a_two_percent_shortfall(monkeypatch):
    # the rounding slack is ~1e-15 relative: an rhs 2% too large at
    # eta = 0.5, t = 1, where the true margin is 1.0122, still fails
    real = experiments.deficit_ratio

    def inflated(eta, t):
        lhs, rhs = real(eta, t)
        return lhs, rhs * 1.02 if t == 1.0 else rhs

    monkeypatch.setattr(experiments, "deficit_ratio", inflated)
    report = run_experiment(ExperimentConfig.from_dict(
        {"experiment": "gaussian_closed_form", "problem": {"kind": "gaussian_scale"},
         "numerics": {"T": 2.0}}))
    assert [v["pass"] for v in report.verdicts] == [False, True]


class TestPmaCheckpoints:
    RAW = {"experiment": "pma_run", "numerics": {"n": 128, "T": 1.0}}

    def test_missing_checkpoint_state_raises(self, monkeypatch):
        # a verdict named t=0.5 must be judged on the t=0.5 state or not at all
        real = experiments._FlowTape.states

        def without_half(*args):
            return (s for s in real(*args) if abs(s.t - 0.5) > 1e-6)

        monkeypatch.setattr(experiments._FlowTape, "states", without_half)
        with pytest.raises(DomainError):
            run_experiment(ExperimentConfig.from_dict(self.RAW))

    def test_verdicts_read_the_checkpoint_states(self):
        # T = 1.5 thins the stored states; the checkpoints must survive it
        raw = {**self.RAW, "numerics": {"n": 128, "T": 1.5}}
        report = run_experiment(ExperimentConfig.from_dict(raw))
        assert [v["check"] for v in report.verdicts] == MOMENTS_BOTH
        by_t = {round(r["t"], 9): r for r in report.rows}
        for v in report.verdicts:
            name, t = v["check"].rstrip(")").split("(t=")
            assert v["value"] == by_t[float(t)][name]
        assert report.passed()

    def test_end_within_the_step_tolerance_of_a_checkpoint_judges_it(self):
        # T = 0.4999999 lands on step 500, stamped 0.5, so the run judges t = 0.5
        raw = {**self.RAW, "numerics": {"n": 64, "T": 0.4999999}}
        report = run_experiment(ExperimentConfig.from_dict(raw))
        assert [v["check"] for v in report.verdicts] == MOMENTS_BOTH[:2]

    def test_rows_report_the_step_health(self, monkeypatch):
        # the start row has taken no step; every later one reports its step's
        # substeps, transport drift, variation growth and W factorizations
        # (none on this explicit run), the Hessian window so far, and the
        # largest clamp since the row before it.  The rows keep every other
        # step; steps 3 and 4 are made to report a clamp, and the row of
        # step 4 keeps the larger one of the thinned step 3
        real = experiments._FlowTape.states

        def clamping(*args):
            marks = {3: 0.25, 4: 0.125}
            for i, s in enumerate(real(*args)):
                yield replace(s, projection_magnitude=marks[i]) if i in marks else s

        monkeypatch.setattr(experiments._FlowTape, "states", clamping)
        raw = {**self.RAW, "numerics": {"n": 128, "T": 0.5}}
        first, *later = run_experiment(ExperimentConfig.from_dict(raw)).rows
        health = ("substeps", "transport_drift", "derivative_growth", "factorizations", "clamp")
        assert [first[k] for k in health] == [0, 0, 0, 0, 0]
        assert first["hessian_min"] == first["hessian_max"] == 1.0
        assert [row["clamp"] for row in later[:3]] == [0.0, 0.25, 0.0]
        assert all(row["clamp"] == 0.0 for row in later[3:])
        for prev, row in zip([first, *later], later):
            assert row["substeps"] >= 1
            assert 0.0 < row["transport_drift"] <= 5e-3
            assert 0.0 < row["derivative_growth"] <= 10.0
            assert row["factorizations"] == 0
            assert row["hessian_min"] <= prev["hessian_min"]
            assert row["hessian_max"] >= prev["hessian_max"]

    def test_rows_report_the_ros2_factorizations(self):
        # n = 1024 takes ROS2 steps (CFL count 17 and more): the first step
        # factors W, and later ones refactor only as u'' drifts.  The rows
        # keep every other step, and each counts the factorizations since
        # the row before it, so none is lost
        raw = {"experiment": "pma_run", "problem": {"kind": "gaussian_scale"},
               "numerics": {"n": 1024, "T": 0.5}}
        config = ExperimentConfig.from_dict(raw)
        rows = run_experiment(config).rows
        states = run_flow(config.spec.flow_state(config.grid()), 1e-3, 500)
        counts = [row["factorizations"] for row in rows]
        assert len(counts) == 251 and counts[:2] == [0, 1]
        assert sum(counts) == sum(s.factorizations for s in states)
        assert 1 < sum(counts) < 50
        assert rows[-1]["hessian_min"] < 1.0 == rows[-1]["hessian_max"]

    def test_hessian_columns_are_the_range_since_the_start(self):
        # each row's u'' range covers every state since t = 0, the thinned
        # ones too
        raw = {"experiment": "pma_run", "problem": {"kind": "gaussian_scale"},
               "numerics": {"n": 128, "T": 0.5}}
        config = ExperimentConfig.from_dict(raw)
        rows = run_experiment(config).rows
        states = list(run_flow(config.spec.flow_state(config.grid()), 1e-3, 500))
        low, high, since_start = math.inf, -math.inf, {}
        for s in states:
            low, high = min(low, float(np.min(s.u.d2u))), max(high, float(np.max(s.u.d2u)))
            since_start[s.t] = (low, high)
        assert len(rows) < len(states) and low < 1.0
        assert [(r["hessian_min"], r["hessian_max"]) for r in rows] == [
            since_start[r["t"]] for r in rows]

    @pytest.mark.parametrize("experiment", ["pma_run", "fokker_planck_run"])
    def test_checkpoint_between_steps_raises(self, experiment):
        # dt = 0.03 steps through t = 0.51 and 0.99, never 0.5 or 1.0, so a
        # verdict named t=0.5 or t=1.0 has no state to be judged on
        raw = {"experiment": experiment, "problem": {"kind": "gaussian_scale"},
               "numerics": {"n": 128, "T": 1.0, "dt": 0.03}}
        with pytest.raises(DomainError):
            run_experiment(ExperimentConfig.from_dict(raw))

    def test_fokker_planck_verdicts_read_the_checkpoint_densities(self):
        # T = 1.3 thins the rows every 6 steps, which skips step 500 (t = 0.5);
        # the verdicts must still read the densities at t = 0.5 and 1.0
        raw = {"experiment": "fokker_planck_run", "problem": {"kind": "gaussian_scale"},
               "numerics": {"n": 128, "T": 1.3}}
        config = ExperimentConfig.from_dict(raw)
        report = run_experiment(config)
        assert 0.5 not in [round(r["t"], 9) for r in report.rows]
        problem = config.spec
        grid = config.grid()
        system = FokkerPlanckSystem.build(discretize(problem.mu, grid), 1e-3)
        hist = list(run_fokker_planck(discretize(problem.nu, grid), system, 1000))
        assert [v["check"] for v in report.verdicts] == VARIANCES
        assert [v["value"] for v in report.verdicts] == [hist[500].variance(),
                                                         hist[1000].variance()]
        assert report.passed()


class TestStreamingRunners:
    """The flow runners walk their trajectory once and hold O(1) states."""

    @pytest.mark.parametrize("experiment, kind", [
        ("pma_run", "gaussian_location"), ("pma_run", "gaussian_scale"),
        ("fokker_planck_run", "gaussian_scale"), ("kl_decay", "gaussian_location")])
    def test_peak_memory_stays_flat_in_the_step_count(self, experiment, kind):
        # one 512-node state is a few 4 KB arrays; holding all 501 states of
        # the run peaked at 2.1-5.3 MB, one pass at 0.10-0.17 MB
        raw = {"experiment": experiment, "problem": {"kind": kind},
               "numerics": {"n": 512, "T": 0.5}}
        config = ExperimentConfig.from_dict(raw)
        tracemalloc.start()
        try:
            report = run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed()
        assert peak <= 2**20

    @pytest.mark.parametrize("experiment, bound", [("eps_limit", 2**20),
                                                   ("metric_derivative", 2 * 2**20)])
    def test_trajectory_runners_hold_only_the_states_they_read(self, experiment, bound):
        # holding all 1,001 (eps_limit) or 601 (metric_derivative) states of
        # the n = 512 run peaked at 21.2 and 12.6 MB; kept at their read
        # times, 0.5 and 1.3 MB (the latter with first-call allocations).
        # eps_limit's ratio verdicts are red by design (see README), so the
        # peak alone is judged
        raw = {"experiment": experiment, "problem": {"kind": "gaussian_location"},
               "numerics": {"n": 512}}
        config = ExperimentConfig.from_dict(raw)
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    @pytest.mark.parametrize("experiment", ["eps_limit", "metric_derivative"])
    def test_trajectory_runners_match_the_full_trajectory(self, experiment):
        # the streamed rows equal the rows computed from every state of the
        # run, each read at its index round(t / dt)
        raw = {"experiment": experiment, "problem": {"kind": "gaussian_location"},
               "numerics": {"n": 256}}
        config = ExperimentConfig.from_dict(raw)
        problem = config.spec
        grid, dt = config.grid(), config.numerics["dt"]
        states = list(run_flow(problem.flow_state(grid), dt, 1001))
        at = {round(s.t / dt): s for s in states}
        if experiment == "eps_limit":
            want = []
            for eps in config.numerics["eps_list"]:
                k = floor_steps(config.numerics["T"], eps)
                sk = problem.sinkhorn_state(grid, eps)
                for _ in range(k):
                    sk = s_step(sk)
                flow_at = at[round(k * eps / dt)]
                want.append({"eps": eps, "k": k, "t": k * eps,
                             "w2_squared": w2_distance(sk.rho, flow_at.rho) ** 2})
        else:
            t0, deltas = 0.5, (0.1, 0.05, 0.025)
            window = [at[round(t / dt)] for t in (t0, *(t0 + d for d in deltas))]
            want = metric_derivative_lot(window[0], window[1:], deltas)
            gap, base = second_order_lot_gap(window[0], window[-1], deltas[-1])
            want.append({"second_order_gap": gap, "first_order_gap": base})
        assert run_experiment(config).rows[:len(want)] == want


def assert_same_state(a, b):
    """a and b are the same flow state bit for bit, lagged ROS2 factor too."""
    for name in ("t", "sup_variation", "rho_mass_error", "projection_magnitude", "substeps",
                 "transport_drift", "derivative_growth", "factorizations"):
        assert repr(getattr(a, name)) == repr(getattr(b, name)), name
    for name in ("hessian_min", "hessian_max"):
        assert repr(getattr(a.u, name)) == repr(getattr(b.u, name)), name
    for x, y in ((a.u.u, b.u.u), (a.u.du, b.u.du), (a.u.d2u, b.u.d2u), (a.h, b.h),
                 (a.rho.values, b.rho.values)):
        assert x.tobytes() == y.tobytes()
    assert (a.ros2 is None) == (b.ros2 is None)
    if a.ros2 is not None:
        assert a.ros2.gamma_tau == b.ros2.gamma_tau
        assert a.ros2.a.tobytes() == b.ros2.a.tobytes()
        assert a.ros2.b.tobytes() == b.ros2.b.tobytes()


class TestFlowTape:
    """verify_battery steps each flow that several runners read once."""

    LOCATION = {"experiment": "pma_run", "numerics": {"n": 256}}
    SCALE = {"experiment": "pma_run", "problem": {"kind": "gaussian_scale"},
             "numerics": {"n": 1024}}

    def test_battery_matches_standalone_runs_and_steps_each_shared_flow_once(
            self, tmp_path, monkeypatch):
        # the quick battery's location flow is read by five runners; stepped
        # once and replayed from its kept states, the battery takes 2,230
        # steps (4,850 when each runner stepped its own), each experiment's
        # flow_steps counts its own, and every artifact is the one a
        # standalone run writes
        calls = []
        real = experiments.step

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "step", counted)
        combined = experiments.verify_battery(tmp_path / "battery", profile="quick", seed=7)
        monkeypatch.undo()
        assert sum(e["flow_steps"] for e in combined["experiments"].values()) == len(calls)
        assert len(calls) <= 2300
        for name in combined["experiments"]:
            stem = name.replace(":", "_")
            manifest = json.loads((tmp_path / "battery" / f"{stem}_manifest.json").read_text())
            config = ExperimentConfig.from_dict(manifest["config"])
            _, alone = execute(config, tmp_path / "alone")
            assert alone["files"] == manifest["files"], name

    @pytest.mark.parametrize("raw", [LOCATION, SCALE], ids=["explicit-n256", "ros2-n1024"])
    def test_replay_from_kept_states_is_bit_identical(self, raw):
        # the first reader stops at step 35; the second resumes from kept
        # states, from its own state and past the kept ones; the third from
        # a state the second kept.  Every state equals a fresh run's
        config = ExperimentConfig.from_dict(raw)
        tape = experiments._FlowTape.sharing([config, config])
        fresh = list(run_flow(config.spec.flow_state(config.grid()), 1e-3, 60))
        readers = [list(range(36)), [7, 10, 23, 45, 59], [55]]
        for steps in readers:
            for i, state in zip(steps, tape.states(config, steps), strict=True):
                assert_same_state(state, fresh[i])
        # 35, then 7 + 0 + 3 + 15 (from 30) + 14 (from its own 45), then 5 (from 50)
        assert tape.steps == 35 + 39 + 5
        if raw is self.SCALE:
            # ROS2 steps, and the kept states carry the W they reuse
            assert fresh[1].factorizations == 1
            assert sum(s.factorizations for s in fresh) < 60

    def test_a_flow_read_once_keeps_no_states(self):
        location, scale = (ExperimentConfig.from_dict(raw) for raw in (self.LOCATION, self.SCALE))
        kl_decay = ExperimentConfig.from_dict({**self.LOCATION, "experiment": "kl_decay",
                                               "numerics": {"n": 256, "T": 0.5}})
        fokker_planck = ExperimentConfig.from_dict({**self.SCALE, "experiment": "fokker_planck_run"})
        tape = experiments._FlowTape.sharing([location, scale, kl_decay, fokker_planck])
        assert tape.shared == {experiments._flow_key(location)}
        assert experiments._flow_key(kl_decay) == experiments._flow_key(location)
        list(tape.states(scale, range(21)))
        assert tape._kept == {}
        list(tape.states(location, range(21)))
        assert list(tape._kept[experiments._flow_key(location)]) == [0, 10, 20]
        alone = experiments._FlowTape()
        list(alone.states(location, range(21)))
        assert alone._kept == {} and alone.steps == 20


MOMENTS_BOTH = ["mean(t=0.5)", "variance(t=0.5)", "mean(t=1.0)", "variance(t=1.0)"]
VARIANCES = ["variance(t=0.5)", "variance(t=1.0)"]
KL_BOUND = "kl <= 1.05 * bound along the run"


@pytest.mark.parametrize("experiment,kind,checks", [
    ("pma_run", "gaussian_location", MOMENTS_BOTH),
    ("pma_run", "gaussian_scale", VARIANCES),
    ("pma_run", "mirror_entropy", VARIANCES),
    ("pma_run", "mirror_potential_energy", VARIANCES),
    ("fokker_planck_run", "gaussian_location", MOMENTS_BOTH),
    ("fokker_planck_run", "gaussian_scale", VARIANCES),
    ("kl_decay", "gaussian_location", [KL_BOUND, "worst bound saturation after t=0"]),
    ("kl_decay", "gaussian_scale", [KL_BOUND]),
])
def test_runner_verdicts_per_problem_kind(experiment, kind, checks):
    cfg = ExperimentConfig.from_dict({"experiment": experiment, "problem": {"kind": kind},
                                      "numerics": {"n": 128, "T": 1.0}})
    report = run_experiment(cfg)
    assert [v["check"] for v in report.verdicts] == checks
    assert report.passed()


@pytest.mark.parametrize("dt", [0.02, 0.1])
@pytest.mark.parametrize("kind", ["gaussian_location", "gaussian_scale"])
def test_fokker_planck_run_passes_at_a_coarse_dt(kind, dt):
    # the step splits a coarse dt into short backward-Euler solves, so its
    # first-order time error stays far inside the 1% verdicts
    cfg = ExperimentConfig.from_dict({"experiment": "fokker_planck_run", "problem": {"kind": kind},
                                      "numerics": {"n": 128, "T": 1.0, "dt": dt}})
    report = run_experiment(cfg)
    assert report.passed()
    solves = round(dt / 1e-3)
    assert [r["solves"] for r in report.rows] == [0] + [solves] * (len(report.rows) - 1)


class TestCliCommands:
    def test_run_exit_zero_on_pass(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": "laplace_estimate",
            "numerics": {"n": 128, "eps_list": [0.2, 0.1, 0.05, 0.025]},
        }))
        code = main(["--output", str(tmp_path), "run", str(cfg_path)])
        assert code == 0
        assert "[pass]" in capsys.readouterr().out

    def test_seed_override_changes_hash(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": "gaussian_closed_form",
            "problem": {"kind": "mirror_entropy"},
            "numerics": {"n": 128},
        }))
        main(["--output", str(tmp_path / "a"), "run", str(cfg_path)])
        main(["--output", str(tmp_path / "b"), "--seed", "99", "run", str(cfg_path)])
        a = list((tmp_path / "a").glob("*_manifest.json"))[0]
        b = list((tmp_path / "b").glob("*_manifest.json"))[0]
        assert json.loads(a.read_text())["config_hash"] != json.loads(b.read_text())["config_hash"]

    @pytest.mark.parametrize("command", [["run", "CFG"], ["verify", "--profile", "quick"]])
    def test_bad_seed_exits_2_with_one_error_line(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "laplace_estimate"}))
        argv = [str(cfg_path) if a == "CFG" else a for a in command]
        code = main(["--output", str(tmp_path), "--seed", "-3", *argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("sinkflow: error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,config", [
        (["run", "CFG"], {"experiment": "pma_run", "problem": {"kind": "nope"}}),
        (["run", "CFG"], {"experiment": "pma_run",
                          "problem": {"kind": "gaussian_scale", "eta": 1.5}}),
        (["--seed", "-3", "verify", "--profile", "quick"], None),
        (["run", "CFG"], {"experiment": "pma_run", "numerics": {"n": 64, "dt": 2.0, "T": 4.0}}),
    ], ids=["unknown-kind", "scale-eta-above-one", "verify-negative-seed", "missed-checkpoint"])
    def test_run_that_cannot_be_made_leaves_no_directory(self, tmp_path, command, config):
        # each exited 2 and left an empty output directory; the last raises
        # at run time, before its first step
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = [str(cfg_path) if a == "CFG" else a for a in command]
        assert main(["--output", str(out), *argv]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("content", [None, '{"experiment": "pma_r', "[]"],
                             ids=["missing-file", "truncated-json", "not-an-object"])
    def test_unreadable_config_exits_2_with_one_error_line(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "cfg.json"
        if content is not None:
            cfg_path.write_text(content)
        code = main(["--output", str(tmp_path), "run", str(cfg_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("sinkflow: error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == ([] if content is None else [cfg_path])

    @pytest.mark.parametrize("args", [["--points", "0"], ["--points", "-4"],
                                      ["--param", "nan"], ["--param", "inf"],
                                      ["--t-end", "nan"]],
                             ids=["zero-points", "negative-points", "nan-param", "inf-param",
                                  "nan-t-end"])
    def test_tabulate_bad_argument_exits_2(self, tmp_path, capsys, args):
        code = main(["--output", str(tmp_path), "tabulate", "sinkhorn_location", *args])
        assert code == 2
        assert capsys.readouterr().err.startswith("sinkflow: error: ")
        assert not (tmp_path / "tabulate_sinkhorn_location.csv").exists()

    def test_tabulate(self, tmp_path):
        code = main(["--output", str(tmp_path), "tabulate", "mirror_entropy",
                     "--t-end", "1.0", "--points", "11"])
        assert code == 0
        rows = (tmp_path / "tabulate_mirror_entropy.csv").read_text().splitlines()
        assert rows[0] == "t,mean,variance"
        assert float(rows[-1].split(",")[2]) == pytest.approx(4.0)

    def test_tabulate_scale_flow_past_the_exp_overflow(self, tmp_path):
        # at eta = 0.005 the default t-end 2 takes 2t/eta to 800, beyond the
        # 709.78 where exp(2t/eta) overflowed
        code = main(["--output", str(tmp_path), "tabulate", "sinkhorn_scale",
                     "--param", "0.005"])
        assert code == 0
        data = np.loadtxt(tmp_path / "tabulate_sinkhorn_scale.csv", delimiter=",", skiprows=1)
        assert data.shape == (101, 3) and np.isfinite(data).all()
        assert data[0, 2] == pytest.approx(0.005**2, rel=1e-12) and data[-1, 2] == 1.0

    @pytest.mark.parametrize("eta", [0.05, 0.11])
    def test_run_closed_form_scale_flow_at_small_eta(self, tmp_path, eta):
        # the deficit ratio divided by 0 at eta = 0.05 and read 1.164 at
        # eta = 0.11, t = 2; it is (1 + (1-eta)/(1+eta) e^(-2t/eta))^2
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": "gaussian_closed_form",
            "problem": {"kind": "gaussian_scale", "eta": eta}}))
        assert main(["--output", str(tmp_path), "run", str(cfg_path)]) == 0
        report = json.loads(next(tmp_path.glob("*_report.json")).read_text())
        margins = [(1.0 + (1.0 - eta) / (1.0 + eta) * math.exp(-2.0 * t / eta)) ** 2
                   for t in (1.0, 2.0)]
        assert [v["value"] for v in report["verdicts"]] == pytest.approx(margins, rel=1e-14)

    def test_tabulate_location_mean(self, tmp_path):
        # the location flows move the mean, theta e^{-t}, at unit variance
        code = main(["--output", str(tmp_path), "tabulate", "sinkhorn_location",
                     "--param", "0.5", "--points", "11"])
        assert code == 0
        path = tmp_path / "tabulate_sinkhorn_location.csv"
        assert path.read_text().splitlines()[0] == "t,mean,variance"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (11, 3)
        np.testing.assert_allclose(data[:, 1], 0.5 * np.exp(-data[:, 0]), rtol=1e-15)
        assert np.all(data[:, 2] == 1.0)

    @pytest.mark.parametrize("kind", list(FlowKind), ids=[k.value for k in FlowKind])
    def test_tabulate_writes_every_flow_kind(self, tmp_path, kind):
        # tabulate is the one route to every closed-form flow, the
        # Fokker-Planck and Euclidean kinds among them
        assert main(["--output", str(tmp_path), "tabulate", kind.value, "--points", "11"]) == 0
        want = tmp_path / "want.csv"
        experiments.write_csv(tabulate(ClosedFormFlow(kind, 0.5), np.linspace(0.0, 2.0, 11)), want)
        assert (tmp_path / f"tabulate_{kind.value}.csv").read_bytes() == want.read_bytes()

    def test_tabulate_ode_kind_keeps_value_column(self, tmp_path):
        assert main(["--output", str(tmp_path), "tabulate", "euclid_quadratic",
                     "--points", "3"]) == 0
        rows = (tmp_path / "tabulate_euclid_quadratic.csv").read_text().splitlines()
        assert rows == ["t,value", "0,1", f"1,{math.exp(-1.0):.17g}", f"2,{math.exp(-2.0):.17g}"]

    def test_verify_prints_and_records_wall_times(self, tmp_path, capsys):
        # each experiment line ends with its wall time and the flow steps it
        # took, and the combined manifest records both beside the verdicts,
        # outside the checksums, the wall time at one width, so the
        # manifest's size does not depend on the timing
        main(["--output", str(tmp_path), "--seed", "7", "verify", "--profile", "quick"])
        combined = json.loads((tmp_path / "verify_manifest.json").read_text())
        lines = [line.split("] ", 1)[1] for line in capsys.readouterr().out.splitlines()
                 if line.startswith("[")]
        experiments_run = combined["experiments"]
        assert len(experiments_run) == 10
        walls = [entry["wall_s"] for entry in experiments_run.values()]
        steps = [entry["flow_steps"] for entry in experiments_run.values()]
        assert sorted(lines) == sorted(f"{name} ({float(wall):.2f} s, {k} flow steps)"
                                       for name, wall, k in zip(experiments_run, walls, steps))
        assert all(len(wall) == 12 and float(wall) > 0 for wall in walls)
        assert all(type(k) is int and k >= 0 for k in steps)
        assert all(name.endswith((".json", ".csv", ".svg")) for name in combined["files"])

    @pytest.mark.parametrize("profile", ["Quick", "", "fast"])
    def test_verify_rejects_unknown_profile(self, tmp_path, profile):
        out = tmp_path / "out"
        with pytest.raises(DomainError):
            experiments.verify_battery(out, profile=profile)
        assert not out.exists()

    def test_output_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SINKFLOW_OUT", str(tmp_path))
        code = main(["tabulate", "euclid_inverse", "--points", "5"])
        assert code == 0
        assert (tmp_path / "tabulate_euclid_inverse.csv").exists()


def test_runs_on_numpy_alone(tmp_path):
    # a fresh interpreter imports sinkflow and runs the quick battery
    # without loading scipy or any of its submodules
    script = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "import sinkflow\n"
        "from sinkflow.experiments import verify_battery\n"
        "after_import = scipy_modules()\n"
        f"verify_battery({str(tmp_path)!r}, profile='quick')\n"
        "print('SCIPY', after_import, scipy_modules())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sinkflow.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=600, check=True)
    assert done.stdout.splitlines()[-1] == "SCIPY [] []"
    assert (tmp_path / "verify_manifest.json").exists()
