import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sinkflow
import sinkflow.experiments as experiments
from sinkflow.cli import main
from sinkflow.closed_form import ClosedFormFlow, FlowKind, deficit_ratio, tabulate
from sinkflow.errors import DomainError, EmptyTable
from sinkflow.grids import discretize
from sinkflow.experiments import (
    ExperimentConfig,
    Problem,
    execute,
    floor_steps,
    run_experiment,
)
from sinkflow.pma import run_fokker_planck
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
        {"problem": {"flow_kind": "nope"}},
        {"numerics": {"n": "128"}},
        {"numerics": {"particles": 2.5}},
        {"numerics": {"seed": True}},
        {"numerics": {"T": "1"}},
        {"numerics": {"eps": float("nan")}},
        {"numerics": {"eps_list": [0.2, "0.1"]}},
        {"numerics": {"eps_list": 0.1}},
        {"numerics": {"eps_list": [0.1]}},
        {"problem": {"theta": "0.5"}},
        {"problem": {"param": True}},
        {"numerics": {"seed": -3}},
        {"numerics": [["n", 128]]},
        {"problem": {"flow_kind": []}},
        {"output": {"snapshot_stride": "abc"}},
        {"output": {"snapshot_stride": None}},
        {"output": {"snapshot_stride": -3}},
        {"output": {"snapshot_stride": 1.7}},
        {"output": {"snapshot_stride": True}},
        {"output": {"emit_svg": "no"}},
        {"output": {"emit_svg": 1}},
    ], ids=["unknown-problem-key", "unknown-numerics-key", "removed-tolerances",
            "removed-directory", "negative-dt", "zero-dt", "zero-eps", "zero-in-eps-list",
            "negative-L", "no-particles", "unknown-flow-kind", "string-n",
            "fractional-particles", "bool-seed", "string-T", "nan-eps",
            "string-in-eps-list", "eps-list-not-a-list", "one-entry-eps-list", "string-theta",
            "bool-param", "negative-seed", "numerics-not-an-object", "list-flow-kind",
            "string-stride", "null-stride", "negative-stride", "fractional-stride",
            "bool-stride", "string-emit-svg", "integer-emit-svg"])
    def test_bad_config_rejected(self, raw):
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
               "problem": {"flow_kind": "sinkhorn_scale", "param": 0.5},
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
        state = Problem.from_config(cfg).flow_state(cfg.grid())
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


@pytest.mark.parametrize("problem,param", [
    ({"flow_kind": "sinkhorn_scale", "eta": 0.3}, 0.3),
    ({"flow_kind": "fokker_planck_scale", "eta": 0.3, "theta": 0.7}, 0.3),
    ({"flow_kind": "sinkhorn_location", "theta": 0.7, "eta": 0.3}, 0.7),
    ({"flow_kind": "sinkhorn_scale", "eta": 0.3, "param": 0.6}, 0.6),
], ids=["scale-eta", "fokker-planck-scale-eta", "location-theta", "explicit-param"])
def test_gaussian_closed_form_reads_the_problem_parameter(problem, param):
    # without "param", the scale kinds take eta and the location kinds theta
    report = run_experiment(ExperimentConfig.from_dict(
        {"experiment": "gaussian_closed_form", "problem": problem}))
    flow = ClosedFormFlow(FlowKind(problem["flow_kind"]), param)
    assert report.rows == tabulate(flow, np.linspace(0.0, 1.0, 51))
    if "scale" in problem["flow_kind"]:
        lhs, rhs = deficit_ratio(param, 1.0)
        assert report.verdicts[0]["value"] == lhs / rhs


class TestPmaCheckpoints:
    RAW = {"experiment": "pma_run", "numerics": {"n": 128, "T": 1.0}}

    def test_missing_checkpoint_state_raises(self, monkeypatch):
        # a verdict named t=0.5 must be judged on the t=0.5 state or not at all
        real = experiments.run_flow

        def without_half(*args, **kwargs):
            return [s for s in real(*args, **kwargs) if abs(s.t - 0.5) > 1e-6]

        monkeypatch.setattr(experiments, "run_flow", without_half)
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
        problem = Problem.from_config(config)
        grid = config.grid()
        hist = list(run_fokker_planck(discretize(problem.nu, grid),
                                      discretize(problem.mu, grid), 1e-3, 1000))
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
    assert run_experiment(cfg).passed()


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
            "problem": {"flow_kind": "euclid_quadratic", "param": 1.0},
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

    def test_tabulate_ode_kind_keeps_value_column(self, tmp_path):
        assert main(["--output", str(tmp_path), "tabulate", "euclid_quadratic",
                     "--points", "3"]) == 0
        rows = (tmp_path / "tabulate_euclid_quadratic.csv").read_text().splitlines()
        assert rows == ["t,value", "0,1", f"1,{math.exp(-1.0):.17g}", f"2,{math.exp(-2.0):.17g}"]

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
