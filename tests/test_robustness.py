"""Valid but extreme inputs end in a Report or a SinkflowError, never in any
other exception.  The cases up to the n = 64 metric derivative once ended
in a traceback, in an error message that printed numpy scalar reprs, in an
error raised only after the whole flow had run, or in a report cut short
of T without a word.  The cases after it reach paths those do not: a grid
too short or too coarse for its densities, a target shifted far out, a
target too narrow for exp(-f) on the grid or nearly the start, a single
iteration, and an ensemble of 11 particles."""

import pytest

from sinkflow.cli import main
from sinkflow.errors import SinkflowError
from sinkflow.experiments import ExperimentConfig, Report, run_experiment

EXTREME_CONFIGS = {
    "closed-form-scale-eta-0.05": {
        "experiment": "gaussian_closed_form",
        "problem": {"kind": "gaussian_scale", "eta": 0.05}},
    "closed-form-scale-eta-0.11": {
        "experiment": "gaussian_closed_form",
        "problem": {"kind": "gaussian_scale", "eta": 0.11}},
    # dt = 2 and dt = 0.7 step past the t = 0.5 checkpoint
    "pma-run-missed-checkpoint": {
        "experiment": "pma_run", "numerics": {"n": 64, "dt": 2.0, "T": 4.0}},
    "metric-derivative-missed-checkpoint": {
        "experiment": "metric_derivative", "numerics": {"n": 64, "dt": 0.7}},
    # no step of dt lands on the iterates' time 1.0, on T = 1 or on T = 0.25
    "eps-limit-dt-misses-iterate-times": {
        "experiment": "eps_limit", "numerics": {"dt": 0.003}},
    "fokker-planck-dt-misses-T": {
        "experiment": "fokker_planck_run", "numerics": {"dt": 0.03}},
    "kl-decay-dt-misses-T": {
        "experiment": "kl_decay", "numerics": {"T": 1.0, "dt": 0.3}},
    "diffusion-dt-misses-T": {
        "experiment": "diffusion_run", "numerics": {"T": 0.25, "dt": 0.1}},
    # eps = 0.05 is below h^2 = (16/63)^2 = 0.0645
    "eps-limit-eps-below-h-squared": {
        "experiment": "eps_limit", "numerics": {"n": 64, "eps_list": [0.2, 0.05]}},
    "kl-decay-scale-n64": {
        "experiment": "kl_decay", "problem": {"kind": "gaussian_scale"}, "numerics": {"n": 64}},
    "metric-derivative-mirror-entropy-n64": {
        "experiment": "metric_derivative", "problem": {"kind": "mirror_entropy"},
        "numerics": {"n": 64}},
    # [-0.5, 0.5] keeps 38% of N(0, 1)
    "pma-run-n64-L0.5": {
        "experiment": "pma_run", "numerics": {"n": 64, "L": 0.5}},
    # h = 60/63: the chain's kernel rows are about one node wide
    "markov-chain-n64-L30": {
        "experiment": "markov_chain_run", "numerics": {"n": 64, "L": 30.0, "particles": 2000}},
    "kl-decay-location-theta-3": {
        "experiment": "kl_decay", "problem": {"theta": 3.0}, "numerics": {"n": 256, "L": 12.0}},
    # exp(-f) underflows to 0 at the ends of [-8, 8]
    "pma-run-scale-eta-0.02": {
        "experiment": "pma_run", "problem": {"kind": "gaussian_scale", "eta": 0.02},
        "numerics": {"n": 64}},
    # a flow that barely moves: the velocity norm is ~1e-3
    "metric-derivative-scale-eta-0.999": {
        "experiment": "metric_derivative", "problem": {"kind": "gaussian_scale", "eta": 0.999},
        "numerics": {"n": 64}},
    # T / eps = 1: one iteration, one chain step through the product coupling
    "sinkhorn-run-eps-2-T-2": {
        "experiment": "sinkhorn_run", "numerics": {"n": 64, "eps": 2.0, "T": 2.0}},
    "markov-chain-eps-2-T-2": {
        "experiment": "markov_chain_run",
        "numerics": {"n": 64, "eps": 2.0, "T": 2.0, "particles": 2000}},
    # KS tolerance 2 * 1.63 / sqrt(11) = 0.98
    "diffusion-11-particles": {
        "experiment": "diffusion_run", "numerics": {"n": 64, "particles": 11, "T": 0.25}},
}


@pytest.mark.parametrize("raw", EXTREME_CONFIGS.values(), ids=EXTREME_CONFIGS)
def test_extreme_config_ends_in_a_report_or_a_sinkflow_error(raw):
    try:
        report = run_experiment(ExperimentConfig.from_dict(raw))
    except SinkflowError as exc:
        assert "np.float64(" not in str(exc)
    else:
        assert isinstance(report, Report)


def test_extreme_tabulate_ends_in_a_table_or_a_sinkflow_error(tmp_path, capsys):
    # 2t/eta reaches 800 at the default t-end 2
    code = main(["--output", str(tmp_path), "tabulate", "sinkhorn_scale", "--param", "0.005"])
    assert code in (0, 2)
    assert "np.float64(" not in capsys.readouterr().err
