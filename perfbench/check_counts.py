"""Self-checks of the benchmark's tracer and counts.

    python3 -m pytest -q perfbench/check_counts.py

The file is not named ``test_*.py`` so the library's own test run does not
collect it; it runs traced workloads at full size (about two minutes on
two CPUs).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import sinkflow.experiments as experiments  # noqa: E402
import sinkflow.particles as particles  # noqa: E402
import sinkflow.pma as pma  # noqa: E402
import sinkflow.sinkhorn as sinkhorn  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, check_report  # noqa: E402

# per-layer metrics that are computed from sizes and call counts, not timed
TIMED_UNITS = {"s", "ns", "1/s", "ratio"}


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(workload):
    first, second = traced_run(workload, 5), traced_run(workload, 5)
    assert first["correct"] and second["correct"]
    counts = {name: m["value"] for name, m in first["metrics"].items()
              if m["unit"] not in TIMED_UNITS}
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
    assert first["metrics"]["experiments.execute.calls"]["value"] > 0
    # the traced layers' self times account for the traced solve time
    assert first["metrics"]["trace_coverage"]["value"] >= 0.95


def test_flow_location_run_takes_66_substeps_per_step(tmp_path):
    raw = WORKLOADS["flow_n2048"].build(5)[0]
    assert raw["problem"]["kind"] == "gaussian_location"
    config = experiments.ExperimentConfig.from_dict(raw)
    with Tracer() as tracer:
        report, _ = experiments.execute(config, tmp_path)
    assert not check_report(config.experiment, config.problem, config.numerics,
                            report.rows, report.verdicts)
    metrics = tracer.metrics(experiments.EXPERIMENTS)
    assert metrics["pma.step.calls"] == round(raw["numerics"]["T"] / raw["numerics"]["dt"])
    assert metrics["pma.substeps_per_step"] == 66


def test_tracer_patches_by_name_imports_and_restores_them():
    originals = (sinkhorn.s_step, pma.step, pma.inverse_gradient_map)
    with Tracer():
        # experiments and particles imported these by name
        assert experiments.s_step is sinkhorn.s_step is not originals[0]
        assert experiments.step is pma.step is not originals[1]
        assert particles.inverse_gradient_map is pma.inverse_gradient_map is not originals[2]
    assert (sinkhorn.s_step, pma.step, pma.inverse_gradient_map) == originals
    assert experiments.s_step is originals[0] and particles.inverse_gradient_map is originals[2]
