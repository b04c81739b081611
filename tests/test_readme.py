"""README statements that name code must match the code."""

import json
import re
from pathlib import Path

import pytest

from sinkflow.closed_form import FlowKind
from sinkflow.errors import DomainError
from sinkflow.experiments import EXPERIMENTS, PROBLEM_KINDS, ExperimentConfig

README = (Path(__file__).parents[1] / "README.md").read_text()


def backticked_list(lead: str) -> list[str]:
    """The backticked names from ``lead`` up to the end of its sentence."""
    start = README.index(lead) + len(lead)
    end = README.index(".", start)
    return re.findall(r"`(\w+)`", README[start:end])


def test_config_example_parses():
    example = re.search(r"```json\n(.*?)```", README, re.DOTALL).group(1)
    config = ExperimentConfig.from_dict(json.loads(example))
    assert config.experiment in EXPERIMENTS


def test_experiment_list_is_the_runners():
    assert tuple(backticked_list("Experiments:")) == EXPERIMENTS


def test_problem_kind_list_is_the_kinds_problem_accepts():
    kinds = backticked_list("`problem.kind` is one of")
    assert tuple(kinds) == PROBLEM_KINDS
    for kind in kinds:
        ExperimentConfig.from_dict({"experiment": "pma_run", "problem": {"kind": kind}})
    # the closed-form flow names are not problem kinds
    for kind in {k.value for k in FlowKind} - set(kinds):
        with pytest.raises(DomainError, match="unknown problem kind"):
            ExperimentConfig.from_dict({"experiment": "pma_run", "problem": {"kind": kind}})
