"""Experiment harness: runner caching, formatting, experiment plumbing."""

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.harness import ExperimentRunner, format_percent, format_table, geomean
from repro.harness.experiments import EXPERIMENTS, table1


def test_geomean_basics():
    assert geomean([]) == 0.0
    assert geomean([0.5, 0.5]) == pytest.approx(0.5)
    # geomean of (1+x) factors, not arithmetic mean:
    assert geomean([0.0, 1.0]) == pytest.approx(2 ** 0.5 - 1)


def test_format_table_alignment():
    text = format_table(["name", "value"], [["a", 1.23456], ["bb", 7]])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert "1.235" in text
    assert "-" in lines[1]


def test_format_percent():
    assert format_percent(0.235) == "23.5%"


def test_table1_contains_rob_row():
    result = table1.run()
    assert any("ROB" in row[0] for row in result.rows)
    assert "table1" in result.text()


def test_experiment_registry_complete():
    assert set(EXPERIMENTS) == {
        "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig4b", "fig5",
        "ablationA", "ablationB", "ablationC", "energy", "swcmp",
    }


def test_runner_caches_runs():
    runner = ExperimentRunner(scale="test")
    first = runner.run("cipher", "none")
    second = runner.run("cipher", "none")
    assert first is second  # same object: cached


def test_runner_overhead_nonnegative_for_protected():
    runner = ExperimentRunner(scale="test")
    overhead = runner.overhead("cipher", "fence")
    assert overhead >= -0.01  # protection never speeds things up materially


def test_runner_selfcheck_guards_results():
    """The runner re-validates workload self-checks on every run."""
    runner = ExperimentRunner(scale="test")
    record = runner.run("sort", "levioso")
    assert record.committed > 0
    workload = runner.workload("sort")
    assert workload.check_reg is not None
    runner._workloads["sort"] = dataclasses.replace(
        workload, check_value=workload.check_value ^ 1)
    with pytest.raises(SimulationError, match="self-check failed"):
        runner.run("sort", "none")


def test_run_record_fields():
    runner = ExperimentRunner(scale="test")
    record = runner.run("cipher", "ctt")
    assert record.workload == "cipher"
    assert record.policy == "ctt"
    assert record.cycles == record.core_stats.cycles
    assert record.ipc > 0
