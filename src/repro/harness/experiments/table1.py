"""Table 1: simulated processor configuration."""

from __future__ import annotations

from ...uarch import CoreConfig
from .base import ExperimentResult, unmet


def run(config: CoreConfig | None = None) -> ExperimentResult:
    cfg = config or CoreConfig()
    rows = [[name, value] for name, value in cfg.table_rows()]
    return ExperimentResult(
        experiment_id="table1",
        title="Simulated processor configuration",
        headers=["Parameter", "Value"],
        rows=rows,
        notes="gem5 O3-class parameters; see CoreConfig for every knob.",
    )


def check(result: ExperimentResult) -> list[str]:
    labels = {row[0] for row in result.rows}
    return unmet({
        "lists pipeline width, ROB / IQ / LQ / SQ, L1D and DRAM":
            {"Pipeline width", "ROB / IQ / LQ / SQ", "L1D", "DRAM"} <= labels,
    })
