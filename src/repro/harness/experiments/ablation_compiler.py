"""Ablation A: value of the compiler information.

Runs Levioso with full metadata and with reconvergence points erased
(``use_compiler_info=False``): without the compiler's reconvergence PCs,
every branch region extends to resolution and Levioso degenerates toward
the conservative baseline — quantifying how much of the win is the
*compiler's* contribution (the paper's co-design argument).
"""

from __future__ import annotations

from ..runner import ExperimentRunner, GridPoint, geomean, overhead_grid
from .base import ExperimentResult, percents, unmet

WORKLOAD_SUBSET = ("gather", "pchase", "histogram", "treewalk", "sandbox", "listupd")


def grid() -> list[GridPoint]:
    return overhead_grid(WORKLOAD_SUBSET, ("levioso", "ctt")) + [
        GridPoint(w, "levioso", use_compiler_info=False) for w in WORKLOAD_SUBSET
    ]


def run(
    scale: str = "ref",
    runner: ExperimentRunner | None = None,
    workloads: tuple[str, ...] = WORKLOAD_SUBSET,
) -> ExperimentResult:
    runner = runner or ExperimentRunner(scale=scale)
    rows = []
    informed_all: list[float] = []
    blind_all: list[float] = []
    ctt_all: list[float] = []
    for name in workloads:
        informed = runner.overhead(name, "levioso")
        blind = runner.overhead(name, "levioso", use_compiler_info=False)
        ctt = runner.overhead(name, "ctt")
        informed_all.append(informed)
        blind_all.append(blind)
        ctt_all.append(ctt)
        rows.append(
            [
                name,
                round(100 * informed, 1),
                round(100 * blind, 1),
                round(100 * ctt, 1),
            ]
        )
    rows.append(
        [
            "geomean",
            round(100 * geomean(informed_all), 1),
            round(100 * geomean(blind_all), 1),
            round(100 * geomean(ctt_all), 1),
        ]
    )
    return ExperimentResult(
        experiment_id="ablationA",
        title="Levioso overhead (%) with and without compiler metadata",
        headers=["benchmark", "levioso", "levioso (no metadata)", "ctt"],
        rows=rows,
        notes="without reconvergence PCs, Levioso converges toward CTT",
        extras={
            "geomean_informed": geomean(informed_all),
            "geomean_blind": geomean(blind_all),
            "geomean_ctt": geomean(ctt_all),
        },
    )


def check(result: ExperimentResult) -> list[str]:
    informed = result.extras["geomean_informed"]
    blind = result.extras["geomean_blind"]
    ctt = result.extras["geomean_ctt"]
    # The compiler information is what separates Levioso from CTT:
    # removing it must cost performance and land near (or beyond) CTT.
    return unmet({
        "levioso < levioso without metadata": informed < blind,
        "levioso without metadata >= 0.8 x ctt": blind >= 0.8 * ctt,
    }, percents({"levioso": informed, "no metadata": blind, "ctt": ctt}))
