"""Ablation C: Levioso dependency-matrix width.

The paper's hardware tracks a small per-instruction dependency set.  This
ablation bounds the set width: instructions whose true-dependency set
overflows fall back to the conservative rule.  It answers "how much matrix
do you actually need" — the hardware-budget question.
"""

from __future__ import annotations

from ...secure.levioso import LeviosoPolicy
from ...uarch import OooCore
from ...workloads import build_workload
from ..runner import geomean
from .base import ExperimentResult, percents, unmet

WIDTHS: tuple[int | None, ...] = (1, 2, 4, None)
WORKLOAD_SUBSET = ("gather", "branchy", "treewalk", "sandbox")


def run(
    scale: str = "ref",
    widths: tuple[int | None, ...] = WIDTHS,
    workloads: tuple[str, ...] = WORKLOAD_SUBSET,
) -> ExperimentResult:
    baselines: dict[str, int] = {}
    programs = {}
    for name in workloads:
        workload = build_workload(name, scale)
        program = workload.assemble()
        programs[name] = (workload, program)
        baselines[name] = OooCore(program).run().cycles

    rows = []
    series: list[tuple[str, float]] = []
    for width in widths:
        label = str(width) if width is not None else "unbounded"
        overheads = []
        row = [label]
        for name in workloads:
            workload, program = programs[name]
            result = OooCore(
                program, policy=LeviosoPolicy(max_tracked_deps=width)
            ).run()
            assert workload.validate(result.regs)
            overhead = result.cycles / baselines[name] - 1.0
            overheads.append(overhead)
            row.append(round(100 * overhead, 1))
        gm = geomean(overheads)
        series.append((label, gm))
        row.append(round(100 * gm, 1))
        rows.append(row)

    return ExperimentResult(
        experiment_id="ablationC",
        title="Levioso overhead (%) vs dependency-matrix width",
        headers=["width", *workloads, "geomean"],
        rows=rows,
        notes="live dependency sets are small: one or two matrix columns per instruction already capture nearly all of the win",
        extras={"series": series},
    )


def check(result: ExperimentResult) -> list[str]:
    series = dict(result.extras["series"])
    # Wider matrices never hurt, and a 4-column matrix is within 25% of
    # unbounded tracking (relative) — the hardware-budget claim.
    return unmet({
        "width 4 >= unbounded": series["4"] >= series["unbounded"] - 1e-9,
        "width 1 >= width 4": series["1"] >= series["4"] - 1e-9,
        "width 4 <= 1.25 x unbounded + 2 pp": series["4"] <= series["unbounded"] * 1.25 + 0.02,
    }, percents({f"width {w}": gm for w, gm in series.items()}))
