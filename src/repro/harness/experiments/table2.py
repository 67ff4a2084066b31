"""Table 2: compiler-analysis statistics per benchmark."""

from __future__ import annotations

from ...analysis import scan_counters
from ...compiler import static_stats
from ...workloads import build_suite
from .base import ExperimentResult, unmet


def run(scale: str = "ref") -> ExperimentResult:
    rows = []
    for workload in build_suite(scale):
        program = workload.assemble()
        stats = static_stats(program)
        counters = scan_counters(program)
        rows.append(
            [
                stats.program,
                stats.static_instructions,
                stats.static_branches,
                round(stats.reconvergence_coverage, 3),
                round(stats.mean_region_size, 1),
                round(stats.mean_reconv_distance, 1),
                round(stats.frac_insts_in_any_region, 3),
                counters["flagged_transmitters"],
            ]
        )
    return ExperimentResult(
        experiment_id="table2",
        title="Levioso compiler-analysis statistics",
        headers=[
            "benchmark",
            "static insts",
            "branches",
            "reconv coverage",
            "mean region",
            "mean reconv dist",
            "frac in region",
            "flagged transmitters",
        ],
        rows=rows,
        notes=(
            "reconv coverage: fraction of branches with an intra-function "
            "reconvergence point; region sizes in instructions; flagged "
            "transmitters: distinct memory instructions the static gadget "
            "scanner flags (SPEClite kernels should all be 0)."
        ),
    )


def check(result: ExperimentResult) -> list[str]:
    claims = {f"one row per SPEClite kernel: 14 (got {len(result.rows)})":
              len(result.rows) == 14}
    for row in result.rows:
        name, coverage = row[0], row[3]
        claims[f"{name} reconv coverage {coverage} within [0, 1]"] = 0.0 <= coverage <= 1.0
        # Structured code reconverges almost everywhere.
        claims[f"{name} reconv coverage {coverage} >= 0.9"] = coverage >= 0.9
    return unmet(claims)
