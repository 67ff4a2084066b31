"""Fig. 2 (headline): normalized performance overhead per benchmark.

The paper reports ~51% (conservative delay), ~43% (comprehensive taint
tracking) and ~23% (Levioso) average overhead.  Absolute values depend on
the substrate; the *shape* — fence > ctt > levioso, Levioso roughly halving
the comprehensive gap — is the reproduction target (EXPERIMENTS.md).
"""

from __future__ import annotations

from ...workloads import WORKLOAD_NAMES
from ..runner import ExperimentRunner, GridPoint, geomean, overhead_grid
from .base import ExperimentResult, percents, unmet

POLICIES = ("fence", "ctt", "levioso")


def grid() -> list[GridPoint]:
    return overhead_grid(WORKLOAD_NAMES, POLICIES)


def run(
    scale: str = "ref",
    runner: ExperimentRunner | None = None,
    policies: tuple[str, ...] = POLICIES,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
) -> ExperimentResult:
    runner = runner or ExperimentRunner(scale=scale)
    rows = []
    per_policy: dict[str, list[float]] = {p: [] for p in policies}
    for name in workloads:
        row = [name]
        for policy in policies:
            overhead = runner.overhead(name, policy)
            per_policy[policy].append(overhead)
            row.append(round(100.0 * overhead, 1))
        rows.append(row)
    gm_row = ["geomean"]
    geomeans = {}
    for policy in policies:
        gm = geomean(per_policy[policy])
        geomeans[policy] = gm
        gm_row.append(round(100.0 * gm, 1))
    rows.append(gm_row)
    return ExperimentResult(
        experiment_id="fig2",
        title="Execution-time overhead vs unprotected core (%)",
        headers=["benchmark", *policies],
        rows=rows,
        notes="paper reference (geomean): fence-class 51%, CTT-class 43%, Levioso 23%",
        extras={"geomeans": geomeans, "per_policy": per_policy},
    )


def check(result: ExperimentResult) -> list[str]:
    gm = result.extras["geomeans"]
    return unmet({
        "levioso < ctt <= fence": gm["levioso"] < gm["ctt"] <= gm["fence"],
        "fence > 10% (not suspiciously cheap)": gm["fence"] > 0.10,
        "ctt > 5% (not suspiciously cheap)": gm["ctt"] > 0.05,
        # Levioso buys back at least 35% of the comprehensive baseline's cost.
        "levioso < 0.65 x ctt": gm["levioso"] < 0.65 * gm["ctt"],
    }, percents(gm))
