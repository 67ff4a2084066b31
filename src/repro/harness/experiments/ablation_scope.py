"""Ablation B: the price of comprehensive protection.

STT protects only speculatively accessed secrets; CTT/Levioso also protect
non-speculatively accessed (constant-time) secrets.  This experiment
measures what that extra guarantee costs and how much of it Levioso buys
back — plus Delay-on-Miss for context.
"""

from __future__ import annotations

from ...workloads import WORKLOAD_NAMES
from ..runner import ExperimentRunner, GridPoint, geomean, overhead_grid
from .base import ExperimentResult, percents, unmet

POLICIES = ("stt", "nda", "dom", "ctt", "levioso")


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
            row.append(round(100 * overhead, 1))
        rows.append(row)
    gm_row = ["geomean"]
    geomeans = {}
    for policy in policies:
        gm = geomean(per_policy[policy])
        geomeans[policy] = gm
        gm_row.append(round(100 * gm, 1))
    rows.append(gm_row)
    return ExperimentResult(
        experiment_id="ablationB",
        title="Protection-scope ablation: overhead (%) by guarantee",
        headers=["benchmark", *policies],
        rows=rows,
        notes=(
            "stt: speculative secrets only (does NOT protect constant-time "
            "code; see fig5); dom/ctt/levioso: comprehensive."
        ),
        extras={"geomeans": geomeans},
    )


def check(result: ExperimentResult) -> list[str]:
    gm = result.extras["geomeans"]
    # STT (weaker guarantee) is cheaper than CTT (comprehensive), and
    # Levioso closes much of that gap while keeping the guarantee.
    return unmet({
        "stt <= ctt": gm["stt"] <= gm["ctt"],
        "levioso < ctt": gm["levioso"] < gm["ctt"],
    }, percents(gm))
