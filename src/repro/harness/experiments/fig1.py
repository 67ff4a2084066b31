"""Fig. 1 (motivation): how many loads must a defense actually restrict?

Measured on the *unprotected* core at load-issue time: a load is
**conservatively restricted** when any older branch is unresolved at the
moment it issues (what fence/CTT-class designs gate on), and **truly
dependent** when its address lineage actually depends on one of those
unresolved branches (what Levioso gates on).  The gap between the two
columns is the headroom the paper's co-design exploits — the resolution
timing matters, which is why this is measured in the timing model rather
than from a static trace (see `repro.compiler.stats` for the trace-based
static variant).
"""

from __future__ import annotations

from ...workloads import WORKLOAD_NAMES
from ..runner import ExperimentRunner, GridPoint
from .base import ExperimentResult, unmet


def grid() -> list[GridPoint]:
    return [GridPoint(w, "none") for w in WORKLOAD_NAMES]


def run(
    scale: str = "ref",
    runner: ExperimentRunner | None = None,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
) -> ExperimentResult:
    runner = runner or ExperimentRunner(scale=scale)
    rows = []
    cons_all: list[float] = []
    true_all: list[float] = []
    for name in workloads:
        record = runner.run(name, "none")
        stats = record.core_stats  # survives cache hits (result may be None)
        issued = max(stats.loads_issued, 1)
        conservative = stats.loads_speculative_at_issue / issued
        true_dep = stats.loads_true_dep_at_issue / issued
        cons_all.append(conservative)
        true_all.append(true_dep)
        reduction = 1 - true_dep / conservative if conservative else 0.0
        rows.append(
            [
                name,
                stats.loads_issued,
                round(conservative, 3),
                round(true_dep, 3),
                round(reduction, 3),
            ]
        )
    mean_cons = sum(cons_all) / len(cons_all)
    mean_true = sum(true_all) / len(true_all)
    rows.append(
        [
            "mean",
            "",
            round(mean_cons, 3),
            round(mean_true, 3),
            round(1 - mean_true / mean_cons if mean_cons else 0.0, 3),
        ]
    )
    return ExperimentResult(
        experiment_id="fig1",
        title="Loads restricted at issue: conservative vs true dependence",
        headers=["benchmark", "loads", "conservative", "true-dep", "reduction"],
        rows=rows,
        notes=(
            "sampled on the unprotected core at issue time; the reduction "
            "column is the fraction of restrictions Levioso's precision removes."
        ),
        extras={"mean_conservative": mean_cons, "mean_true": mean_true},
    )


def check(result: ExperimentResult) -> list[str]:
    cons = result.extras["mean_conservative"]
    true = result.extras["mean_true"]
    # The paper's motivation: most speculative loads do NOT truly depend on
    # the branches that make them speculative.
    return unmet({
        "true-dep mean < conservative mean": true < cons,
        "conservative exceeds true-dep by > 10 pp of headroom": cons - true > 0.10,
    }, f"conservative {cons:.3f}, true-dep {true:.3f}")
