"""Fig. 3: delayed-transmitter breakdown per policy.

Gated loads per kilo-instruction and mean "delay" — the mechanism
behind the Fig. 2 overheads.  The delay column is
``CoreStats.mean_gate_delay``: denied policy re-evaluations per gated
load, not cycles waited.  A blocked load is re-evaluated only on cycles
with a retry event, so a long quiet wait counts once (on
``fuzz/s7/i0/f41`` under levioso: 126 denials across 20 gated loads,
while the 19 that commit waited 2,266 cycles).
"""

from __future__ import annotations

from ...workloads import WORKLOAD_NAMES
from ..runner import ExperimentRunner
from .base import ExperimentResult

POLICIES = ("fence", "ctt", "levioso")


def run(
    scale: str = "ref",
    runner: ExperimentRunner | None = None,
    policies: tuple[str, ...] = POLICIES,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
) -> ExperimentResult:
    runner = runner or ExperimentRunner(scale=scale)
    rows = []
    totals: dict[str, list[float]] = {p: [] for p in policies}
    for name in workloads:
        row = [name]
        for policy in policies:
            record = runner.run(name, policy)
            row.append(round(record.gated_loads_pki, 1))
            row.append(round(record.mean_gate_delay, 1))
            totals[policy].append(record.gated_loads_pki)
        rows.append(row)
    mean_row = ["mean"]
    for policy in policies:
        pki = totals[policy]
        mean_row.append(round(sum(pki) / len(pki), 1))
        mean_row.append("")
    rows.append(mean_row)
    headers = ["benchmark"]
    for policy in policies:
        headers.append(f"{policy} gated/ki")
        headers.append(f"{policy} delay")
    return ExperimentResult(
        experiment_id="fig3",
        title="Policy-delayed loads per kilo-instruction and mean delay (cycles)",
        headers=headers,
        rows=rows,
        extras={"totals": totals},
    )
