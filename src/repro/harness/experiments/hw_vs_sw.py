"""HW-vs-SW mitigation comparison: compiler passes as software baselines.

Levioso's headline claim is that hardware-side selective speculation (~23%
geomean overhead on the paper's substrate) beats the compiler-side state of
the art.  This experiment reproduces that comparison on our substrate: each
software pass runs its ``mit/<pass>/<workload>`` variant under the
*unprotected* core (policy ``none`` — the software carries the whole
burden), while the hardware policies run the unmodified workload.  Expected
ordering: full fencing ≫ conservative SLH > selective schemes > Levioso.

``REPRO_SW_PASSES`` (comma-separated pass names) narrows the software side
for quick runs.
"""

from __future__ import annotations

import os

from ...compiler.mitigations import MITIGATION_PASSES, mitigation_tag
from ...workloads import WORKLOAD_NAMES
from ..runner import ExperimentRunner, GridPoint, geomean, overhead_grid
from .base import ExperimentResult, percents, unmet

HW_POLICIES = ("fence", "ctt", "levioso")


def sw_passes() -> tuple[str, ...]:
    """Software passes to compare; ``REPRO_SW_PASSES`` narrows the set."""
    raw = os.environ.get("REPRO_SW_PASSES", "")
    if not raw.strip():
        return MITIGATION_PASSES
    chosen = tuple(p.strip() for p in raw.split(",") if p.strip())
    unknown = [p for p in chosen if p not in MITIGATION_PASSES]
    if unknown:
        raise KeyError(
            f"REPRO_SW_PASSES: unknown pass(es) {unknown}; "
            f"know {list(MITIGATION_PASSES)}"
        )
    return chosen


def grid() -> list[GridPoint]:
    return overhead_grid(WORKLOAD_NAMES, HW_POLICIES) + [
        GridPoint(f"mit/{p}/{w}", "none") for w in WORKLOAD_NAMES for p in sw_passes()
    ]


def run(
    scale: str = "ref",
    runner: ExperimentRunner | None = None,
    policies: tuple[str, ...] = HW_POLICIES,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
) -> ExperimentResult:
    runner = runner or ExperimentRunner(scale=scale)
    passes = sw_passes()
    columns = [f"sw:{p}" for p in passes] + [f"hw:{p}" for p in policies]
    rows = []
    per_column: dict[str, list[float]] = {c: [] for c in columns}
    for name in workloads:
        row = [name]
        base = runner.run(name, "none")
        for pass_name in passes:
            mitigated = runner.run(f"mit/{pass_name}/{name}", "none")
            overhead = mitigated.cycles / base.cycles - 1.0
            per_column[f"sw:{pass_name}"].append(overhead)
            row.append(round(100.0 * overhead, 1))
        for policy in policies:
            overhead = runner.overhead(name, policy)
            per_column[f"hw:{policy}"].append(overhead)
            row.append(round(100.0 * overhead, 1))
        rows.append(row)
    gm_row = ["geomean"]
    geomeans = {}
    for column in columns:
        gm = geomean(per_column[column])
        geomeans[column] = gm
        gm_row.append(round(100.0 * gm, 1))
    rows.append(gm_row)
    return ExperimentResult(
        experiment_id="swcmp",
        title="Software mitigation passes vs hardware policies "
              "(overhead vs unprotected core, %)",
        headers=["benchmark", *columns],
        rows=rows,
        notes=(
            "software passes run under policy `none`; expected ordering "
            "full fence >> conservative SLH > selective schemes > Levioso "
            "(paper: Levioso 23% geomean); pass versions: "
            + ", ".join(mitigation_tag(p) for p in passes)
        ),
        extras={
            "geomeans": geomeans,
            "per_column": per_column,
            "sw_passes": [mitigation_tag(p) for p in passes],
            "hw_policies": list(policies),
        },
    )


#: The headline ordering of geomean overheads, costliest first.
ORDER = ("sw:fence", "sw:slh", "hw:fence", "hw:ctt", "hw:levioso")


def check(result: ExperimentResult) -> list[str]:
    gm = result.extras["geomeans"]
    chain = [column for column in ORDER if column in gm]  # REPRO_SW_PASSES narrows
    return unmet({
        " > ".join(chain): all(gm[a] > gm[b] for a, b in zip(chain, chain[1:])),
    }, percents({column: gm[column] for column in chain}))
