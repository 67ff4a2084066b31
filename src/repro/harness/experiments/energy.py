"""Extension experiment: energy and EDP overhead per policy.

Secure-speculation papers report energy alongside performance: delayed
execution burns static energy, squashes waste dynamic energy, and the
defense hardware itself (taint CAMs, dependency matrices) costs something.
This experiment reproduces that methodology on the event-based model in
:mod:`repro.uarch.energy`.
"""

from __future__ import annotations

from ...uarch.energy import energy_delay_product, estimate_energy
from ..runner import ExperimentRunner, GridPoint, geomean, overhead_grid
from .base import ExperimentResult, unmet

POLICIES = ("fence", "ctt", "levioso")
WORKLOAD_SUBSET = ("gather", "pchase", "branchy", "treewalk", "stream", "crc")


def grid() -> list[GridPoint]:
    return overhead_grid(WORKLOAD_SUBSET, POLICIES)


def run(
    scale: str = "ref",
    runner: ExperimentRunner | None = None,
    policies: tuple[str, ...] = POLICIES,
    workloads: tuple[str, ...] = WORKLOAD_SUBSET,
) -> ExperimentResult:
    runner = runner or ExperimentRunner(scale=scale)
    rows = []
    energy_ovh: dict[str, list[float]] = {p: [] for p in policies}
    edp_ovh: dict[str, list[float]] = {p: [] for p in policies}

    def measure(record, tracks_dependencies: bool):
        # Use the slim counter fields so cached/parallel records (which
        # carry no SimResult) work too.
        stats = record.core_stats
        breakdown = estimate_energy(
            stats,
            record.mem_stats,
            gate_checks=stats.loads_gated + stats.branches_gated,
            tracks_dependencies=tracks_dependencies,
        )
        return breakdown, energy_delay_product(breakdown, stats.cycles)

    for name in workloads:
        base_record = runner.run(name, "none")
        base_energy, base_edp = measure(base_record, tracks_dependencies=False)
        row = [name]
        for policy in policies:
            record = runner.run(name, policy)
            breakdown, edp = measure(
                record, tracks_dependencies=(policy == "levioso")
            )
            e_ovh = breakdown.total / base_energy.total - 1.0
            d_ovh = edp / base_edp - 1.0
            energy_ovh[policy].append(e_ovh)
            edp_ovh[policy].append(d_ovh)
            row.append(round(100 * e_ovh, 1))
            row.append(round(100 * d_ovh, 1))
        rows.append(row)

    gm_row = ["geomean"]
    geomeans = {}
    for policy in policies:
        ge = geomean(energy_ovh[policy])
        gd = geomean(edp_ovh[policy])
        geomeans[policy] = (ge, gd)
        gm_row.append(round(100 * ge, 1))
        gm_row.append(round(100 * gd, 1))
    rows.append(gm_row)

    headers = ["benchmark"]
    for policy in policies:
        headers.append(f"{policy} E%")
        headers.append(f"{policy} EDP%")
    return ExperimentResult(
        experiment_id="energy",
        title="Energy and energy-delay-product overhead vs unprotected (%)",
        headers=headers,
        rows=rows,
        notes="Levioso is additionally charged for its dependency-matrix updates.",
        extras={"geomeans": geomeans},
    )


def check(result: ExperimentResult) -> list[str]:
    geomeans = result.extras["geomeans"]
    lev_e, lev_edp = geomeans["levioso"]
    fence_e, fence_edp = geomeans["fence"]
    ctt_e, ctt_edp = geomeans["ctt"]
    # Levioso wins on EDP against both baselines even after paying for its
    # dependency-tracking hardware.
    return unmet({
        "levioso EDP < ctt EDP <= 1.1 x fence EDP": lev_edp < ctt_edp <= fence_edp * 1.1,
        "levioso energy <= ctt energy + 1 pp": lev_e <= ctt_e + 0.01,
    }, ", ".join(f"{p} E {100 * e:.1f}% EDP {100 * d:.1f}%"
                 for p, (e, d) in geomeans.items()))
