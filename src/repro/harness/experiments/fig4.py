"""Fig. 4: sensitivity of the geomean overhead to ROB size (and Fig. 4b:
to branch-resolution latency).

Bigger windows expose more speculation, so conservative policies pay more
while Levioso's targeted restrictions scale gracefully — the crossover
structure the paper's sensitivity study shows.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Iterable

from ...uarch import CoreConfig
from ..runner import ExperimentRunner, GridPoint, geomean
from .base import ExperimentResult, percents, unmet

POLICIES = ("fence", "ctt", "levioso")
ROB_SIZES = (64, 128, 192, 256)
BRANCH_LATENCIES = (1, 2, 4, 8)
# A representative subset keeps the sweep tractable (12x4x4 full runs at ref
# scale would take tens of minutes); these four cover the category space.
WORKLOAD_SUBSET = ("gather", "pchase", "branchy", "treewalk")

RunnerFactory = Callable[[CoreConfig], ExperimentRunner]


def rob_config(rob: int) -> CoreConfig:
    return CoreConfig(rob_size=rob, iq_size=min(64, rob), lq_size=min(48, rob),
                      sq_size=min(48, rob))


def _sweep_grid(configs: Iterable[CoreConfig]) -> list[GridPoint]:
    return [
        GridPoint(w, p, config=config)
        for config in configs
        for w in WORKLOAD_SUBSET
        for p in ("none", *POLICIES)
    ]


def _sweep(
    experiment_id: str,
    title: str,
    knob: str,
    configs: dict[int, CoreConfig],
    scale: str,
    policies: tuple[str, ...],
    workloads: tuple[str, ...],
    runner_factory: RunnerFactory | None,
) -> ExperimentResult:
    """One row per knob setting: the geomean overhead of each policy."""
    if runner_factory is None:
        runner_factory = lambda config: ExperimentRunner(scale=scale, config=config)  # noqa: E731
    rows = []
    series: dict[str, list[tuple[int, float]]] = {p: [] for p in policies}
    for setting, config in configs.items():
        runner = runner_factory(config)
        row = [setting]
        for policy in policies:
            gm = geomean([runner.overhead(w, policy) for w in workloads])
            series[policy].append((setting, gm))
            row.append(round(100.0 * gm, 1))
        rows.append(row)
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        headers=[knob, *policies],
        rows=rows,
        notes=f"workload subset: {', '.join(workloads)}",
        extras={"series": series},
    )


def _ordered_everywhere(series: dict[str, list[tuple[int, float]]],
                        knob: str) -> dict[str, bool]:
    """At every knob setting the ordering holds."""
    claims = {}
    for (at, fence), (at_c, ctt), (at_l, levioso) in zip(
        series["fence"], series["ctt"], series["levioso"]
    ):
        shown = percents({"fence": fence, "ctt": ctt, "levioso": levioso})
        claims[f"fence/ctt/levioso rows share {knob} {at}"] = at == at_c == at_l
        claims[f"levioso <= ctt <= 1.05 x fence at {knob} {at} ({shown})"] = (
            levioso <= ctt <= fence * 1.05
        )
    return claims


def grid() -> list[GridPoint]:
    return _sweep_grid(rob_config(rob) for rob in ROB_SIZES)


def run(
    scale: str = "ref",
    rob_sizes: tuple[int, ...] = ROB_SIZES,
    policies: tuple[str, ...] = POLICIES,
    workloads: tuple[str, ...] = WORKLOAD_SUBSET,
    runner_factory: RunnerFactory | None = None,
) -> ExperimentResult:
    return _sweep(
        "fig4", "Geomean overhead (%) vs ROB size", "ROB",
        {rob: rob_config(rob) for rob in rob_sizes},
        scale, policies, workloads, runner_factory,
    )


def check(result: ExperimentResult) -> list[str]:
    return unmet(_ordered_everywhere(result.extras["series"], "ROB"))


def grid_branch_latency() -> list[GridPoint]:
    return _sweep_grid(CoreConfig(branch_latency=lat) for lat in BRANCH_LATENCIES)


def run_branch_latency(
    scale: str = "ref",
    latencies: tuple[int, ...] = BRANCH_LATENCIES,
    policies: tuple[str, ...] = POLICIES,
    workloads: tuple[str, ...] = WORKLOAD_SUBSET,
    runner_factory: RunnerFactory | None = None,
) -> ExperimentResult:
    """Fig. 4b: sensitivity to branch-resolution latency.

    Secure-speculation cost scales with how long branches stay unresolved;
    deeper resolution pipelines widen the gap between the conservative
    baselines and Levioso.
    """
    return _sweep(
        "fig4b", "Geomean overhead (%) vs branch-resolution latency",
        "branch latency",
        {lat: CoreConfig(branch_latency=lat) for lat in latencies},
        scale, policies, workloads, runner_factory,
    )


def check_branch_latency(result: ExperimentResult) -> list[str]:
    series = result.extras["series"]
    claims = {}
    for policy in ("fence", "ctt"):
        # Deeper branch resolution makes conservative protection costlier.
        (first_at, first), (last_at, last) = series[policy][0], series[policy][-1]
        claims[
            f"{policy} at latency {last_at} >= at latency {first_at} "
            f"({100 * first:.1f}% -> {100 * last:.1f}%)"
        ] = last >= first
    claims.update(_ordered_everywhere(series, "latency"))
    return unmet(claims)


#: Fig. 4b's entry in the experiment registry.
branch_latency = SimpleNamespace(
    run=run_branch_latency, check=check_branch_latency, grid=grid_branch_latency,
)
