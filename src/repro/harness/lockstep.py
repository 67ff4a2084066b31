"""Batch simulation: N grid points, one process, one image.

The experiment grid re-runs the same workloads under many policies, so
consecutive grid points repeat all per-run setup — workload build,
assembly, decoded-image lookup, memory-image construction — that is
identical across the policy axis.  This module runs a *batch* of points
sharing one program in a single worker process, one member after another:

* setup amortizes: every core shares the same assembled program (from
  the per-process build cache, :mod:`repro.workloads.build_cache`) and
  the same content-addressed :class:`~repro.uarch.decoded.DecodedProgram`
  from the process-level image cache;
* scheduling stays deterministic: members run to HALT in batch order,
  and each core's simulation is completely independent state-wise, so
  results are bit-identical to running the points one at a time (the
  never-diverge property in ``tests/test_lockstep.py``);
* failures stay attributable: each core carries its run key as
  ``point_label``, which :class:`~repro.errors.SimulationTimeout` copies
  into its ``point`` attribute, so a timeout inside an 8-point batch
  names the guilty grid point.

A batch also runs each family of *fill twins* — observed points whose
programs differ only in their secret fill — as one unit: the first fill
simulates, and when its core proves the run fill-independent the others
are copies of its record (:func:`simulate_members`, DESIGN.md §15).

Every harness simulation is a batch: :func:`simulate_members` is the one
function that builds, runs, self-checks and records cores.  The grid
planner (``ParallelRunner.prefetch``) packs points sharing a workload
into batches of up to :data:`LOCKSTEP_MAX`; ``ExperimentRunner.run`` and
the service's flights each run a batch of one.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Callable

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..uarch.config import CoreConfig
    from ..uarch.core import OooCore, SimResult
    from ..workloads import Workload
    from .runner import GridPoint

#: Upper bound on points per batch: keeps worst-case batch wall time (and
#: the blast radius of one member's failure, which fails the whole batch)
#: bounded, while capturing nearly all of the setup amortization.
LOCKSTEP_MAX = 8


def run_lockstep(
    entries: "list[tuple[str, OooCore, int]]",
) -> "dict[str, SimResult]":
    """Run ``(label, core, limit)`` entries to HALT, one after another.

    The batch's member loop.  Renaming it waits for a change to the
    benchmark, whose tracer patches it by name.  Exceptions propagate at
    once and fail the batch; the supervisor retries the batch as a unit.
    """
    return {label: core.run(limit) for label, core, limit in entries}


def twin_key(workload, point, config) -> tuple | None:
    """The key under which observed grid points are *fill twins*.

    Twins run programs that differ only in their secret fill: one build
    key (:func:`~repro.workloads.build_cache.build_key`, the source with
    its fill blanked, or the source itself without a fill slot), one
    self-check, mitigation, policy, config and compiler-info switch.  A
    plain (unobserved) point has no twins: None.
    """
    if not point.observe:
        return None
    from ..workloads.build_cache import build_key

    return (build_key(workload.source, workload.secret_fill),
            workload.check_reg, workload.check_value, workload.mitigation,
            point.policy, config, point.use_compiler_info)


class BatchRecords(dict):
    """``{run key: slim RunRecord}`` of one batch.

    ``copied`` names the members whose record is a relabelled copy of a
    proven first fill's (DESIGN.md §15) rather than a simulation of their
    own, so the runner can count simulations and copies apart.
    """

    def __init__(self, records=(), copied=frozenset()):
        super().__init__(records)
        self.copied = frozenset(copied)


def simulate_members(
    keys: "tuple[str, ...]",
    points: "tuple[GridPoint, ...]",
    workload: "Callable[[str], Workload]",
    default_config: "CoreConfig | None" = None,
) -> BatchRecords:
    """Simulate and record ``points``, the one place harness runs happen.

    ``keys`` are the points' run keys and ``workload(name)`` returns the
    built workload of a point.  The worker-site fault hook fires per key,
    then the members' cores run one after another, and every result is
    self-checked before it is recorded.  Any member failure raises and
    fails the whole batch.

    Fill twins (:func:`twin_key`) simulate their first member only.  When
    its core proves the run fill-independent, every other member's record
    is a copy of the first's under the member's own name; otherwise the
    others simulate as well.
    """
    from ..faults import maybe_fault
    from ..secure import make_policy
    from ..uarch.config import CoreConfig
    from ..uarch.core import OooCore
    from .runner import RunRecord

    default_config = default_config or CoreConfig()
    for key in keys:
        maybe_fault("worker", key)

    members = {}
    families: dict[tuple, list[str]] = {}  # twin key -> keys, first fill first
    leads = []
    for key, point in zip(keys, points):
        built = workload(point.workload)
        cfg = point.config or default_config
        members[key] = (point, built, cfg)
        tkey = twin_key(built, point, cfg)
        family = families.get(tkey) if tkey is not None else None
        if family is None:
            leads.append(key)
            if tkey is not None:
                families[tkey] = [key]
        else:
            family.append(key)

    def make_core(key: str) -> OooCore:
        point, built, cfg = members[key]
        core = OooCore(
            built.assemble(),
            config=cfg,
            policy=make_policy(point.policy),
            use_compiler_info=point.use_compiler_info,
            record_observations=point.observe,
        )
        core.point_label = key
        return core

    def check(key: str, result_regs: tuple) -> None:
        point, built, _ = members[key]
        if not built.validate(result_regs):
            raise SimulationError(
                f"{point.workload} under {point.policy}: self-check failed "
                f"(a0={result_regs[10]:#x}, want {built.check_value:#x})"
            )

    records: dict[str, RunRecord] = {}
    regs: dict[str, tuple] = {}

    def simulate(batch: list[str]) -> dict[str, OooCore]:
        """Run ``batch``'s cores and record them; returns the cores."""
        cores = {key: make_core(key) for key in batch}
        results = run_lockstep([(key, core, core.config.max_cycles)
                                for key, core in cores.items()])
        for key, result in results.items():
            check(key, result.regs)
            point, built, _ = members[key]
            regs[key] = result.regs
            records[key] = RunRecord.from_result(
                point.workload, point.policy, result,
                mitigation=getattr(built, "mitigation", None),
            )
        return cores

    cores = simulate(leads)
    copy_of: dict[str, str] = {}  # twin key -> the lead it copies
    rerun = []
    for lead, *twins in families.values():
        if not twins:
            continue
        if cores[lead].fill_independent(members[lead][1].check_reg):
            copy_of.update((twin, lead) for twin in twins)
        else:
            rerun += twins
    del cores  # the first fills' caches and memory, before the reruns
    if rerun:
        simulate(rerun)

    out = BatchRecords(copied=copy_of)
    for key in keys:
        lead = copy_of.get(key)
        if lead is None:
            out[key] = records[key]
            continue
        check(key, regs[lead])
        record = copy.deepcopy(records[lead])
        record.workload = members[key][0].workload
        out[key] = record
    return out


def simulate_batch(args: tuple) -> BatchRecords:
    """Top-level pool-worker entrypoint (must be picklable).

    ``args`` is ``(scale, points, default_config, keys)``: the points
    build their workloads at ``scale`` once per batch, then run through
    :func:`simulate_members`.  Returns ``{key: record}`` for every member.
    """
    from ..workloads import build_workload

    scale, points, default_config, keys = args
    built: dict[str, Workload] = {}

    def workload(name: str) -> Workload:
        if name not in built:
            built[name] = build_workload(name, scale)
        return built[name]

    return simulate_members(keys, points, workload, default_config)
