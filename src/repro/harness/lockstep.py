"""Lockstep grid vectorization: N grid points, one process, one image.

The experiment grid re-runs the same workloads under many policies, so
consecutive grid points repeat all per-run setup — workload build,
assembly, decoded-image lookup, specialization-cache warmup, memory-image
construction — that is identical across the policy axis.  This module
runs a *batch* of points sharing one program in a single worker process,
interleaving their cores in fixed-size cycle slices:

* setup amortizes: every core shares the same assembled program (from
  the per-process build cache, :mod:`repro.workloads.build_cache`) and
  the same content-addressed :class:`~repro.uarch.decoded.DecodedProgram`
  (and its attached specialized ops) from the process-level caches;
* scheduling stays deterministic: cores are advanced round-robin in
  batch order with a fixed ``slice_cycles`` quantum, and each core's
  simulation is completely independent state-wise, so results are
  bit-identical to running the points one at a time (the never-diverge
  property in ``tests/test_lockstep.py``);
* failures stay attributable: each core carries its run key as
  ``point_label``, which :class:`~repro.errors.SimulationTimeout` copies
  into its ``point`` attribute, so a timeout inside an 8-point batch
  names the guilty grid point.

A batch also runs each family of *fill twins* — observed points whose
programs differ only in their secret fill — as one unit: the first fill
simulates, and when its core proves the run fill-independent the others
are copies of its record (:func:`simulate_batch`, DESIGN.md §15).

Only the grid planner (``ParallelRunner.prefetch``) batches; the
service runs every flight as one supervised point.  ``REPRO_NO_LOCKSTEP=1``
turns the interleaving off: every point is its own worker task, except
that a twin family stays one task whose members run one after another.
"""

from __future__ import annotations

import copy
import os
from typing import TYPE_CHECKING

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..uarch.core import OooCore, SimResult

#: Cycle quantum per core per round-robin turn.  Large enough that the
#: per-slice Python overhead (one ``advance`` call) is noise, small
#: enough that a hung member is detected within the batch timeout.
DEFAULT_SLICE = 4096

#: Upper bound on points per batch: keeps worst-case batch wall time (and
#: the blast radius of one member's failure, which fails the whole batch)
#: bounded, while capturing nearly all of the setup amortization.
LOCKSTEP_MAX = 8


def lockstep_enabled() -> bool:
    """Process-level default for lockstep batching."""
    return os.environ.get("REPRO_NO_LOCKSTEP") != "1"


def run_lockstep(
    entries: "list[tuple[str, OooCore, int]]",
    slice_cycles: int = DEFAULT_SLICE,
) -> "dict[str, SimResult]":
    """Advance ``(label, core, limit)`` entries round-robin to completion.

    Each core is advanced in ``slice_cycles`` quanta until it halts (its
    result is collected) or raises.  Exceptions propagate immediately and
    fail the batch; the cores are independent, so the members completed
    before the failure are *not* wasted in the retry path only because
    the supervisor re-runs the batch as singles (see the harness).
    """
    results: "dict[str, SimResult]" = {}
    active = list(entries)
    while active:
        still: list = []
        for label, core, limit in active:
            stop = core.cycle + slice_cycles
            if stop > limit:
                stop = limit
            if core.advance(limit, stop):
                results[label] = core._result()
            else:
                still.append((label, core, limit))
        active = still
    return results


def twin_key(workload, point, config) -> tuple | None:
    """The key under which observed grid points are *fill twins*.

    Twins run programs that differ only in their secret fill: one build
    key (:func:`~repro.workloads.build_cache.build_key`, the source with
    its fill blanked, or the source itself without a fill slot), one
    self-check, mitigation, policy, config and compiler-info switch.  A
    plain (unobserved) point has no twins: None.
    """
    if not getattr(point, "observe", False):
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


def _run_cores(cores: "dict[str, OooCore]", interleave: bool
               ) -> "dict[str, SimResult]":
    entries = [(key, core, core.config.max_cycles)
               for key, core in cores.items()]
    if interleave:
        return run_lockstep(entries)
    return {key: core.run(limit) for key, core, limit in entries}


def simulate_batch(args: tuple) -> BatchRecords:
    """Top-level pool-worker entrypoint for a batch of grid points.

    ``args`` is ``(scale, points, default_config, keys[, interleave])`` —
    the batched twin of :func:`repro.harness.resilience.simulate_point`,
    returning a record for every member.  ``interleave`` (default True)
    runs the members' cores in lockstep; False runs them one after the
    other.  Behaviour per member is identical to the single-point path:
    the worker-site fault hook fires per key, and every result is
    self-checked before it is returned.  Any member failure raises and
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
    from ..workloads import build_workload
    from .runner import RunRecord

    scale, points, default_config, keys, *rest = args
    interleave = rest[0] if rest else True
    default_config = default_config or CoreConfig()
    for key in keys:
        maybe_fault("worker", key)

    workloads: dict[str, object] = {}
    members = {}
    families: dict[tuple, list[str]] = {}  # twin key -> keys, first fill first
    leads = []
    for key, point in zip(keys, points):
        workload = workloads.get(point.workload)
        if workload is None:
            workload = build_workload(point.workload, scale)
            workloads[point.workload] = workload
        cfg = point.config or default_config
        members[key] = (point, workload, cfg)
        tkey = twin_key(workload, point, cfg)
        family = families.get(tkey) if tkey is not None else None
        if family is None:
            leads.append(key)
            if tkey is not None:
                families[tkey] = [key]
        else:
            family.append(key)

    def make_core(key: str) -> OooCore:
        point, workload, cfg = members[key]
        core = OooCore(
            workload.assemble(),
            config=cfg,
            policy=make_policy(point.policy),
            use_compiler_info=point.use_compiler_info,
            record_observations=getattr(point, "observe", False),
        )
        core.point_label = key
        return core

    def check(key: str, result_regs: tuple) -> None:
        point, workload, _ = members[key]
        if not workload.validate(result_regs):
            raise SimulationError(
                f"{point.workload} under {point.policy}: self-check failed "
                f"(a0={result_regs[10]:#x}, want {workload.check_value:#x})"
            )

    records: dict[str, RunRecord] = {}
    regs: dict[str, tuple] = {}

    def simulate(batch: list[str]) -> dict[str, OooCore]:
        """Run ``batch``'s cores and record them; returns the cores."""
        cores = {key: make_core(key) for key in batch}
        for key, result in _run_cores(cores, interleave).items():
            check(key, result.regs)
            point, workload, _ = members[key]
            regs[key] = result.regs
            records[key] = RunRecord.from_result(
                point.workload, point.policy, result,
                mitigation=getattr(workload, "mitigation", None),
            ).slim()
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


def simulate_work(args: tuple):
    """Dispatch a supervised work item to the right worker entrypoint.

    Batch items carry four or five fields (``keys``, then
    ``interleave``); single points carry the classic three.  Keeping one
    picklable entrypoint lets the supervisor (and its retry/rebuild
    machinery) stay shape-agnostic.
    """
    if len(args) >= 4:
        return simulate_batch(args)
    from .resilience import simulate_point

    return simulate_point(args)
